import occ132


def test_every_export_resolves():
    # a name deleted from its module must not linger in the export list
    missing = [name for name in occ132.__all__ if not hasattr(occ132, name)]
    assert missing == []
