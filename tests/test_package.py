import satpeb


def test_exports_resolve():
    missing = [name for name in satpeb.__all__ if not hasattr(satpeb, name)]
    assert not missing
