import circlecorr


def test_all_exports_resolve():
    missing = [name for name in circlecorr.__all__ if not hasattr(circlecorr, name)]
    assert missing == []
    assert len(set(circlecorr.__all__)) == len(circlecorr.__all__)
