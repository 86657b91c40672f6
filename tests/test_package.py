import alhflow


def test_public_names_resolve_once():
    assert len(set(alhflow.__all__)) == len(alhflow.__all__)
    for name in alhflow.__all__:
        assert getattr(alhflow, name) is not None
