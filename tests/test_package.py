import timefuel


def test_public_names_resolve():
    # a stale export of a deleted name fails here, not at a user's import
    assert len(set(timefuel.__all__)) == len(timefuel.__all__)
    for name in timefuel.__all__:
        assert getattr(timefuel, name) is not None, name
