import timefuel


def test_public_names_resolve():
    # a stale export of a deleted name fails here, not at a user's import
    assert len(set(timefuel.__all__)) == len(timefuel.__all__)
    for name in timefuel.__all__:
        assert getattr(timefuel, name) is not None, name


def test_private_scipy_names_resolve():
    # the package calls scipy's SLSQP routine and HiGHS directly, through
    # names scipy does not publish; pyproject's scipy>=1.16 floor is the
    # oldest scipy that has them all
    try:
        from scipy.optimize._highspy._core import (
            HighsLp,
            HighsModelStatus,
            MatrixFormat,
            _Highs,
        )
        from scipy.optimize._slsqplib import slsqp

        names = (slsqp, _Highs, HighsLp, MatrixFormat.kRowwise, HighsModelStatus.kOptimal)
    except (ImportError, AttributeError) as exc:
        raise AssertionError(
            f"scipy moved a private name the package uses ({exc}); "
            "the floor scipy>=1.16 in pyproject.toml no longer holds"
        ) from exc
    assert all(name is not None for name in names)
