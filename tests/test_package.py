import ast
from pathlib import Path

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
        from scipy.optimize._highspy._core import HighsModelStatus, _Highs
        from scipy.optimize._slsqplib import slsqp

        names = (slsqp, _Highs, HighsModelStatus.kOptimal)
        # the `_Highs` methods `simulate._lp_transfer` and
        # `simulate.null_certificate` call
        methods = [
            getattr(_Highs, method)
            for method in (
                "setOptionValue",
                "clearModel",
                "addCols",
                "addRows",
                "run",
                "getModelStatus",
                "getInfo",
                "getSolution",
            )
        ]
    except (ImportError, AttributeError) as exc:
        raise AssertionError(
            f"scipy moved a private name the package uses ({exc}); "
            "the floor scipy>=1.16 in pyproject.toml no longer holds"
        ) from exc
    assert all(name is not None for name in (*names, *methods))


def test_private_scipy_names_are_those_checked():
    # the names test_private_scipy_names_resolve imports are all the
    # package imports from scipy's private modules
    private = set()
    for path in Path(timefuel.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy"):
                if any(part.startswith("_") for part in node.module.split(".")):
                    private |= {alias.name for alias in node.names}
    assert private == {"slsqp", "_Highs", "HighsModelStatus"}
