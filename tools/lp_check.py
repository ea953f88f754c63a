"""Print the LP oracle's answer for every problem of the comparison set.

One line per problem of `tools/reports.py`'s set, tab-separated: its name,
then `infeasible` when `lp_oracle(spec, solver.horizon(spec))` returns
None, and otherwise `feasible`, the LP word (the cell inputs rounded and
condensed by `solver._lp_word`) as its levels, the repr of the cost and of
the horizon, and the CRC-32 of the cell inputs' bytes.  The LP does not
depend on timing, so two runs print the same bytes, and two trees compare
by `diff`:

    python3 tools/lp_check.py [--src OTHER/src] > lp.txt

where `--src` checks the package of another tree's `src` directory on this
tree's problem set.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
import zlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def lp_line(name, spec) -> str:
    # imported at call time, from the package that `main` chose
    from timefuel.simulate import lp_oracle
    from timefuel.solver import _lp_word, horizon

    lp = lp_oracle(spec, horizon(spec))
    if lp is None:
        return f"{name}\tinfeasible"
    cost, t_f, inputs = lp
    word = ",".join(map(str, _lp_word(inputs, t_f).levels))
    crc = zlib.crc32(inputs.tobytes())
    return f"{name}\tfeasible\t{word}\t{cost!r}\t{t_f!r}\t{crc:08x}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    args = parser.parse_args(argv)
    # the package is imported first, so that the set's own imports reuse it
    sys.path.insert(0, str(args.src.resolve()))
    import timefuel  # noqa: F401

    spec = importlib.util.spec_from_file_location("reports_tool", ROOT / "tools" / "reports.py")
    reports = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reports)
    for name, problem, _options in reports.problems():
        print(lp_line(name, problem), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
