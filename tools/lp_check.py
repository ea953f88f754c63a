"""Print the LP oracle's answer for every problem of the comparison set.

One line per problem of `tools/reports.py`'s set, tab-separated: its name,
then `infeasible` when `lp_oracle(spec, solver.horizon(spec))` returns
None, followed by what `simulate.null_certificate` makes of it: the reprs
of mu.x0 and h(mu) when it proves x0 unreachable, or else `uncertified`
and the reprs of its lower and upper gauge bounds.  Otherwise the line
has `feasible`, the LP word (the cell inputs rounded and condensed by
`solver._lp_word`) as its levels, the repr of the cost and of the
horizon, and the CRC-32 of the cell inputs' bytes.  The LP and the
certificate do not depend on timing, so two runs print the same bytes,
and two trees compare by `diff`:

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
    from timefuel import simulate
    from timefuel.solver import _lp_word, horizon

    lp = simulate.lp_oracle(spec, horizon(spec))
    if lp is None:
        proof = simulate.null_certificate(spec)
        if proof.proven:
            return f"{name}\tinfeasible\t{proof.mu_x0!r}\t{proof.h!r}"
        return f"{name}\tinfeasible\tuncertified\t{proof.lower!r}\t{proof.upper!r}"
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
