"""Print the LP oracle's answer for every problem of the comparison set.

One line per problem of `tools/reports.py`'s set, tab-separated: its name,
then `infeasible` when `lp_oracle(spec, solver.horizon(spec))` returns
None, followed by what `simulate.null_certificate` makes of it: the reprs
of mu.x0 and h(mu) when it proves x0 unreachable, or else `uncertified`
and the reprs of its lower and upper gauge bounds.  Otherwise the line
has `feasible`, the LP word (the cell inputs rounded and condensed by
`solver._lp_word`) as its levels, the repr of the cost and of the
horizon, and the CRC-32 of the cell inputs' bytes.  Every line ends with
the number of LPs the search solved, the calls of `simulate._lp_transfer`,
and the HiGHS runs among them, the calls of `simulate._dense_lp`: an LP
that `_lp_transfer`'s Farkas screen proves infeasible runs none.
The LP and the certificate do not depend on timing, so two runs print the
same bytes:

    python3 tools/lp_check.py [--src OTHER/src] > lp.txt

where `--src` checks the package of another tree's `src` directory on this
tree's problem set.  Two such files compare by

    python3 tools/lp_check.py --compare OLD NEW

which prints, per problem, the verdict, word and horizon, old -> new where
they moved, the cost's relative change, the LP counts and the HiGHS
runs, then a count line with the LP and HiGHS-run totals; a problem that
only one file has is `added` or `removed`.  It exits 1 when a verdict
flips, a word moves or a cost rises by more than `COST_REL_TOL` on a
problem both files have, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
import zlib
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent

#: Relative cost rise past which `--compare` fails.
COST_REL_TOL = 1e-4


def lp_line(name, spec) -> str:
    # imported at call time, from the package that `main` chose
    from timefuel import simulate
    from timefuel.solver import _lp_word, horizon

    with (
        mock.patch.object(simulate, "_lp_transfer", wraps=simulate._lp_transfer) as transfer,
        mock.patch.object(simulate, "_dense_lp", wraps=simulate._dense_lp) as highs,
    ):
        lp = simulate.lp_oracle(spec, horizon(spec))
    counts = f"{transfer.call_count}\t{highs.call_count}"
    if lp is None:
        proof = simulate.null_certificate(spec)
        if proof.proven:
            return f"{name}\tinfeasible\t{proof.mu_x0!r}\t{proof.h!r}\t{counts}"
        return f"{name}\tinfeasible\tuncertified\t{proof.lower!r}\t{proof.upper!r}\t{counts}"
    cost, t_f, inputs = lp
    word = ",".join(map(str, _lp_word(inputs, t_f).levels))
    crc = zlib.crc32(inputs.tobytes())
    return f"{name}\tfeasible\t{word}\t{cost!r}\t{t_f!r}\t{crc:08x}\t{counts}"


def _read(path) -> dict:
    """Problem name -> the fields of its line after the name."""
    lines = Path(path).read_text().splitlines()
    return {fields[0]: fields[1:] for fields in (line.split("\t") for line in lines)}


def _change(old: str, new: str) -> str:
    return old if old == new else f"{old} -> {new}"


def compare_line(name: str, old: list, new: list) -> tuple[str, bool]:
    """The verdict, word and horizon, the cost's relative change, the LP
    count and the HiGHS runs of one problem; and whether the verdict, word
    or cost moved past what a comparison allows."""
    feasible = old[0] == new[0] == "feasible"
    word, horizon = zip(*((f[1], f[3]) if f[0] == "feasible" else ("-", "-") for f in (old, new)))
    rise = (float(new[2]) - float(old[2])) / abs(float(old[2])) if feasible else 0.0
    line = (
        f"{name}\t{_change(old[0], new[0])}\tword {_change(word[0], word[1])}"
        f"\thorizon {_change(horizon[0], horizon[1])}"
        f"\tcost {f'{rise:+.1e}' if feasible else '-'}\tLPs {_change(old[-2], new[-2])}"
        f"\tHiGHS runs {_change(old[-1], new[-1])}"
    )
    return line, old[0] != new[0] or word[0] != word[1] or rise > COST_REL_TOL


def compare(old_path, new_path) -> tuple[list[str], bool]:
    """One `compare_line` per problem, or `added`/`removed` for a problem in
    one file only, then a count line; and whether any problem both files
    have moved past what a comparison allows."""
    old, new = _read(old_path), _read(new_path)
    lines, moved = [], []
    for name in list(old) + [name for name in new if name not in old]:
        if name in old and name in new:
            line, failed = compare_line(name, old[name], new[name])
            lines.append(line)
            moved += [name] if failed else []
        else:
            lines.append(f"{name}\t{'added' if name in new else 'removed'}")
    lps, runs = (
        [sum(int(fields[column]) for fields in side.values()) for side in (old, new)]
        for column in (-2, -1)
    )
    lines.append(
        f"{len(moved)} of {len(lines)} problems moved; LPs {lps[0]} -> {lps[1]}; "
        f"HiGHS runs {runs[0]} -> {runs[1]}"
    )
    return lines, bool(moved)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        lines, moved = compare(*args.compare)
        print("\n".join(lines))
        return 1 if moved else 0
    # the package is imported first, so that the set's own imports reuse it
    sys.path.insert(0, str(args.src.resolve()))
    import timefuel  # noqa: F401

    spec = importlib.util.spec_from_file_location("reports_tool", ROOT / "tools" / "reports.py")
    reports = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reports)
    for name, problem in reports.problems():
        print(lp_line(name, problem), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
