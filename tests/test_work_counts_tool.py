import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "work_counts.py"
COUNTS = {
    "lm_passes",
    "lm_row_passes",
    "kernel_calls",
    "kernel_rows",
    "slsqp_calls",
    "slsqp_steps",
    "polish_calls",
    "lp_solves",
    "highs_runs",
}


def test_ref2_counts_are_byte_identical(tmp_path):
    # the counts do not depend on timing: two runs write the same bytes
    outputs = []
    for run in range(2):
        out = tmp_path / f"counts-{run}.json"
        subprocess.run(
            [sys.executable, str(TOOL), "--workload", "ref2", "--out", str(out)], check=True
        )
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    record = json.loads(outputs[0])
    assert list(record) == ["workloads"] and list(record["workloads"]) == ["ref2"]
    problems = record["workloads"]["ref2"]
    assert len(problems) == 6
    for counts in problems.values():
        assert set(counts) == COUNTS and all(isinstance(v, int) for v in counts.values())
        # every restoration pass solves at least one row
        assert 0 < counts["lm_passes"] <= counts["lm_row_passes"]
        assert counts["kernel_calls"] > counts["lm_passes"]
        # the reference system is stable: transfer LPs, whose word seeds
        # the solve, and no gauge LP; the Farkas screen refuses the
        # infeasible doubling probes before HiGHS runs
        assert 0 < counts["highs_runs"] < counts["lp_solves"]


def test_compare_shows_totals_and_moves(tmp_path, capsys):
    old = {"workloads": {"w": {"a": dict.fromkeys(COUNTS, 2), "b": dict.fromkeys(COUNTS, 1)}}}
    new = json.loads(json.dumps(old))
    new["workloads"]["w"]["a"]["lm_passes"] = 1
    new["workloads"]["w"]["c"] = dict.fromkeys(COUNTS, 0)
    paths = []
    for name, record in (("old", old), ("new", new)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(record))
    sys.path.insert(0, str(TOOL.parent))
    try:
        import work_counts
    finally:
        sys.path.remove(str(TOOL.parent))
    assert work_counts.main(["--compare", *map(str, paths)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("w (3 solves): lm_passes 3 -> 2 (0.67x), lm_row_passes 3 -> 3")
    assert lines[1:3] == ["  a: lm_passes 2 -> 1 (0.50x)", "  b: unchanged"]
    assert lines[3].startswith("  c: absent -> {")
