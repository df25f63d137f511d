"""Tests of the benchmark itself.

Run from the repository root:  python -m pytest -q perfbench/tests
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from math import isqrt
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

SMALL = {
    "gen": {"n": 20, "long": 300, "box_stride": 20, "box": 1, "long_slopes": 1},
    "oracle": {"bound": 14, "table_bound": 8, "tables": 1, "naive_bound": 8},
    "survey": {"random": 2, "count": 10, "sweep": 10, "horizon": 10,
               "rayleigh": 100, "cli_count": 5, "rows": 200},
}


@pytest.fixture
def small(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "SIZES", SMALL)
    monkeypatch.setattr(run, "OUT", tmp_path)


def run_main(workload, trace):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)])
    assert code == 0
    detail, result = (json.loads(line) for line in buf.getvalue().splitlines()[-2:])
    return detail, result


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_listed_metric_is_emitted_with_its_unit(small, workload, trace):
    detail, result = run_main(workload, trace)
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["metrics"].keys() == {m["name"] for m in listed}
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    assert result["attempted"] >= 1
    assert {"python", "git_revision", "seed", "samples"} <= detail.keys()
    if not trace:
        assert detail["samples"]["op_tail_ms"]["samples"] == result["attempted"]


def one_round(workload, seed=3, patch=None):
    bg = run.import_engine()
    ops = workloads.build(workload, bg, seed)
    if patch:
        patch(bg)
    results = run.Results()
    run.run_round(ops, results)
    return ops, results


def test_corrupted_generator_table_fails(small):
    def corrupt(bg):
        original = bg.solver.solve_relaxed

        def solve_relaxed(constraint, count):
            pairs = list(original(constraint, count).pairs)
            pairs[-1] = (pairs[-1][0], pairs[-1][1] + 1)
            return SimpleNamespace(pairs=tuple(pairs))

        bg.solver.solve_relaxed = solve_relaxed

    ops, results = one_round("gen", patch=corrupt)
    relaxed = sum(op.kind == "solve_relaxed" for op in ops)
    assert relaxed and results.failed_kinds["solve_relaxed"] == relaxed


def test_corrupted_oracle_set_fails(small):
    def corrupt(bg):
        original = bg.solver.retrograde_oracle

        def retrograde_oracle(rules, bound):
            pset = original(rules, bound)
            return pset - {min(p for p in pset if p != (0, 0))}

        bg.solver.retrograde_oracle = retrograde_oracle

    ops, results = one_round("oracle", patch=corrupt)
    assert sum(results.failed_kinds.values()) == len(ops)


def test_corrupted_delta2_fails(small):
    def corrupt(bg):
        original = bg.quadfield.delta2
        bg.quadfield.delta2 = lambda alpha, n: original(alpha, n) + (n == 5)

    ops, results = one_round("survey", patch=corrupt)
    assert results.failed_kinds["slope"] == len(ops)


def test_generator_defect_is_probed_identically_for_a_seed():
    """Random tables reproduce the generator defect: every table operation is
    probed, the oracle passes its own check, and the mismatches repeat."""
    found = []
    for _ in range(2):
        bg = run.import_engine()
        ops = [op for op in workloads.build("oracle", bg, 1) if "table" in op.kind]
        results = run.Results()
        run.run_round(ops, results)
        assert not results.failed_kinds
        assert results.probed == len(ops)
        found.append(results.mismatches)
    assert found[0] == found[1]
    assert found[0]


def test_corrupted_generator_on_fixed_ruleset_fails(small):
    def corrupt(bg):
        original = bg.solver.solve_doublemex

        def solve_doublemex(constraint, count):
            pairs = list(original(constraint, count).pairs)
            pairs[1] = (pairs[1][0], pairs[1][1] + 1)
            return SimpleNamespace(pairs=tuple(pairs))

        bg.solver.solve_doublemex = solve_doublemex

    ops, results = one_round("oracle", patch=corrupt)
    fixed = [op for op in ops if op.kind.startswith("modified/") and op.defect is None]
    assert fixed and sum(results.failed_kinds[kind] for kind in {op.kind for op in fixed}) == len(fixed)


def test_spawned_cli_output_is_byte_identical(small):
    bg = run.import_engine()
    ops = workloads.build("survey", bg, 3)
    times, errors = run.spawn_cli(ops, bg)
    assert errors == []
    assert len(times) == run.CLI_SPAWNS * 3


def test_bare_directory_exits_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "gen", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_beatty_rows_match_exact_rational_bounds():
    """floor(n*alpha) = m iff m <= n*alpha < m + 1, decided with rationals bracketing sqrt(d)."""
    for p, q, r, d in (workloads.A55, workloads.A19, workloads.PHI, (25, -4, 11, 11), (9, 1, 12, 28)):
        rows = ref.beatty_rows(p, q, r, d, 300)
        scale = 10 ** 30
        lo = Fraction(isqrt(d * scale * scale), scale)
        hi = lo + Fraction(1, scale)
        alpha = sorted([(p + q * lo) / r, (p + q * hi) / r])
        beta = [a / (a - 1) for a in alpha]
        for n, (a, b) in enumerate(rows):
            assert a <= n * alpha[0] and n * alpha[1] < a + 1
            assert b <= n * min(beta) and n * max(beta) < b + 1


def test_naive_search_finds_wythoff_pairs():
    bg = run.import_engine()
    rules = bg.games.RuleSet(bg.games.Family.MODIFIED, bg.games.Constant(1))
    pset = ref.naive_p_positions(bg.games, rules, 12)
    assert sorted(pset) == ref.beatty_rows(*workloads.PHI, 5) == [(0, 0), (1, 2), (3, 5), (4, 7), (6, 10)]


def test_parity_closed_form_matches_criterion_5():
    pairs = ref.parity_table(8)
    assert pairs[:4] == [(0, 0), (1, 1), (2, 3), (4, 7)]
    for n in range(2, 8):
        (a, b), (a0, b0) = pairs[n], pairs[n - 1]
        assert b == (a + b0 if b0 % 2 else a + b0 - a0)
