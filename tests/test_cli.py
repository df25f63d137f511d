import argparse
import contextlib
import io
import json
import math
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, seed, settings, strategies as st

from beatty_games import cli
from beatty_games.classifier import MAX_FAMILY_BOUND
from beatty_games.cli import (
    EXIT_DIVERGENCE,
    EXIT_HYPOTHESIS,
    EXIT_OK,
    EXIT_PARSE,
    choose_engine_move,
    main,
    play_session,
)
from beatty_games.games import (
    BeattyDelta,
    Constant,
    ConstraintSpec,
    ExplicitTable,
    Family,
    ParityHalf,
    Position,
    RuleSet,
    canonical,
    is_legal_move,
    legal_moves,
    ruleset_from_json,
    ruleset_to_json,
)
from beatty_games.quadfield import QuadraticNumber
from beatty_games.solver import (
    MAX_ORACLE_BOUND,
    MAX_ROW_RULE_COUNT,
    ptable_from_csv,
    ptable_from_json,
    recurrence_closed,
    retrograde_oracle,
)

A55_TEXT = "(5+1*sqrt(5))/5"
PHI_TEXT = "(1+1*sqrt(5))/2"
A19_TEXT = "(-3+1*sqrt(19))/1"
GOLDEN = Path(__file__).parent / "golden"


def run(argv):
    buf = io.StringIO()
    code = main(argv, out=buf)
    return code, buf.getvalue()


class TestVerify:
    def test_divergent_slope_exits_one(self):
        code, out = run(
            ["verify", "--family", "modified", "--beatty", A55_TEXT,
             "--count", "10", "--bound", "30"]
        )
        assert code == EXIT_DIVERGENCE
        assert "divergence at n=3" in out
        assert "(4, 9)" in out and "(4, 5)" in out

    def test_agreeing_slope_exits_zero(self):
        code, out = run(
            ["verify", "--family", "modified", "--beatty", "(-3+1*sqrt(19))/1",
             "--count", "20", "--bound", "80"]
        )
        assert code == EXIT_OK and "match" in out

    def test_relaxed_always_agrees(self):
        code, _ = run(
            ["verify", "--family", "relaxed", "--beatty", A55_TEXT,
             "--count", "15", "--bound", "60"]
        )
        assert code == EXIT_OK

    def test_divergence_named_by_the_recurrence_index_when_b_falls(self, tmp_path):
        # f = -6 at x0 = 2 takes b from 10 down to 5: the recurrence is
        # (0, 0), (1, 10), (2, 5), (3, 9), (4, 13), and at bound 8 only n = 0
        # and n = 2 are on the board.  The oracle's second pair is (2, 2).
        path = tmp_path / "falling.json"
        entries = [[0, 0, 1, 9], [1, 10, 2, -6], [2, 5, 3, 3], [3, 9, 4, 3]]
        path.write_text(json.dumps({"family": "modified",
                                    "constraint": {"kind": "table", "entries": entries}}))
        code, out = run(["verify", "--rules", str(path), "--count", "5", "--bound", "8"])
        assert code == EXIT_DIVERGENCE
        assert out == "divergence at n=2: recurrence (2, 5) vs oracle (2, 2)\n"

    def test_pair_the_oracle_refutes_on_the_board_is_a_divergence(self, tmp_path):
        # The recurrence is (0, 0), (1, 1), (2, 2), (3, 4).  (2, 2) is not a
        # P-position: taking 2 from each pile reaches (0, 0), as |2 - 2| <
        # f(0, 0, 2) = 2.  Row 2 has no P-position with y <= 3.
        entries = [[0, 0, 1, 0], [0, 0, 2, 2], [1, 1, 2, 0], [1, 1, 3, 3], [2, 2, 3, 1]]
        path = _rules_file(tmp_path, "modified", entries)
        code, out = run(["verify", "--rules", str(path), "--count", "4", "--bound", "3"])
        assert (code, out) == (EXIT_DIVERGENCE,
            "divergence at n=2: recurrence (2, 2) vs oracle: no P-position in row 2 with y <= 3\n")

    def test_off_board_pair_in_a_row_the_oracle_fills_is_a_divergence(self, tmp_path):
        # The recurrence is (0, 0), (1, 3), (2, 9); (2, 9) lies off the board,
        # but row 2 holds the P-position (2, 2), with f undefined at every
        # diagonal move from it.
        path = _rules_file(tmp_path, "modified", [[0, 0, 1, 2], [1, 3, 2, 5]])
        code, out = run(["verify", "--rules", str(path), "--count", "3", "--bound", "5"])
        assert (code, out) == (EXIT_DIVERGENCE, "divergence at n=2: recurrence (2, 9) vs oracle (2, 2)\n")

    def test_verdict_matches_a_reference_on_random_tables(self, tmp_path):
        # The reference reads the P-set of a larger board as a set, and counts
        # only the pairs the small board decides: b_n <= bound, or row a_n's
        # P-position has y <= bound.
        rng = random.Random(3)
        checked = 0
        for i in range(400):
            rules, count, bound = _random_table_rules(rng)
            try:
                pairs = recurrence_closed(rules.constraint, count).pairs
            except ValueError:
                continue  # the closed recurrence refuses the table (b_n < a_n)
            big = retrograde_oracle(rules, min(4 * bound, MAX_ORACLE_BOUND))
            rows_on_board = {x for x, y in big if y <= bound}
            expect = next((n for n, (a, b) in enumerate(pairs)
                           if a <= bound and (b <= bound or a in rows_on_board) and (a, b) not in big), None)
            path = tmp_path / f"rules{i}.json"
            path.write_text(ruleset_to_json(rules))
            code, out = run(["verify", "--rules", str(path), "--count", str(count), "--bound", str(bound)])
            if expect is None:
                assert code == EXIT_OK and out.startswith("match"), (rules, count, bound, out)
            else:
                assert code == EXIT_DIVERGENCE, (rules, count, bound, out)
                assert out.startswith(f"divergence at n={expect}: recurrence {pairs[expect]} vs oracle"), out
            checked += 1
        assert checked >= 300


def _rules_file(tmp_path, family, entries):
    path = tmp_path / "rules.json"
    path.write_text(json.dumps({"family": family, "constraint": {"kind": "table", "entries": entries}}))
    return path


def _random_table_rules(rng):
    """A random ExplicitTable ruleset, a count and a bound in [2, 16].  The
    table holds random entries plus a drawn f at every key the closed
    recurrence reads, so the recurrence runs unless b_n falls below a_n."""
    bound = rng.randint(2, 16)
    values = {}
    for _ in range(rng.randrange(4 * bound)):
        x0 = rng.randint(1, bound)
        values[rng.randint(0, x0), rng.randint(0, 2 * bound), x0] = rng.randint(-1, 4)

    class Drawing(ConstraintSpec):
        def value(self, x1, y1, x0):
            return values.setdefault((x1, y1, x0), rng.randint(-1, 4))

    count = rng.randint(1, bound + 2)
    with contextlib.suppress(ValueError):
        recurrence_closed(Drawing(), count)
    return RuleSet(rng.choice(list(Family)), ExplicitTable(values)), count, bound


class TestClassify:
    def test_phi(self):
        code, out = run(["classify", "--alpha", PHI_TEXT])
        assert code == EXIT_OK
        assert "Family I, t=1" in out

    def test_json_output(self):
        code, out = run(["classify", "--alpha", "(-3+1*sqrt(19))/1", "--json"])
        data = json.loads(out)
        assert (data["family"], data["p"], data["q"], data["beta_floor"]) == ("II", 3, 1, 3)

    def test_rational_alpha_rejected(self):
        code, _ = run(["classify", "--alpha", "(3+0*sqrt(5))/2"])
        assert code == EXIT_PARSE

    def test_unparseable_alpha_rejected(self):
        code, _ = run(["classify", "--alpha", "1.618"])
        assert code == EXIT_PARSE

    def test_negative_value_rejected(self):
        code, _ = run(["classify", "--alpha", "(2-1*sqrt(5))/2"])
        assert code == EXIT_PARSE

    def test_oversized_radicand_rejected_quickly(self):
        start = time.perf_counter()
        code, _ = run(["classify", "--alpha", "(3+1*sqrt(12345678901234567891))/100000000000"])
        assert code == EXIT_PARSE
        assert time.perf_counter() - start < 1.0


class TestGen:
    def test_relaxed_beatty_rows(self):
        code, out = run(
            ["gen", "--family", "relaxed", "--beatty", A55_TEXT, "--count", "10"]
        )
        assert code == EXIT_OK
        table = ptable_from_csv(out)
        assert table.pairs == (
            (0, 0), (1, 3), (2, 6), (4, 9), (5, 12),
            (7, 16), (8, 19), (10, 22), (11, 25), (13, 29),
        )

    def test_modified_doublemex_rows(self):
        code, out = run(
            ["gen", "--family", "modified", "--beatty", A55_TEXT, "--count", "10"]
        )
        assert ptable_from_csv(out).pairs[6] == (9, 19)

    def test_fraenkel_closed_form_at_a_huge_constant(self):
        # Modified Constant(t) is Fraenkel's game: b_n - a_n = t*n, a_n the mex.
        # The row engine's time grows as count^2 here, as every pair stays
        # younger than t; the step words' time does not depend on t.
        t, count = 10**9, 10**5
        code, out = run(["gen", "--constant", str(t), "--count", str(count)])
        assert code == EXIT_OK
        pairs = ptable_from_csv(out).pairs
        assert len(pairs) == count
        used, mex = set(), 0
        for n, (a, b) in enumerate(pairs):
            while mex in used:
                mex += 1
            assert (a, b - a) == (mex, t * n), n
            used.update((a, b))

    def test_json_file_round_trip(self, tmp_path):
        path = tmp_path / "table.json"
        code, _ = run(
            ["gen", "--family", "modified", "--constant", "2", "--count", "8",
             "--output", str(path)]
        )
        assert code == EXIT_OK
        table = ptable_from_json(path.read_text())
        assert table.pairs[:3] == ((0, 0), (1, 3), (2, 6))

    def test_hypothesis_violation_exit_code(self, capsys):
        assert run(["gen", "--family", "relaxed", "--parity-half", "--count", "5"]) == (EXIT_HYPOTHESIS, "")
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("hypothesis violation: ") and err.count("\n") == 1, err

    def test_missing_constraint(self):
        code, _ = run(["gen", "--family", "modified", "--count", "5"])
        assert code == EXIT_PARSE


class TestOracle:
    def test_csv_positions(self):
        code, out = run(
            ["oracle", "--family", "modified", "--constant", "1", "--bound", "10"]
        )
        body = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert body[0] == "x,y"
        assert body[1:] == ["0,0", "1,2", "3,5", "4,7", "6,10"]

    def test_json_file(self, tmp_path):
        path = tmp_path / "pset.json"
        run(["oracle", "--family", "modified", "--parity-half", "--bound", "12",
             "--output", str(path)])
        data = json.loads(path.read_text())
        assert [1, 1] in data["positions"] and data["bound"] == 12


class TestInverse:
    def test_incompatible_slope(self):
        code, out = run(["inverse", "--alpha", A55_TEXT, "--count", "10"])
        assert code == EXIT_OK
        assert '"family": "relaxed"' in out
        assert "9,13,29,13,29" in out  # table row equals the Beatty row

    def test_compatible_slope(self):
        code, out = run(["inverse", "--alpha", "(-3+1*sqrt(19))/1", "--count", "5"])
        assert '"family": "modified"' in out
        assert "4,5,15,5,15" in out


class TestFamilies:
    def test_csv_contains_known_members(self, tmp_path):
        path = tmp_path / "families.csv"
        code, _ = run(["families", "--p-max", "3", "--q-max", "2", "--t-max", "2",
                       "--output", str(path)])
        assert code == EXIT_OK
        text = path.read_text()
        assert "I,1," in text  # phi
        assert any(line.startswith("II,3,1,3,-3,1,1,19") for line in text.splitlines())


GOLDEN_CASES = {
    "gen_beatty_a55.csv": ["gen", "--beatty", A55_TEXT, "--count", "10"],
    "gen_beatty_a55_closed.csv": ["gen", "--beatty", A55_TEXT, "--count", "10", "--closed"],
    # Pairs other than (0, 0) that are younger than f decide this table from
    # row 2 on: without their intervals row 2 would be (2, 4), not (2, 6).
    "gen_beatty_a55_300.csv": ["gen", "--beatty", A55_TEXT, "--count", "300"],
    # The modified game on a compatible slope (Family II) and on Fraenkel's
    # constant: the rows are the Beatty rows, and (a_n, a_n + 2n).
    "gen_beatty_a19_300.csv": ["gen", "--beatty", A19_TEXT, "--count", "300"],
    "gen_constant2_300.csv": ["gen", "--constant", "2", "--count", "300"],
    "gen_parity_half_50.csv": ["gen", "--family", "modified", "--parity-half", "--count", "50"],
    # ParityHalf at the row-rule cap, MAX_ROW_RULE_COUNT = 2048, frozen from the rows.
    "gen_parity_half_2048.csv": ["gen", "--family", "modified", "--parity-half", "--count", "2048"],
    "inverse_a55.txt": ["inverse", "--alpha", A55_TEXT, "--count", "10"],
    "classify_phi.txt": ["classify", "--alpha", PHI_TEXT],
    "classify_a55.json": ["classify", "--alpha", A55_TEXT, "--json"],
    "families_333.csv": ["families", "--p-max", "3", "--q-max", "3", "--t-max", "3"],
    # The families at the cap, MAX_FAMILY_BOUND = 100: 697 slopes.
    "families_100.csv": ["families", "--p-max", "100", "--q-max", "100", "--t-max", "100"],
    "verify_a55.txt": ["verify", "--family", "modified", "--beatty", A55_TEXT,
                       "--count", "10", "--bound", "30"],
    "oracle_parity_half_50.csv": ["oracle", "--family", "modified", "--parity-half",
                                  "--bound", "50"],
    # TargetBeatty: 200 pairs read past the 64-row first table through two
    # doublings; the oracle reads it at value(0, 0, x), once per row.
    "gen_target_beatty_a55_200.csv": ["gen", "--family", "modified", "--target-beatty",
                                      A55_TEXT, "--count", "200"],
    "oracle_relaxed_target_phi_60.csv": ["oracle", "--family", "relaxed", "--target-beatty",
                                         PHI_TEXT, "--bound", "60"],
    # One oracle per shaped path and family: ORIGIN and GAP_AFFINE on the
    # modified game, ORIGIN on relaxed Wythoff.
    "oracle_beatty_a55_200.csv": ["oracle", "--family", "modified", "--beatty", A55_TEXT,
                                  "--bound", "200"],
    "oracle_target_beatty_a55_200.csv": ["oracle", "--family", "modified", "--target-beatty",
                                         A55_TEXT, "--bound", "200"],
    "oracle_relaxed_constant3_200.csv": ["oracle", "--family", "relaxed", "--constant", "3",
                                         "--bound", "200"],
    # ORIGIN at the oracle's cap, 4,096: the covered runs and the staircase.
    "oracle_constant1_4096.csv": ["oracle", "--family", "modified", "--constant", "1",
                                  "--bound", "4096"],
    "oracle_relaxed_beatty_a55_4096.csv": ["oracle", "--family", "relaxed", "--beatty", A55_TEXT,
                                           "--bound", "4096"],
    # The relaxed recurrences spelled from step words; floor(beta) = 301 at
    # t = 300 takes the wide branch of the running floors.
    "gen_relaxed_constant300_600.csv": ["gen", "--family", "relaxed", "--constant", "300",
                                        "--count", "600"],
    "gen_relaxed_beatty_a55_300.csv": ["gen", "--family", "relaxed", "--beatty", A55_TEXT,
                                       "--count", "300"],
}
# These are written to the --output file, which is read back.
GOLDEN_WRITTEN = {
    "gen_beatty_a55.json": ["gen", "--beatty", A55_TEXT, "--count", "10"],
    "gen_parity_half_50.json": ["gen", "--family", "modified", "--parity-half",
                                "--count", "50"],
    "oracle_parity_half_50.json": ["oracle", "--family", "modified", "--parity-half",
                                   "--bound", "50"],
    # 200 beatty rows from a GAP_AFFINE table, and a relaxed oracle set
    "gen_target_beatty_a55_200.json": ["gen", "--family", "modified", "--target-beatty",
                                       A55_TEXT, "--count", "200"],
    "oracle_relaxed_target_phi_60.json": ["oracle", "--family", "relaxed", "--target-beatty",
                                          PHI_TEXT, "--bound", "60"],
}
# These read their moves from stdin; `input` writes its prompts to stdout.
GOLDEN_PLAYED = {
    "play_constant1_5_8.txt": (["play", "--family", "modified", "--constant", "1",
                                "--start", "5", "8"], "quit\n"),
    # an illegal move that reaches a legal destination: refused as typed
    "play_constant1_4_6_illegal.txt": (["play", "--family", "modified", "--constant", "1",
                                        "--start", "4", "6"],
                                       "take 1 from pile A, 5 from pile B\nquit\n"),
}


def golden_command(name, path):
    """(argv, stdin text, exit code) of the CLI case behind one golden file;
    a GOLDEN_WRITTEN case writes its bytes to `path`."""
    if name in GOLDEN_PLAYED:
        return (*GOLDEN_PLAYED[name], EXIT_OK)
    if name in GOLDEN_WRITTEN:
        return [*GOLDEN_WRITTEN[name], "--output", str(path)], "", EXIT_OK
    return GOLDEN_CASES[name], "", EXIT_DIVERGENCE if name == "verify_a55.txt" else EXIT_OK


def check_golden(name, tmp_path):
    """Run the CLI case behind one golden file in this process and compare the bytes."""
    path = tmp_path / name
    argv, typed, code = golden_command(name, path)
    if name in GOLDEN_PLAYED:  # play writes through print and input, to sys.stdout
        stdin, sys.stdin = sys.stdin, io.StringIO(typed)
        try:
            with contextlib.redirect_stdout(io.StringIO()) as buf:
                got = main(argv), buf.getvalue()
        finally:
            sys.stdin = stdin
    else:
        got = run(argv)
    golden = (GOLDEN / name).read_bytes()
    if name in GOLDEN_WRITTEN:
        assert got == (code, "") and path.read_bytes() == golden, name
    else:
        assert (got[0], got[1].encode()) == (code, golden), name


def test_golden_outputs_are_byte_exact(tmp_path):
    for name in [*GOLDEN_CASES, *GOLDEN_WRITTEN, *GOLDEN_PLAYED]:
        check_golden(name, tmp_path)


# The launcher's other exit codes, one command each: (argv, exit code, stderr prefix).
REFUSED = {
    "row_rule_cap": (["gen", "--family", "modified", "--parity-half", "--count", "2049"],
                     EXIT_PARSE, "error: "),
    "hypothesis_violation": (["gen", "--family", "relaxed", "--parity-half", "--count", "5"],
                             EXIT_HYPOTHESIS, "hypothesis violation: "),
}


@pytest.mark.parametrize("launcher", ["python-m", "beatty-games"])
@pytest.mark.parametrize("name", [*GOLDEN_CASES, *GOLDEN_WRITTEN, *GOLDEN_PLAYED, *REFUSED])
def test_golden_through_a_process(launcher, name, tmp_path):
    """Every golden case, and one refusal per other exit code, as a process:
    through `python -m`, and through the installed console script when it is
    on PATH.  Played moves come through a pipe, so `input` writes its prompts
    to stdout; a GOLDEN_WRITTEN case writes to a file in tmp_path."""
    command = ([sys.executable, "-m", "beatty_games.cli"] if launcher == "python-m"
               else [shutil.which("beatty-games") or pytest.skip("beatty-games is not on PATH")])
    path = tmp_path / name
    if name in REFUSED:
        (argv, code, prefix), typed = REFUSED[name], ""
    else:
        argv, typed, code = golden_command(name, path)
    proc = subprocess.run([*command, *argv], input=typed.encode(), capture_output=True)
    assert proc.returncode == code, proc.stderr
    if name in REFUSED:
        lines = proc.stderr.decode().splitlines(keepends=True)
        assert proc.stdout == b"" and len(lines) == 1 and lines[0].startswith(prefix), proc
        assert lines[0].endswith("\n"), proc.stderr
    elif name in GOLDEN_WRITTEN:
        assert (proc.stdout, proc.stderr) == (b"", b"")
        assert path.read_bytes() == (GOLDEN / name).read_bytes()
    else:
        assert (proc.stdout, proc.stderr) == ((GOLDEN / name).read_bytes(), b"")


def test_repeated_calls_share_no_state(tmp_path):
    # One process, one grammar: every golden case forward, then calls that
    # exit early or set flags and files, then every case in reverse.
    names = [*GOLDEN_CASES, *GOLDEN_WRITTEN, *GOLDEN_PLAYED]
    for name in names:
        check_golden(name, tmp_path)
    for argv, code in [
        (["gen", "--constant", "1", "--beatty", A55_TEXT, "--count", "3"], EXIT_PARSE),
        (["gen", "--count", "many", "--constant", "1"], EXIT_PARSE),
        (["--help"], EXIT_OK),
        (["verify", "--help"], EXIT_OK),
    ]:
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == code, argv
    for name in ["gen_beatty_a55_closed.csv", "gen_beatty_a55.csv",
                 "gen_beatty_a55.json", "gen_beatty_a55.csv"]:
        check_golden(name, tmp_path)
    for name in reversed(names):
        check_golden(name, tmp_path)


def test_grammar_is_built_once_per_process(monkeypatch):
    built = [0]
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    monkeypatch.setattr(cli, "_parser", None)
    argvs = [
        ["classify", "--alpha", PHI_TEXT],
        ["inverse", "--alpha", A55_TEXT, "--count", "5"],
        ["families", "--p-max", "1", "--q-max", "1", "--t-max", "1"],
        ["gen", "--family", "relaxed", "--constant", "2", "--count", "5"],
        ["oracle", "--constant", "1", "--bound", "8"],
        ["verify", "--beatty", A55_TEXT, "--count", "5", "--bound", "12"],
        ["classify", "--alpha", "1.618"],
    ]
    codes = {run(argvs[i % len(argvs)])[0] for i in range(20)}
    assert codes == {EXIT_OK, EXIT_DIVERGENCE, EXIT_PARSE}
    assert built[0] == 8, built[0]  # 1 top-level parser and 7 subparsers, once


class TestRulesFile:
    def test_rules_json_input(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps({
            "schema": "beatty-games/v1",
            "family": "modified",
            "constraint": {"kind": "constant", "t": 1},
        }))
        code, out = run(["oracle", "--rules", str(path), "--bound", "10"])
        assert code == EXIT_OK and "3,5" in out

    @pytest.mark.parametrize("data", [
        {"family": "modified", "constraint": {"kind": "table", "entries": 5}},
        [1, 2],
        {"constraint": {"kind": "table", "entries": 5}},
        {"family": "modified", "constraint": {"kind": ["table"]}},
        {"family": "modified", "constraint": {"kind": "beatty", "alpha": 5}},
        {"family": "modified", "constraint": {"kind": "constant"}},
        {"family": "modified", "constraint": 7},
        {"family": "modified", "constraint": {"kind": "constant", "t": 1.7}},
        {"family": "modified", "constraint": {"kind": "constant", "t": True}},
        {"family": "modified", "constraint": {"kind": "constant", "t": "3"}},
        {"family": "modified", "constraint": {"kind": "table", "entries": [[0, 1.5, 2, 3]]}},
        {"family": "modified", "constraint": {"kind": "table", "entries": [], "strict": "no"}},
    ])
    def test_malformed_rules_exit_two(self, tmp_path, data):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps(data))
        code, _ = run(["gen", "--rules", str(path), "--count", "5"])
        assert code == EXIT_PARSE

    @pytest.mark.parametrize("argv", [
        ["gen", "--count", "3"],
        ["oracle", "--bound", "10"],
        ["verify", "--count", "5", "--bound", "12"],
        ["play", "--start", "4", "6"],
    ])
    def test_deeply_nested_rules_exit_two(self, tmp_path, capsys, argv):
        path = tmp_path / "rules.json"
        path.write_text("[" * 10**5)
        assert run([*argv, "--rules", str(path)]) == (EXIT_PARSE, "")
        assert capsys.readouterr() == ("", "error: malformed ruleset: JSON nested too deeply\n")

    def test_strict_table_without_an_entry_exits_two(self, tmp_path, capsys):
        # str() of a KeyError is the repr of its message; main prints the message
        path = tmp_path / "rules.json"
        path.write_text('{"family": "modified", "constraint": '
                        '{"kind": "table", "entries": [[0,0,1,1]], "strict": true}}')
        assert run(["oracle", "--rules", str(path), "--bound", "3"]) == (EXIT_PARSE, "")
        assert capsys.readouterr() == ("", "error: constraint table has no entry for (0, 0, 3)\n")

    @pytest.mark.parametrize("argv", [
        ["gen", "--count", "3"],
        ["oracle", "--bound", "10"],
        ["verify", "--count", "5", "--bound", "12"],
        ["play", "--start", "4", "6"],
    ])
    @pytest.mark.parametrize("family", ["modified", "relaxed"])
    def test_family_with_rules_exits_two(self, tmp_path, monkeypatch, capsys, argv, family):
        # the file names its family; a given --family is refused, not ignored
        path = tmp_path / "rules.json"
        path.write_text('{"family": "modified", "constraint": {"kind": "constant", "t": 1}}')
        monkeypatch.setattr("sys.stdin", io.StringIO("quit\n"))
        for order in ([*argv, "--family", family, "--rules", str(path)],
                      [*argv, "--rules", str(path), "--family", family]):
            assert run(order) == (EXIT_PARSE, "")
            assert capsys.readouterr() == ("",
                "error: --family does not apply with --rules: the ruleset file names its family\n")


@pytest.mark.parametrize("argv", [
    ["gen", "--constant", "1"],
    ["verify", "--beatty", A55_TEXT, "--bound", "30"],
    ["inverse", "--alpha", A55_TEXT],
])
def test_count_above_the_cap_exits_two(argv, capsys):
    assert run(argv + ["--count", str(10**9)]) == (EXIT_PARSE, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "exceeds the cap" in err


def test_row_rule_count_above_its_cap_exits_two(tmp_path, capsys):
    path = tmp_path / "rules.json"
    path.write_text('{"family": "modified", "constraint": {"kind": "table", "entries": [[0, 0, 1, 1]]}}')
    count = str(MAX_ROW_RULE_COUNT + 1)
    for constraint in (["--parity-half"], ["--rules", str(path)]):
        assert run(["gen", *constraint, "--count", count]) == (EXIT_PARSE, "")
        assert capsys.readouterr().err == (
            f"error: count {count} exceeds the cap {MAX_ROW_RULE_COUNT} for a GENERAL constraint\n")


def test_oracle_bound_above_the_cap_exits_two(capsys):
    assert run(["oracle", "--constant", "1", "--bound", "4097"]) == (EXIT_PARSE, "")
    err = capsys.readouterr().err
    assert err == "error: oracle bound 4097 exceeds the cap 4096\n"


@pytest.mark.parametrize("alpha, message", [
    ("(3+1*sqrt(2))/1", "alpha must lie in (1, 2), got (3+1*sqrt(2))/1"),
    ("(1+1*sqrt(4))/2", "alpha must be irrational"),  # sqrt(4) = 2: alpha = 3/2
])
@pytest.mark.parametrize("argv", [
    ["classify", "--alpha"],
    ["inverse", "--alpha"],
    ["gen", "--count", "5", "--beatty"],
    ["oracle", "--bound", "10", "--target-beatty"],
    ["play", "--alpha"],
])
def test_slope_outside_the_range_exits_two(argv, alpha, message, monkeypatch, capsys):
    # Every slope option builds a BeattyPair, which checks alpha, before any output.
    monkeypatch.setattr("sys.stdin", io.StringIO("quit\n"))
    assert run(argv + [alpha]) == (EXIT_PARSE, "")
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("flag", ["--p-max", "--q-max", "--t-max"])
def test_family_bound_above_the_cap_exits_two(flag, capsys):
    assert run(["families", flag, str(MAX_FAMILY_BOUND + 1)]) == (EXIT_PARSE, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and f"[1, {MAX_FAMILY_BOUND}]" in err


def play(monkeypatch, capsys, argv, lines=()):
    """`main(["play", *argv])` with `lines` on stdin: (exit code, stdout).

    `input` reads the lines from stdin and, stdin not being a terminal,
    writes its prompts to stdout, where main writes the rest.
    """
    monkeypatch.setattr("sys.stdin", io.StringIO("".join(line + "\n" for line in lines)))
    capsys.readouterr()
    code = main(["play", *argv])
    return code, capsys.readouterr().out


class TestPlay:
    def test_scripted_session(self):
        rules = RuleSet(Family.MODIFIED, ParityHalf())
        lines = iter([
            "take 2 from pile A, 8 from pile B",  # (10,29) -> (8,21): allowed
            "nonsense",                            # re-prompt
            "take 0 from pile A",                  # rejected: no tokens
            "take 21 from pile B",                 # (8,21) -> (8,0) = (0,8)
            "take 8 from pile B",                  # engine moved; keep playing
            "quit",
        ])
        transcript = []
        winner = play_session(
            rules, Position(10, 29),
            input_fn=lambda prompt: next(lines),
            print_fn=transcript.append,
        )
        text = "\n".join(transcript)
        assert "could not read that move" in text
        assert "illegal move" in text
        assert winner == "engine"

    def test_reject_shows_constraint_values(self):
        rules = RuleSet(Family.MODIFIED, Constant(1))
        lines = iter(["take 1 from pile A, 3 from pile B", "quit"])
        transcript = []
        play_session(rules, Position(4, 6),
                     input_fn=lambda prompt: next(lines),
                     print_fn=transcript.append)
        text = "\n".join(transcript)
        assert "illegal move" in text and "f(" in text and ">=" in text

    def test_human_win_announced(self):
        rules = RuleSet(Family.MODIFIED, Constant(1))
        lines = iter(["take 1 from pile A, 1 from pile B"])
        transcript = []
        winner = play_session(rules, Position(1, 1),
                              input_fn=lambda prompt: next(lines),
                              print_fn=transcript.append)
        assert winner == "human"
        assert any("you win" in line for line in transcript)

    def test_engine_takes_winning_move(self):
        # from (1,2) any human reply leaves an N-position; engine must win from it
        rules = RuleSet(Family.MODIFIED, Constant(1))
        pset = retrograde_oracle(rules, 10)
        for pos in [Position(1, 5), Position(2, 2), Position(0, 3)]:
            move = choose_engine_move(rules, pos, pset)
            assert move in pset

    def test_engine_stalls_from_p_position(self):
        rules = RuleSet(Family.MODIFIED, Constant(1))
        pset = retrograde_oracle(rules, 10)
        move = choose_engine_move(rules, Position(1, 2), pset)
        assert move == Position(1, 1)  # one token from the larger pile

    def test_start(self, monkeypatch, capsys):
        argv = ["--family", "modified", "--constant", "1", "--start", "5", "8"]
        assert play(monkeypatch, capsys, argv, ["quit"]) == (
            EXIT_OK, (GOLDEN / "play_constant1_5_8.txt").read_text())
        code, out = play(monkeypatch, capsys, argv, ["take 5 from pile B", "quit"])
        assert code == EXIT_OK
        # (3, 5) is a P-position: the engine stalls, one token from the larger pile
        assert "your move> engine moves to (pile A = 3, pile B = 4)\n" in out

    @pytest.mark.parametrize("family", ["modified", "relaxed"])
    def test_move_is_judged_as_typed(self, monkeypatch, capsys, family):
        # |5 - 1| = 4 >= f = 1, though (1, 3) is also reached by taking 3 from each pile
        argv = ["--family", family, "--constant", "1", "--start", "4", "6"]
        code, out = play(monkeypatch, capsys, argv, ["take 1 from pile A, 5 from pile B", "quit"])
        assert code == EXIT_OK
        assert out.splitlines()[3:6] == [
            "your move> illegal move: " + ("|(6-1)-(4-3)| = 4 >= f(3,1,4) = 1" if family == "modified"
                                           else "(6-1)-(4-3) = 4 >= f(3,1,4) = 1"),
            "position: pile A = 4, pile B = 6",
            "your move> engine wins (resignation)"]

    def test_pile_named_twice_is_refused(self):
        for line in ("take 0 from pile A, 2 from pile A", "take 0 from pile b, 3 from pile B"):
            with pytest.raises(ValueError, match="each pile may appear once"):
                cli._parse_move(line)
        assert cli._parse_move("take 0 from pile A, 2 from pile B") == (0, 2)

    def test_engine_win_announced(self, monkeypatch, capsys):
        code, out = play(monkeypatch, capsys, ["--constant", "1", "--start", "1", "2"],
                         ["take 1 from pile A"])
        assert code == EXIT_OK
        assert out.endswith("your move> engine moves to (pile A = 0, pile B = 0)\nengine wins\n")

    def test_alpha_picks_the_inverse_rules(self, monkeypatch, capsys):
        code, out = play(monkeypatch, capsys, ["--alpha", "(-3+1*sqrt(19))/1", "--start", "7", "3"])
        assert code == EXIT_OK
        assert out.splitlines()[0] == (
            "playing modified two-pile game, constraint beatty({'alpha': '(-3+1*sqrt(19))/1'})")
        assert "position: pile A = 3, pile B = 7" in out
        assert out.endswith("your move> engine wins (resignation)\n")  # end of input resigns

    @pytest.mark.parametrize("option", [
        ["--constant", "3"], ["--beatty", A55_TEXT], ["--target-beatty", A55_TEXT],
        ["--parity-half"], ["--rules", "rules.json"],
    ])
    def test_alpha_excludes_constraint_options(self, monkeypatch, capsys, option):
        # argparse rejects the pair before reading any file or starting play
        monkeypatch.setattr("sys.stdin", io.StringIO("quit\n"))
        for argv in (["--alpha", PHI_TEXT, *option], [*option, "--alpha", PHI_TEXT]):
            with pytest.raises(SystemExit) as exc:
                run(["play", *argv, "--start", "5", "8"])
            assert exc.value.code == EXIT_PARSE
            out, err = capsys.readouterr()
            error = err.splitlines()[-1]
            assert out == "" and "not allowed with argument" in error
            assert option[0] in error and "--alpha" in error

    @pytest.mark.parametrize("family", ["modified", "relaxed"])
    def test_alpha_excludes_family(self, monkeypatch, capsys, family):
        # the inverse solver picks the family; a given one is refused, not ignored
        monkeypatch.setattr("sys.stdin", io.StringIO("quit\n"))
        for argv in (["--family", family, "--alpha", PHI_TEXT], ["--alpha", PHI_TEXT, "--family", family]):
            assert run(["play", *argv, "--start", "5", "8"]) == (EXIT_PARSE, "")
            assert capsys.readouterr() == ("",
                "error: --family does not apply with --alpha: the inverse solver picks the family\n")

    def test_random_start_is_seeded(self, monkeypatch, capsys):
        starts = set()
        for seed in range(6):
            argv = ["--constant", "2", "--random-bound", "30", "--seed", str(seed)]
            code, out = play(monkeypatch, capsys, argv, ["quit"])
            assert code == EXIT_OK and play(monkeypatch, capsys, argv, ["quit"]) == (code, out)
            rng = random.Random(seed)
            x, y = canonical(rng.randint(1, 30), rng.randint(1, 30))
            assert f"position: pile A = {x}, pile B = {y}\n" in out
            starts.add((x, y))
        assert len(starts) > 1

    @pytest.mark.parametrize("bound", [0, -3, MAX_ORACLE_BOUND + 1, 5000])
    def test_random_bound_outside_the_oracle_cap_exits_two(self, monkeypatch, capsys, bound):
        # refused before any draw, so under every seed
        monkeypatch.setattr("sys.stdin", io.StringIO("quit\n"))
        for seed in ("1", "2"):
            argv = ["play", "--constant", "1", "--random-bound", str(bound), "--seed", seed]
            assert run(argv) == (EXIT_PARSE, "")
            assert capsys.readouterr() == (
                "", f"error: --random-bound must be in [1, {MAX_ORACLE_BOUND}], got {bound}\n")

    @pytest.mark.parametrize("bound", [1, MAX_ORACLE_BOUND])
    def test_random_bound_at_its_ends_plays(self, monkeypatch, capsys, bound):
        code, out = play(monkeypatch, capsys, ["--constant", "1", "--random-bound", str(bound), "--seed", "1"],
                         ["quit"])
        rng = random.Random(1)
        x, y = canonical(rng.randint(1, bound), rng.randint(1, bound))
        assert code == EXIT_OK and f"position: pile A = {x}, pile B = {y}\n" in out

    @pytest.mark.parametrize("start, message", [
        (["0", "0"], "start position must have tokens"),
        (["5000", "5000"], "oracle bound 5000 exceeds the cap 4096"),
    ])
    def test_bad_start_exits_two_before_any_output(self, monkeypatch, capsys, start, message):
        monkeypatch.setattr("sys.stdin", io.StringIO("quit\n"))
        assert run(["play", "--constant", "1", "--start", *start]) == (EXIT_PARSE, "")
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_explanations(self, monkeypatch, capsys, tmp_path):
        rules = tmp_path / "rules.json"
        rules.write_text('{"family": "modified", "constraint": {"kind": "table", "entries": []}}')
        for argv, line, said in [
            (["--family", "relaxed", "--constant", "1"], "take 1 from pile A, 3 from pile B",
             "illegal move: (6-3)-(4-3) = 2 >= f(3,3,4) = 1"),
            (["--rules", str(rules)], "take 1 from pile A, 1 from pile B",
             "illegal move: diagonal from pile A = 4 is disallowed (constraint undefined)"),
            (["--constant", "1"], "take 1 from pile A, 2 from pile A",
             "could not read that move: each pile may appear once"),
            (["--constant", "1"], "take 0 from pile A",
             "illegal move: must remove at least one token"),
            (["--constant", "1"], "take 9 from pile A",
             "illegal move: cannot remove 9 from pile A(4) / 0 from pile B(6)"),
        ]:
            code, out = play(monkeypatch, capsys, argv + ["--start", "4", "6"], [line, "quit"])
            assert code == EXIT_OK
            assert out.splitlines()[3:6] == [
                f"your move> {said}", "position: pile A = 4, pile B = 6",
                "your move> engine wins (resignation)"], argv

    def test_engine_never_illegal_randomized(self):
        # random sessions: a random-legal-move player vs the engine
        rng = random.Random(7)
        rulesets = [
            RuleSet(Family.MODIFIED, Constant(1)),
            RuleSet(Family.MODIFIED, ParityHalf()),
            RuleSet(Family.RELAXED, BeattyDelta(QuadraticNumber(5, 1, 5, 5))),
        ]
        sessions_per_ruleset = 1000
        for rules in rulesets:
            pset = retrograde_oracle(rules, 25)
            for _ in range(sessions_per_ruleset):
                pos = canonical(rng.randint(0, 20), rng.randint(1, 20))
                while pos != (0, 0):
                    moves = sorted(legal_moves(rules, pos))
                    pos = moves[rng.randrange(len(moves))]
                    if pos == (0, 0):
                        break
                    engine = choose_engine_move(rules, pos, pset)
                    assert is_legal_move(rules, pos, engine), (rules, pos, engine)
                    winning = legal_moves(rules, pos) & pset
                    if winning:
                        assert engine == min(winning), (rules, pos, engine)
                    pos = engine


# -- fuzz ---------------------------------------------------------------------------

def _mostly(good, bad):
    """`good` in fifteen draws of sixteen, `bad` in the last."""
    return st.integers(0, 15).flatmap(lambda i: bad if i == 0 else good)


@st.composite
def _slope_in_range(draw):
    """(p+q*sqrt(D))/r in (1, 2) with D not a square: r - q*sqrt(D) < p < 2r - q*sqrt(D)."""
    d = draw(st.integers(2, 40).filter(lambda d: math.isqrt(d) ** 2 != d))
    q, r = draw(st.integers(1, 3)), draw(st.integers(1, 9))
    p = r - math.isqrt(q * q * d) + draw(st.integers(0, r - 1))
    return f"({p}+{q}*sqrt({d}))/{r}"


_RARELY = _mostly(st.just(False), st.just(True))
_SMALL_SIZE = _mostly(st.integers(-2, 40).map(str), st.sampled_from(["", "x", "1e3", "0x10", "+7"]))
_SLOPE_TEXT = _mostly(
    _slope_in_range() | st.sampled_from([PHI_TEXT, A55_TEXT, "(-3+1*sqrt(19))/1"]),
    st.one_of(
        st.builds(lambda p, q, d, r: f"({p}{q:+d}*sqrt({d}))/{r}",
                  st.integers(-9, 9), st.integers(-3, 3), st.integers(0, 30), st.integers(-2, 9)),
        st.sampled_from(["(1+1*sqrt(5))/0", "(3+0*sqrt(5))/2", "(2+1*sqrt(4))/3", "1.618", "sqrt(5)"]),
        st.text(max_size=10),
    ),
)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 50) | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8,
)
_CONSTRAINT_JSON = st.one_of(
    st.fixed_dictionaries({"kind": st.just("constant"),
                           "t": _mostly(st.integers(-3, 20) | st.just(10**9), _JSON)}),
    st.fixed_dictionaries({"kind": st.sampled_from(["beatty", "target_beatty"]),
                           "alpha": _mostly(_SLOPE_TEXT, _JSON)}),
    st.just({"kind": "parity_half"}),
    st.fixed_dictionaries(
        {"kind": st.just("table"),
         "entries": _mostly(st.lists(st.lists(st.integers(-2, 12), min_size=4, max_size=4)
                                     | st.lists(st.integers(-2, 12), max_size=5), max_size=8), _JSON)},
        optional={"strict": _mostly(st.booleans(), _JSON)},
    ),
    _JSON,
)
_RULES_TEXT = _mostly(
    st.fixed_dictionaries(
        {"family": _mostly(st.sampled_from(["modified", "relaxed"]), _JSON), "constraint": _CONSTRAINT_JSON},
        optional={"schema": _mostly(st.just("beatty-games/v1"), _JSON)},
    ).map(json.dumps),
    _JSON.map(json.dumps) | st.text(max_size=12),
)
# Each option with the values it may take; sizes stay far below every cap
# (MAX_COUNT, MAX_ORACLE_BOUND, MAX_FAMILY_BOUND; no subcommand takes a horizon).
_OPTIONS = {
    "--family": _mostly(st.sampled_from(["modified", "relaxed"]), st.just("misere")),
    "--constant": st.one_of(st.integers(-3, 20), st.just(10**9)).map(str),
    "--beatty": _SLOPE_TEXT,
    "--target-beatty": _SLOPE_TEXT,
    "--parity-half": st.none(),
    "--rules": st.just("RULES"),
    "--count": _SMALL_SIZE,
    "--bound": _SMALL_SIZE,
    "--closed": st.none(),
    "--output": st.sampled_from(["out.csv", "out.json", "out.txt", "missing/out.csv"]),
    "--alpha": _SLOPE_TEXT,
    "--json": st.none(),
    "--p-max": _mostly(st.integers(1, 3), st.integers(-1, 0)).map(str),
    "--q-max": _mostly(st.integers(1, 3), st.integers(-1, 0)).map(str),
    "--t-max": _mostly(st.integers(1, 3), st.integers(-1, 0)).map(str),
}
_JUNK = st.sampled_from(["7", "--", "-", "--count", "play", "gen", "--nope", "-h", "--help"]) | st.text(max_size=6)
_CONSTRAINT_FLAG = st.just("--rules") | st.sampled_from(["--constant", "--beatty", "--target-beatty", "--parity-half"])
# subcommand -> (options it requires, other options it takes)
_GRAMMAR = {
    "gen": (["--count"], ["--family", "--closed", "--output"]),
    "oracle": (["--bound"], ["--family", "--output"]),
    "verify": (["--count", "--bound"], ["--family"]),
    "classify": (["--alpha"], ["--json"]),
    "inverse": (["--alpha"], ["--count"]),
    "families": ([], ["--p-max", "--q-max", "--t-max", "--output"]),
}


@st.composite
def _cli_argv(draw):
    """A subcommand and mostly its own options, in any order; now and then a
    required option is dropped, a second constraint or a foreign option is
    added, or a stray token is inserted."""
    command = draw(st.sampled_from(sorted(_GRAMMAR)))
    required, optional = _GRAMMAR[command]
    flags = [f for f in required if not draw(_RARELY)]
    flags += [f for f in optional if draw(st.booleans())]
    if command in ("gen", "oracle", "verify"):
        flags += draw(_mostly(st.lists(_CONSTRAINT_FLAG, min_size=1, max_size=1),
                              st.lists(_CONSTRAINT_FLAG, min_size=2, max_size=2, unique=True)))
    if draw(_RARELY):
        flags.append(draw(st.sampled_from(sorted(_OPTIONS))))
    argv = [command]
    for flag in draw(st.permutations(list(dict.fromkeys(flags)))):
        value = draw(_OPTIONS[flag])
        argv += [flag] if value is None else [flag, value]
    if draw(_RARELY):
        argv.insert(draw(st.integers(0, len(argv))), draw(_JUNK))
    return argv


@seed(20260807)
@settings(max_examples=400, deadline=None, database=None)
@given(argv=_cli_argv(), rules_text=_RULES_TEXT)
@example(argv=["verify", "--beatty", A55_TEXT, "--count", "10", "--bound", "30"], rules_text="")
@example(argv=["gen", "--family", "relaxed", "--constant", "0", "--count", "5"], rules_text="")
@example(argv=["gen", "--rules", "RULES", "--count", "5"],
         rules_text='{"family": "relaxed", "constraint": {"kind": "parity_half"}}')
@example(argv=["classify", "--alpha", "(1+1*sqrt(5))/0"], rules_text="")
@example(argv=["gen", "--help"], rules_text="")
def test_fuzz_main_exits_with_a_documented_code(tmp_path_factory, argv, rules_text):
    # One process for every example, so the examples also share main's grammar.
    # `play` reads stdin and is left out.
    workdir = tmp_path_factory.getbasetemp() / "fuzz"
    workdir.mkdir(exist_ok=True)
    rules = workdir / "rules.json"
    rules.write_text(rules_text)
    argv = [str(rules) if a == "RULES" else str(workdir / a) if a.startswith(("out.", "missing/")) else a
            for a in argv]
    try:
        code = main(argv, out=io.StringIO())
    except SystemExit as exc:  # argparse: --help, or an argv it rejects
        assert exc.code in (EXIT_OK, EXIT_PARSE), (argv, exc.code)
        return
    assert code in (EXIT_OK, EXIT_DIVERGENCE, EXIT_PARSE, EXIT_HYPOTHESIS), (argv, code)
    if code in (EXIT_DIVERGENCE, EXIT_HYPOTHESIS):
        args = cli.build_parser().parse_args(argv)
        family = json.loads(rules_text)["family"] if args.rules else args.family
        if code == EXIT_DIVERGENCE:
            assert args.command == "verify", argv
        else:
            assert args.command == "gen" and not args.closed and family == "relaxed", argv
