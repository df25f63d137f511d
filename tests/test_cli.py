import io
import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

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
    Family,
    ParityHalf,
    Position,
    RuleSet,
    canonical,
    is_legal_move,
    legal_moves,
    ruleset_from_json,
)
from beatty_games.quadfield import QuadraticNumber
from beatty_games.solver import ptable_from_csv, ptable_from_json, retrograde_oracle

A55_TEXT = "(5+1*sqrt(5))/5"
PHI_TEXT = "(1+1*sqrt(5))/2"
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

    def test_json_file_round_trip(self, tmp_path):
        path = tmp_path / "table.json"
        code, _ = run(
            ["gen", "--family", "modified", "--constant", "2", "--count", "8",
             "--output", str(path)]
        )
        assert code == EXIT_OK
        table = ptable_from_json(path.read_text())
        assert table.pairs[:3] == ((0, 0), (1, 3), (2, 6))

    def test_hypothesis_violation_exit_code(self):
        code, _ = run(["gen", "--family", "relaxed", "--parity-half", "--count", "5"])
        assert code == EXIT_HYPOTHESIS

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


def test_golden_outputs_are_byte_exact(tmp_path):
    cases = {
        "gen_beatty_a55.csv": ["gen", "--beatty", A55_TEXT, "--count", "10"],
        "gen_beatty_a55_closed.csv": ["gen", "--beatty", A55_TEXT, "--count", "10", "--closed"],
        "gen_parity_half_50.csv": ["gen", "--family", "modified", "--parity-half", "--count", "50"],
        "inverse_a55.txt": ["inverse", "--alpha", A55_TEXT, "--count", "10"],
        "classify_phi.txt": ["classify", "--alpha", PHI_TEXT],
        "classify_a55.json": ["classify", "--alpha", A55_TEXT, "--json"],
        "families_333.csv": ["families", "--p-max", "3", "--q-max", "3", "--t-max", "3"],
        "verify_a55.txt": ["verify", "--family", "modified", "--beatty", A55_TEXT,
                           "--count", "10", "--bound", "30"],
        "oracle_parity_half_50.csv": ["oracle", "--family", "modified", "--parity-half",
                                      "--bound", "50"],
    }
    # These are written to the --output file, which is read back.
    written = {
        "gen_beatty_a55.json": ["gen", "--beatty", A55_TEXT, "--count", "10"],
        "gen_parity_half_50.json": ["gen", "--family", "modified", "--parity-half",
                                    "--count", "50"],
        "oracle_parity_half_50.json": ["oracle", "--family", "modified", "--parity-half",
                                       "--bound", "50"],
    }
    exit_codes = {"verify_a55.txt": EXIT_DIVERGENCE}
    for name, argv in cases.items():
        code, out = run(argv)
        assert code == exit_codes.get(name, EXIT_OK), name
        assert out.encode() == (GOLDEN / name).read_bytes(), name
    for name, argv in written.items():
        path = tmp_path / name
        assert run(argv + ["--output", str(path)]) == (EXIT_OK, ""), name
        assert path.read_bytes() == (GOLDEN / name).read_bytes(), name


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
    ])
    def test_malformed_rules_exit_two(self, tmp_path, data):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps(data))
        code, _ = run(["gen", "--rules", str(path), "--count", "5"])
        assert code == EXIT_PARSE


@pytest.mark.parametrize("argv", [
    ["gen", "--constant", "1"],
    ["verify", "--beatty", A55_TEXT, "--bound", "30"],
    ["inverse", "--alpha", A55_TEXT],
])
def test_count_above_the_cap_exits_two(argv, capsys):
    assert run(argv + ["--count", str(10**9)]) == (EXIT_PARSE, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "exceeds the cap" in err


@pytest.mark.parametrize("flag", ["--p-max", "--q-max", "--t-max"])
def test_family_bound_above_the_cap_exits_two(flag, capsys):
    assert run(["families", flag, str(MAX_FAMILY_BOUND + 1)]) == (EXIT_PARSE, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and f"[1, {MAX_FAMILY_BOUND}]" in err


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


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "beatty_games.cli", "classify", "--alpha", PHI_TEXT],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "Family I" in proc.stdout
