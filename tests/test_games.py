import pytest

from beatty_games.games import (
    BeattyDelta,
    Constant,
    ExplicitTable,
    Family,
    ParityHalf,
    Position,
    RuleSet,
    TargetBeatty,
    canonical,
    constraint_from_dict,
    constraint_to_dict,
    is_legal_move,
    legal_moves,
    ruleset_from_json,
    ruleset_to_json,
)
from beatty_games.quadfield import QuadraticNumber, beatty_floor, conjugate_beatty

PHI = QuadraticNumber(1, 1, 2, 5)
A55 = QuadraticNumber(5, 1, 5, 5)
A19 = QuadraticNumber(-3, 1, 1, 19)

MOD_PARITY = RuleSet(Family.MODIFIED, ParityHalf())
MOD_W1 = RuleSet(Family.MODIFIED, Constant(1))
REL_W1 = RuleSet(Family.RELAXED, Constant(1))


class TestEvalConstraint:
    def test_beatty_at_lower_sequence_value(self):
        assert BeattyDelta(A19).value(0, 0, 2) == 3

    def test_parity_worked_example(self):
        assert ParityHalf().value(8, 21, 10) == 8

    def test_constant(self):
        assert Constant(1).value(5, 9, 7) == 1

    def test_parity_closed_form(self):
        spec = ParityHalf()
        for x1 in range(0, 1001):
            for y1 in range(0, 1001):
                want = x1 if y1 % 2 == 1 else 0
                assert spec.value(x1, y1, x1 + 1) == want

    def test_beatty_x0_zero_is_error(self):
        with pytest.raises(ValueError):
            BeattyDelta(A55).value(0, 0, 0)

    def test_beatty_agrees_with_delta2_on_lower_sequence(self):
        from beatty_games.quadfield import delta2

        spec = BeattyDelta(A55)
        for n in range(1, 200):
            a_n = beatty_floor(A55, n)
            assert spec.value(0, 0, a_n) == delta2(A55, n)

    def test_target_beatty_defined_on_lower_sequence_only(self):
        spec = TargetBeatty(PHI)
        beta = conjugate_beatty(PHI).beta
        # x0 = floor(2*phi) = 3: value (floor(2*beta)-y1)-(3-x1)
        assert spec.value(1, 2, 3) == (beatty_floor(beta, 2) - 2) - (3 - 1)
        # 2 = floor(1*beta) is not in the lower sequence: disallowed
        assert spec.value(0, 0, 2) is None

    def test_constant_requires_positive_t(self):
        with pytest.raises(ValueError):
            Constant(0)

    def test_table_miss_and_strict(self):
        spec = ExplicitTable({(1, 2, 3): 4})
        assert spec.value(1, 2, 3) == 4
        assert spec.value(0, 0, 3) is None
        strict = ExplicitTable({(1, 2, 3): 4}, strict=True)
        with pytest.raises(KeyError):
            strict.value(0, 0, 3)


class TestLegalMoves:
    def test_parity_allows_paper_move(self):
        assert Position(8, 21) in legal_moves(MOD_PARITY, Position(10, 29))

    def test_terminal_has_no_moves(self):
        for rules in (MOD_PARITY, MOD_W1, REL_W1):
            assert legal_moves(rules, Position(0, 0)) == set()

    def test_relaxed_remove_more_from_smaller(self):
        assert Position(0, 1) in legal_moves(REL_W1, Position(2, 2))

    def test_all_moves_shrink_total(self):
        for rules in (MOD_PARITY, MOD_W1, REL_W1):
            for pos in [Position(4, 9), Position(7, 7), Position(0, 5)]:
                for mv in legal_moves(rules, pos):
                    assert mv.x + mv.y < pos.x + pos.y
                    assert 0 <= mv.x <= mv.y

    def test_constant_reproduces_t_wythoff(self):
        for t in (1, 2, 3):
            rules = RuleSet(Family.MODIFIED, Constant(t))
            for pos in [Position(5, 8), Position(6, 6), Position(1, 9)]:
                brute = set()
                for v in range(pos.x):
                    brute.add(canonical(v, pos.y))
                for v in range(pos.y):
                    brute.add(canonical(pos.x, v))
                for k in range(1, pos.x + 1):
                    for l in range(1, pos.y + 1):
                        if abs(k - l) < t:
                            brute.add(canonical(pos.x - k, pos.y - l))
                assert legal_moves(rules, pos) == brute

    def test_relaxed_contains_modified_diagonals(self):
        spec = BeattyDelta(A19)
        mod = RuleSet(Family.MODIFIED, spec)
        rel = RuleSet(Family.RELAXED, spec)
        for pos in [Position(6, 11), Position(9, 9), Position(3, 14)]:
            assert legal_moves(mod, pos) <= legal_moves(rel, pos)


class TestIsLegalMove:
    def test_parity_worked_example(self):
        assert is_legal_move(MOD_PARITY, Position(10, 29), Position(8, 21))

    def test_no_null_moves(self):
        assert not is_legal_move(MOD_W1, Position(5, 7), Position(5, 7))

    def test_classical_diagonal(self):
        assert is_legal_move(MOD_W1, Position(2, 3), Position(1, 2))

    def test_matches_enumeration(self):
        for rules in (MOD_PARITY, MOD_W1, REL_W1, RuleSet(Family.MODIFIED, BeattyDelta(A55))):
            for pos in [Position(5, 9), Position(7, 7), Position(0, 6)]:
                allowed = legal_moves(rules, pos)
                for x in range(10):
                    for y in range(x, 12):
                        assert is_legal_move(rules, pos, Position(x, y)) == (
                            Position(x, y) in allowed
                        )

    def test_matches_enumeration_randomized(self):
        import random

        rng = random.Random(11)
        rulesets = [
            MOD_PARITY,
            REL_W1,
            RuleSet(Family.MODIFIED, BeattyDelta(A19)),
            RuleSet(Family.RELAXED, BeattyDelta(A55)),
            RuleSet(Family.MODIFIED, TargetBeatty(PHI)),
        ]
        for rules in rulesets:
            for _ in range(30):
                pos = canonical(rng.randint(0, 18), rng.randint(0, 18))
                allowed = legal_moves(rules, pos)
                for x in range(pos.y + 1):
                    for y in range(x, pos.y + 1):
                        dest = Position(x, y)
                        assert is_legal_move(rules, pos, dest) == (dest in allowed), (
                            rules.family, pos, dest,
                        )


class TestSerialization:
    def test_all_kinds_round_trip(self):
        specs = [
            Constant(3),
            BeattyDelta(A55),
            TargetBeatty(PHI),
            ParityHalf(),
            ExplicitTable({(1, 2, 3): 4, (0, 0, 1): 0}, strict=True),
        ]
        for spec in specs:
            assert constraint_from_dict(constraint_to_dict(spec)) == spec

    def test_ruleset_round_trip(self):
        for family in Family:
            rules = RuleSet(family, BeattyDelta(A19))
            again = ruleset_from_json(ruleset_to_json(rules))
            assert again == rules

    def test_schema_tag(self):
        assert '"schema": "beatty-games/v1"' in ruleset_to_json(MOD_W1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            constraint_from_dict({"kind": "mystery"})


class TestCanonical:
    def test_sorts(self):
        assert canonical(5, 2) == Position(2, 5)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            canonical(-1, 4)
