import random
import re

import pytest

from beatty_games import games, quadfield
from beatty_games.games import (
    BeattyDelta,
    Constant,
    ExplicitTable,
    Family,
    ParityHalf,
    Position,
    RuleSet,
    Shape,
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
from beatty_games.solver import MAX_COUNT, recurrence_closed, solve_relaxed

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


def exact_delta(pair, x0):
    """BeattyDelta's value at x0 by exact floors: delta2(floor((x0+1)/alpha))."""
    return pair.delta2(beatty_floor(pair.alpha.inv(), x0 + 1))


def exact_gap(pair, x0):
    """TargetBeatty's value(0, 0, x0), floor(n*beta) - floor(n*alpha) at
    x0 = floor(n*alpha), by exact floors."""
    n = beatty_floor(pair.alpha.inv(), x0 + 1)
    return beatty_floor(pair.beta, n) - x0 if n >= 1 and beatty_floor(pair.alpha, n) == x0 else None


class TestRowTables:
    """BeattyDelta and TargetBeatty read a per-x0 table built from the rows."""

    SLOPES = [
        PHI, A55, A19, QuadraticNumber(0, 1, 1, 2),
        QuadraticNumber(10**9, 1, 10**9, 2),  # beta about 7*10^8
        QuadraticNumber(2 * 10**9, -1, 10**9, 2),  # {beta} about 1.4*10^-9
    ]
    READS = [
        (BeattyDelta, lambda spec, x0: spec.value(0, 0, x0), exact_delta),
        (TargetBeatty, lambda spec, x0: spec.value(0, 0, x0), exact_gap),
    ]

    @pytest.mark.parametrize("kind, read, exact", READS)
    def test_three_blocks_equal_the_exact_expressions(self, kind, read, exact):
        for alpha in self.SLOPES:
            spec = kind(alpha)
            builds = x0 = 0
            while builds < 3 or x0 < len(spec._table) - 1:
                x0 += 1
                size = len(spec._table)
                assert read(spec, x0) == exact(spec.pair, x0), (alpha, x0)
                builds += len(spec._table) != size
            assert builds == 3, alpha

    @pytest.mark.parametrize("kind, read, exact", READS)
    def test_random_order_and_above_the_cap(self, kind, read, exact):
        rng = random.Random(20261018)
        cap = games._TABLE_CAP
        for alpha in self.SLOPES:
            spec = kind(alpha)
            for x0 in (cap + 1, cap + 12345, 10**12):
                assert read(spec, x0) == exact(spec.pair, x0), (alpha, x0)
            assert spec._table == [None]  # nothing stored above the cap
            for x0 in rng.sample(range(1, 5000), 400) + [cap + 7]:
                assert read(spec, x0) == exact(spec.pair, x0), (alpha, x0)

    def test_cap_covers_every_generator_call(self):
        # a_n, the mex of 2n - 1 values, is at most 2n - 1
        assert games._TABLE_CAP >= 2 * MAX_COUNT + 2

    def test_relaxed_recurrence_takes_no_floor_per_row(self, monkeypatch):
        calls = [0]

        def counting(gamma, n):
            calls[0] += 1
            return beatty_floor(gamma, n)

        for module in (quadfield, games):
            monkeypatch.setattr(module, "beatty_floor", counting)
        table = solve_relaxed(BeattyDelta(A19), 10**4)
        assert calls[0] <= 8, calls[0]
        beta = conjugate_beatty(A19).beta
        assert table.pairs == tuple((beatty_floor(A19, n), beatty_floor(beta, n)) for n in range(10**4))


    def test_recurrences_read_no_value(self, monkeypatch):
        # Constant and BeattyDelta give their Beatty words: the rows are spelled
        # out, not read from the constraint pair by pair.
        calls = [0]
        for cls in (Constant, BeattyDelta):
            def counting(self, x1, y1, x0, value=cls.value):
                calls[0] += 1
                return value(self, x1, y1, x0)

            monkeypatch.setattr(cls, "value", counting)
        solve_relaxed(Constant(3), 10**4)
        recurrence_closed(BeattyDelta(A19), 10**4)
        assert calls[0] == 0
        Constant(3).value(0, 0, 1)
        BeattyDelta(A19).value(0, 0, 1)
        assert calls[0] == 2  # the counters are live


class TestShapeContract:
    """The oracle and the generators read a shaped constraint once per row,
    so every built-in ORIGIN or GAP_AFFINE constraint must keep its shape."""

    def test_value_follows_the_shape(self):
        rng = random.Random(20261020)
        slopes = [PHI, A55, A19, QuadraticNumber(0, 1, 1, 2)]
        specs = [Constant(t) for t in (1, 2, 3, 4)]
        specs += [kind(alpha) for kind in (BeattyDelta, TargetBeatty) for alpha in slopes]
        shaped = {cls for cls in games._CONSTRAINT_KINDS.values() if cls.shape is not Shape.GENERAL}
        assert {type(spec) for spec in specs} == shaped
        x0s = [*range(1, 80), *rng.sample(range(80, 5000), 300), games._TABLE_CAP + 3]
        defined = 0
        for spec in specs:
            for x0 in x0s:
                keys = [(0, 0), (x0 - 1, x0 - 1)] + [
                    (rng.randint(0, x0 - 1), rng.randint(0, 4 * x0 + 8)) for _ in range(6)]
                for x1, y1 in keys:
                    want = spec.value(0, 0, x0)
                    if spec.shape is Shape.GAP_AFFINE and want is not None:
                        want -= y1 - x1
                        defined += 1
                    assert spec.value(x1, y1, x0) == want, (spec, x1, y1, x0)
        assert defined > 0  # TargetBeatty is undefined off its lower sequence


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
        # modified: |l - k| < t; relaxed: l - k < t, k taken from the smaller pile
        bounds = {Family.MODIFIED: lambda k, l: abs(k - l), Family.RELAXED: lambda k, l: l - k}
        for t in (1, 2, 3):
            for family, diff in bounds.items():
                rules = RuleSet(family, Constant(t))
                for pos in [Position(5, 8), Position(6, 6), Position(1, 9)]:
                    brute = set()
                    for v in range(pos.x):
                        brute.add(canonical(v, pos.y))
                    for v in range(pos.y):
                        brute.add(canonical(pos.x, v))
                    for k in range(1, pos.x + 1):
                        for l in range(1, pos.y + 1):
                            if diff(k, l) < t:
                                brute.add(canonical(pos.x - k, pos.y - l))
                    assert legal_moves(rules, pos) == brute, (family, t, pos)

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
            for pos in [Position(5, 9), Position(7, 7), Position(0, 6), Position(2, 3)]:
                allowed = legal_moves(rules, pos)
                assert all(min(dest) >= 0 for dest in allowed)
                for x in range(-2, 10):
                    for y in range(-2, 12):
                        assert is_legal_move(rules, pos, Position(x, y)) == (
                            Position(x, y) in allowed
                        ), (pos, x, y)
            with pytest.raises(ValueError, match="pile sizes must be non-negative"):
                legal_moves(rules, Position(-3, -1))
            with pytest.raises(ValueError, match="pile sizes must be non-negative"):
                is_legal_move(rules, Position(-3, -1), Position(0, 0))
            for move in (legal_moves, lambda rules, pos: is_legal_move(rules, pos, Position(1, 1))):
                with pytest.raises(ValueError, match="origin must be canonical"):
                    move(rules, Position(3, 2))

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


def removal_ok(rules, x0, y0, k, l):
    """The move rule as a plain yes/no, written apart from `games._refusal`."""
    if not (0 <= k <= x0 and 0 <= l <= y0) or k == l == 0:
        return False
    if k == 0 or l == 0:
        return True
    bound = rules.constraint.value(x0 - k, y0 - l, x0)
    if bound is None:
        return False
    return (abs(l - k) if rules.family is Family.MODIFIED else l - k) < bound


class TestRefusal:
    def test_refuses_exactly_what_the_rule_forbids(self):
        rng = random.Random(20261022)
        tables = []
        for _ in range(3):  # misses, stored None, 0 and negative bounds
            cells = [(x1, y1, x0) for x0 in range(11) for x1 in range(x0 + 1) for y1 in range(11)]
            tables.append(ExplicitTable({
                key: rng.choice([None, -2, -1, 0, 1, 2, 3, 7]) for key in cells if rng.random() < 0.8
            }))
        slopes = [A55, A19, PHI, QuadraticNumber(0, 1, 1, 2)]
        specs = [Constant(1), Constant(2), Constant(3), ParityHalf(), *tables]
        specs += [kind(alpha) for kind in (BeattyDelta, TargetBeatty) for alpha in slopes]
        refused = 0
        for spec in specs:
            for family in Family:
                rules = RuleSet(family, spec)
                for y0 in range(11):
                    for x0 in range(y0 + 1):
                        for k in range(-1, x0 + 2):
                            for l in range(-1, y0 + 2):
                                reason = games._refusal(rules, x0, y0, k, l)
                                assert (reason is None) == removal_ok(rules, x0, y0, k, l), (
                                    rules, x0, y0, k, l, reason)
                                if reason is not None:
                                    assert isinstance(reason, str) and reason, (rules, x0, y0, k, l)
                                    refused += 1
        assert refused > 0


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

    @pytest.mark.parametrize("text, message", [
        pytest.param("[" * 200_000, "malformed ruleset: JSON nested too deeply", id="nested"),
        ("[1, 2]", "malformed ruleset: must be a JSON object, got list"),
    ])
    def test_malformed_ruleset_text_is_a_value_error(self, text, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ruleset_from_json(text)


class TestCanonical:
    def test_sorts(self):
        assert canonical(5, 2) == Position(2, 5)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            canonical(-1, 4)
