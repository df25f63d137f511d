"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every expected value is exact and every stated time budget is asserted.
"""

import random
import time
from itertools import islice
from math import isqrt

from beatty_games.classifier import (
    FamilyLabel,
    classify_alpha,
    enumerate_families,
    golden_alpha,
    inverse_solve,
)
from beatty_games.games import (
    BeattyDelta,
    Constant,
    Family,
    ParityHalf,
    Position,
    RuleSet,
    Shape,
    TargetBeatty,
    is_legal_move,
)
from beatty_games.quadfield import (
    MAX_RAYLEIGH_LIMIT,
    QuadraticNumber,
    beatty_floor,
    conjugate_beatty,
    rayleigh_verify,
)
from beatty_games.solver import (
    PTable,
    TableSource,
    _rows,
    detect_gap,
    recurrence_closed,
    retrograde_oracle,
    solve_doublemex,
    solve_relaxed,
)

PHI = QuadraticNumber(1, 1, 2, 5)
A55 = QuadraticNumber(5, 1, 5, 5)       # (5+sqrt5)/5
A19 = QuadraticNumber(-3, 1, 1, 19)     # sqrt19-3
SQRT2 = QuadraticNumber(0, 1, 1, 2)
TEST_ALPHAS = (A55, A19, PHI, SQRT2)

INCOMPATIBLE_FIXTURES = (
    A55,
    QuadraticNumber(0, 1, 1, 3),
    QuadraticNumber(1, 1, 2, 7),
    QuadraticNumber(7, 1, 5, 5),
    QuadraticNumber(3, 1, 3, 3),
)

# Incompatible slopes that agree with the Beatty rows past 300 pairs, with
# their delta2 ranges and the first row where the modified game leaves them.
LATE_DIVERGENCE = (
    (QuadraticNumber(-31, 9, 45, 94), {2, 3, 4}, 684),
    (QuadraticNumber(8, 2, 89, 3062), {1, 2, 3}, 2463),
)

IV_FIXTURES = (
    QuadraticNumber(0, 1, 2, 6),
    QuadraticNumber(6, 1, 6, 2),
    QuadraticNumber(2, 1, 7, 39),
)


def beatty_table(alpha, count):
    beta = conjugate_beatty(alpha).beta
    pairs = tuple((beatty_floor(alpha, n), beatty_floor(beta, n)) for n in range(count))
    return PTable(pairs, TableSource.ORACLE)


def first_difference(t1, t2):
    """Least index where the tables disagree on their common prefix, else None."""
    return next((n for n, (p, q) in enumerate(zip(t1.pairs, t2.pairs)) if p != q), None)


def run_criterion(num, name, budget, body):
    start = time.monotonic()
    try:
        body()
    except BaseException:
        print(f"\ncriterion {num:2d} ({name}): FAIL")
        raise
    elapsed = time.monotonic() - start
    print(f"\ncriterion {num:2d} ({name}): PASS [{elapsed:.2f}s / budget {budget}s]")
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


def test_criterion_1_divergent_table_reproduction():
    def body():
        table = solve_doublemex(BeattyDelta(A55), 10)
        assert [a for a, _ in table.pairs] == [0, 1, 2, 4, 7, 8, 9, 10, 11, 12]
        assert [b for _, b in table.pairs] == [0, 3, 6, 5, 13, 16, 19, 15, 23, 26]
        assert [beatty_floor(A55, n) for n in range(10)] == [0, 1, 2, 4, 5, 7, 8, 10, 11, 13]
        beta = conjugate_beatty(A55).beta
        assert [beatty_floor(beta, n) for n in range(10)] == [0, 3, 6, 9, 12, 16, 19, 22, 25, 29]
        assert first_difference(table, beatty_table(A55, 10)) == 3

    run_criterion(1, "divergent double-mex table", 1.0, body)


def test_criterion_2_agreeing_table_reproduction():
    def body():
        table = solve_doublemex(BeattyDelta(A19), 10)
        assert [a for a, _ in table.pairs] == [0, 1, 2, 4, 5, 6, 8, 9, 10, 12]
        assert [b for _, b in table.pairs] == [0, 3, 7, 11, 15, 18, 22, 26, 30, 34]
        assert table.pairs == beatty_table(A19, 10).pairs

    run_criterion(2, "agreeing double-mex table", 1.0, body)


def test_criterion_3_relaxed_reproduction():
    def body():
        table = solve_relaxed(BeattyDelta(A55), 10)
        assert table.pairs == beatty_table(A55, 10).pairs

    run_criterion(3, "relaxed recurrence matches Beatty rows", 1.0, body)


def test_criterion_4_oracle_equivalence():
    def body():
        bound = 150
        specs = [Constant(t) for t in range(1, 6)]
        specs += [BeattyDelta(a) for a in TEST_ALPHAS]
        specs += [ParityHalf(), TargetBeatty(PHI)]
        for spec in specs:
            rules = RuleSet(Family.MODIFIED, spec)
            truth = retrograde_oracle(rules, bound)
            table = solve_doublemex(spec, 140)
            assert table.pairs[-1][1] > bound, "recurrence horizon too short"
            expect = {Position(a, b) for a, b in table.pairs if b <= bound}
            assert truth == expect, f"modified oracle mismatch for {spec}"
        # relaxed rules, where the hypotheses hold (origin-only constraint,
        # f >= 0, f(1) >= 1): the constants and every Beatty constraint
        for spec in specs:
            if spec.shape is not Shape.ORIGIN:
                continue
            rules = RuleSet(Family.RELAXED, spec)
            truth = retrograde_oracle(rules, bound)
            table = solve_relaxed(spec, 140)
            expect = {Position(a, b) for a, b in table.pairs if b <= bound}
            assert truth == expect, f"relaxed oracle mismatch for {spec}"

    run_criterion(4, "oracle equals recurrences at bound 150", 30.0, body)


def test_criterion_5_parity_constraint():
    def body():
        rules = RuleSet(Family.MODIFIED, ParityHalf())
        assert ParityHalf().value(8, 21, 10) == 8
        assert is_legal_move(rules, Position(10, 29), Position(8, 21))
        # The law is checked on the rows; solve_doublemex runs it as its recurrence.
        pairs = tuple(islice(_rows(ParityHalf(), False), 50))
        assert solve_doublemex(ParityHalf(), 50).pairs == pairs
        assert pairs[1] == (1, 1)
        for n in range(2, 50):
            a, b = pairs[n]
            a_prev, b_prev = pairs[n - 1]
            expect = a + b_prev if b_prev % 2 == 1 else a + b_prev - a_prev
            assert b == expect, f"odd/even recurrence fails at step {n}"

    run_criterion(5, "parity constraint worked example", 5.0, body)


def test_criterion_6_classifier_fixtures():
    def body():
        res = classify_alpha(PHI)
        assert res.family is FamilyLabel.I and res.t == 1
        res = classify_alpha(A19)
        assert (res.family, res.p, res.q, res.beta_floor) == (FamilyLabel.II, 3, 1, 3)
        assert classify_alpha(A55).family is FamilyLabel.INCOMPATIBLE
        for t in range(1, 11):
            res = classify_alpha(golden_alpha(t))
            assert res.family is FamilyLabel.I and res.t == t
        for alpha in IV_FIXTURES:
            assert alpha * 4 < 5  # alpha < 5/4
            assert classify_alpha(alpha).family is FamilyLabel.IV

    run_criterion(6, "classifier fixtures", 5.0, body)


def test_criterion_7_inequality_iff_beatty():
    def body():
        # The (6, 6, 6) box at 10^4 pairs: the modified game's rows keep the
        # Beatty rows iff the slope is compatible, and relaxed Wythoff's rows
        # through the staircase keep them on every slope.  The rows, not
        # solve_doublemex: on a compatible slope that spells the Beatty rows.
        count = 10**4
        for alpha, res in enumerate_families(6, 6, 6):
            beatty = recurrence_closed(BeattyDelta(alpha), count).pairs
            agrees = tuple(islice(_rows(BeattyDelta(alpha), False), count)) == beatty
            assert agrees == res.compatible, f"mismatch for alpha = {alpha}"
            assert tuple(islice(_rows(BeattyDelta(alpha), True), count)) == beatty, alpha
        # An incompatible slope leaves the Beatty rows exactly at its first
        # unfilled gap.  detect_gap(alpha, n) holds every report of rows <= n,
        # so at the divergence row n it decides whether that gap is at n.
        for alpha in (*INCOMPATIBLE_FIXTURES, LATE_DIVERGENCE[0][0]):
            assert not classify_alpha(alpha).compatible, alpha
            table = solve_doublemex(BeattyDelta(alpha), 1000)
            n = first_difference(table, recurrence_closed(BeattyDelta(alpha), 1000))
            assert n is not None, alpha
            assert next((report.n for report in detect_gap(alpha, n) if not report.filled), None) == n, alpha
        # 300 pairs would call these "Beatty"; the second diverges past
        # MAX_HORIZON, so its row is pinned.
        for alpha, d2_range, n in LATE_DIVERGENCE:
            res = classify_alpha(alpha)
            assert not res.compatible and res.delta2_range == d2_range, alpha
            table = solve_doublemex(BeattyDelta(alpha), 2500)
            assert first_difference(table, recurrence_closed(BeattyDelta(alpha), 2500)) == n, alpha

    run_criterion(7, "compatibility iff Beatty P-positions", 60.0, body)


def test_criterion_8_delta2_properties():
    def body():
        for alpha in TEST_ALPHAS:
            pair = conjugate_beatty(alpha)
            bf = pair.beta.floor()
            allowed = (bf - 2, bf - 1, bf)
            for n in range(1, 10_001):
                d = pair.delta2(n)
                assert d in allowed and d >= 0
                predicted = bf - 1 + pair.trichotomy(n - 1).value
                assert d == predicted
        for t in range(1, 6):
            pair = conjugate_beatty(golden_alpha(t))
            bf = pair.beta.floor()
            assert all(pair.delta2(n) == bf - 1 == t for n in range(1, 10_001))

    run_criterion(8, "second-difference properties to n=10^4", 120.0, body)


def test_criterion_9_rayleigh_complementarity():
    def body():
        for alpha in TEST_ALPHAS:
            pair = conjugate_beatty(alpha)
            assert pair.alpha.inv() + pair.beta.inv() == 1
            assert rayleigh_verify(pair, MAX_RAYLEIGH_LIMIT)

    run_criterion(9, "Rayleigh complementarity to the cap, 10^6", 10.0, body)


def test_criterion_10_inverse_guarantee():
    def body():
        rng = random.Random(20250811)
        nonsquares = [d for d in range(2, 51) if isqrt(d) ** 2 != d]
        alphas = []
        while len(alphas) < 25:
            alpha = QuadraticNumber(
                rng.randint(-30, 30),
                rng.choice([q for q in range(-8, 9) if q]),
                rng.randint(1, 12),
                rng.choice(nonsquares),
            )
            if alpha.q != 0 and 1 < alpha < 2 and alpha not in alphas:
                alphas.append(alpha)
        bound = 150
        for alpha in alphas:
            rules, constraint = inverse_solve(alpha)
            if rules.family is Family.MODIFIED:
                table = solve_doublemex(constraint, 140)
            else:
                table = solve_relaxed(constraint, 140)
            expect = beatty_table(alpha, 140)
            assert table.pairs == expect.pairs, f"recurrence vs Beatty: {alpha}"
            truth = retrograde_oracle(rules, bound)
            in_range = {Position(a, b) for a, b in expect.pairs if b <= bound}
            assert truth == in_range, f"oracle cross-check: {alpha}"

    run_criterion(10, "inverse solver on 25 random slopes", 60.0, body)
