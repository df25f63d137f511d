import gc
import itertools
import json
import random
import tracemalloc
from fractions import Fraction
from math import factorial, isqrt

import pytest
from hypothesis import example, given, settings, strategies as st

from beatty_games.classifier import classify_alpha, enumerate_families, golden_alpha
from beatty_games.games import (
    SCHEMA,
    BeattyDelta,
    Constant,
    ConstraintSpec,
    ExplicitTable,
    Family,
    ParityHalf,
    Position,
    RuleSet,
    Shape,
    TargetBeatty,
    legal_moves,
)
from beatty_games.quadfield import QuadraticNumber, beatty_floor, conjugate_beatty
from beatty_games.solver import (
    GapReport,
    HypothesisError,
    MAX_COUNT,
    MAX_HORIZON,
    MAX_ORACLE_BOUND,
    MAX_ROW_RULE_COUNT,
    PTable,
    TableSource,
    _CoveredRuns,
    _rows,
    detect_gap,
    positions_to_json,
    ptable_from_csv,
    ptable_from_json,
    ptable_to_csv,
    ptable_to_json,
    recurrence_closed,
    retrograde_oracle,
    solve_doublemex,
    solve_relaxed,
)

PHI = QuadraticNumber(1, 1, 2, 5)
A55 = QuadraticNumber(5, 1, 5, 5)
A19 = QuadraticNumber(-3, 1, 1, 19)
SQRT2 = QuadraticNumber(0, 1, 1, 2)

TABLE_A55_P = ((0, 0), (1, 3), (2, 6), (4, 5), (7, 13), (8, 16), (9, 19), (10, 15), (11, 23), (12, 26))
TABLE_A55_BEATTY = ((0, 0), (1, 3), (2, 6), (4, 9), (5, 12), (7, 16), (8, 19), (10, 22), (11, 25), (13, 29))
TABLE_A19 = ((0, 0), (1, 3), (2, 7), (4, 11), (5, 15), (6, 18), (8, 22), (9, 26), (10, 30), (12, 34))


def naive_p_positions(rules, bound):
    """Reference oracle: plain backward search over legal_moves by token count."""
    pset = set()
    for total in range(2 * bound + 1):
        for x in range(max(0, total - bound), total // 2 + 1):
            pos = Position(x, total - x)
            if pset.isdisjoint(legal_moves(rules, pos)):
                pset.add(pos)
    return pset


def random_table(rng, bound, origin_only):
    """Keys (x1, y1, x0) with x1 < x0 <= bound and y1 <= bound, values in
    [-2, 6], one per x0 when origin_only; about a tenth of the keys missing."""
    values = {}
    for x0 in range(1, bound + 1):
        g = rng.randint(-2, 6)
        for x1 in range(x0):
            for y1 in range(bound + 1):
                if rng.random() >= 0.1:
                    values[(x1, y1, x0)] = g if origin_only else rng.randint(-2, 6)
    return ExplicitTable(values)


class FnConstraint(ConstraintSpec):
    """Test-only constraint from any fn(x1, y1, x0), with the shape as given."""

    kind = "test_fn"

    def __init__(self, fn, shape):
        self.fn = fn
        self.shape = shape

    def value(self, x1, y1, x0):
        return self.fn(x1, y1, x0)


def random_origin_f(rng, count):
    """f(x0) for every x0 < 2*count (a_n <= 2n - 1): values in a random
    sub-range of [-1, 9], each missing (None) at a random rate up to 20%."""
    lo = rng.randint(-1, 9)
    hi = rng.randint(lo, 9)
    miss = rng.choice((0.0, 0.05, 0.2))
    return [None if rng.random() < miss else rng.randint(lo, hi) for _ in range(2 * count)]


def gap_affine(gap):
    """The GAP_AFFINE constraint gap(x0) - (y1 - x1), undefined where gap is."""
    def fn(x1, y1, x0):
        g = gap(x0)
        return None if g is None else g - (y1 - x1)

    return FnConstraint(fn, Shape.GAP_AFFINE)


def random_shaped_specs(rng, k, size):
    """k ORIGIN and k GAP_AFFINE constraints reading seeded lists indexed by
    x0 < size, their values drawn from pools that hold None, 0 and negatives."""
    pools = [(None, -2, -1, 0, 1, 2, 3), (None, 0, 1), (-1, 0, 1, 2, 5), (1, 2, 9), (None, 1, 4, 30)]
    specs = []
    for _ in range(k):
        pool = rng.choice(pools)
        f = [rng.choice(pool) for _ in range(size)]
        specs.append(FnConstraint(lambda x1, y1, x0, f=f: f[x0], Shape.ORIGIN))
        pool = rng.choice(pools)
        specs.append(gap_affine([rng.choice(pool) for _ in range(size)].__getitem__))
    return specs


def random_slope(rng):
    """A seeded slope (p + q*sqrt(d))/r, irrational and in (1, 2)."""
    while True:
        alpha = QuadraticNumber(rng.randint(-30, 30), rng.choice((-3, -2, -1, 1, 2, 3)),
                                rng.randint(1, 12), rng.randint(2, 50))
        if alpha.q != 0 and 1 < alpha < 2:
            return alpha


def seeded_slopes_by_kind(k, seed=20261019):
    """k compatible then k incompatible seeded slopes from random_slope."""
    rng = random.Random(seed)
    kinds = {True: [], False: []}
    while min(map(len, kinds.values())) < k:
        alpha = random_slope(rng)
        kind = kinds[classify_alpha(alpha).compatible]
        if len(kind) < k and alpha not in kind:
            kind.append(alpha)
    return kinds[True] + kinds[False]


def criterion_10_slopes(k):
    """The first k slopes that criterion 10 (tests/test_acceptance.py) draws."""
    rng = random.Random(20250811)
    nonsquares = [d for d in range(2, 51) if isqrt(d) ** 2 != d]
    out = []
    while len(out) < k:
        alpha = QuadraticNumber(rng.randint(-30, 30), rng.choice([q for q in range(-8, 9) if q]),
                                rng.randint(1, 12), rng.choice(nonsquares))
        if alpha.q != 0 and 1 < alpha < 2 and alpha not in out:
            out.append(alpha)
    return out


def beatty_table(alpha, count):
    beta = conjugate_beatty(alpha).beta
    pairs = tuple((beatty_floor(alpha, n), beatty_floor(beta, n)) for n in range(count))
    return PTable(pairs, TableSource.ORACLE)


def oracle_ptable(positions):
    """An oracle P-set as a table in row order (its pairs have distinct smaller piles)."""
    return PTable(tuple(sorted(map(tuple, positions))), TableSource.ORACLE)


def count_reads(monkeypatch, *classes):
    """The list of value reads of every instance of `classes`, patched on the
    classes themselves: a subclass that overrides `value` takes other paths."""
    reads = []
    for cls in classes:
        def counted(self, *args, value=cls.value):
            reads.append(args)
            return value(self, *args)

        monkeypatch.setattr(cls, "value", counted)
    return reads


class TestClosedRecurrence:
    def test_beatty_rows_reproduced(self):
        table = recurrence_closed(BeattyDelta(A55), 10)
        assert table.pairs == TABLE_A55_BEATTY
        assert [a for a, _ in table.pairs] == [beatty_floor(A55, n) for n in range(10)]

    def test_constant_two(self):
        assert recurrence_closed(Constant(2), 4).pairs == ((0, 0), (1, 3), (2, 6), (4, 10))

    def test_constant_one_is_wythoff(self):
        assert recurrence_closed(Constant(1), 3).pairs == ((0, 0), (1, 2), (3, 5))

    def test_undefined_constraint_raises(self):
        with pytest.raises(ValueError, match="undefined"):
            recurrence_closed(ExplicitTable({}), 2)


class TestDoubleMex:
    def test_divergent_table(self):
        table = solve_doublemex(BeattyDelta(A55), 10)
        assert table.pairs == TABLE_A55_P

    def test_agreeing_table(self):
        assert solve_doublemex(BeattyDelta(A19), 10).pairs == TABLE_A19

    def test_parity_start(self):
        assert solve_doublemex(ParityHalf(), 3).pairs == ((0, 0), (1, 1), (2, 3))

    def test_parity_odd_even_recurrence(self):
        # The rows, not solve_doublemex, which runs this law as its recurrence.
        pairs = tuple(itertools.islice(_rows(ParityHalf(), False), 200))
        for n in range(2, 200):
            a, b = pairs[n]
            a_prev, b_prev = pairs[n - 1]
            if b_prev % 2 == 1:
                assert b == a + b_prev
            else:
                assert b == a + b_prev - a_prev

    def test_all_zero_constraint_gives_ties(self):
        # f == 0 everywhere: b_n = a_n is allowed
        table = solve_doublemex(ExplicitTable({}), 4)
        assert table.pairs == ((0, 0), (1, 1), (2, 2), (3, 3))

    def test_young_pair_interval_is_clipped(self):
        # Origin-only f(1) = 5, f(2) = 3, then 1.  From (2, 5) the diagonal
        # to (1, 6) needs pile B to grow, so (1, 6) does not exclude b = 5.
        spec = FnConstraint(lambda x1, y1, x0: {1: 5, 2: 3}.get(x0, 1), Shape.ORIGIN)
        pairs = ((0, 0), (1, 6), (2, 5), (3, 4), (7, 9), (8, 12))
        assert solve_doublemex(spec, 6).pairs == pairs
        naive = naive_p_positions(RuleSet(Family.MODIFIED, spec), 12)
        assert {p for p in naive if p.x <= 8} == {Position(a, b) for a, b in pairs}

    def test_swapped_orientation_counts(self):
        # f = 1 except f(2, 1, 3) = 4: (3, 5) moves to the swapped pair (2, 1).
        spec = FnConstraint(lambda x1, y1, x0: 4 if (x1, y1, x0) == (2, 1, 3) else 1,
                            Shape.GENERAL)
        pairs = ((0, 0), (1, 2), (3, 6), (4, 8), (5, 7))
        assert solve_doublemex(spec, 5).pairs == pairs
        naive = naive_p_positions(RuleSet(Family.MODIFIED, spec), 8)
        assert {p for p in naive if p.x <= 5} == {Position(a, b) for a, b in pairs}

    def test_random_tables_equal_oracle(self):
        rng = random.Random(20220802)
        for _ in range(300):
            bound = rng.randint(1, 24)
            spec = random_table(rng, bound, origin_only=rng.random() < 0.5)
            truth = retrograde_oracle(RuleSet(Family.MODIFIED, spec), bound)
            table = solve_doublemex(spec, bound + 2)
            assert {Position(a, b) for a, b in table.pairs if b <= bound} == truth, bound

    def test_origin_only_path_equals_generic_path(self):
        rng = random.Random(20220803)
        fns = []
        for _ in range(30):
            f = random_origin_f(rng, 400)
            fns.append(lambda x1, y1, x0, f=f: f[x0])
        # Far-apart values make e_k = b_k - a_k jump both ways, so a pair
        # that matures later can cover d below its f's last run.
        for values in ((1, 12), (2, 30)):
            for miss in (0.0, 0.1, 0.2):
                f = [None if rng.random() < miss else rng.choice(values) for _ in range(800)]
                fns.append(lambda x1, y1, x0, f=f: f[x0])
        fns += [Constant(t).value for t in (1, 2, 3, 4, 7, 40)]
        fns += [BeattyDelta(a).value for a in (A55, A19, PHI, SQRT2)]
        for fn in fns:
            fast = solve_doublemex(FnConstraint(fn, Shape.ORIGIN), 400)
            generic = solve_doublemex(FnConstraint(fn, Shape.GENERAL), 400)
            assert fast == generic

    def test_covered_runs_equal_a_set_model(self):
        # Every kind of interval: inside or past the end of the last run, just
        # touching it, past a gap, and from below the last run's start, where
        # it can bridge several runs.
        rng = random.Random(20221020)
        kinds = dict.fromkeys(("extend", "touch", "append", "below", "bridge"), 0)
        for _ in range(200):
            runs, model = _CoveredRuns(), set()
            for _ in range(rng.randint(1, 40)):
                if not runs.los:
                    kind, lo = "append", rng.randint(-10, 10)
                else:
                    kind = rng.choice(("extend", "touch", "append", "below"))
                    first, last, end = runs.los[0], runs.los[-1], runs.his[-1]
                    lo = {"extend": rng.randint(last, end), "touch": end + 1,
                          "append": end + rng.randint(2, 6),
                          "below": rng.randint(first - 5, last - 1)}[kind]
                hi = lo + rng.choice((0, rng.randint(0, 4), rng.randint(0, 30)))
                before = len(runs.los)
                runs.cover(lo, hi)
                model.update(range(lo, hi + 1))
                kinds[kind] += 1
                kinds["bridge"] += kind == "below" and len(runs.los) < before
                starts = sorted(d for d in model if d - 1 not in model)
                ends = sorted(d for d in model if d + 1 not in model)
                assert (runs.los, runs.his) == (starts, ends)
                for d in range(min(model) - 2, max(model) + 3):
                    free = d
                    while free in model:
                        free += 1
                    assert runs.find(d) == free, (d, runs.los, runs.his)
        assert min(kinds.values()) >= 100, kinds

    def test_target_beatty_path_equals_generic_path(self):
        rng = random.Random(20221018)
        alphas = [A55, A19, PHI, SQRT2] + [alpha for alpha, _ in enumerate_families(6, 6, 6)]
        while len(alphas) < 51:
            alphas.append(random_slope(rng))
        for alpha in alphas:
            spec = TargetBeatty(alpha)
            generic = solve_doublemex(FnConstraint(spec.value, Shape.GENERAL), 400)
            assert solve_doublemex(spec, 400) == generic, alpha

    def test_gap_affine_path_equals_generic_path(self):
        rng = random.Random(20221019)
        gaps = []
        for _ in range(1000):
            miss = rng.uniform(0.1, 0.3)
            g = [None if rng.random() < miss else rng.randint(-3, 7) for _ in range(120)]
            gaps.append(g.__getitem__)
        gaps += [lambda x0, t=t: t - x0 for t in (0, 1, 5, 30, 100)]
        for gap in gaps:
            spec = gap_affine(gap)
            fast = solve_doublemex(spec, 60)
            assert fast == solve_doublemex(FnConstraint(spec.value, Shape.GENERAL), 60)

    def test_near_linear_constraint_calls(self):
        # A silent fallback to the quadratic row sweep doubles the ratio.
        def calls(spec, count):
            made = [0]

            def counted(fn):
                def wrapped(*args):
                    made[0] += 1
                    return fn(*args)
                return wrapped

            solve_doublemex(FnConstraint(counted(spec.value), spec.shape), count)
            return made[0]

        for make in (lambda: TargetBeatty(A19), lambda: Constant(2), lambda: BeattyDelta(A19)):
            ratio = calls(make(), 1000) / calls(make(), 500)
            assert ratio <= 2.2, (make(), ratio)

    def test_gap_affine_memory_follows_count(self):
        # Near 1, beta = alpha/(alpha-1) is huge: b_1 is about 2*10^10 here.
        alpha = QuadraticNumber(0, 1, 100000, 10**10 + 1)
        assert solve_doublemex(TargetBeatty(alpha), 2).pairs == beatty_table(alpha, 2).pairs
        # b reaches about 4*10^7 at 2,000 pairs; the memory must not.
        alpha = QuadraticNumber(0, 1, 100, 10001)
        tracemalloc.start()
        try:
            table = solve_doublemex(TargetBeatty(alpha), 2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.pairs == beatty_table(alpha, 2000).pairs
        assert peak < 4 * 2**20, peak

    def test_origin_only_memory_follows_count(self):
        # Constant(t) covers d up to about count * t (10^6 here, 8 MiB as one
        # dense list); the covered runs must not grow with it.  The rows are
        # driven directly: solve_doublemex spells Constant's from its words.
        tracemalloc.start()
        try:
            pairs = tuple(itertools.islice(_rows(Constant(250), False), 4000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pairs == recurrence_closed(Constant(250), 4000).pairs
        assert peak < 4 * 2**20, peak

    def test_theorem_cases_equal_the_rows(self):
        # solve_doublemex spells Fraenkel's Constant(t) and the compatible
        # BeattyDelta slopes from the step words; the rows are the reference.
        slopes = [alpha for alpha, _ in enumerate_families(6, 6, 6)]
        slopes += [alpha for alpha in criterion_10_slopes(25) if classify_alpha(alpha).compatible]
        slopes += seeded_slopes_by_kind(20)[:20]
        cases = [(BeattyDelta(alpha), 10**4) for alpha in slopes]
        cases += [(Constant(t), 3000) for t in (1, 2, 3, 10, 1000)] + [(Constant(10**9), 1000)]
        for spec, count in cases:
            table = solve_doublemex(spec, count)
            assert table.pairs == tuple(itertools.islice(_rows(spec, False), count)), spec
            assert table.source is TableSource.DOUBLE_MEX

    def test_parity_recurrence_equals_the_rows_to_the_cap(self, monkeypatch):
        # solve_doublemex runs ParityHalf's odd/even law as the closed
        # recurrence.  Both tables are built pair by pair and the cap refuses
        # more, so equality at the cap covers every count accepted.
        table = solve_doublemex(ParityHalf(), MAX_ROW_RULE_COUNT)
        assert table.pairs == tuple(itertools.islice(_rows(ParityHalf(), False), MAX_ROW_RULE_COUNT))
        assert table.source is TableSource.DOUBLE_MEX
        # One read per pair after (0, 0); a fallback to the rows reads O(count) per row.
        reads = count_reads(monkeypatch, ParityHalf)
        for count in (1, 2, 300, MAX_ROW_RULE_COUNT):
            reads.clear()
            solve_doublemex(ParityHalf(), count)
            assert len(reads) == count - 1, (count, len(reads))

    def test_theorem_cases_read_no_constraint_value(self, monkeypatch):
        # A silent fallback to the rows reads the constraint on every row.
        reads = count_reads(monkeypatch, Constant, BeattyDelta)
        for cls, arg, on_rows in ((Constant, 2, False), (BeattyDelta, A19, False), (BeattyDelta, A55, True)):
            reads.clear()
            spec = cls(arg)
            solve_doublemex(spec, 300)
            assert (len(reads) > 0) is on_rows, (spec, len(reads))

    def test_subclass_that_overrides_value_keeps_its_own_rows(self):
        # Fraenkel's rows and A19's Beatty rows belong to the classes' own
        # value; a subclass with another value gets its own rows and loop.
        class Bumped(Constant):
            def value(self, x1, y1, x0):
                return 3 if x0 == 3 else 1

        class Flat(BeattyDelta):
            def value(self, x1, y1, x0):
                return 1

        pinned = {
            Bumped: (((0, 0), (1, 2), (3, 7), (4, 6), (5, 8), (9, 14)),
                     ((0, 0), (1, 2), (3, 7), (4, 9), (5, 11), (6, 13))),
            Flat: (solve_doublemex(Constant(1), 6).pairs, recurrence_closed(Constant(1), 6).pairs),
        }
        for spec in (Bumped(1), Flat(A19)):
            loop = FnConstraint(spec.value, spec.shape)
            rows = tuple(itertools.islice(_rows(spec, False), 300))
            assert solve_doublemex(spec, 300).pairs == rows
            assert rows[:6] == pinned[type(spec)][0]
            for gen in (recurrence_closed, solve_relaxed):
                assert gen(spec, 300).pairs == gen(loop, 300).pairs, gen.__name__
            assert recurrence_closed(spec, 6).pairs == pinned[type(spec)][1]

    def test_count_cap(self):
        for gen in (solve_doublemex, solve_relaxed, recurrence_closed):
            with pytest.raises(ValueError, match="exceeds the cap"):
                gen(Constant(1), MAX_COUNT + 1)

    def test_row_rule_cap(self):
        # GENERAL constraints run the quadratic row rule, and ParityHalf's
        # recurrence is checked against it only this far; the other shapes are not capped.
        for spec in (ParityHalf(), ExplicitTable({(0, 0, 1): 1})):
            with pytest.raises(ValueError, match=f"count {MAX_ROW_RULE_COUNT + 1} exceeds the cap "
                                                 f"{MAX_ROW_RULE_COUNT} for a GENERAL constraint"):
                solve_doublemex(spec, MAX_ROW_RULE_COUNT + 1)
        # an empty table allows no diagonal move, so the P-positions are (n, n)
        assert solve_doublemex(ExplicitTable({}), MAX_ROW_RULE_COUNT).pairs == tuple(
            (n, n) for n in range(MAX_ROW_RULE_COUNT))
        for spec in (Constant(1), TargetBeatty(A55)):
            assert len(solve_doublemex(spec, MAX_ROW_RULE_COUNT + 1)) == MAX_ROW_RULE_COUNT + 1
        assert len(solve_relaxed(Constant(1), MAX_ROW_RULE_COUNT + 1)) == MAX_ROW_RULE_COUNT + 1

    def test_closed_equals_doublemex_when_inequality_holds(self):
        # 2*min f - max f >= 1 over visited values.  The modified game's rows,
        # not solve_doublemex, which spells these slopes' rows from the words.
        for spec in (Constant(1), Constant(4), BeattyDelta(A19), BeattyDelta(PHI)):
            closed = recurrence_closed(spec, 500)
            assert closed.pairs == tuple(itertools.islice(_rows(spec, False), 500))


class TestRelaxed:
    def test_a55_matches_beatty_rows(self):
        assert solve_relaxed(BeattyDelta(A55), 10).pairs == TABLE_A55_BEATTY

    def test_constant_one(self):
        assert solve_relaxed(Constant(1), 3).pairs == ((0, 0), (1, 2), (3, 5))

    def test_hypothesis_violation(self):
        # parity constraint evaluates to 0 at the first step
        with pytest.raises(HypothesisError):
            solve_relaxed(ParityHalf(), 5)

    def test_undefined_first_step_is_a_hypothesis_error(self):
        # None reads as 0, so the first-step check still refuses it
        with pytest.raises(HypothesisError, match=r"^constraint must be >= 1 at x0 = 1$"):
            solve_relaxed(ExplicitTable({}), 3)

    # f(x0) for x0 = 1, 2, ...: on the rows the recurrence visits (1, 2, 3, 5,
    # 6, 8, 9) it falls from 3 at x0 = 8 to 1 at x0 = 9.
    FALL_BY_TWO = [3, 2, 3, 2, 3, 3, 3, 3] + [1] * 20

    def test_a_fall_by_two_breaks_the_recurrence(self):
        spec = FnConstraint(lambda x1, y1, x0: self.FALL_BY_TWO[x0 - 1], Shape.ORIGIN)
        assert solve_relaxed(spec, 12).pairs[7] == (9, 27)
        truth = naive_p_positions(RuleSet(Family.RELAXED, spec), 24)
        assert Position(9, 24) in truth
        assert list(itertools.islice(_rows(spec, True), 12))[7] == (9, 24)

    def test_third_game_outside_quadratic_fields(self):
        """alpha = e - 1, beta = (e-1)/(e-2): the Beatty rows from an exact
        enclosure of e (the sum of 1/k! for k < 40, and that plus 2/40!, a
        bound on the tail) where both ends give the same floors.  With
        delta2 of those rows read by x0, relaxed Wythoff's rows are the
        Beatty rows; the modified game's leave them at n = 2."""
        count = 10**4
        lo = sum(Fraction(1, factorial(k)) for k in range(40))
        ends = [(e - 1, (e - 1) / (e - 2)) for e in (lo, lo + Fraction(2, factorial(40)))]
        rows = []
        for n in range(count + 2):
            low, high = [(n * alpha // 1, n * beta // 1) for alpha, beta in ends]
            assert low == high, n
            rows.append(low)
        f = {}  # row n covers x0 in [floor(n*alpha), floor((n+1)*alpha))
        for n in range(1, count + 1):
            (a0, b0), (a1, b1), (a2, _) = rows[n - 1:n + 2]
            f.update(dict.fromkeys(range(a1, a2), (b1 - b0) - (a1 - a0)))
        spec = FnConstraint(lambda x1, y1, x0: f[x0], Shape.ORIGIN)
        assert list(itertools.islice(_rows(spec, True), count)) == rows[:count]
        modified = list(itertools.islice(_rows(spec, False), 3))
        assert modified[:2] == rows[:2] and modified[2] != rows[2]

    def test_recurrence_is_exact_when_f_falls_by_at_most_one(self):
        """Random origin-only f, drawn along the visited rows: f >= 1 at the
        first step, and each visited row's f is at least the last one's minus 1."""
        rng = random.Random(20261019)
        for _ in range(300):
            top = rng.choice((1, 2, 3, 5, 9))
            drawn = {}

            def value(x1, y1, x0):
                if x0 not in drawn:
                    low = max(drawn[max(drawn)] - 1, 0) if drawn else 1
                    drawn[x0] = rng.randint(low, max(low, top))
                return drawn[x0]

            spec = FnConstraint(value, Shape.ORIGIN)
            got = solve_relaxed(spec, 60).pairs
            assert got == tuple(itertools.islice(_rows(spec, True), 60)), drawn

    def test_complementary_and_monotone(self):
        for spec in (BeattyDelta(A55), BeattyDelta(A19), Constant(3)):
            table = solve_relaxed(spec, 300)
            values = sorted(v for pair in table.pairs for v in pair if v != 0)
            assert len(values) == len(set(values))
            # complementarity is exact up to the last mex-generated value
            horizon = table.pairs[-1][0]
            assert [v for v in values if v <= horizon] == list(range(1, horizon + 1))
            diffs = [b - a for a, b in table.pairs]
            assert all(d1 <= d2 for d1, d2 in zip(diffs, diffs[1:]))


class MexStream:
    """Incremental mex over a growing set of used integers."""

    def __init__(self):
        self.used = set()
        self._next = 0

    def add(self, v):
        self.used.add(v)

    def take(self):
        while self._next in self.used:
            self._next += 1
        self.used.add(self._next)
        return self._next


def closed_reference(constraint, count):
    """The closed recurrence as its own loop, before it shared one with relaxed."""
    if count < 1:
        raise ValueError("count must be >= 1")
    pairs = [(0, 0)]
    stream = MexStream()
    stream.add(0)
    for _ in range(1, count):
        a_prev, b_prev = pairs[-1]
        a = stream.take()
        f = constraint.value(a_prev, b_prev, a)
        if f is None:
            raise ValueError(f"constraint undefined at ({a_prev}, {b_prev}, {a})")
        b = f + b_prev + a - a_prev
        stream.add(b)
        pairs.append((a, b))
    for a, b in pairs:  # a negative f can push b below a; the a's are mex values
        if b < a:
            raise ValueError(f"pair ({a}, {b}) violates a <= b")
    return PTable(tuple(pairs), TableSource.CLOSED_RECURRENCE)


def relaxed_reference(constraint, count):
    """The relaxed recurrence as its own loop, before it shared one with closed."""
    if count < 1:
        raise ValueError("count must be >= 1")
    pairs = [(0, 0)]
    stream = MexStream()
    stream.add(0)
    for n in range(1, count):
        a_prev, b_prev = pairs[-1]
        a = stream.take()
        f = constraint.value(a_prev, b_prev, a)
        if f is None:
            f = 0
        if f < 0:
            raise HypothesisError(f"constraint is negative ({f}) at x0 = {a}")
        if n == 1 and f < 1:
            raise HypothesisError("constraint must be >= 1 at x0 = 1")
        b = f + b_prev + a - a_prev
        stream.add(b)
        pairs.append((a, b))
    return PTable(tuple(pairs), TableSource.RELAXED_RECURRENCE)


def outcome(fn, *args):
    """A generator's pairs, or the type and message of what it raised."""
    try:
        return fn(*args).pairs
    except (ValueError, KeyError) as exc:  # HypothesisError is a ValueError
        return type(exc), str(exc)


class TestRecurrenceLoop:
    def test_matches_the_separate_loops(self):
        rng = random.Random(20261018)
        kinds = set()
        for trial in range(400):
            origin_only = trial % 2 == 0
            lo = rng.randint(-2, 4)
            hi = rng.randint(lo, 4)

            def fn(x1, y1, x0, seed=trial, lo=lo, hi=hi, origin_only=origin_only):
                # a fixed function of its key (or of x0 alone), whatever the call order
                draw = random.Random(f"{seed}:{x0}" if origin_only else f"{seed}:{x1}:{y1}:{x0}")
                return None if draw.random() < 0.1 else draw.randint(lo, hi)

            spec = FnConstraint(fn, Shape.ORIGIN if origin_only else Shape.GENERAL)
            count = rng.randint(0, 60)
            for gen, reference in (
                (recurrence_closed, closed_reference),
                (solve_relaxed, relaxed_reference),
            ):
                got = outcome(gen, spec, count)
                assert got == outcome(reference, spec, count), (trial, gen.__name__)
                kinds.add((gen.__name__, got[0] if isinstance(got[0], type) else "pairs"))
        # both loops finished tables and raised each of their errors
        assert kinds == {
            ("recurrence_closed", "pairs"), ("recurrence_closed", ValueError),
            ("solve_relaxed", "pairs"), ("solve_relaxed", ValueError),
            ("solve_relaxed", HypothesisError),
        }


    def test_beatty_words_equal_the_loop(self):
        # Constant and BeattyDelta spell their rows from step words; the loop,
        # reached through a wrapper with no words, is the reference.  Counts lie
        # either side of the held words (quadfield._HELD_ROWS = 4096), and
        # floor(beta) >= 255 for golden_alpha(300) and Constant(255).
        slopes = [PHI, A55, A19, SQRT2, *criterion_10_slopes(8), golden_alpha(300)]
        specs = [BeattyDelta(alpha) for alpha in slopes]
        specs += [Constant(t) for t in (1, 2, 3, 4, 7, 254, 255, 10**9)]
        for spec in specs:
            loop = FnConstraint(spec.value, Shape.ORIGIN)
            for count in (1, 2, 3, 64, 4096, 4097, 4098, 10**4):
                for gen in (solve_relaxed, recurrence_closed):
                    assert gen(spec, count) == gen(loop, count), (spec, count, gen.__name__)


class TestOracle:
    def test_classical_wythoff(self):
        rules = RuleSet(Family.MODIFIED, Constant(1))
        assert retrograde_oracle(rules, 10) == {
            Position(0, 0), Position(1, 2), Position(3, 5), Position(4, 7), Position(6, 10),
        }

    def test_divergent_beatty_membership(self):
        rules = RuleSet(Family.MODIFIED, BeattyDelta(A55))
        pset = retrograde_oracle(rules, 26)
        assert Position(4, 5) in pset and Position(10, 15) in pset
        assert Position(4, 9) not in pset

    def test_bound_one(self):
        rules = RuleSet(Family.MODIFIED, Constant(1))
        pset = retrograde_oracle(rules, 1)
        assert Position(0, 0) in pset
        assert Position(0, 1) not in pset and Position(1, 1) not in pset

    def test_bound_cap(self):
        rules = RuleSet(Family.MODIFIED, Constant(1))
        with pytest.raises(ValueError, match="oracle bound 4097 exceeds the cap 4096"):
            retrograde_oracle(rules, MAX_ORACLE_BOUND + 1)
        assert retrograde_oracle(rules, MAX_ORACLE_BOUND)

    def test_equals_doublemex_modified(self):
        bound = 80
        specs = [Constant(t) for t in range(1, 6)]
        specs += [BeattyDelta(a) for a in (A55, A19, PHI, SQRT2)]
        specs += [ParityHalf(), TargetBeatty(PHI)]
        for spec in specs:
            rules = RuleSet(Family.MODIFIED, spec)
            truth = retrograde_oracle(rules, bound)
            table = solve_doublemex(spec, 80)
            expect = {Position(a, b) for a, b in table.pairs if b <= bound}
            assert truth == expect, f"oracle mismatch for {spec}"

    def test_equals_relaxed_recurrence(self):
        # No recurrence reads the shape: both also run on TargetBeatty (GAP_AFFINE).
        bound = 600
        specs = [Constant(t) for t in range(1, 6)]
        specs += [cls(a) for a in (A55, A19, PHI, SQRT2) for cls in (BeattyDelta, TargetBeatty)]
        for spec in specs:
            rules = RuleSet(Family.RELAXED, spec)
            truth = retrograde_oracle(rules, bound)
            for table in (solve_relaxed(spec, bound), recurrence_closed(spec, bound)):
                expect = {Position(a, b) for a, b in table.pairs if b <= bound}
                assert truth == expect, f"relaxed oracle mismatch for {spec} ({table.source})"

    def test_equals_naive_search(self):
        specs = [Constant(t) for t in (1, 2, 3)] + [ParityHalf()]
        specs += [BeattyDelta(a) for a in (A55, A19, PHI, SQRT2)]
        specs += [TargetBeatty(a) for a in (A55, A19, PHI, SQRT2)]
        for family in Family:
            for spec in specs:
                rules = RuleSet(family, spec)
                assert retrograde_oracle(rules, 20) == naive_p_positions(rules, 20), rules
        # The naive search never reads the shape: it checks the shaped rows.
        rng = random.Random(20261022)
        for spec in random_shaped_specs(rng, 12, 25):
            for family in Family:
                bound = rng.randint(1, 24)
                rules = RuleSet(family, spec)
                assert retrograde_oracle(rules, bound) == naive_p_positions(rules, bound), (
                    spec.shape, family, bound)

    def test_shaped_rows_equal_general_rows(self):
        rng = random.Random(20261020)
        specs = [Constant(t) for t in (1, 2, 3, 4)]
        specs += [BeattyDelta(a) for a in (A55, A19, PHI, SQRT2)]
        specs += [TargetBeatty(a) for a in (A55, A19, PHI, SQRT2)]
        specs += random_shaped_specs(rng, 16, 600)
        specs.append(gap_affine(lambda x0: 300 - x0))  # rows 1..299 all aim at y = 300
        cases = [(spec, relaxed) for spec in specs for relaxed in (False, True)]
        # Relaxed ORIGIN f from [1, 40] and from [-2, 6], a tenth undefined.
        for lo, hi in [(1, 40), (-2, 6)] * 8:
            f = [None if rng.random() < 0.1 else rng.randint(lo, hi) for _ in range(600)]
            cases.append((FnConstraint(lambda x1, y1, x0, f=f: f[x0], Shape.ORIGIN), True))
        falls = 0
        for spec, relaxed in cases:
            general = FnConstraint(spec.value, Shape.GENERAL)
            bound = rng.randint(1, 200)
            assert list(_rows(spec, relaxed, bound)) == list(
                _rows(general, relaxed, bound)), (spec, relaxed, bound)
            # a_n <= 2n - 1, so 300 pairs read x0 < 600
            rows = list(itertools.islice(_rows(spec, relaxed), 300))
            assert rows == list(itertools.islice(_rows(general, relaxed), 300)), (spec, relaxed)
            if relaxed and spec.shape is Shape.ORIGIN:
                falls += any(b < prev for (_, prev), (_, b) in zip(rows, rows[1:]))
        # The staircase's hard case: a relaxed b_n below b_{n-1}.
        assert falls >= 1

    def test_evaluations_per_row(self):
        # A shaped constraint is read once per labelled row x >= 1, the rows
        # whose x is not the larger element of an earlier P-pair, at
        # (0, 0, x); a GENERAL one once per orientation of each P-pair the
        # row reaches.
        def counted(spec, shape):
            calls = []

            def value(*args):
                calls.append(args)
                return spec.value(*args)

            return FnConstraint(value, shape), calls

        bound = 600
        for family in Family:
            for spec in (Constant(1), Constant(3), BeattyDelta(PHI), BeattyDelta(A55),
                         TargetBeatty(PHI), TargetBeatty(A55), ParityHalf()):
                for shape in {spec.shape, Shape.GENERAL}:
                    wrapped, calls = counted(spec, shape)
                    pset = retrograde_oracle(RuleSet(family, wrapped), bound)
                    larger = {y for x, y in pset if x < y}
                    rows = [x for x in range(1, bound + 1) if x not in larger]
                    if shape is Shape.GENERAL:
                        assert len(calls) == sum(
                            sum(a < x and b < bound for a, b in pset) + sum(a < b < x for a, b in pset)
                            for x in rows), (family, spec)
                    else:
                        assert calls == [(0, 0, x) for x in rows], (family, spec)
        # The same count as one evaluation per orientation before the
        # shaped rows: 101,458 at 230 P-pairs.
        wrapped, calls = counted(Constant(1), Shape.GENERAL)
        assert len(retrograde_oracle(RuleSet(Family.MODIFIED, wrapped), 600)) == 230
        assert len(calls) == 101458

    def test_piled_up_used_values(self):
        # gap(x) = k - x aims rows 1..k-1 at y = k, so their values pile up
        # into one run that each row skips past through the union-find.
        def model(k, bound):
            """Least unused y >= x + max(g, 0), kept if y <= bound."""
            used, pset = {0}, {Position(0, 0)}
            for x in range(1, bound + 1):
                if x not in used:
                    y = x + max(k - x, 0)
                    while y in used:
                        y += 1
                    used.update((x, y))
                    if y <= bound:
                        pset.add(Position(x, y))
            return pset

        wide, small = model(2048, MAX_ORACLE_BOUND), model(300, 600)
        for family in Family:
            spec = gap_affine(lambda x0: 2048 - x0)
            assert retrograde_oracle(RuleSet(family, spec), MAX_ORACLE_BOUND) == wide, family
            spec = gap_affine(lambda x0: 300 - x0)
            general = FnConstraint(spec.value, Shape.GENERAL)
            assert retrograde_oracle(RuleSet(family, spec), 600) == small, family
            assert retrograde_oracle(RuleSet(family, general), 600) == small, family

    def test_truncation_at_the_cap(self):
        # The oracle at the cap keeps the unbounded rows with x, y <= the cap,
        # and on the board y <= 1,024 it equals the GENERAL rows of the same f.
        cap = MAX_ORACLE_BOUND
        for spec in (Constant(1), Constant(3), BeattyDelta(PHI), BeattyDelta(A55), TargetBeatty(PHI)):
            general = FnConstraint(spec.value, Shape.GENERAL)
            for family in Family:
                pset = retrograde_oracle(RuleSet(family, spec), cap)
                rows = itertools.takewhile(lambda p: p[0] <= cap, _rows(spec, family is Family.RELAXED))
                assert pset == {Position(x, y) for x, y in rows if y <= cap}, (spec, family)
                assert {p for p in pset if p.y <= 1024} == retrograde_oracle(
                    RuleSet(family, general), 1024), (spec, family)

    def test_random_tables_equal_naive_search(self):
        rng = random.Random(20220801)
        for _ in range(24):
            bound = rng.randint(1, 24)
            spec = random_table(rng, bound, origin_only=rng.random() < 0.5)
            for family in Family:
                rules = RuleSet(family, spec)
                assert retrograde_oracle(rules, bound) == naive_p_positions(rules, bound), (
                    family, bound)

    def test_no_diagonal_moves_leaves_the_diagonal(self):
        for family in Family:
            rules = RuleSet(family, ExplicitTable({}))
            pset = retrograde_oracle(rules, 15)
            assert pset == {Position(x, x) for x in range(16)}
            assert pset == naive_p_positions(rules, 15)

    def test_truncation_of_a_larger_board(self):
        specs = [Constant(2), ParityHalf(), BeattyDelta(A55), TargetBeatty(PHI),
                 random_table(random.Random(5), 60, origin_only=False)]
        for family in Family:
            for spec in specs:
                rules = RuleSet(family, spec)
                for bound in (7, 19, 30):
                    wide = retrograde_oracle(rules, 2 * bound)
                    assert retrograde_oracle(rules, bound) == {p for p in wide if p.y <= bound}, (
                        rules, bound)


class TestDetectGap:
    def test_a55_has_unfilled_gap_at_three(self):
        reports = detect_gap(A55, 10)
        assert any(r.n == 3 and not r.filled for r in reports)

    def test_report_is_an_immutable_named_tuple(self):
        report = GapReport(2, 1, 1, False)
        assert report == GapReport(n=2, k=1, gap_size=1, filled=False)
        assert GapReport._fields == ("n", "k", "gap_size", "filled")
        assert repr(report) == "GapReport(n=2, k=1, gap_size=1, filled=False)"
        for name in ("n", "filled", "extra"):
            with pytest.raises(AttributeError):
                setattr(report, name, 3)
        assert report == (2, 1, 1, False) and hash(report) == hash(GapReport(2, 1, 1, False))
        assert report != GapReport(2, 1, 1, True) and len({report, GapReport(2, 1, 1, False)}) == 1
        assert all(type(r) is GapReport for r in detect_gap(A55, 10))

    def test_a19_never_unfilled(self):
        assert all(r.filled for r in detect_gap(A19, 100)) or not detect_gap(A19, 100)

    def test_golden_t2_empty(self):
        assert detect_gap(SQRT2, 100) == []

    def test_horizon_cap(self):
        assert MAX_HORIZON >= 40  # the benchmark's survey horizon
        assert detect_gap(A19, MAX_HORIZON) == []
        message = rf"^horizon must be in \[1, {MAX_HORIZON}\], got {MAX_HORIZON + 1}$"
        with pytest.raises(ValueError, match=message):
            detect_gap(A19, MAX_HORIZON + 1)

    def test_gap_sizes_positive(self):
        for r in detect_gap(A55, 60):
            assert r.gap_size > 0

    # The four test slopes, two incompatible ones whose gaps are part filled,
    # one whose f reaches 0, so that b_n itself can land in a gap of row n,
    # and seeded compatible and incompatible slopes.
    @pytest.mark.parametrize("alpha", [
        PHI, A55, A19, SQRT2, QuadraticNumber(2, 1, 2, 2), QuadraticNumber(4, 1, 3, 2),
        QuadraticNumber(4, 1, 4, 5), *seeded_slopes_by_kind(4),
    ])
    def test_equals_four_floor_linear_scan_form(self, alpha):
        """Same reports as four exact floors per row and a scan over every b_j,
        at every horizon a prefix of the reports at the largest."""
        pair = conjugate_beatty(alpha)
        horizon = 120
        a = [beatty_floor(alpha, n) for n in range(horizon + 1)]
        b = [beatty_floor(pair.beta, n) for n in range(horizon + 1)]
        f = [0] + [pair.delta2(n) for n in range(1, horizon + 1)]
        want = []
        for n in range(2, horizon + 1):
            for k in range(1, n):
                size = f[k] - 2 * f[n] + 1
                if size > 0:
                    lo = a[n] + b[k - 1] - a[k - 1] + f[n]
                    filled = any(lo <= b[j] <= lo + size - 1 for j in range(n))
                    want.append(GapReport(n=n, k=k, gap_size=size, filled=filled))
        for h in (1, 2, 40, horizon):
            assert detect_gap(alpha, h) == [r for r in want if r.n <= h], (alpha, h)
        assert bool(want) != classify_alpha(alpha).compatible


def parsers(pairs, source):
    """Calls that write the pairs as CSV and as JSON and parse each back: only
    the parsers (and recurrence_closed's loop) check a table."""
    table = PTable(tuple(pairs), source)
    return (
        lambda: ptable_from_csv(ptable_to_csv(table)),
        lambda: ptable_from_json(ptable_to_json(table)),
    )


class TestPTableValidation:
    def test_must_start_at_origin(self):
        for parse in parsers(((1, 2),), TableSource.ORACLE):
            with pytest.raises(ValueError, match=r"^tables start at \(0, 0\)$"):
                parse()
        for parse in parsers((), TableSource.ORACLE):
            with pytest.raises(ValueError, match="^a table needs at least the terminal pair$"):
                parse()

    def test_a_strictly_increasing(self):
        for parse in parsers(((0, 0), (2, 3), (1, 5)), TableSource.ORACLE):
            with pytest.raises(ValueError, match="^a_n must be strictly increasing$"):
                parse()

    def test_no_reuse_for_recurrence_sources(self):
        for parse in parsers(((0, 0), (1, 3), (2, 3)), TableSource.DOUBLE_MEX):
            with pytest.raises(ValueError, match="repeats"):
                parse()
        for parse in parsers(((0, 0), (1, 3), (2, 3)), TableSource.ORACLE):
            parse()  # oracle tables unchecked

    @pytest.mark.parametrize("source", [TableSource.DOUBLE_MEX, TableSource.RELAXED_RECURRENCE])
    @pytest.mark.parametrize("pairs, repeated", [
        (((0, 0), (1, 3), (2, 5), (3, 7)), 3),  # b_1 = a_3
        (((0, 0), (1, 1), (2, 4), (4, 6)), 4),  # b_2 = a_3, after a tie
        (((0, 0), (1, 1), (2, 3), (3, 3)), 3),  # b_2 = the tie a_3 = b_3
        (((0, 0), (1, 2), (3, 9), (4, 9)), 9),
        (((0, 0), (1, 4), (2, 9), (4, 9)), 4),  # a_3 and b_3 both repeat: a_3 comes first
    ])
    def test_repeat_across_pairs_names_the_value(self, source, pairs, repeated):
        for parse in parsers(pairs, source):
            with pytest.raises(ValueError, match=rf"^value {repeated} repeats in the table$"):
                parse()
        # closed and oracle tables are not repeat-checked
        for unchecked in (TableSource.CLOSED_RECURRENCE, TableSource.ORACLE):
            for parse in parsers(pairs, unchecked):
                assert parse() == PTable(pairs, unchecked)

    @pytest.mark.parametrize("source", [TableSource.DOUBLE_MEX, TableSource.RELAXED_RECURRENCE])
    def test_a_equal_b_is_not_a_repeat(self, source):
        for pairs in (((0, 0), (1, 1)), ((0, 0), (1, 1), (2, 4), (3, 3), (5, 6))):
            for parse in parsers(pairs, source):
                assert parse().pairs == pairs

    def test_repeat_check_matches_a_value_walk(self):
        rng = random.Random(20261018)
        for _ in range(2000):
            pairs, a = [(0, 0)], 0
            for _ in range(rng.randint(0, 6)):
                a += rng.randint(1, 2)
                pairs.append((a, a + rng.randint(0, 4)))
            values = [v for a, b in pairs[1:] for v in {a, b}]
            repeats = len(values) != len(set(values))
            for parse in parsers(pairs, TableSource.DOUBLE_MEX):
                try:
                    parse()
                except ValueError as exc:
                    assert repeats and "repeats" in str(exc), (pairs, exc)
                else:
                    assert not repeats, pairs

    def test_a_below_b_is_checked(self):
        for source in TableSource:
            for parse in parsers(((0, 0), (1, 3), (2, 1)), source):
                with pytest.raises(ValueError, match=r"^pair \(2, 1\) violates a <= b$"):
                    parse()


class TestSerialization:
    def test_csv_round_trip(self):
        table = solve_doublemex(BeattyDelta(A55), 10)
        assert ptable_from_csv(ptable_to_csv(table)) == table
        assert ptable_from_csv(ptable_to_csv(table, alpha=A55)) == table

    def test_csv_columns(self):
        text = ptable_to_csv(solve_doublemex(BeattyDelta(A55), 4), alpha=A55)
        lines = text.splitlines()
        assert lines[1] == "n,a_n,b_n,floor_n_alpha,floor_n_beta,delta2"
        assert lines[2] == "0,0,0,0,0,"
        assert lines[3] == "1,1,3,1,3,2"

    def test_json_round_trip(self):
        table = solve_relaxed(Constant(2), 12)
        assert ptable_from_json(ptable_to_json(table)) == table
        assert ptable_from_json(ptable_to_json(table, alpha=None)) == table

    @pytest.mark.parametrize("text", [
        "[1]", "{}", '{"pairs": [[0, 0]]}',
        # wrong field types: a float, a string or a boolean is not a pile size
        '{"pairs": [[0, 0], [1.7, 3]], "source": "oracle"}',
        '{"pairs": [[0, 0], ["1", 3]], "source": "oracle"}',
        '{"pairs": [[0, 0], [1, true]], "source": "oracle"}',
        # a pair of three values, an unknown source, nesting past the parser's depth
        '{"pairs": [[0, 0, 0]], "source": "oracle"}',
        '{"pairs": [[0, 0]], "source": "guess"}',
        pytest.param("[" * 200_000, id="nested"),
    ])
    def test_malformed_json_is_a_value_error(self, text):
        with pytest.raises(ValueError, match="malformed ptable"):
            ptable_from_json(text)

    @pytest.mark.parametrize("text, message", [
        ("", "unexpected CSV header: None"),
        ("n,a_n,b_n\n0,0,0\n1,2\n", "short CSV row"),
        pytest.param("n,a_n,b_n\n0,0," + "1" * 200_000 + "\n", "malformed CSV: field larger", id="long-field"),
    ])
    def test_malformed_csv_is_a_value_error(self, text, message):
        with pytest.raises(ValueError, match=message):
            ptable_from_csv(text)

    def test_every_generator_path_parses_back(self):
        # No generator checks its own table; the parsers do.  So every path's
        # output must read back unchanged, through JSON and through CSV.
        rng = random.Random(20261021)
        specs = [Constant(1), Constant(3), BeattyDelta(A55), BeattyDelta(A19),
                 TargetBeatty(A55), TargetBeatty(PHI), ParityHalf()]
        for _ in range(40):
            f = random_origin_f(rng, 150)
            specs.append(FnConstraint(lambda x1, y1, x0, f=f: f[x0], Shape.ORIGIN))
        for _ in range(10):
            g = [None if rng.random() < 0.2 else rng.randint(-3, 7) for _ in range(300)]
            specs.append(gap_affine(g.__getitem__))
        for _ in range(10):
            specs.append(random_table(rng, 16, origin_only=rng.random() < 0.5))
        paths = set()
        for spec in specs:
            tables = [solve_doublemex(spec, 150)]
            paths.add(spec.shape)
            try:
                tables.append(solve_relaxed(spec, 150))
                paths.add("relaxed")
            except HypothesisError:
                pass
            for family in Family:
                tables.append(oracle_ptable(retrograde_oracle(RuleSet(family, spec), 16)))
            paths.add("oracle")
            for table in tables:
                assert ptable_from_json(ptable_to_json(table)) == table, spec
                assert ptable_from_csv(ptable_to_csv(table)) == table, spec
        assert paths == {Shape.ORIGIN, Shape.GAP_AFFINE, Shape.GENERAL, "relaxed", "oracle"}


def young_tuple_lengths(call):
    """call()'s result, and the longest tuple in generation 0 at the start of
    each young collection during the call.  Objects made before it are aged
    first, so only the call's own tuples count."""
    longest = []

    def hook(phase, info):
        if phase == "start" and info["generation"] == 0:
            longest.append(max((len(o) for o in gc.get_objects(0) if type(o) is tuple), default=0))

    gc.collect()
    gc.callbacks.append(hook)
    try:
        result = call()
    finally:
        gc.callbacks.remove(hook)
    return result, longest


class TestTableBuild:
    """Every table is built in a list and made a tuple once (module docstring)."""

    def test_no_young_collection_sees_a_half_built_table(self):
        # A tuple grown from an iterator re-enters generation 0 on each
        # resize, so every young collection in the call would scan it again.
        big = solve_relaxed(Constant(1), 10**5)
        json_text, csv_text = ptable_to_json(big), ptable_to_csv(big)
        loop = FnConstraint(Constant(2).value, Shape.ORIGIN)
        calls = {
            "solve_doublemex(rows)": lambda: solve_doublemex(BeattyDelta(A55), 2 * 10**4),
            "solve_doublemex(words)": lambda: solve_doublemex(BeattyDelta(A19), 10**5),
            "ptable_from_json": lambda: ptable_from_json(json_text),
            "ptable_from_csv": lambda: ptable_from_csv(csv_text),
        }
        for spec in (BeattyDelta(A19), Constant(2), loop):  # word, word, loop path
            for generator in (solve_relaxed, recurrence_closed):
                calls[f"{generator.__name__}({spec.kind})"] = (
                    lambda generator=generator, spec=spec: generator(spec, 10**5))
        for name, call in calls.items():
            _, longest = young_tuple_lengths(call)
            assert longest, name  # the call ran young collections
            assert max(longest) < 1000, (name, max(longest))

    def test_pairs_are_a_tuple_of_tuples(self):
        # PTable equality compares pairs: a list would never equal a tuple.
        loop = FnConstraint(Constant(2).value, Shape.ORIGIN)
        specs = (BeattyDelta(A19), BeattyDelta(A55), TargetBeatty(A55), loop)
        tables = [solve_doublemex(spec, 300) for spec in specs]
        tables.append(solve_doublemex(ParityHalf(), 50))
        for spec in (BeattyDelta(A19), Constant(2), loop):
            tables += [solve_relaxed(spec, 300), recurrence_closed(spec, 300)]
        for family in Family:
            tables.append(oracle_ptable(retrograde_oracle(RuleSet(family, Constant(1)), 100)))
        tables += [parse() for table in list(tables) for parse in parsers(table.pairs, table.source)]
        for table in tables:
            assert type(table.pairs) is tuple, table.source
            assert all(type(row) is tuple for row in table.pairs), table.source


def reference_ptable_json(table, alpha=None):
    """ptable_to_json as json.dumps of the whole record, the Beatty columns
    from exact floors."""
    data = {
        "schema": SCHEMA,
        "kind": "ptable",
        "source": table.source.value,
        "pairs": [list(p) for p in table.pairs],
    }
    if alpha is not None:
        beta = conjugate_beatty(alpha).beta
        fa = [beatty_floor(alpha, n) for n in range(len(table))]
        fb = [beatty_floor(beta, n) for n in range(len(table))]
        data["alpha"] = str(alpha)
        data["beatty"] = [
            {"floor_n_alpha": fa[n], "floor_n_beta": fb[n],
             "delta2": None if n == 0 else fb[n] - fb[n - 1] - (fa[n] - fa[n - 1])}
            for n in range(len(table))
        ]
    return json.dumps(data, indent=2)


def reference_positions_json(positions, bound):
    data = {"schema": SCHEMA, "kind": "oracle", "bound": bound, "positions": [list(p) for p in sorted(positions)]}
    return json.dumps(data, indent=2)


BIG = st.integers(-10**30, 10**30)


class TestJsonWriters:
    """The row-by-row writers against json.dumps(record, indent=2)."""

    def test_every_generator_path_and_parser(self):
        specs = [Constant(1), Constant(3), BeattyDelta(A55), BeattyDelta(A19), TargetBeatty(A55),
                 TargetBeatty(PHI), ParityHalf()]
        for spec in specs:
            tables = [recurrence_closed(spec, 60), solve_doublemex(spec, 60)]
            try:
                tables.append(solve_relaxed(spec, 60))
            except HypothesisError:
                pass
            for family in Family:
                tables.append(oracle_ptable(retrograde_oracle(RuleSet(family, spec), 40)))
            for table in [*tables]:
                tables += [ptable_from_csv(ptable_to_csv(table)), ptable_from_json(ptable_to_json(table))]
            for table in tables:
                for alpha in {None, getattr(spec, "alpha", None)}:
                    assert ptable_to_json(table, alpha) == reference_ptable_json(table, alpha), (spec, alpha)

    @pytest.mark.parametrize("count", [1, 2, 2 * 10**4])
    @pytest.mark.parametrize("spec", [BeattyDelta(A55), BeattyDelta(A19), TargetBeatty(A55)])
    def test_sizes(self, spec, count):
        table = solve_doublemex(spec, count)
        for alpha in (None, spec.alpha):
            assert ptable_to_json(table, alpha) == reference_ptable_json(table, alpha)

    def test_oracle_sets(self):
        for spec in (Constant(1), BeattyDelta(A55), TargetBeatty(PHI), ParityHalf()):
            for family in Family:
                for bound in (1, 2, 60):
                    pset = retrograde_oracle(RuleSet(family, spec), bound)
                    assert positions_to_json(pset, bound) == reference_positions_json(pset, bound)
        assert positions_to_json(set(), 7) == reference_positions_json(set(), 7)
        assert '"positions": []' in positions_to_json(set(), 7)

    @settings(max_examples=200, deadline=None, database=None)
    @given(pairs=st.lists(st.tuples(BIG, BIG), max_size=30), source=st.sampled_from(TableSource),
           alpha=st.sampled_from([None, A55, A19, PHI]),
           positions=st.sets(st.builds(Position, BIG, BIG), max_size=30), bound=BIG)
    @example(pairs=[], source=TableSource.ORACLE, alpha=A55, positions=set(), bound=0)
    @example(pairs=[(0, 0)], source=TableSource.DOUBLE_MEX, alpha=A55, positions={Position(0, 0)}, bound=1)
    def test_random_integer_tables(self, pairs, source, alpha, positions, bound):
        table = PTable(tuple(pairs), source)
        assert ptable_to_json(table, alpha) == reference_ptable_json(table, alpha)
        assert ptable_to_json(table) == reference_ptable_json(table)
        assert positions_to_json(positions, bound) == reference_positions_json(positions, bound)
