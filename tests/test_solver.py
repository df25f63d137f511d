import random
import tracemalloc

import pytest

from beatty_games.classifier import enumerate_families
from beatty_games.games import (
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
    MAX_ORACLE_BOUND_ENV,
    PTable,
    TableSource,
    compare_tables,
    detect_gap,
    oracle_table,
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
SQRT2 = QuadraticNumber.sqrt(2)

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
    """Test-only constraint from any fn(x1, y1, x0), with the shape (and, when
    gap-affine, the gap hook) as given."""

    kind = "test_fn"

    def __init__(self, fn, shape, gap=None):
        self.fn = fn
        self.shape = shape
        self.gap = gap

    def value(self, x1, y1, x0):
        return self.fn(x1, y1, x0)


def random_origin_f(rng, count):
    """f(x0) for every x0 < 2*count (a_n <= 2n - 1): values in a random
    sub-range of [-1, 9], each missing (None) at a random rate up to 20%."""
    lo = rng.randint(-1, 9)
    hi = rng.randint(lo, 9)
    miss = rng.choice((0.0, 0.05, 0.2))
    return [None if rng.random() < miss else rng.randint(lo, hi) for _ in range(2 * count)]


def random_slope(rng):
    """A seeded slope (p + q*sqrt(d))/r, irrational and in (1, 2)."""
    while True:
        alpha = QuadraticNumber(rng.randint(-30, 30), rng.choice((-3, -2, -1, 1, 2, 3)),
                                rng.randint(1, 12), rng.randint(2, 50))
        if alpha.q != 0 and 1 < alpha < 2:
            return alpha


def beatty_table(alpha, count):
    beta = conjugate_beatty(alpha).beta
    pairs = tuple((beatty_floor(alpha, n), beatty_floor(beta, n)) for n in range(count))
    return PTable(pairs, TableSource.ORACLE)


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
        table = solve_doublemex(ParityHalf(), 200)
        for n in range(2, 200):
            a, b = table.pairs[n]
            a_prev, b_prev = table.pairs[n - 1]
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
        fns += [Constant(t).value for t in (1, 2, 3, 4, 7)]
        fns += [BeattyDelta(a).value for a in (A55, A19, PHI, SQRT2)]
        for fn in fns:
            fast = solve_doublemex(FnConstraint(fn, Shape.ORIGIN), 400)
            generic = solve_doublemex(FnConstraint(fn, Shape.GENERAL), 400)
            assert fast == generic

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
            def fn(x1, y1, x0, gap=gap):
                g = gap(x0)
                return None if g is None else g - (y1 - x1)

            fast = solve_doublemex(FnConstraint(fn, Shape.GAP_AFFINE, gap), 60)
            assert fast == solve_doublemex(FnConstraint(fn, Shape.GENERAL), 60)

    def test_near_linear_constraint_calls(self):
        # A silent fallback to the quadratic row sweep doubles the ratio.
        def calls(spec, count):
            made = [0]

            def counted(fn):
                def wrapped(*args):
                    made[0] += 1
                    return fn(*args)
                return wrapped

            solve_doublemex(FnConstraint(counted(spec.value), spec.shape, counted(spec.gap)), count)
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

    def test_count_cap(self):
        for gen in (solve_doublemex, solve_relaxed, recurrence_closed):
            with pytest.raises(ValueError, match="exceeds the cap"):
                gen(Constant(1), MAX_COUNT + 1)

    def test_closed_equals_doublemex_when_inequality_holds(self):
        # 2*min f - max f >= 1 over visited values
        for spec in (Constant(1), Constant(4), BeattyDelta(A19), BeattyDelta(PHI)):
            closed = recurrence_closed(spec, 500)
            assert compare_tables(closed, solve_doublemex(spec, 500)) is None


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

    def test_memory_guard(self, monkeypatch):
        monkeypatch.setenv(MAX_ORACLE_BOUND_ENV, "100")
        rules = RuleSet(Family.MODIFIED, Constant(1))
        with pytest.raises(ValueError, match="memory guard"):
            retrograde_oracle(rules, 101)
        assert retrograde_oracle(rules, 100)

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
        bound = 80
        specs = [Constant(t) for t in range(1, 6)]
        specs += [BeattyDelta(a) for a in (A55, A19, PHI, SQRT2)]
        for spec in specs:
            rules = RuleSet(Family.RELAXED, spec)
            truth = retrograde_oracle(rules, bound)
            table = solve_relaxed(spec, 80)
            expect = {Position(a, b) for a, b in table.pairs if b <= bound}
            assert truth == expect, f"relaxed oracle mismatch for {spec}"

    def test_equals_naive_search(self):
        specs = [Constant(t) for t in (1, 2, 3)] + [ParityHalf()]
        specs += [BeattyDelta(a) for a in (A55, A19, PHI, SQRT2)]
        specs += [TargetBeatty(a) for a in (A55, A19, PHI, SQRT2)]
        for family in Family:
            for spec in specs:
                rules = RuleSet(family, spec)
                assert retrograde_oracle(rules, 20) == naive_p_positions(rules, 20), rules

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


class TestCompareTables:
    def test_divergence_at_three(self):
        top = PTable(TABLE_A55_P, TableSource.DOUBLE_MEX)
        assert compare_tables(top, beatty_table(A55, 10)) == 3

    def test_identical_rows(self):
        dm = solve_doublemex(BeattyDelta(A19), 10)
        assert compare_tables(dm, beatty_table(A19, 10)) is None

    def test_self(self):
        t = beatty_table(PHI, 20)
        assert compare_tables(t, t) is None

    def test_common_prefix_only(self):
        assert compare_tables(beatty_table(PHI, 5), beatty_table(PHI, 30)) is None


class TestDetectGap:
    def test_a55_has_unfilled_gap_at_three(self):
        reports = detect_gap(A55, 10)
        assert any(r.n == 3 and not r.filled for r in reports)

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

    # The four test slopes, two incompatible ones whose gaps are part filled, and
    # one whose f reaches 0, so that b_n itself can land in a gap of row n.
    @pytest.mark.parametrize("alpha", [
        PHI, A55, A19, SQRT2, QuadraticNumber(2, 1, 2, 2), QuadraticNumber(4, 1, 3, 2),
        QuadraticNumber(4, 1, 4, 5),
    ])
    def test_equals_four_floor_linear_scan_form(self, alpha):
        """Same reports as four exact floors per row and a scan over every b_j."""
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
        assert detect_gap(alpha, horizon) == want


class TestPTableValidation:
    def test_must_start_at_origin(self):
        with pytest.raises(ValueError):
            PTable(((1, 2),), TableSource.ORACLE)

    def test_a_strictly_increasing(self):
        with pytest.raises(ValueError):
            PTable(((0, 0), (2, 3), (1, 5)), TableSource.ORACLE)

    def test_no_reuse_for_recurrence_sources(self):
        with pytest.raises(ValueError, match="repeats"):
            PTable(((0, 0), (1, 3), (2, 3)), TableSource.DOUBLE_MEX)
        PTable(((0, 0), (1, 3), (2, 3)), TableSource.ORACLE)  # oracle tables unchecked

    @pytest.mark.parametrize("source", [TableSource.DOUBLE_MEX, TableSource.RELAXED_RECURRENCE])
    @pytest.mark.parametrize("pairs, repeated", [
        (((0, 0), (1, 3), (2, 5), (3, 7)), 3),  # b_1 = a_3
        (((0, 0), (1, 1), (2, 4), (4, 6)), 4),  # b_2 = a_3, after a tie
        (((0, 0), (1, 1), (2, 3), (3, 3)), 3),  # b_2 = the tie a_3 = b_3
        (((0, 0), (1, 2), (3, 9), (4, 9)), 9),
    ])
    def test_repeat_across_pairs_names_the_value(self, source, pairs, repeated):
        with pytest.raises(ValueError, match=rf"^value {repeated} repeats in the table$"):
            PTable(pairs, source)
        for unchecked in (TableSource.CLOSED_RECURRENCE, TableSource.ORACLE):
            assert PTable(pairs, unchecked).pairs == pairs

    @pytest.mark.parametrize("source", [TableSource.DOUBLE_MEX, TableSource.RELAXED_RECURRENCE])
    def test_a_equal_b_is_not_a_repeat(self, source):
        for pairs in (((0, 0), (1, 1)), ((0, 0), (1, 1), (2, 4), (3, 3), (5, 6))):
            assert PTable(pairs, source).pairs == pairs

    def test_repeat_check_matches_a_value_walk(self):
        rng = random.Random(20261018)
        for _ in range(2000):
            pairs, a = [(0, 0)], 0
            for _ in range(rng.randint(0, 6)):
                a += rng.randint(1, 2)
                pairs.append((a, a + rng.randint(0, 4)))
            values = [v for a, b in pairs[1:] for v in {a, b}]
            repeats = len(values) != len(set(values))
            try:
                PTable(tuple(pairs), TableSource.DOUBLE_MEX)
            except ValueError as exc:
                assert repeats and "repeats" in str(exc), (pairs, exc)
            else:
                assert not repeats, pairs


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
    ])
    def test_malformed_json_is_a_value_error(self, text):
        with pytest.raises(ValueError, match="malformed ptable"):
            ptable_from_json(text)

    @pytest.mark.parametrize("text, message", [
        ("", "unexpected CSV header: None"),
        ("n,a_n,b_n\n0,0,0\n1,2\n", "short CSV row"),
    ])
    def test_malformed_csv_is_a_value_error(self, text, message):
        with pytest.raises(ValueError, match=message):
            ptable_from_csv(text)

    def test_oracle_table_sorted(self):
        rules = RuleSet(Family.MODIFIED, Constant(1))
        table = oracle_table(retrograde_oracle(rules, 10))
        assert table.pairs == ((0, 0), (1, 2), (3, 5), (4, 7), (6, 10))
