import copy
import dataclasses
import itertools
import operator
import pickle
import random
import tracemalloc
from fractions import Fraction
from math import gcd, isqrt, lcm

import pytest
from hypothesis import assume, example, given, settings, strategies as st
from mpmath import iv, mpf

from beatty_games import quadfield
from beatty_games.classifier import (
    FamilyLabel,
    _range_and_solutions,
    classify_alpha,
    delta2_range,
    enumerate_families,
    golden_alpha,
    inverse_solve,
)
from beatty_games.quadfield import (
    MAX_RADICAND,
    MAX_RAYLEIGH_LIMIT,
    BeattyPair,
    QuadraticNumber,
    Trichotomy,
    beatty_floor,
    conjugate_beatty,
    delta2,
    rayleigh_verify,
    trichotomy_class,
)
from beatty_games.games import BeattyDelta, Constant
from beatty_games.solver import detect_gap, solve_relaxed

iv.prec = 400  # ~120 decimal digits; the interval floor below must be unambiguous

PHI = QuadraticNumber(1, 1, 2, 5)
A55 = QuadraticNumber(5, 1, 5, 5)  # (5+sqrt5)/5
A19 = QuadraticNumber(-3, 1, 1, 19)  # sqrt19 - 3


def interval_value(x):
    """x, an int or a QuadraticNumber, as a 120-digit interval."""
    if isinstance(x, int):
        return iv.mpf(x)
    return (iv.mpf(x.p) + iv.mpf(x.q) * iv.sqrt(iv.mpf(x.D))) / iv.mpf(x.r)


def interval_floor(x: QuadraticNumber, n: int) -> int:
    """Independent oracle: floor(n*x) via 120-digit interval arithmetic."""
    v = iv.mpf(n) * interval_value(x)
    import mpmath

    lo, hi = mpmath.floor(mpf(v.a)), mpmath.floor(mpf(v.b))
    assert lo == hi, "oracle interval too wide"
    return int(lo)


nonsquare = st.sampled_from([2, 3, 5, 6, 7, 10, 11, 13, 17, 19, 21, 23, 29, 31, 47])
quads = st.builds(
    QuadraticNumber,
    st.integers(-40, 40),
    st.integers(-15, 15),
    st.integers(1, 20),
    nonsquare,
)


rationals_elsewhere = st.builds(
    QuadraticNumber, st.integers(-40, 40), st.just(0), st.integers(1, 20), st.sampled_from([3, 7, 14])
)


@st.composite
def operand_pairs(draw):
    """(x, y): y is a value of x's field, an int, or a value of another
    radicand, rational or not, which arithmetic with x refuses."""
    x = draw(quads)
    same_field = st.builds(
        QuadraticNumber, st.integers(-40, 40), st.integers(-15, 15), st.integers(1, 20), st.just(x.D)
    )
    return x, draw(st.one_of(same_field, st.integers(-30, 30), quads, rationals_elsewhere))


ORDER = (operator.lt, operator.le, operator.gt, operator.ge)
ARITHMETIC = (operator.add, operator.sub, operator.mul, operator.truediv)


def mismatched(x, y) -> bool:
    """y has another radicand than x: arithmetic between them raises."""
    return isinstance(y, QuadraticNumber) and x.D != y.D


def mixed_irrational(x, y) -> bool:
    """Both irrational, of different radicands: comparing them raises too."""
    return mismatched(x, y) and x.q != 0 and y.q != 0


def oracle_sign(x, y) -> int:
    """sign(x - y) from intervals.  Distinct values with the strategies'
    small coefficients lie more than 10**-8 apart, so an interval that holds
    0 means x == y."""
    v = interval_value(x) - interval_value(y)
    return 1 if mpf(v.a) > 0 else -1 if mpf(v.b) < 0 else 0


def assert_normal(x):
    assert isinstance(x, QuadraticNumber)
    assert x.r > 0 and gcd(x.p, x.q, x.r) == 1
    again = QuadraticNumber(x.p, x.q, x.r, x.D)
    assert (x.p, x.q, x.r, x.D) == (again.p, again.q, again.r, again.D)


class TestKernel:
    """Results built without re-normalizing D still have the public normal form."""

    @given(operand_pairs())
    def test_results_are_normalized(self, xy):
        x, y = xy
        results = [-x, x.conjugate()]
        if x != 0:
            results.append(x.inv())
        if not mismatched(x, y):
            results += [x + y, y + x, x - y, y - x, x * y, y * x]
            if x != 0:
                results.append(y / x)
            if y != 0:
                results.append(x / y)
        for got in results:
            assert_normal(got)

    @given(operand_pairs())
    @example((PHI, 2))
    @example((QuadraticNumber(0, 1, 1, 5), QuadraticNumber(2, 0, 1, 2)))  # sqrt5 > 2, 2 carried in D = 2
    @example((QuadraticNumber(3, 0, 2, 5), 3))  # == int must compare r
    @example((QuadraticNumber(6, 1, 1, 5), 6))  # == int must compare q
    @example((QuadraticNumber(3, 1, 2, 5), QuadraticNumber(3, 0, 2, 7)))  # == a rational must compare q
    def test_comparisons_agree_with_sign_of_difference(self, xy):
        x, y = xy
        assume(not mixed_irrational(x, y))
        s = oracle_sign(x, y)
        if not mismatched(x, y):
            assert (x - y).sign() == s
        for op in ORDER + (operator.eq, operator.ne):
            assert op(x, y) == op(s, 0)
            assert op(y, x) == op(0, s)

    @given(quads, quads)
    def test_mixed_irrational_radicands_raise(self, x, y):
        assume(mixed_irrational(x, y))
        for op in ARITHMETIC + ORDER:
            with pytest.raises(ValueError, match="mismatched radicands"):
                op(x, y)

    @given(operand_pairs())
    @example((PHI, QuadraticNumber(1, 0, 2, 3)))
    @example((QuadraticNumber(3, 0, 2, 5), QuadraticNumber(3, 0, 2, 7)))
    def test_other_radicands_do_not_combine(self, xy):
        # A rational of another radicand compares (see above), but takes
        # part in no arithmetic, in either order.
        x, y = xy
        assume(mismatched(x, y))
        for op in ARITHMETIC:
            for a, b in ((x, y), (y, x)):
                with pytest.raises(ValueError, match=f"^mismatched radicands: {a.D} vs {b.D}$"):
                    op(a, b)

    def test_non_numbers_do_not_compare(self):
        # Neither comparisons nor arithmetic take anything but ints and
        # QuadraticNumbers: not a Fraction or a float either.
        for other in ("1", Fraction(1, 2), 1.5):
            for op in ORDER + ARITHMETIC:
                for a, b in ((PHI, other), (other, PHI)):
                    with pytest.raises(TypeError):
                        op(a, b)
            assert PHI != other and not PHI == other

    def test_radicand_cap(self):
        big = QuadraticNumber(0, 1, 1, MAX_RADICAND - 11)  # prime: the longest trial division
        assert big.D == MAX_RADICAND - 11
        with pytest.raises(ValueError, match="radicand must be at most"):
            QuadraticNumber(0, 1, 1, MAX_RADICAND + 1)
        with pytest.raises(ValueError, match="radicand must be at most"):
            QuadraticNumber.from_string("(3+1*sqrt(12345678901234567891))/2")

    @pytest.mark.parametrize("radicand", [5.0, Fraction(5)], ids=["float", "Fraction"])
    def test_non_int_radicand_rejected(self, radicand):
        # Accepted, 5.0 would decide comparisons in float arithmetic.
        with pytest.raises(TypeError, match="radicand must be an int"):
            QuadraticNumber(1, 1, 2, radicand)


class TestArithmetic:
    def test_golden_reciprocal(self):
        x = QuadraticNumber(-1, 1, 2, 5)  # 1/phi
        assert x.inv() == PHI

    def test_symbolic_rationalization(self):
        # ((5+sqrt5)/5) / (sqrt5/5) == 1 + sqrt5, cross-checked by decimal oracle
        got = A55 / QuadraticNumber(0, 1, 5, 5)
        assert got == QuadraticNumber(1, 1, 1, 5)
        assert got.decimal(8) == "3.23606797"

    def test_cmp_equal_values(self):
        assert QuadraticNumber(2 - 1, 1, 2, 5) == PHI
        assert not PHI < PHI

    def test_equal_rationals_hash_equal(self):
        # __eq__ ignores the radicand of a rational, so __hash__ must too
        x, y = QuadraticNumber(3, 0, 2, 5), QuadraticNumber(3, 0, 2, 2)
        assert x == y and hash(x) == hash(y)
        assert len({x, y}) == 1
        two = QuadraticNumber(4, 0, 2, 3)
        assert two == 2 and hash(two) == hash(2)
        assert len({two, 2, QuadraticNumber(2, 0, 1, 7)}) == 1

    def test_normalization(self):
        assert QuadraticNumber(0, 1, 2, 8) == QuadraticNumber(0, 1, 1, 2)
        assert QuadraticNumber(2, 4, 6, 5) == QuadraticNumber(1, 2, 3, 5)
        x = QuadraticNumber(1, 1, -2, 5)
        assert (x.p, x.q, x.r) == (-1, -1, 2)

    def test_perfect_square_radicand_folds(self):
        x = QuadraticNumber(1, 2, 1, 9)
        assert x == 7 and (x.p, x.q, x.r) == (7, 0, 1)

    def test_mixed_radicand_rejected(self):
        with pytest.raises(ValueError, match="mismatched"):
            QuadraticNumber(0, 1, 1, 2) + QuadraticNumber(0, 1, 1, 3)

    def test_division_by_zero(self):
        for zero in (QuadraticNumber(0, 0, 1, 5), 0):
            with pytest.raises(ZeroDivisionError):
                PHI / zero

    def test_int_operands(self):
        assert PHI + 1 == QuadraticNumber(3, 1, 2, 5)
        assert 1 < PHI < 2

    def test_reflected_subtraction(self):
        assert 1 - PHI == QuadraticNumber(1, -1, 2, 5)
        # An unsupported left operand is named on the left.
        with pytest.raises(TypeError, match="'str' and 'QuadraticNumber'"):
            "a" - PHI

    @given(quads, quads.filter(lambda x: x.D in (2, 5)))
    def test_add_sub_roundtrip(self, x, y):
        if x.D != y.D:
            with pytest.raises(ValueError, match="mismatched radicands"):
                x + y
            return
        assert (x + y) - y == x

    @given(quads.filter(lambda x: x != 0))
    def test_mul_inv(self, x):
        assert x * x.inv() == 1

    @settings(deadline=None)
    @given(quads, st.integers(0, 500))
    def test_floor_matches_interval_oracle(self, x, n):
        assert beatty_floor(x, n) == interval_floor(x, n)

    @settings(deadline=None)
    @given(quads)
    def test_sign_matches_oracle(self, x):
        v = iv.mpf(x.p) + iv.mpf(x.q) * iv.sqrt(iv.mpf(x.D))
        if x.q and x.p:
            assert (x.sign() > 0) == (mpf(v.a) > 0) == (mpf(v.b) > 0)

    @given(quads, quads)
    def test_mul_div_roundtrip(self, x, y):
        if x.D != y.D:
            with pytest.raises(ValueError, match="mismatched radicands"):
                x * y
            return
        if y == 0:
            return
        assert (x * y) / y == x


class TestStringFormat:
    def test_decimal_truncates_toward_zero(self):
        root2 = QuadraticNumber(0, 1, 1, 2)
        assert root2.decimal(3) == "1.414"
        assert (-root2).decimal(3) == "-1.414"
        assert (1 - PHI).decimal(4) == "-0.6180"
        assert QuadraticNumber(-7, 0, 4, 5).decimal(1) == "-1.7"
        assert QuadraticNumber(0, 0, 1, 5).decimal(2) == "0.00"

    def test_round_trip(self):
        for text in ["(5+1*sqrt(5))/5", "(-3+1*sqrt(19))/1", "(1-2*sqrt(3))/7"]:
            x = QuadraticNumber.from_string(text)
            assert QuadraticNumber.from_string(str(x)) == x

    def test_canonical_output(self):
        assert str(QuadraticNumber(2, 2, 4, 5)) == "(1+1*sqrt(5))/2"

    def test_rejects_garbage(self):
        for text in ["phi", "(1+sqrt(5))/2", "1.618", "(1+1*sqrt(5)/2", "(1+1*sqrt(5))/0"]:
            with pytest.raises(ValueError):
                QuadraticNumber.from_string(text)


class TestBeattyFloor:
    def test_table_row_value(self):
        assert beatty_floor(A55, 9) == 13

    def test_matches_interval_oracle_to_ten_thousand(self):
        import mpmath

        for alpha in (A55, A19, PHI, QuadraticNumber(0, 1, 1, 2)):
            unit = iv.mpf(alpha.p) + iv.mpf(alpha.q) * iv.sqrt(iv.mpf(alpha.D))
            unit /= iv.mpf(alpha.r)
            for n in range(10_001):
                v = iv.mpf(n) * unit
                lo, hi = mpmath.floor(mpf(v.a)), mpmath.floor(mpf(v.b))
                assert lo == hi, "oracle interval too wide"
                assert beatty_floor(alpha, n) == int(lo)

    def test_zero_index(self):
        for alpha in (PHI, A55, A19):
            assert beatty_floor(alpha, 0) == 0

    def test_phi_times_four(self):
        # 4*phi = 6.472...
        assert beatty_floor(PHI, 4) == 6

    def test_negative_coefficient(self):
        x = QuadraticNumber(10, -2, 3, 5)  # (10 - 2 sqrt5)/3 = 1.8426...
        for n in range(50):
            assert beatty_floor(x, n) == interval_floor(x, n)


class TestConjugate:
    def test_a55(self):
        pair = conjugate_beatty(A55)
        assert pair.beta == QuadraticNumber(1, 1, 1, 5)
        assert pair.beta.decimal(4) == "3.2360"

    def test_sqrt19(self):
        assert conjugate_beatty(A19).beta == QuadraticNumber(7, 1, 3, 19)

    def test_phi(self):
        assert conjugate_beatty(PHI).beta == QuadraticNumber(3, 1, 2, 5)

    def test_rejects_rational(self):
        with pytest.raises(ValueError):
            conjugate_beatty(QuadraticNumber(3, 0, 2, 5))

    def test_rejects_out_of_window(self):
        with pytest.raises(ValueError):
            conjugate_beatty(QuadraticNumber(1, 1, 1, 5))

    def test_one_pair_per_slope_value(self):
        alpha = QuadraticNumber(-3, 1, 1, 19)
        assert conjugate_beatty(alpha) is conjugate_beatty(alpha)
        twin = QuadraticNumber(-3, 1, 1, 19)
        assert twin is not alpha and conjugate_beatty(twin) == conjugate_beatty(alpha)

    def test_every_caller_shares_the_pair(self, monkeypatch):
        # Counts pairs, not time: the per-n sweeps and every per-slope entry
        # point read the one pair that the slope value holds.
        built = []
        check = BeattyPair.__post_init__

        def counted(pair):
            check(pair)
            built.append(pair)

        monkeypatch.setattr(BeattyPair, "__post_init__", counted)
        alpha = QuadraticNumber(-3, 1, 1, 19)
        [delta2(alpha, n) for n in range(1, 201)]
        [trichotomy_class(alpha, n) for n in range(200)]
        classify_alpha(alpha)
        delta2_range(alpha)
        inverse_solve(alpha)
        detect_gap(alpha, 40)
        assert rayleigh_verify(conjugate_beatty(alpha), 2000)
        assert len(built) == 1 and built[0] is conjugate_beatty(alpha)

    def test_pair_identity_enforced(self):
        with pytest.raises(ValueError, match="^mismatched radicands: 5 vs 19$"):
            BeattyPair(PHI, QuadraticNumber(7, 1, 3, 19))

    @pytest.mark.parametrize("alpha, beta, message", [
        (QuadraticNumber(3, 0, 2, 5), PHI + 1, "alpha must be irrational"),
        (PHI + 1, PHI + 2, r"alpha must lie in \(1, 2\), got \(3\+1\*sqrt\(5\)\)/2"),
        (QuadraticNumber(4, -1, 1, 2), QuadraticNumber(3, 1, 1, 2),
         r"alpha must lie in \(1, 2\), got \(4-1\*sqrt\(2\)\)/1"),
        (PHI, PHI, r"beta must exceed 2, got \(1\+1\*sqrt\(5\)\)/2"),
        (PHI, QuadraticNumber(2, 0, 1, 5), r"beta must exceed 2, got \(2\+0\*sqrt\(1\)\)/1"),
        (PHI, QuadraticNumber(7, 1, 3, 19), "mismatched radicands: 5 vs 19"),
        # same field, but not phi's conjugate phi + 1: phi + 2 fails both
        # coordinates of alpha + beta = alpha*beta, 4 + sqrt5 only the sqrt5
        # one and 2 + sqrt5 only the rational one
        (PHI, QuadraticNumber(5, 1, 2, 5), r"1/alpha \+ 1/beta = 1 fails"),
        (PHI, QuadraticNumber(4, 1, 1, 5), r"1/alpha \+ 1/beta = 1 fails"),
        (PHI, QuadraticNumber(2, 1, 1, 5), r"1/alpha \+ 1/beta = 1 fails"),
        (PHI, QuadraticNumber(5, 0, 2, 7), r"1/alpha \+ 1/beta = 1 fails"),
    ])
    def test_rejections_keep_their_messages(self, alpha, beta, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            BeattyPair(alpha, beta)


def _frac(x: QuadraticNumber) -> QuadraticNumber:
    """{x} = x - floor(x)."""
    return x - x.floor()


class TestFractionalPart:
    """{x} from `floor`: exact, and in [0, 1)."""

    def test_beta19(self):
        assert _frac(QuadraticNumber(7, 1, 3, 19)) == QuadraticNumber(-2, 1, 3, 19)

    def test_integer_input(self):
        assert _frac(QuadraticNumber(6, 0, 3, 5)) == 0

    def test_phi(self):
        assert _frac(PHI) == QuadraticNumber(-1, 1, 2, 5)

    @given(quads)
    def test_range(self, x):
        f = _frac(x)
        assert 0 <= f and f < 1


def beatty_membership(gamma: QuadraticNumber, n: int) -> bool:
    """True iff n is floor(m * gamma) for some m >= 0, for an irrational gamma > 1.

    Only m = ceil(n / gamma) can work, so one exact floor decides it.
    """
    if n < 0:
        return False
    if n == 0:
        return True
    m = beatty_floor(gamma.inv(), n) + 1  # ceil(n/gamma); n/gamma is irrational
    return beatty_floor(gamma, m) == n


class TestMembership:
    def test_phi_plus_one(self):
        gamma = PHI + 1
        assert beatty_membership(gamma, 2)
        assert not beatty_membership(gamma, 1)

    def test_zero_always_member(self):
        assert beatty_membership(PHI + 1, 0)

    @given(st.integers(0, 300))
    def test_matches_direct_scan(self, n):
        gamma = _frac(A19).inv()  # 1/{alpha} = (sqrt19+4)/3
        seq = set()
        m = 0
        while True:
            v = beatty_floor(gamma, m)
            if v > n:
                break
            seq.add(v)
            m += 1
        assert beatty_membership(gamma, n) == (n in seq)


class TestDelta2:
    def test_sqrt19_values(self):
        assert delta2(A19, 2) == 3
        assert delta2(A19, 1) == 2

    def test_phi_constant(self):
        assert all(delta2(PHI, n) == 1 for n in range(1, 50))

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            delta2(PHI, 0)

    def test_range_and_sign(self):
        for alpha in (PHI, A55, A19):
            bf = conjugate_beatty(alpha).beta.floor()
            for n in range(1, 400):
                d = delta2(alpha, n)
                assert d in (bf - 2, bf - 1, bf) and d >= 0


class TestTrichotomy:
    def test_sqrt19_plus(self):
        assert trichotomy_class(A19, 1) is Trichotomy.PLUS

    def test_zero_index(self):
        for alpha in (PHI, A55, A19):
            assert trichotomy_class(alpha, 0) is Trichotomy.ZERO

    def test_phi_always_zero(self):
        assert all(trichotomy_class(PHI, n) is Trichotomy.ZERO for n in range(60))

    def test_consistent_with_delta2(self):
        for alpha in (A55, A19, PHI):
            bf = conjugate_beatty(alpha).beta.floor()
            for n in range(200):
                d = trichotomy_class(alpha, n).value
                assert delta2(alpha, n + 1) == bf - 1 + d


def _rayleigh_by_count(pair, limit):
    """Reference tiling check: a count per value, each of 1..limit once and 0 twice,
    over the rows that `_running_floors` sums from the pair's step words."""
    hits = bytearray(limit + 1)
    for row in quadfield._running_floors(pair._steps(limit + 1)):
        for v in itertools.takewhile(limit.__ge__, row):
            hits[v] += 1
    return hits[0] == 2 and all(h == 1 for h in hits[1:])


class _StubWords:
    """Stands in for a pair in rayleigh_verify: fixed (floor, step word) rows, cut at m steps."""

    def __init__(self, *words):
        self.words = words

    def _steps(self, m):
        return tuple((whole, steps[:m]) for whole, steps in self.words)


_LOW_BIT = bytes(i & 1 for i in range(256))  # random bytes to 0/1 letters


def _flip(word, k):
    """word with its letter k changed between 0 and 1."""
    return word[:k] + bytes((1 - word[k],)) + word[k + 1:]


class TestRayleigh:
    # (rows, limit, tiles), each row spelled as (floor(x), step word): it
    # starts at 0 and rises by floor(x) or floor(x) + 1, so a row never
    # repeats 0 or lacks it.  Rows that share a value or skip one do not tile.
    STUBS = [
        (((1, b"\0\0"), (1, b"\0\0")), 2, False),  # 1 and 2 shared: [0, 1, 2] twice
        (((3, b"\0"), (3, b"\0")), 2, False),  # 1 and 2 skipped: [0, 3] twice
        (((2, b"\0"), (3, b"\0")), 0, True),  # [0, 2], [0, 3]
        (((1, b"\0\1"), (1, b"\0\1")), 1, False),  # 1 shared: [0, 1, 3] twice
        (((1, b"\1\0"), (2, b"\1\0")), 1, False),  # 1 skipped: [0, 2, 3], [0, 3, 5]
        (((1, b"\0\1"), (2, b"\0\1")), 1, True),  # [0, 1, 3], [0, 2, 5]
        (((1, b"\0\1\0\1"), (2, b"\0\1\0")), 6, True),  # [0, 1, 3, 4, 6], [0, 2, 5, 7]
        (((1, b"\0\1\0\1"), (2, b"\0\0\1")), 6, False),  # 4 shared: [0, 1, 3, 4, 6], [0, 2, 4, 7]
        (((1, b"\0\0\0\1\0"), (7, b"\0")), 6, False),  # 4 skipped: [0, 1, 2, 3, 5, 6], [0, 7]
    ]

    @pytest.mark.parametrize("rows, limit, tiles", STUBS)
    def test_stub_rows(self, rows, limit, tiles):
        stub = _StubWords(*rows)
        assert rayleigh_verify(stub, limit) is tiles
        assert _rayleigh_by_count(stub, limit) is tiles

    def test_equals_the_count_on_real_rows(self):
        for alpha in (PHI, A55, A19, QuadraticNumber(0, 1, 1, 2)):
            pair = conjugate_beatty(alpha)
            words = (wa, ua), (wb, ub) = pair._steps(2001)
            for case in (words, ((wa, ua), (wb, _flip(ub, 40))), ((wa, _flip(ua, 7)), (wb, ub)),
                         ((wa, ua[:1000]), (wb, ub))):
                stub = _StubWords(*case)
                assert rayleigh_verify(stub, 2000) is _rayleigh_by_count(stub, 2000) is (case == words)
            assert rayleigh_verify(pair, 2000) is _rayleigh_by_count(pair, 2000) is True

    def test_seeded_words_equal_the_count(self):
        # Half the cases are a real pair's words, kept, with one letter
        # flipped or cut short; half are random floors in 1..300 with random
        # 0/1 words.  Limits are random too.
        rng = random.Random(20261021)
        slopes = [alpha for alpha, _ in enumerate_families(6, 6, 6)] + _criterion_10_slopes(10)
        verdicts = []
        for _ in range(1500):
            limit = rng.choice((rng.randrange(8), rng.randrange(300), rng.randrange(3000)))
            if rng.random() < 0.5:
                words = conjugate_beatty(rng.choice(slopes))._steps(limit + 1)
            else:
                words = tuple((rng.randint(1, 300), rng.randbytes(limit + 1).translate(_LOW_BIT))
                              for _ in range(2))
            words = [list(w) for w in words]
            row = rng.choice(words)
            edit = rng.randrange(3)
            if edit == 1 and row[1]:
                row[1] = _flip(row[1], rng.randrange(len(row[1])))
            elif edit == 2:
                row[1] = row[1][:rng.randrange(len(row[1]) + 1)]
            stub = _StubWords(*map(tuple, words))
            verdict = _rayleigh_by_count(stub, limit)
            assert rayleigh_verify(stub, limit) is verdict, (words, limit)
            verdicts.append(verdict)
        assert 400 < sum(verdicts) < 1100, sum(verdicts)

    def test_wide_and_huge_floor_beta(self):
        # floor(beta) = 255 and 256, and about 4.1*10^22 > limit near
        # alpha = 1, where one mark token of floor(beta) bytes cannot be built.
        near_one = QuadraticNumber(10**23 + 1, 1, 10**23, 2)
        assert conjugate_beatty(near_one).beta.floor() > 4 * 10**22
        for alpha in (*TestHeldWords.WIDE, near_one):
            pair = conjugate_beatty(alpha)
            for limit in (*range(6), 5000):
                assert rayleigh_verify(pair, limit) is _rayleigh_by_count(pair, limit) is True, (alpha, limit)

    def test_limits_around_the_held_words(self):
        # _steps(limit + 1) slices the held words up to _HELD_ROWS and builds fresh ones past it.
        held = quadfield._HELD_ROWS
        for alpha in (PHI, A55, A19, TestHeldWords.SQRT3):
            pair = conjugate_beatty(alpha)
            for limit in (held - 1, held, held + 1):
                assert rayleigh_verify(pair, limit) is _rayleigh_by_count(pair, limit) is True, (alpha, limit)

    def test_cap_in_bounded_memory(self):
        pair = conjugate_beatty(A55)
        tracemalloc.start()
        try:
            assert rayleigh_verify(pair, MAX_RAYLEIGH_LIMIT)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, peak

    def test_a55_small(self):
        assert rayleigh_verify(conjugate_beatty(A55), 29)

    def test_zero_limit(self):
        assert rayleigh_verify(conjugate_beatty(PHI), 0)

    def test_limit_cap(self):
        # The stub's words cost nothing at any limit; the check comes before them.
        stub = _StubWords((1, b""), (1, b""))
        for limit in (-1, MAX_RAYLEIGH_LIMIT + 1):
            with pytest.raises(ValueError, match=rf"^limit must be in \[0, {MAX_RAYLEIGH_LIMIT}\], got"):
                rayleigh_verify(stub, limit)

    def test_broken_pair_rejected_at_type_level(self):
        with pytest.raises(ValueError):
            BeattyPair(A55, QuadraticNumber(15, 2, 10, 5))  # A55 + 1/2

    def test_all_pairs_to_2000(self):
        for alpha in (PHI, A55, A19, QuadraticNumber(0, 1, 1, 2)):
            assert rayleigh_verify(conjugate_beatty(alpha), 2000)


def _coords(x: QuadraticNumber):
    """x = u0 + u1*sqrt(D) as the Fractions (u0, u1): a reference outside quadfield."""
    return Fraction(x.p, x.r), Fraction(x.q, x.r)


def _unit_combination_reference(u, v):
    """The rational (p, q) with p*u + q*v = 1, by Fractions; None for a singular system.

    u and v are QuadraticNumbers of one field or their `_coords`."""
    (u0, u1), (v0, v1) = (_coords(x) if isinstance(x, QuadraticNumber) else x for x in (u, v))
    det = u0 * v1 - v0 * u1
    if det == 0:
        return None
    return v1 / det, -u1 / det


def _positive_integer_reference(u, v):
    """The reference solution if both unknowns are positive integers, else None."""
    solution = _unit_combination_reference(u, v)
    if solution is None or not all(x.denominator == 1 and x > 0 for x in solution):
        return None
    return tuple(int(x) for x in solution)


def _solve(u, v):
    """`_unit_solution` on the coordinates of two irrationals of one field."""
    return quadfield._unit_solution(u.p, u.q, u.r, v.p, v.q, v.r)


@st.composite
def _same_field_irrationals(draw):
    d = draw(nonsquare)
    coeffs = st.tuples(st.integers(-40, 40), st.integers(-15, 15).filter(bool), st.integers(1, 20))
    return tuple(QuadraticNumber(p, q, r, d) for p, q, r in (draw(coeffs), draw(coeffs)))


class TestUnitCombination:
    def test_sqrt19_solution(self):
        pair = conjugate_beatty(A19)
        u = 1 - _frac(pair.beta)
        v = _frac(pair.alpha)
        assert _solve(u, v) == (3, 1)

    def test_a55_none(self):
        pair = conjugate_beatty(A55)
        u = 1 - _frac(pair.beta)
        v = _frac(pair.alpha)
        assert _solve(u, v) is None

    def test_phi_solution(self):
        pair = conjugate_beatty(PHI)
        u = 1 - _frac(pair.beta)
        v = _frac(pair.alpha)
        assert _solve(u, v) == (1, 1)

    def test_solution_actually_solves(self):
        pair = conjugate_beatty(A19)
        u = 1 - _frac(pair.beta)
        v = _frac(pair.alpha)
        p, q = _solve(u, v)
        assert p * u + q * v == 1

    def test_singular_system_has_no_solution(self):
        x = _frac(PHI)
        assert _solve(x, 2 * x) is None

    # One system of each kind; test_examples_cover_each_kind checks the kinds.
    SINGULAR = (QuadraticNumber(-1, 1, 2, 5), QuadraticNumber(-1, 1, 1, 5))  # v = 2u
    NEGATIVE = (QuadraticNumber(0, 1, 1, 5), PHI)  # -1*u + 2*v = 1
    # Integral in one unknown only: 1*u + (3/2)*v = 1 and (3/2)*u + 1*v = 1.
    FRACTIONAL_Q = (QuadraticNumber(2, -3, 2, 5), QuadraticNumber(0, 1, 1, 5))
    FRACTIONAL_P = (QuadraticNumber(0, 1, 1, 5), QuadraticNumber(2, -3, 2, 5))
    POSITIVE = (QuadraticNumber(5, -1, 3, 19), QuadraticNumber(-4, 1, 1, 19))  # A19: (3, 1)

    def test_examples_cover_each_kind(self):
        assert _unit_combination_reference(*self.SINGULAR) is None
        assert min(_unit_combination_reference(*self.NEGATIVE)) < 0
        assert _unit_combination_reference(*self.FRACTIONAL_Q) == (1, Fraction(3, 2))
        assert _unit_combination_reference(*self.FRACTIONAL_P) == (Fraction(3, 2), 1)
        assert _unit_combination_reference(*self.POSITIVE) == (3, 1)

    @given(_same_field_irrationals())
    @example(SINGULAR)
    @example(NEGATIVE)
    @example(FRACTIONAL_Q)
    @example(FRACTIONAL_P)
    @example(POSITIVE)
    def test_equals_the_fraction_reference(self, uv):
        u, v = uv
        got = _solve(u, v)
        assert got == _positive_integer_reference(u, v)
        if got is not None:
            assert got[0] * u + got[1] * v == 1


def _criterion_10_slopes(k):
    """Seeded slopes (p + q*sqrt(d))/r in (1, 2), drawn as criterion 10 draws them."""
    rng = random.Random(20250811)
    nonsquares = [d for d in range(2, 51) if isqrt(d) ** 2 != d]
    out = []
    while len(out) < k:
        alpha = QuadraticNumber(
            rng.randint(-30, 30),
            rng.choice([q for q in range(-8, 9) if q]),
            rng.randint(1, 12),
            rng.choice(nonsquares),
        )
        if alpha.q != 0 and 1 < alpha < 2 and alpha not in out:
            out.append(alpha)
    return out


def _conjugate_slope(alpha: QuadraticNumber) -> QuadraticNumber:
    """beta = 1 + 1/(alpha - 1), rationalized by the conjugate in Fraction
    coordinates and built by the public constructor: a reference outside
    quadfield's arithmetic and pair code."""
    (a0, a1), d = _coords(alpha), alpha.D
    den = (a0 - 1) ** 2 - a1 * a1 * d
    b0, b1 = 1 + (a0 - 1) / den, -a1 / den
    r = lcm(b0.denominator, b1.denominator)
    return QuadraticNumber(int(b0 * r), int(b1 * r), r, d)


def _scan(gamma, top):
    """{floor(m * gamma) : m >= 0} up to top, by direct enumeration."""
    seen, m = set(), 0
    while beatty_floor(gamma, m) <= top:
        seen.add(beatty_floor(gamma, m))
        m += 1
    return seen


class TestPerSlope:
    """Public wrappers and BeattyPair methods against the definitions."""

    TOP = 400

    def test_matches_definitions(self):
        """Small n against a scan of the index sequences; far n in
        [10^5, 10^9] against `beatty_membership` of 1/{alpha} and 1/{beta}."""
        box = [alpha for alpha, _ in enumerate_families(6, 6, 6)]
        slopes = [PHI, A55, A19, QuadraticNumber(0, 1, 1, 2)] + box + _criterion_10_slopes(20)
        rng = random.Random(20261019)
        for alpha in slopes:
            beta = _conjugate_slope(alpha)
            floors = [(beatty_floor(alpha, n), beatty_floor(beta, n)) for n in range(self.TOP + 1)]
            xs = _scan((alpha - alpha.floor()).inv(), self.TOP)
            ys = _scan((beta - beta.floor()).inv(), self.TOP)
            pair = conjugate_beatty(alpha)
            for n in range(-2, self.TOP + 1):
                if n in xs:
                    want = Trichotomy.ZERO if n in ys else Trichotomy.MINUS
                else:
                    want = Trichotomy.PLUS if n in ys else Trichotomy.ZERO
                assert trichotomy_class(alpha, n) is want, (alpha, n)
                assert pair.trichotomy(n) is want, (alpha, n)
                if n < 1:
                    for call in (lambda: delta2(alpha, n), lambda: pair.delta2(n)):
                        with pytest.raises(ValueError, match="delta2 is defined for n >= 1"):
                            call()
                    continue
                (a1, b1), (a0, b0) = floors[n], floors[n - 1]
                assert delta2(alpha, n) == pair.delta2(n) == (b1 - b0) - (a1 - a0), (alpha, n)
            gamma_x, gamma_y = (alpha - alpha.floor()).inv(), (beta - beta.floor()).inv()
            for n in [rng.randint(10**5, 10**9) for _ in range(40)] + [10**5, 10**9]:
                in_x, in_y = beatty_membership(gamma_x, n), beatty_membership(gamma_y, n)
                want = Trichotomy(in_y - in_x)
                assert trichotomy_class(alpha, n) is want, (alpha, n)
                assert pair.trichotomy(n) is want, (alpha, n)

    def test_delta2_in_any_order(self):
        """Runs of consecutive n, repeats and jumps, interleaved over two
        pairs: every call equals the definition."""
        rng = random.Random(20261018)
        pairs = [conjugate_beatty(A19), conjugate_beatty(QuadraticNumber(0, 1, 1, 2))]
        last = {id(pair): 0 for pair in pairs}
        for _ in range(600):
            pair = rng.choice(pairs)
            prev = last[id(pair)]
            step = rng.random()
            if step < 0.5:
                n = prev + 1
            elif step < 0.7 and prev:
                n = prev
            else:
                n = rng.randint(1, 90)
            a, b = pair.alpha, pair.beta
            want = (beatty_floor(b, n) - beatty_floor(b, n - 1)) - (
                beatty_floor(a, n) - beatty_floor(a, n - 1)
            )
            assert pair.delta2(n) == want, (a, n, prev)
            last[id(pair)] = n

    @pytest.mark.parametrize("alpha, message", [
        (QuadraticNumber(3, 0, 2, 5), "alpha must be irrational"),
        (PHI + 1, r"alpha must lie in \(1, 2\), got \(3\+1\*sqrt\(5\)\)/2"),
        (PHI - 1, r"alpha must lie in \(1, 2\), got \(-1\+1\*sqrt\(5\)\)/2"),
        (-PHI, r"alpha must lie in \(1, 2\)"),
        (QuadraticNumber(4, -1, 1, 2), r"alpha must lie in \(1, 2\)"),  # 4 - sqrt2 > 2
    ])
    def test_invalid_slope_errors(self, alpha, message):
        for call in (
            lambda: conjugate_beatty(alpha),
            lambda: delta2(alpha, 3),
            lambda: trichotomy_class(alpha, 3),
            lambda: trichotomy_class(alpha, -1),
        ):
            with pytest.raises(ValueError, match=message):
                call()
        with pytest.raises(AttributeError):  # an invalid slope holds no pair, so each call checks it
            alpha._beatty
        with pytest.raises(ValueError, match="delta2 is defined for n >= 1"):
            delta2(alpha, 0)


class TestIntegerFormulas:
    """The pair's coefficient formulas against the field arithmetic they replace."""

    # Slopes (500000 + sqrt(D))/10^6, near 1.5, and (1 + sqrt(D))/10^6, just above
    # 1 with beta near 10^6, for radicands just below the cap.
    NEAR_CAP = [
        QuadraticNumber(p, 1, 10**6, MAX_RADICAND - k) for k in (1, 7, 11) for p in (500000, 1)
    ]

    @staticmethod
    def slopes():
        box = [alpha for alpha, _ in enumerate_families(6, 6, 6)]
        return [PHI, A55, A19, QuadraticNumber(0, 1, 1, 2)] + box + _criterion_10_slopes(20)

    @pytest.mark.parametrize("near_cap", [False, True])
    def test_pair_equals_the_arithmetic_chains(self, near_cap):
        # The chains run in Fraction coordinates (u0, u1) of u0 + u1*sqrt(D).
        solved = 0
        for alpha in self.NEAR_CAP if near_cap else self.slopes():
            pair = conjugate_beatty(alpha)
            beta = _conjugate_slope(alpha)
            # Both sides in normal form, so equal coefficients mean equal values.
            assert (pair.beta.p, pair.beta.q, pair.beta.r, pair.beta.D) == (
                beta.p, beta.q, beta.r, beta.D), alpha
            (a0, a1), (b0, b1), d = _coords(alpha), _coords(beta), alpha.D
            # 1/alpha + 1/beta = 1, as alpha + beta = alpha*beta
            assert (a0 + b0, a1 + b1) == (a0 * b0 + a1 * b1 * d, a0 * b1 + a1 * b0), alpha
            # The classifier solves on integer coordinates of {alpha} and {beta}.
            _, ii, iii, bf = _range_and_solutions(pair)
            assert bf == interval_floor(beta, 1), alpha
            frac_a, frac_b = (a0 - interval_floor(alpha, 1), a1), (b0 - bf, b1)
            assert ii == _positive_integer_reference((1 - frac_b[0], -b1), frac_a), alpha
            assert iii == _positive_integer_reference(frac_b, (1 - frac_a[0], -a1)), alpha
            solved += (ii, iii) != (None, None)
            family_i = classify_alpha(alpha).family is FamilyLabel.I
            assert family_i == (b1 == a1 and (b0 - a0).denominator == 1), alpha
        assert near_cap or solved > 0

    def test_construction_counts(self, monkeypatch):
        """Numbers built per call, counted at `_store`; the arithmetic chains
        the pair replaced built 8 (conjugate_beatty, delta2), 14
        (trichotomy_class) and 19 (classify_alpha)."""
        made = [0]
        store = quadfield._store

        def counted(*args):
            made[0] += 1
            store(*args)

        def built(call):
            made[0] = 0
            call()
            return made[0]

        slopes = self.slopes()
        monkeypatch.setattr(quadfield, "_store", counted)
        for alpha in slopes:
            assert built(lambda: conjugate_beatty(alpha)) <= 1, alpha
            assert built(lambda: delta2(alpha, 7)) <= 1, alpha
            assert built(lambda: trichotomy_class(alpha, 7)) <= 1, alpha
            assert built(lambda: classify_alpha(alpha)) <= 1, alpha


class TestRows:
    """Floors from the continued fraction against the isqrt floors."""

    TOP = 10**4

    def test_partial_quotients(self):
        def head(x, k):
            return list(itertools.islice(quadfield._partial_quotients(x), k))

        assert head(PHI, 6) == [1] * 6
        assert head(QuadraticNumber(0, 1, 1, 2), 6) == [1, 2, 2, 2, 2, 2]
        assert head(A19, 8) == [1, 2, 1, 3, 1, 2, 8, 2]  # sqrt(19) = [4; 2, 1, 3, 1, 2, 8]
        assert head(conjugate_beatty(A55).beta, 4) == [3, 4, 4, 4]  # 1 + sqrt(5)
        assert head(QuadraticNumber(10**9, 1, 10**9, 2), 2) == [1, 707106781]

    def test_rows_equal_beatty_floor(self):
        slopes = TestIntegerFormulas.slopes() + TestIntegerFormulas.NEAR_CAP
        for alpha in slopes:
            pair = conjugate_beatty(alpha)
            fa, fb = map(list, pair._floors(self.TOP + 1))
            assert fa == [beatty_floor(alpha, n) for n in range(self.TOP + 1)], alpha
            assert fb == [beatty_floor(pair.beta, n) for n in range(self.TOP + 1)], alpha
            for m in range(4):
                assert [list(row) for row in pair._floors(m)] == [fa[:m], fb[:m]], (alpha, m)
                assert [len(steps) for _, steps in pair._steps(m)] == [m, m]

    def test_both_row_branches(self):
        """floor(beta) = 253..256 around the one-byte limit of the translated
        word, and the near-cap slopes far above it, at 2,000 rows and m < 4."""
        # alpha = beta/(beta - 1) for beta = t + sqrt(2), floor t + 1
        wide = [QuadraticNumber(t * t - t - 2, -1, (t - 1) ** 2 - 2, 2) for t in range(252, 256)]
        slopes = wide + TestIntegerFormulas.NEAR_CAP
        assert [conjugate_beatty(alpha).beta.floor() for alpha in wide] == [253, 254, 255, 256]
        for alpha in slopes:
            pair = conjugate_beatty(alpha)
            fa, fb = map(list, pair._floors(2000))
            assert fa == [beatty_floor(alpha, n) for n in range(2000)], alpha
            assert fb == [beatty_floor(pair.beta, n) for n in range(2000)], alpha
            for m in range(4):
                assert [list(row) for row in pair._floors(m)] == [fa[:m], fb[:m]], (alpha, m)

    @pytest.mark.parametrize("alpha", [
        QuadraticNumber(10**9, 1, 10**9, 2),  # {alpha} = [0; 707106781, ...]
        QuadraticNumber(2 * 10**9, -1, 10**9, 2),  # {beta} = [0; 707106780, ...]
    ])
    def test_huge_partial_quotient_costs_nothing(self, alpha):
        pair = conjugate_beatty(alpha)
        tracemalloc.start()
        try:
            fa, fb = map(list, pair._floors(1000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fa == [beatty_floor(alpha, n) for n in range(1000)]
        assert fb == [beatty_floor(pair.beta, n) for n in range(1000)]
        assert peak < 2**20, peak


class TestHeldWords:
    """The step words a pair holds against the four-floor definitions."""

    HELD = quadfield._HELD_ROWS
    SQRT3 = QuadraticNumber(0, 1, 1, 3)  # floor(beta) = 2, where delta2 takes 0
    # alpha = beta/(beta - 1) for beta = t + sqrt(2): floor(beta) = 255 and 256,
    # past the one-byte branch of `_floors`
    WIDE = [QuadraticNumber(t * t - t - 2, -1, (t - 1) ** 2 - 2, 2) for t in (254, 255)]

    @staticmethod
    def _four_floors(alpha, beta, n):
        return (beatty_floor(beta, n) - beatty_floor(beta, n - 1)) - (
            beatty_floor(alpha, n) - beatty_floor(alpha, n - 1))

    def test_delta2_and_trichotomy_equal_the_four_floors(self):
        box = [alpha for alpha, _ in enumerate_families(6, 6, 6)]
        slopes = [self.SQRT3, *self.WIDE, PHI, A55, A19] + box + _criterion_10_slopes(10)
        assert [conjugate_beatty(a).beta.floor() for a in [self.SQRT3, *self.WIDE]] == [2, 255, 256]
        top = self.HELD + 2
        for alpha in slopes:
            beta = _conjugate_slope(alpha)
            fa = [beatty_floor(alpha, n) for n in range(top + 2)]
            fb = [beatty_floor(beta, n) for n in range(top + 2)]
            want = [None] + [(fb[n] - fb[n - 1]) - (fa[n] - fa[n - 1]) for n in range(1, top + 2)]
            bf = fb[1]
            assert [delta2(alpha, n) for n in range(1, top + 1)] == want[1:top + 1], alpha
            assert [trichotomy_class(alpha, n).value for n in range(top + 1)] == [
                want[n + 1] - bf + 1 for n in range(top + 1)], alpha
            if alpha == self.SQRT3:
                assert 0 in want[1:]
            pair = conjugate_beatty(alpha)
            for n in (10**6 - 1, 10**6, 10**6 + 1):
                d = self._four_floors(alpha, beta, n)
                assert delta2(alpha, n) == pair.delta2(n) == d, (alpha, n)
                assert trichotomy_class(alpha, n - 1).value == d - bf + 1, (alpha, n)

    def test_steps_slice_the_held_words(self):
        for alpha in (self.SQRT3, *self.WIDE, A19):
            pair = conjugate_beatty(alpha)
            for m in (0, 1, 7, self.HELD - 1, self.HELD, self.HELD + 1):
                assert pair._steps(m) == (
                    quadfield._step_word(quadfield._partial_quotients(alpha), m),
                    quadfield._step_word(quadfield._partial_quotients(pair.beta), m)), (alpha, m)

    def test_constant_streams_equal_the_golden_slopes(self):
        # Constant(t) spells its rows from alpha_t = [1; t, t, ...] and
        # beta_t = [t + 1; t, t, ...] without building either number.
        for t in range(1, 41):
            pair = conjugate_beatty(golden_alpha(t))
            streams = [itertools.chain((whole,), itertools.repeat(t)) for whole in (1, t + 1)]
            assert [list(itertools.islice(q, 30)) for q in streams] == [
                list(itertools.islice(quadfield._partial_quotients(x), 30)) for x in (pair.alpha, pair.beta)], t
            for m in (1, 100, 5000):
                assert Constant(t)._beatty_words(m) == pair._steps(m), (t, m)

    def test_held_calls_take_no_floor(self, monkeypatch):
        calls = [0]

        def counting(gamma, n):
            calls[0] += 1
            return beatty_floor(gamma, n)

        slopes = [self.SQRT3, *self.WIDE, PHI, A55, A19] + _criterion_10_slopes(5)
        for alpha in slopes:
            conjugate_beatty(alpha)
        monkeypatch.setattr(quadfield, "beatty_floor", counting)
        for alpha in slopes:
            for n in range(1, 201):
                delta2(alpha, n)
                trichotomy_class(alpha, n - 1)
        assert calls[0] == 0

    def test_words_stay_bounded_and_outside_the_fields(self):
        pair = conjugate_beatty(A19)
        solve_relaxed(BeattyDelta(A19), 10**5)
        assert set(vars(pair)) == {"alpha", "beta", "_words"}
        assert sum(len(w) for w in pair._words if isinstance(w, bytes)) <= 2 * (self.HELD + 1)
        bare = BeattyPair(pair.alpha, pair.beta)
        assert "_words" not in vars(bare)
        assert pair == bare and hash(pair) == hash(bare) and repr(pair) == repr(bare)
        assert dataclasses.asdict(pair) == dataclasses.asdict(bare) == {"alpha": A19, "beta": pair.beta}


class TestCopyAndPickle:
    @pytest.mark.parametrize("x", [A55, -A19, QuadraticNumber(3, 0, 2, 5)])
    def test_round_trips(self, x):
        for again in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert again == x and repr(again) == repr(x)
            assert_normal(again)

    def test_held_pair_is_not_copied(self):
        x = QuadraticNumber(5, 1, 5, 5)
        pair = conjugate_beatty(x)
        for again in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert again == x and hash(again) == hash(x)
            with pytest.raises(AttributeError):
                again._beatty
            assert conjugate_beatty(again) == pair and conjugate_beatty(again) is not pair

    def test_rebuilds_through_the_checking_constructor(self):
        fn, args = A55.__reduce__()
        assert fn is QuadraticNumber and args == (5, 1, 5, 5)
        with pytest.raises(ValueError, match="radicand must be at most"):
            fn(*args[:3], MAX_RADICAND + 1)

    def test_asdict_of_a_pair(self):
        pair = conjugate_beatty(A55)
        assert dataclasses.asdict(pair) == {"alpha": A55, "beta": pair.beta}

    def test_pickled_pair_after_delta2_calls(self):
        pair = conjugate_beatty(A19)
        first = [pair.delta2(n) for n in range(1, 30)]
        assert pair.trichotomy(7) is trichotomy_class(A19, 7)
        again = pickle.loads(pickle.dumps(pair))
        assert again == pair
        assert [again.delta2(n) for n in range(30, 0, -1)] == [delta2(A19, n) for n in range(30, 0, -1)]
        assert [again.delta2(n) for n in range(1, 30)] == first

    def test_held_words_are_not_pickled_or_copied(self):
        pair = conjugate_beatty(A19)
        bare = len(pickle.dumps(pair))
        pair.delta2(3)
        assert "_words" in vars(pair)
        assert len(pickle.dumps(pair)) == bare < 200
        for again in (pickle.loads(pickle.dumps(pair)), copy.copy(pair), copy.deepcopy(pair)):
            assert "_words" not in vars(again)
            assert again == pair and hash(again) == hash(pair)
            assert [again.delta2(n) for n in (1, 3, 4096, 4097)] == [delta2(A19, n) for n in (1, 3, 4096, 4097)]
