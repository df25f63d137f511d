import copy
import dataclasses
import operator
import pickle
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, settings, strategies as st
from mpmath import iv, mpf

from beatty_games import quadfield
from beatty_games.classifier import classify_alpha, enumerate_families
from beatty_games.quadfield import (
    MAX_RADICAND,
    BeattyPair,
    QuadraticNumber,
    Trichotomy,
    beatty_floor,
    beatty_membership,
    conjugate_beatty,
    delta2,
    fractional_part,
    rayleigh_verify,
    solve_unit_combination,
    trichotomy_class,
)

iv.prec = 400  # ~120 decimal digits; the interval floor below must be unambiguous

PHI = QuadraticNumber(1, 1, 2, 5)
A55 = QuadraticNumber(5, 1, 5, 5)  # (5+sqrt5)/5
A19 = QuadraticNumber(-3, 1, 1, 19)  # sqrt19 - 3


def interval_floor(x: QuadraticNumber, n: int) -> int:
    """Independent oracle: floor(n*x) via 120-digit interval arithmetic."""
    v = iv.mpf(n) * (iv.mpf(x.p) + iv.mpf(x.q) * iv.sqrt(iv.mpf(x.D))) / iv.mpf(x.r)
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


# Operands an arithmetic result may come from: values of the quads' fields,
# ints, Fractions and rationals carried in another radicand.
rationals_elsewhere = st.builds(
    QuadraticNumber.rational, st.integers(-40, 40), st.integers(1, 20), st.sampled_from([3, 7, 14])
)
operands = st.one_of(
    quads,
    st.integers(-30, 30),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    rationals_elsewhere,
)
ORDER = (operator.lt, operator.le, operator.gt, operator.ge)


def mixed_irrational(x, y) -> bool:
    return isinstance(y, QuadraticNumber) and x.q != 0 and y.q != 0 and x.D != y.D


def assert_normal(x):
    assert isinstance(x, QuadraticNumber)
    assert x.r > 0 and gcd(x.p, x.q, x.r) == 1
    again = QuadraticNumber(x.p, x.q, x.r, x.D)
    assert (x.p, x.q, x.r, x.D) == (again.p, again.q, again.r, again.D)


class TestKernel:
    """Results built without re-normalizing D still have the public normal form."""

    @given(quads, operands)
    def test_results_are_normalized(self, x, y):
        assume(not mixed_irrational(x, y))
        results = [-x, x.conjugate(), x + y, y + x, x - y, y - x, x * y, y * x]
        if x != 0:
            results += [x.inv(), y / x]
        if y != 0:
            results.append(x / y)
        for got in results:
            assert_normal(got)

    @given(quads, operands)
    @example(PHI, 2)
    @example(QuadraticNumber.sqrt(5), QuadraticNumber.rational(2, 1, D=2))  # sqrt2 < 2 < sqrt5
    @example(QuadraticNumber.rational(3, 2, D=5), 3)  # == int must compare r
    @example(QuadraticNumber(6, 1, 1, 5), 6)  # == int must compare q
    @example(QuadraticNumber(3, 1, 2, 5), Fraction(3, 2))  # == Fraction must compare q
    def test_comparisons_agree_with_sign_of_difference(self, x, y):
        assume(not mixed_irrational(x, y))
        s = (x - y).sign()
        for op in ORDER + (operator.eq, operator.ne):
            assert op(x, y) == op(s, 0)
            assert op(y, x) == op(0, s)

    @given(quads, quads)
    def test_mixed_irrational_radicands_raise(self, x, y):
        assume(mixed_irrational(x, y))
        for op in (operator.add, operator.sub, operator.mul, operator.truediv) + ORDER:
            with pytest.raises(ValueError, match="mismatched radicands"):
                op(x, y)

    def test_non_numbers_do_not_compare(self):
        for op in ORDER:
            with pytest.raises(TypeError):
                op(PHI, "1")

    def test_radicand_cap(self):
        big = QuadraticNumber(0, 1, 1, MAX_RADICAND - 11)  # prime: the longest trial division
        assert big.D == MAX_RADICAND - 11
        with pytest.raises(ValueError, match="radicand must be at most"):
            QuadraticNumber(0, 1, 1, MAX_RADICAND + 1)
        with pytest.raises(ValueError, match="radicand must be at most"):
            QuadraticNumber.from_string("(3+1*sqrt(12345678901234567891))/2")


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

    def test_normalization(self):
        assert QuadraticNumber(0, 1, 2, 8) == QuadraticNumber(0, 1, 1, 2)
        assert QuadraticNumber(2, 4, 6, 5) == QuadraticNumber(1, 2, 3, 5)
        x = QuadraticNumber(1, 1, -2, 5)
        assert (x.p, x.q, x.r) == (-1, -1, 2)

    def test_perfect_square_radicand_folds(self):
        assert QuadraticNumber(1, 2, 1, 9) == 7
        assert QuadraticNumber(1, 2, 1, 9).is_integer

    def test_mixed_radicand_rejected(self):
        with pytest.raises(ValueError, match="mismatched"):
            QuadraticNumber.sqrt(2) + QuadraticNumber.sqrt(3)

    def test_rational_lifts_across_fields(self):
        half = QuadraticNumber.rational(1, 2, D=3)
        assert PHI - half == QuadraticNumber(0, 1, 2, 5)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            PHI / QuadraticNumber.rational(0, 1, D=5)

    def test_int_operands(self):
        assert PHI + 1 == QuadraticNumber(3, 1, 2, 5)
        assert 1 < PHI < 2

    @given(quads, quads.filter(lambda x: x.D in (2, 5)))
    def test_add_sub_roundtrip(self, x, y):
        if x.D != y.D and x.q and y.q:
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
        if x.D != y.D and x.q and y.q:
            return
        if y == 0:
            return
        assert (x * y) / y == x

    def test_zero_is_falsy(self):
        assert not QuadraticNumber.rational(0, 1, D=5)
        assert PHI


class TestStringFormat:
    def test_round_trip(self):
        for text in ["(5+1*sqrt(5))/5", "(-3+1*sqrt(19))/1", "(1-2*sqrt(3))/7"]:
            x = QuadraticNumber.from_string(text)
            assert QuadraticNumber.from_string(str(x)) == x

    def test_canonical_output(self):
        assert str(QuadraticNumber(2, 2, 4, 5)) == "(1+1*sqrt(5))/2"

    def test_rejects_garbage(self):
        for text in ["phi", "(1+sqrt(5))/2", "1.618", "(1+1*sqrt(5)/2"]:
            with pytest.raises(ValueError):
                QuadraticNumber.from_string(text)


class TestBeattyFloor:
    def test_table_row_value(self):
        assert beatty_floor(A55, 9) == 13

    def test_matches_interval_oracle_to_ten_thousand(self):
        import mpmath

        for alpha in (A55, A19, PHI, QuadraticNumber.sqrt(2)):
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
            conjugate_beatty(QuadraticNumber.rational(3, 2, D=5))

    def test_rejects_out_of_window(self):
        with pytest.raises(ValueError):
            conjugate_beatty(QuadraticNumber(1, 1, 1, 5))

    def test_pair_identity_enforced(self):
        with pytest.raises(ValueError, match="^mismatched radicands: 5 vs 19$"):
            BeattyPair(PHI, QuadraticNumber(7, 1, 3, 19))

    @pytest.mark.parametrize("alpha, beta, message", [
        (QuadraticNumber.rational(3, 2, D=5), PHI + 1, "alpha must be irrational"),
        (PHI + 1, PHI + 2, r"alpha must lie in \(1, 2\), got \(3\+1\*sqrt\(5\)\)/2"),
        (QuadraticNumber(4, -1, 1, 2), QuadraticNumber(3, 1, 1, 2),
         r"alpha must lie in \(1, 2\), got \(4-1\*sqrt\(2\)\)/1"),
        (PHI, PHI, r"beta must exceed 2, got \(1\+1\*sqrt\(5\)\)/2"),
        (PHI, QuadraticNumber.rational(2, D=5), r"beta must exceed 2, got \(2\+0\*sqrt\(1\)\)/1"),
        (PHI, QuadraticNumber(7, 1, 3, 19), "mismatched radicands: 5 vs 19"),
        # same field, but not phi's conjugate phi + 1: phi + 2 fails both
        # coordinates of alpha + beta = alpha*beta, 4 + sqrt5 only the sqrt5
        # one and 2 + sqrt5 only the rational one
        (PHI, QuadraticNumber(5, 1, 2, 5), r"1/alpha \+ 1/beta = 1 fails"),
        (PHI, QuadraticNumber(4, 1, 1, 5), r"1/alpha \+ 1/beta = 1 fails"),
        (PHI, QuadraticNumber(2, 1, 1, 5), r"1/alpha \+ 1/beta = 1 fails"),
        (PHI, QuadraticNumber.rational(5, 2, D=7), r"1/alpha \+ 1/beta = 1 fails"),
    ])
    def test_rejections_keep_their_messages(self, alpha, beta, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            BeattyPair(alpha, beta)


class TestFractionalPart:
    def test_beta19(self):
        assert fractional_part(QuadraticNumber(7, 1, 3, 19)) == QuadraticNumber(-2, 1, 3, 19)

    def test_integer_input(self):
        assert fractional_part(QuadraticNumber.rational(6, 3, D=5)) == 0

    def test_phi(self):
        assert fractional_part(PHI) == QuadraticNumber(-1, 1, 2, 5)

    @given(quads.filter(lambda x: x >= 0))
    def test_range(self, x):
        f = fractional_part(x)
        assert 0 <= f and f < 1


class TestMembership:
    def test_phi_plus_one(self):
        gamma = PHI + 1
        assert beatty_membership(gamma, 2)
        assert not beatty_membership(gamma, 1)

    def test_zero_always_member(self):
        assert beatty_membership(PHI + 1, 0)

    @given(st.integers(0, 300))
    def test_matches_direct_scan(self, n):
        gamma = fractional_part(A19).inv()  # 1/{alpha} = (sqrt19+4)/3
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


class TestRayleigh:
    def test_a55_small(self):
        assert rayleigh_verify(conjugate_beatty(A55), 29)

    def test_zero_limit(self):
        assert rayleigh_verify(conjugate_beatty(PHI), 0)

    def test_broken_pair_rejected_at_type_level(self):
        with pytest.raises(ValueError):
            BeattyPair(A55, A55 + Fraction(1, 2))

    def test_all_pairs_to_2000(self):
        for alpha in (PHI, A55, A19, QuadraticNumber.sqrt(2)):
            assert rayleigh_verify(conjugate_beatty(alpha), 2000)


def _unit_combination_reference(u, v):
    """The rational (p, q) with p*u + q*v = 1, by Fractions; None for a singular system."""
    det = Fraction(u.p, u.r) * Fraction(v.q, v.r) - Fraction(v.p, v.r) * Fraction(u.q, u.r)
    if det == 0:
        return None
    return Fraction(v.q, v.r) / det, -Fraction(u.q, u.r) / det


@st.composite
def _same_field_irrationals(draw):
    d = draw(nonsquare)
    coeffs = st.tuples(st.integers(-40, 40), st.integers(-15, 15).filter(bool), st.integers(1, 20))
    return tuple(QuadraticNumber(p, q, r, d) for p, q, r in (draw(coeffs), draw(coeffs)))


class TestUnitCombination:
    def test_sqrt19_solution(self):
        pair = conjugate_beatty(A19)
        u = 1 - fractional_part(pair.beta)
        v = fractional_part(pair.alpha)
        assert solve_unit_combination(u, v) == (3, 1)

    def test_a55_none(self):
        pair = conjugate_beatty(A55)
        u = 1 - fractional_part(pair.beta)
        v = fractional_part(pair.alpha)
        assert solve_unit_combination(u, v) is None

    def test_phi_solution(self):
        pair = conjugate_beatty(PHI)
        u = 1 - fractional_part(pair.beta)
        v = fractional_part(pair.alpha)
        assert solve_unit_combination(u, v) == (1, 1)

    def test_solution_actually_solves(self):
        pair = conjugate_beatty(A19)
        u = 1 - fractional_part(pair.beta)
        v = fractional_part(pair.alpha)
        p, q = solve_unit_combination(u, v)
        assert p * u + q * v == 1

    def test_rational_inputs_rejected(self):
        with pytest.raises(ValueError):
            solve_unit_combination(QuadraticNumber.rational(1, 2, D=5), PHI)

    def test_singular_system_has_no_solution(self):
        x = fractional_part(PHI)
        assert solve_unit_combination(x, 2 * x) is None

    # One system of each kind; test_examples_cover_each_kind checks the kinds.
    SINGULAR = (QuadraticNumber(-1, 1, 2, 5), QuadraticNumber(-1, 1, 1, 5))  # v = 2u
    NEGATIVE = (QuadraticNumber.sqrt(5), PHI)  # -1*u + 2*v = 1
    # Integral in one unknown only: 1*u + (3/2)*v = 1 and (3/2)*u + 1*v = 1.
    FRACTIONAL_Q = (QuadraticNumber(2, -3, 2, 5), QuadraticNumber.sqrt(5))
    FRACTIONAL_P = (QuadraticNumber.sqrt(5), QuadraticNumber(2, -3, 2, 5))
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
        solution = _unit_combination_reference(u, v)
        accepted = solution is not None and all(x.denominator == 1 and x > 0 for x in solution)
        got = solve_unit_combination(u, v)
        assert got == (tuple(int(x) for x in solution) if accepted else None)
        if got is not None:
            assert got[0] * u + got[1] * v == 1


def _criterion_10_slopes(k):
    """Seeded slopes (p + q*sqrt(d))/r in (1, 2), drawn as criterion 10 draws them."""
    rng = random.Random(20250811)
    nonsquares = [d for d in range(2, 51) if QuadraticNumber.sqrt(d).q != 0]
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
        box = [alpha for alpha, _ in enumerate_families(6, 6, 6)]
        slopes = [PHI, A55, A19, QuadraticNumber.sqrt(2)] + box + _criterion_10_slopes(20)
        for alpha in slopes:
            beta = alpha / (alpha - 1)
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

    def test_delta2_carry_in_any_order(self, monkeypatch):
        """Runs of consecutive n, repeats and jumps, interleaved over two pairs.

        Every value matches the definition, and a call at the pair's last
        n + 1 takes two exact floors where any other call takes four.
        """
        rng = random.Random(20261018)
        pairs = [conjugate_beatty(A19), conjugate_beatty(QuadraticNumber.sqrt(2))]
        last = {id(pair): 0 for pair in pairs}
        floors = []

        def counting(gamma, n):
            floors.append(n)
            return beatty_floor(gamma, n)

        monkeypatch.setattr(quadfield, "beatty_floor", counting)
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
            floors.clear()
            assert pair.delta2(n) == want, (a, n, prev)
            assert len(floors) == (2 if n == prev + 1 else 4), (a, n, prev)
            last[id(pair)] = n

    @pytest.mark.parametrize("alpha, message", [
        (QuadraticNumber.rational(3, 2, D=5), "alpha must be irrational"),
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
        return [PHI, A55, A19, QuadraticNumber.sqrt(2)] + box + _criterion_10_slopes(20)

    @pytest.mark.parametrize("near_cap", [False, True])
    def test_pair_equals_the_arithmetic_chains(self, near_cap):
        def same(x, y):
            # Both sides in normal form, so equal coefficients mean equal values.
            return (x.p, x.q, x.r, x.D) == (y.p, y.q, y.r, y.D)

        def frac(x):
            # Fraction operands take the generic path, not the int shortcut.
            got = fractional_part(x)
            assert same(got, x - Fraction(x.floor())), x
            return got

        one = Fraction(1)
        for alpha in self.NEAR_CAP if near_cap else self.slopes():
            pair = conjugate_beatty(alpha)
            beta = (alpha - one).inv() + one
            assert same(pair.beta, beta), alpha
            assert alpha.inv() + beta.inv() == 1
            assert same(pair.inv_alpha, alpha.inv()), alpha
            assert same(pair.frac_alpha, frac(alpha)), alpha
            assert same(pair.frac_beta, frac(beta)), alpha
            assert same(pair._inv_frac_alpha, frac(alpha).inv()), alpha
            assert same(pair._inv_frac_beta, frac(beta).inv()), alpha

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
            assert built(lambda: trichotomy_class(alpha, 7)) <= 5, alpha
            assert built(lambda: classify_alpha(alpha)) <= 10, alpha


class TestCopyAndPickle:
    @pytest.mark.parametrize("x", [A55, -A19, QuadraticNumber.rational(3, 2, D=5)])
    def test_round_trips(self, x):
        for again in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert again == x and repr(again) == repr(x)
            assert_normal(again)

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
