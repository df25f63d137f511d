"""Exact arithmetic in real quadratic fields and exact Beatty-sequence primitives.

Every value is an exact (p + q*sqrt(D))/r with integer p, q, r > 0 and a
square-free radicand D.  Floors, comparisons and sequence memberships are
decided with integer square roots only — no floating point anywhere, because
Beatty membership flips on knife-edge values that floats cannot represent.

Outside input enters through the public `QuadraticNumber(p, q, r, D)`, which
rejects D > MAX_RADICAND and then splits off the square part of D by trial
division.  Arithmetic results are built by the private
`QuadraticNumber._new`, which trusts that its D is the radicand of an
existing instance, hence already square-free, and only normalizes sign and
gcd.  Comparisons with an int, or with a value of the same field, decide the
sign of a numerator without building the difference.

`BeattyPair` is the per-slope object: `conjugate_beatty(alpha)` builds one
number, beta, and checks 1/alpha + 1/beta = 1 in integers; 1/alpha, {alpha},
{beta} and the inverses of the last two cost one number each on first use and
are kept.  `pair.delta2(n)` carries its last two floors to n + 1.  The public
`delta2(alpha, n)` and `trichotomy_class(alpha, n)` build a new pair on every
call (plus four numbers for the trichotomy), so loops over n should hold it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd, isqrt
from typing import Optional, Tuple


# Trial division in _square_free takes at most sqrt(MAX_RADICAND) = 10**6 steps.
MAX_RADICAND = 10**12


def _square_free(d: int) -> Tuple[int, int]:
    """Split d = s*s * d' with d' square-free; returns (s, d')."""
    s = 1
    f = 2
    while f * f <= d:
        while d % (f * f) == 0:
            d //= f * f
            s *= f
        f += 1
    return s, d


_QUAD_RE = re.compile(
    r"""^\(\s*([+-]?\d+)\s*([+-])\s*(\d+)\s*\*\s*sqrt\(\s*(\d+)\s*\)\s*\)\s*/\s*([+-]?\d+)$"""
)


class QuadraticNumber:
    """Immutable exact value (p + q*sqrt(D))/r.

    Normal form: r > 0, gcd(p, q, r) = 1, D square-free.  A perfect-square
    radicand folds into the rational part (q becomes 0), so q != 0 implies the
    value is irrational.  Values with q = 0 are rational and compare equal
    across different radicands.
    """

    __slots__ = ("p", "q", "r", "D")

    def __init__(self, p: int, q: int, r: int, D: int):
        if r == 0:
            raise ZeroDivisionError("denominator r must be nonzero")
        if D < 1:
            raise ValueError(f"radicand must be positive, got {D}")
        if D > MAX_RADICAND:
            raise ValueError(f"radicand must be at most {MAX_RADICAND}, got {D}")
        s, d = _square_free(D)
        q *= s
        if d == 1:
            # sqrt(1) == 1: the value is rational
            p += q
            q = 0
        _store(self, p, q, r, d)

    @classmethod
    def _new(cls, p: int, q: int, r: int, D: int) -> "QuadraticNumber":
        """Value (p + q*sqrt(D))/r with sign and gcd normalization only.

        D must be the radicand of an existing instance: it is neither checked
        nor reduced, and q is not folded into p.  r must be nonzero.
        """
        self = object.__new__(cls)
        _store(self, p, q, r, D)
        return self

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("QuadraticNumber is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through the public constructor, which checks D.
        return (QuadraticNumber, (self.p, self.q, self.r, self.D))

    # -- construction helpers -------------------------------------------------

    @classmethod
    def rational(cls, num: int, den: int = 1, D: int = 2) -> "QuadraticNumber":
        """Rational value carried inside the field Q(sqrt(D))."""
        return cls(num, 0, den, D)

    @classmethod
    def sqrt(cls, D: int) -> "QuadraticNumber":
        return cls(0, 1, 1, D)

    @classmethod
    def from_string(cls, text: str) -> "QuadraticNumber":
        """Parse the canonical text form "(p+q*sqrt(D))/r"."""
        m = _QUAD_RE.match(text.strip())
        if m is None:
            raise ValueError(f"cannot parse quadratic number: {text!r}")
        p = int(m.group(1))
        q = int(m.group(3)) * (-1 if m.group(2) == "-" else 1)
        d = int(m.group(4))
        r = int(m.group(5))
        return cls(p, q, r, d)

    def __str__(self) -> str:
        sign = "-" if self.q < 0 else "+"
        d = self.D if self.q != 0 else 1
        return f"({self.p}{sign}{abs(self.q)}*sqrt({d}))/{self.r}"

    def __repr__(self) -> str:
        return f"QuadraticNumber({self.p}, {self.q}, {self.r}, {self.D})"

    # -- predicates ------------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.q == 0

    @property
    def is_integer(self) -> bool:
        return self.q == 0 and self.r == 1

    # -- arithmetic ------------------------------------------------------------

    def _pair(self, other) -> Optional[Tuple["QuadraticNumber", "QuadraticNumber"]]:
        """Coerce to a common field.  Rationals lift freely; true mixed-D raises."""
        new = QuadraticNumber._new
        if isinstance(other, int):
            other = new(other, 0, 1, self.D)
        elif isinstance(other, Fraction):
            other = new(other.numerator, 0, other.denominator, self.D)
        elif not isinstance(other, QuadraticNumber):
            return None
        a, b = self, other
        if a.D != b.D:
            if b.q == 0:
                b = new(b.p, 0, b.r, a.D)
            elif a.q == 0:
                a = new(a.p, 0, a.r, b.D)
            else:
                raise ValueError(f"mismatched radicands: {a.D} vs {b.D}")
        return a, b

    def __add__(self, other):
        pr = self._pair(other)
        if pr is None:
            return NotImplemented
        a, b = pr
        return QuadraticNumber._new(
            a.p * b.r + b.p * a.r, a.q * b.r + b.q * a.r, a.r * b.r, a.D
        )

    __radd__ = __add__

    def __neg__(self):
        return QuadraticNumber._new(-self.p, -self.q, self.r, self.D)

    def __sub__(self, other):
        if isinstance(other, int):
            return QuadraticNumber._new(self.p - other * self.r, self.q, self.r, self.D)
        pr = self._pair(other)
        if pr is None:
            return NotImplemented
        a, b = pr
        return QuadraticNumber._new(
            a.p * b.r - b.p * a.r, a.q * b.r - b.q * a.r, a.r * b.r, a.D
        )

    def __rsub__(self, other):
        if isinstance(other, int):
            return QuadraticNumber._new(other * self.r - self.p, -self.q, self.r, self.D)
        return -(self - other)

    def __mul__(self, other):
        pr = self._pair(other)
        if pr is None:
            return NotImplemented
        a, b = pr
        return QuadraticNumber._new(
            a.p * b.p + a.q * b.q * a.D, a.p * b.q + a.q * b.p, a.r * b.r, a.D
        )

    __rmul__ = __mul__

    def inv(self) -> "QuadraticNumber":
        """Multiplicative inverse; exact rationalization by the conjugate."""
        if self.p == 0 and self.q == 0:
            raise ZeroDivisionError("inverse of zero")
        den = self.p * self.p - self.q * self.q * self.D
        # den == 0 would force p*p == q*q*D with D square-free, i.e. p == q == 0
        return QuadraticNumber._new(self.r * self.p, -self.r * self.q, den, self.D)

    def __truediv__(self, other):
        pr = self._pair(other)
        if pr is None:
            return NotImplemented
        a, b = pr
        return a * b.inv()

    def __rtruediv__(self, other):
        pr = self._pair(other)
        if pr is None:
            return NotImplemented
        a, b = pr
        return b * a.inv()

    def conjugate(self) -> "QuadraticNumber":
        """Field conjugate (p - q*sqrt(D))/r."""
        return QuadraticNumber._new(self.p, -self.q, self.r, self.D)

    # -- order -----------------------------------------------------------------

    def sign(self) -> int:
        """Sign of the value, decided by exact integer reasoning."""
        return _sign(self.p, self.q, self.D)

    def _cmp(self, other) -> int:
        # Same field, or one side rational: the sign of the difference is the
        # sign of its numerator over the positive r's, built from integers.
        if isinstance(other, int):
            return _sign(self.p - other * self.r, self.q, self.D)
        if isinstance(other, QuadraticNumber) and (
            self.D == other.D or self.q == 0 or other.q == 0
        ):
            return _sign(
                self.p * other.r - other.p * self.r,
                self.q * other.r - other.q * self.r,
                self.D if self.q else other.D,
            )
        diff = self - other
        if diff is NotImplemented:
            raise TypeError(f"cannot compare QuadraticNumber with {type(other)!r}")
        return diff.sign()

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __eq__(self, other):
        # A rational value has gcd(p, r) = 1 and r > 0, the normal form of a
        # Fraction, so no Fraction is built.
        if isinstance(other, int):
            return self.q == 0 and self.r == 1 and self.p == other
        if isinstance(other, Fraction):
            return self.q == 0 and (self.p, self.r) == (other.numerator, other.denominator)
        if not isinstance(other, QuadraticNumber):
            return NotImplemented
        if self.q == 0 and other.q == 0:
            return (self.p, self.r) == (other.p, other.r)
        return (self.p, self.q, self.r, self.D) == (other.p, other.q, other.r, other.D)

    def __hash__(self):
        if self.q == 0:
            return hash(Fraction(self.p, self.r))
        return hash((self.p, self.q, self.r, self.D))

    def __bool__(self):
        return self.p != 0 or self.q != 0

    # -- exact floors ------------------------------------------------------------

    def floor(self) -> int:
        """Exact floor of the value."""
        return beatty_floor(self, 1)

    def decimal(self, digits: int = 12) -> str:
        """Truncated decimal rendering (display aid only, never authoritative)."""
        scale = 10 ** digits
        v = beatty_floor(self, scale)
        sign = "-" if v < 0 else ""
        v = abs(v)
        return f"{sign}{v // scale}.{v % scale:0{digits}d}"


# The slots' own setters bypass the immutability guard in __setattr__ without
# object.__setattr__'s attribute lookup: every arithmetic result writes four.
_SET_P = QuadraticNumber.p.__set__
_SET_Q = QuadraticNumber.q.__set__
_SET_R = QuadraticNumber.r.__set__
_SET_D = QuadraticNumber.D.__set__


def _store(x: QuadraticNumber, p: int, q: int, r: int, D: int) -> None:
    """Write (p + q*sqrt(D))/r into x's slots with r > 0 and gcd(p, q, r) = 1."""
    if r < 0:
        p, q, r = -p, -q, -r
    g = gcd(p, q, r)
    if g != 1:
        p, q, r = p // g, q // g, r // g
    _SET_P(x, p)
    _SET_Q(x, q)
    _SET_R(x, r)
    _SET_D(x, D)


def _sign(p: int, q: int, D: int) -> int:
    """Sign of p + q*sqrt(D) for square-free D (D is read only when p, q differ in sign)."""
    if q == 0:
        return (p > 0) - (p < 0)
    if p == 0:
        return (q > 0) - (q < 0)
    if (p > 0) == (q > 0):
        return 1 if p > 0 else -1
    # opposite signs: compare |p| against |q|*sqrt(D) by squaring
    if p * p > q * q * D:
        return 1 if p > 0 else -1
    return 1 if q > 0 else -1


def beatty_floor(alpha: QuadraticNumber, n: int) -> int:
    """Exact floor(n * alpha) for n >= 0."""
    if n < 0:
        raise ValueError("index must be non-negative")
    # floor(t*sqrt(D)) with t = n*q: t*t*D is never a perfect square for
    # t != 0 and square-free D > 1, so the negative branch needs no correction.
    t = n * alpha.q
    w = isqrt(t * t * alpha.D)
    return (n * alpha.p + (w if t >= 0 else -w - 1)) // alpha.r


def fractional_part(x: QuadraticNumber) -> QuadraticNumber:
    """x - floor(x), exact, in [0, 1)."""
    return x - x.floor()


class _Derived:
    """Value built by `make(pair)` on first use and kept in the pair's dict,
    which later reads hit first: a cached_property without its lock."""

    def __init__(self, make):
        self.make, self.name, self.__doc__ = make, make.__name__, make.__doc__

    def __get__(self, pair, owner=None):
        if pair is None:
            return self
        value = pair.__dict__[self.name] = self.make(pair)
        return value


@dataclass(frozen=True)
class BeattyPair:
    """Slopes (alpha, beta) of a complementary Beatty pair: 1/alpha + 1/beta = 1.

    The per-slope object: the values derived from the pair are built on
    first use and kept for the pair's lifetime.
    """

    alpha: QuadraticNumber
    beta: QuadraticNumber

    def __post_init__(self):
        a, b = self.alpha, self.beta
        if a.q == 0:
            raise ValueError("alpha must be irrational")
        if not (1 < a < 2):
            raise ValueError(f"alpha must lie in (1, 2), got {a}")
        if not (2 < b):
            raise ValueError(f"beta must exceed 2, got {b}")
        if a.D != b.D and b.q != 0:
            raise ValueError(f"mismatched radicands: {a.D} vs {b.D}")
        # 1/alpha + 1/beta = 1 iff alpha + beta = alpha*beta, coordinatewise times a.r*b.r
        if (a.p * b.r + b.p * a.r != a.p * b.p + a.q * b.q * a.D
                or a.q * b.r + b.q * a.r != a.p * b.q + a.q * b.p):
            raise ValueError("1/alpha + 1/beta = 1 fails")

    @_Derived
    def inv_alpha(self) -> QuadraticNumber:
        """1/alpha; floor((x+1)/alpha) counts the floor(n*alpha) at or below x."""
        return self.alpha.inv()

    @_Derived
    def frac_alpha(self) -> QuadraticNumber:
        """{alpha} = alpha - 1."""
        return self.alpha - 1

    @_Derived
    def frac_beta(self) -> QuadraticNumber:
        """{beta}."""
        return fractional_part(self.beta)

    @_Derived
    def _inv_frac_alpha(self) -> QuadraticNumber:
        return self.frac_alpha.inv()

    @_Derived
    def _inv_frac_beta(self) -> QuadraticNumber:
        return self.frac_beta.inv()

    # (n, floor(n*alpha), floor(n*beta)) of the last delta2 call; replaced
    # whole, so a reader never sees the floors of one n with another n.
    _carry = (0, 0, 0)

    def delta2(self, n: int) -> int:
        """Second difference (floor(n*beta)-floor((n-1)*beta)) - (floor(n*alpha)-floor((n-1)*alpha)).

        The pair carries n, floor(n*alpha) and floor(n*beta) from its last
        call, so a call at the next n takes two exact floors instead of four;
        any other call takes four.  The value does not depend on call order.
        """
        if n < 1:
            raise ValueError("delta2 is defined for n >= 1")
        a, b = self.alpha, self.beta
        last, fa0, fb0 = self._carry
        if n != last + 1:
            fa0, fb0 = beatty_floor(a, n - 1), beatty_floor(b, n - 1)
        fa, fb = beatty_floor(a, n), beatty_floor(b, n)
        self.__dict__["_carry"] = (n, fa, fb)
        return (fb - fb0) - (fa - fa0)

    def trichotomy(self, n: int) -> Trichotomy:
        """Classify n by membership in X = {floor(m/{alpha})} and Y = {floor(m/{beta})}.

        delta2(n+1) always equals floor(beta) - 1 + d with d the value of the
        returned class.
        """
        in_x = _member(self._inv_frac_alpha, self.frac_alpha, n)
        in_y = _member(self._inv_frac_beta, self.frac_beta, n)
        if in_x == in_y:
            return Trichotomy.ZERO
        return Trichotomy.PLUS if in_y else Trichotomy.MINUS


def conjugate_beatty(alpha: QuadraticNumber) -> BeattyPair:
    """Complete alpha in (1,2) to its complementary pair: beta = alpha/(alpha-1) = 1 + 1/(alpha-1).

    For alpha = (p + q*sqrt(D))/r that is (den + r*(p-r) - r*q*sqrt(D))/den with
    den = (p-r)^2 - q^2*D.  BeattyPair validates alpha; the check here keeps den != 0.
    """
    if alpha.q == 0:
        raise ValueError("alpha must be irrational")
    p, q, r, D = alpha.p, alpha.q, alpha.r, alpha.D
    den = (p - r) * (p - r) - q * q * D
    return BeattyPair(alpha, QuadraticNumber._new(den + r * (p - r), -r * q, den, D))


def _member(gamma: QuadraticNumber, inv_gamma: QuadraticNumber, n: int) -> bool:
    """Membership of n in {floor(m * gamma)} for an irrational gamma > 1 with inverse inv_gamma."""
    if n < 0:
        return False
    if n == 0:
        return True
    m = beatty_floor(inv_gamma, n) + 1  # ceil(n/gamma); n/gamma is irrational
    return beatty_floor(gamma, m) == n


def beatty_membership(gamma: QuadraticNumber, n: int) -> bool:
    """True iff n appears in the sequence {floor(m * gamma) : m >= 0}.

    Candidate-index test: the only m that can work is ceil(n / gamma), so one
    exact floor confirms or refutes membership in O(1) big-integer work.
    """
    if gamma.q == 0 or not gamma > 1:
        raise ValueError("gamma must be an irrational greater than 1")
    return _member(gamma, gamma.inv(), n)


def delta2(alpha: QuadraticNumber, n: int) -> int:
    """Second difference (floor(n*beta)-floor((n-1)*beta)) - (floor(n*alpha)-floor((n-1)*alpha)).

    Builds the pair on every call; `conjugate_beatty(alpha).delta2(n)` reuses it.
    """
    if n < 1:
        raise ValueError("delta2 is defined for n >= 1")
    return conjugate_beatty(alpha).delta2(n)


class Trichotomy(Enum):
    """Which of the two derived index sequences n belongs to."""

    ZERO = 0
    PLUS = 1
    MINUS = -1


def trichotomy_class(alpha: QuadraticNumber, n: int) -> Trichotomy:
    """Classify n by membership in X = {floor(m/{alpha})} and Y = {floor(m/{beta})}.

    delta2(alpha, n+1) always equals floor(beta) - 1 + d with d the value of
    the returned class.  Builds the pair on every call;
    `conjugate_beatty(alpha).trichotomy(n)` reuses it.
    """
    return conjugate_beatty(alpha).trichotomy(n)


def rayleigh_verify(pair: BeattyPair, limit: int) -> bool:
    """Check that the two Beatty sequences tile [0, limit] with only 0 shared."""
    if limit < 0:
        raise ValueError("limit must be non-negative")
    hits = bytearray(limit + 1)
    for gamma in (pair.alpha, pair.beta):
        n = 0
        while True:
            v = beatty_floor(gamma, n)
            if v > limit:
                break
            hits[v] += 1
            n += 1
    return hits[0] == 2 and all(h == 1 for h in hits[1:])


def solve_unit_combination(
    u: QuadraticNumber, v: QuadraticNumber
) -> Optional[Tuple[int, int]]:
    """Unique positive integers (p, q) with p*u + q*v = 1, if they exist.

    The rational and sqrt(D) coordinates give two linear equations, solved in
    integers: p = v.q*u.r/det, q = -u.q*v.r/det, det = u.p*v.q - v.p*u.q, taken
    only when integral and positive.  A singular system (u, v rational multiples
    of each other) has no solution for irrational u, v.
    """
    if u.q == 0 or v.q == 0:
        raise ValueError("u and v must be irrational")
    if u.D != v.D:
        raise ValueError(f"mismatched radicands: {u.D} vs {v.D}")
    det = u.p * v.q - v.p * u.q
    if det == 0:
        return None
    p, p_rem = divmod(v.q * u.r, det)
    q, q_rem = divmod(-u.q * v.r, det)
    if p_rem or q_rem or p <= 0 or q <= 0:
        return None
    return p, q
