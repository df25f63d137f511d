"""Exact arithmetic in real quadratic fields and exact Beatty-sequence primitives.

Every value is an exact (p + q*sqrt(D))/r with integer p, q, r > 0 and a
square-free radicand D.  Floors, comparisons and sequence memberships are
decided with integer square roots only — no floating point anywhere, because
Beatty membership flips on knife-edge values that floats cannot represent.

Outside input enters through the public `QuadraticNumber(p, q, r, D)`, which
rejects a D that is not an int or exceeds MAX_RADICAND and then splits off
the square part of D by trial division.  Arithmetic results are built by
the private `QuadraticNumber._new`, which trusts that its D is the radicand
of an existing instance, hence already square-free, and only normalizes
sign and gcd.  Arithmetic takes an int or a value of the same radicand;
another radicand raises ValueError.  Comparisons with an int, or with a value
of the same field, decide the sign of a numerator without building the
difference; rationals (q = 0) also compare and hash equal across radicands.

`BeattyPair` is the per-slope object: `conjugate_beatty(alpha)` builds one
number, beta, and checks the pair in integers (1 < alpha < 2 and beta > 2 by
the sign of a numerator, 1/alpha + 1/beta = 1 coordinatewise).
Rows come from the continued fractions: the PQa recurrence expands alpha
and beta with one isqrt each, and the steps of floor(n*x) are the
characteristic Sturmian word of {x}, built as bytes from standard words
by `_step_word`, which reads nothing of x but its partial quotients.
Each pair builds the step words of alpha and beta once, _HELD_ROWS bytes
each, on first use.  Up to that length `pair.delta2(n)` and
`pair.trichotomy(n)` read one byte of each word, and `pair._steps(m)` slices
them; past it delta2 takes four exact floors by isqrt and `_steps` builds
fresh words, so memory per pair stays bounded.  `pair._floors(m)` gives
floor(n*alpha) and floor(n*beta) for n < m, each as one `accumulate` over
the word translated to floor(x) + step, with no isqrt and no Python
bytecode per n (`_running_floors`, which takes any two words).  Each slope
value holds its pair: the first `conjugate_beatty(alpha)` builds and checks
it, and every later call with that alpha, including those inside the public
`delta2(alpha, n)` and `trichotomy_class(alpha, n)`, returns the same one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import accumulate, count
from math import gcd, isqrt
from operator import add
from typing import Iterator, Optional, Tuple


# Trial division in _square_free takes at most sqrt(MAX_RADICAND) = 10**6 steps.
MAX_RADICAND = 10**12
MAX_RAYLEIGH_LIMIT = 10**6  # rayleigh_verify peaks at about 6 bytes per unit of limit
_HELD_ROWS = 4096  # step bytes each BeattyPair keeps per slope: 8 KB a pair


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
    value is irrational.  Values with q = 0 are rational: they compare, and
    hash, equal across different radicands, but `+`, `-`, `*` and `/` take
    only ints and values of the same radicand.
    """

    __slots__ = ("p", "q", "r", "D", "_beatty")

    def __init__(self, p: int, q: int, r: int, D: int):
        if r == 0:
            raise ZeroDivisionError("denominator r must be nonzero")
        if type(D) is not int:  # a float radicand would decide signs in floats
            raise TypeError(f"radicand must be an int, got {type(D).__name__}")
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
        if r == 0:
            raise ValueError(f"zero denominator: {text!r}")
        return cls(p, q, r, d)

    def __str__(self) -> str:
        sign = "-" if self.q < 0 else "+"
        d = self.D if self.q != 0 else 1
        return f"({self.p}{sign}{abs(self.q)}*sqrt({d}))/{self.r}"

    def __repr__(self) -> str:
        return f"QuadraticNumber({self.p}, {self.q}, {self.r}, {self.D})"

    # -- arithmetic ------------------------------------------------------------

    def _pair(self, other):
        """other as a value of self's field: an int, or a value with self's
        radicand.  Another radicand raises; another type is NotImplemented."""
        if isinstance(other, int):
            return QuadraticNumber._new(other, 0, 1, self.D)
        if not isinstance(other, QuadraticNumber):
            return NotImplemented
        if other.D != self.D:
            raise ValueError(f"mismatched radicands: {self.D} vs {other.D}")
        return other

    def __add__(self, other):
        b = self._pair(other)
        if b is NotImplemented:
            return b
        return QuadraticNumber._new(
            self.p * b.r + b.p * self.r, self.q * b.r + b.q * self.r, self.r * b.r, self.D
        )

    __radd__ = __add__

    def __neg__(self):
        return QuadraticNumber._new(-self.p, -self.q, self.r, self.D)

    def __sub__(self, other):
        b = self._pair(other)
        if b is NotImplemented:
            return b
        return QuadraticNumber._new(
            self.p * b.r - b.p * self.r, self.q * b.r - b.q * self.r, self.r * b.r, self.D
        )

    def __rsub__(self, other):
        b = self._pair(other)
        return b if b is NotImplemented else b - self

    def __mul__(self, other):
        b = self._pair(other)
        if b is NotImplemented:
            return b
        return QuadraticNumber._new(
            self.p * b.p + self.q * b.q * self.D, self.p * b.q + self.q * b.p, self.r * b.r, self.D
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
        b = self._pair(other)
        return b if b is NotImplemented else self * b.inv()

    def __rtruediv__(self, other):
        b = self._pair(other)
        return b if b is NotImplemented else b * self.inv()

    def conjugate(self) -> "QuadraticNumber":
        """Field conjugate (p - q*sqrt(D))/r."""
        return QuadraticNumber._new(self.p, -self.q, self.r, self.D)

    # -- order -----------------------------------------------------------------

    def sign(self) -> int:
        """Sign of the value, decided by exact integer reasoning."""
        return _sign(self.p, self.q, self.D)

    def _cmp(self, other) -> int:
        # Against an int, or a value of the same field or with one side
        # rational: the sign of the difference is the sign of its numerator
        # over the positive r's, built from integers.
        if isinstance(other, int):
            return _sign(self.p - other * self.r, self.q, self.D)
        if not isinstance(other, QuadraticNumber):
            raise TypeError(f"cannot compare QuadraticNumber with {type(other)!r}")
        if self.D != other.D and self.q and other.q:
            raise ValueError(f"mismatched radicands: {self.D} vs {other.D}")
        return _sign(
            self.p * other.r - other.p * self.r,
            self.q * other.r - other.q * self.r,
            self.D if self.q else other.D,
        )

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __eq__(self, other):
        if isinstance(other, int):
            return self.q == 0 and self.r == 1 and self.p == other
        if not isinstance(other, QuadraticNumber):
            return NotImplemented
        if self.q == 0 and other.q == 0:
            return (self.p, self.r) == (other.p, other.r)
        return (self.p, self.q, self.r, self.D) == (other.p, other.q, other.r, other.D)

    def __hash__(self):
        # A rational hashes as the Fraction p/r, so as an int when r == 1 and
        # alike across radicands, as __eq__ compares it.
        if self.q == 0:
            return hash(Fraction(self.p, self.r))
        return hash((self.p, self.q, self.r, self.D))

    # -- exact floors ------------------------------------------------------------

    def floor(self) -> int:
        """Exact floor of the value."""
        return beatty_floor(self, 1)

    def decimal(self, digits: int = 12) -> str:
        """Decimal rendering truncated toward zero (display aid only, never authoritative)."""
        scale = 10 ** digits
        v = beatty_floor(-self if self < 0 else self, scale)
        sign = "-" if self < 0 else ""
        return f"{sign}{v // scale}.{v % scale:0{digits}d}"


# The slots' own setters bypass the immutability guard in __setattr__ without
# object.__setattr__'s attribute lookup: every arithmetic result writes four.
_SET_P = QuadraticNumber.p.__set__
_SET_Q = QuadraticNumber.q.__set__
_SET_R = QuadraticNumber.r.__set__
_SET_D = QuadraticNumber.D.__set__
_SET_BEATTY = QuadraticNumber._beatty.__set__


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


@dataclass(frozen=True)
class BeattyPair:
    """Slopes (alpha, beta) of a complementary Beatty pair: 1/alpha + 1/beta = 1.

    The per-slope object: its methods read alpha and beta's coefficients and
    continued fractions, and build no number.
    """

    alpha: QuadraticNumber
    beta: QuadraticNumber

    def __post_init__(self):
        a, b = self.alpha, self.beta
        if a.q == 0:
            raise ValueError("alpha must be irrational")
        # x > k iff the numerator p - k*r + q*sqrt(D) is positive, as r > 0
        if _sign(a.p - a.r, a.q, a.D) <= 0 or _sign(a.p - 2 * a.r, a.q, a.D) >= 0:
            raise ValueError(f"alpha must lie in (1, 2), got {a}")
        if _sign(b.p - 2 * b.r, b.q, b.D) <= 0:
            raise ValueError(f"beta must exceed 2, got {b}")
        if a.D != b.D and b.q != 0:
            raise ValueError(f"mismatched radicands: {a.D} vs {b.D}")
        # 1/alpha + 1/beta = 1 iff alpha + beta = alpha*beta, coordinatewise times a.r*b.r
        if (a.p * b.r + b.p * a.r != a.p * b.p + a.q * b.q * a.D
                or a.q * b.r + b.q * a.r != a.p * b.q + a.q * b.p):
            raise ValueError("1/alpha + 1/beta = 1 fails")

    def _held(self) -> Tuple[bytes, int, bytes]:
        """alpha's step word, floor(beta) and beta's step word, _HELD_ROWS
        bytes each: built on first use and kept outside the fields, so eq,
        hash, repr and asdict do not see them."""
        try:
            return self._words
        except AttributeError:
            (_, ua), (whole, ub) = (
                _step_word(_partial_quotients(x), _HELD_ROWS) for x in (self.alpha, self.beta))
            object.__setattr__(self, "_words", (ua, whole, ub))
            return self._words

    def __getstate__(self):
        """The fields alone, for pickle and copy: a copy builds its own words."""
        return {"alpha": self.alpha, "beta": self.beta}

    def delta2(self, n: int) -> int:
        """Second difference (floor(n*beta)-floor((n-1)*beta)) - (floor(n*alpha)-floor((n-1)*alpha)).

        With floor(alpha) = 1 that is floor(beta) - 1 + ub[n-1] - ua[n-1],
        read from the held step words for n <= _HELD_ROWS; past them, four
        exact floors.
        """
        if n < 1:
            raise ValueError("delta2 is defined for n >= 1")
        if n <= _HELD_ROWS:
            ua, whole, ub = self._held()
            return whole - 1 + ub[n - 1] - ua[n - 1]
        a, b = self.alpha, self.beta
        return (beatty_floor(b, n) - beatty_floor(b, n - 1)) - (
            beatty_floor(a, n) - beatty_floor(a, n - 1)
        )

    def _steps(self, m: int) -> Tuple[Tuple[int, bytes], Tuple[int, bytes]]:
        """(floor(x), steps) for x = alpha and x = beta, from x's continued
        fraction: byte k < m of steps is floor((k+1)*x) - floor(k*x) - floor(x),
        0 or 1.  No isqrt per row.  Up to _HELD_ROWS a slice of the held
        words, past them a fresh build."""
        if m <= _HELD_ROWS:
            ua, whole, ub = self._held()
            return (1, ua[:m]), (whole, ub[:m])
        return tuple(_step_word(_partial_quotients(x), m) for x in (self.alpha, self.beta))

    def _floors(self, m: int) -> Tuple[Iterator[int], ...]:
        """Iterators over floor(n*alpha) and floor(n*beta) for n < m, by `_running_floors`."""
        if m < 1:
            return iter(()), iter(())
        return _running_floors(self._steps(m - 1))

    def trichotomy(self, n: int) -> Trichotomy:
        """Classify n by membership in X = {floor(m/{alpha})} and Y = {floor(m/{beta})}.

        The class is ZERO when n lies in both or neither, PLUS when only in
        Y, MINUS when only in X; it is computed by the step identity
        d = delta2(n+1) - floor(beta) + 1 for n >= 0.  For n >= 1, n lies in
        X iff alpha's step floor((n+1)*alpha) - floor(n*alpha) is 2, and in
        Y iff beta's step is floor(beta) + 1, so d = (beta step -
        floor(beta)) - (alpha step - 1) = ub[n] - ua[n], read from the held
        step words for n < _HELD_ROWS.  n = 0 lies in both and
        delta2(1) = floor(beta) - 1; negative n lie in neither.  The tests
        check the class against the membership definition.
        """
        if n < 0:
            return Trichotomy.ZERO
        if n < _HELD_ROWS:
            ua, _, ub = self._held()
            return _TRICHOTOMY[ub[n] - ua[n]]
        return _TRICHOTOMY[self.delta2(n + 1) - self.beta.floor() + 1]


def _partial_quotients(x: QuadraticNumber) -> Iterator[int]:
    """Continued fraction a_0, a_1, ... of an irrational x, by the PQa
    recurrence: x_i = (P + sqrt(d))/Q with Q dividing d - P*P, so one isqrt
    of d serves every term."""
    p, q, r = x.p, x.q, x.r
    if q < 0:
        p, r = -p, -r  # (p - |q|*sqrt(D))/r = (-p + |q|*sqrt(D))/(-r)
    # x = (p*|r| + sqrt(q*q*D*r*r))/(r*|r|), whose Q divides d - P*P.
    d, P, Q = q * q * x.D * r * r, p * abs(r), r * abs(r)
    s = isqrt(d)  # d is not a square, so floor((P + sqrt(d))/Q) needs s alone
    while True:
        a = (P + s + (Q < 0)) // Q
        yield a
        P = a * Q - P
        Q = (d - P * P) // Q


def _step_word(quotients: Iterator[int], m: int) -> Tuple[int, bytes]:
    """floor(x) and the bytes floor((k+1)*x) - floor(k*x) - floor(x), k < m,
    of the irrational x > 0 whose partial quotients a_0, a_1, ... the
    iterator yields (`_partial_quotients(x)` for a quadratic x).

    The steps are those of {x}: 0 at k = 0, then the characteristic word of
    {x} = [0; a_1, a_2, ...], the limit of the standard words s_{-1} = 1,
    s_0 = 0, s_1 = s_0^(a_1 - 1) s_{-1}, s_j = s_{j-1}^(a_j) s_{j-2}
    (Lothaire, Algebraic Combinatorics on Words, ch. 2), each a prefix of
    the next from s_1 on.  A repetition that reaches m letters is cut there,
    so a huge partial quotient costs no more than a small one.
    """
    whole = next(quotients)
    need = m - 1  # letters after the leading 0
    prev, word = b"\1", b"\0"
    reps = next(quotients) - 1
    while len(word) * reps < need:
        prev, word = word, word * reps + prev
        if len(word) >= need:
            break
        reps = next(quotients)
    else:
        word *= -(-need // len(word))
    return whole, (b"\0" + word)[:m]


def _running_floors(words) -> Tuple[Iterator[int], ...]:
    """Iterators over floor(n*x), n <= len(steps), per (floor(x), steps) of `_step_word`: a running
    sum of floor(x) + step, by `bytes.translate` while that fits a byte, else of step plus n*floor(x)."""
    return tuple(
        accumulate(steps.translate(bytes((whole, whole + 1)) + bytes(254)), initial=0)
        if whole < 255
        else map(add, accumulate(steps, initial=0), count(0, whole))
        for whole, steps in words
    )


def conjugate_beatty(alpha: QuadraticNumber) -> BeattyPair:
    """Complete alpha in (1,2) to its complementary pair: beta = alpha/(alpha-1) = 1 + 1/(alpha-1).

    For alpha = (p + q*sqrt(D))/r that is (den + r*(p-r) - r*q*sqrt(D))/den with
    den = (p-r)^2 - q^2*D.  BeattyPair validates alpha; the check here keeps den != 0.

    One checked pair per slope object: the first call that succeeds stores the
    pair in alpha's `_beatty` slot, and every later call with that alpha returns
    it.  An invalid alpha holds nothing, so it raises on every call.  Equality,
    hashing, copies and pickles ignore the slot.  alpha and its pair refer to
    each other; the cycle collector frees the two, with the pair's held step
    words (at most 2 * _HELD_ROWS bytes).
    """
    try:
        return alpha._beatty
    except AttributeError:
        pass
    if alpha.q == 0:
        raise ValueError("alpha must be irrational")
    p, q, r, D = alpha.p, alpha.q, alpha.r, alpha.D
    den = (p - r) * (p - r) - q * q * D
    pair = BeattyPair(alpha, QuadraticNumber._new(den + r * (p - r), -r * q, den, D))
    _SET_BEATTY(alpha, pair)
    return pair


def delta2(alpha: QuadraticNumber, n: int) -> int:
    """Second difference (floor(n*beta)-floor((n-1)*beta)) - (floor(n*alpha)-floor((n-1)*alpha)).

    Reads the pair that alpha holds (see `conjugate_beatty`).
    """
    if n < 1:
        raise ValueError("delta2 is defined for n >= 1")
    return conjugate_beatty(alpha).delta2(n)


class Trichotomy(Enum):
    """Which of the two derived index sequences n belongs to."""

    ZERO = 0
    PLUS = 1
    MINUS = -1


_TRICHOTOMY = {t.value: t for t in Trichotomy}  # without the Enum call's lookup chain


def trichotomy_class(alpha: QuadraticNumber, n: int) -> Trichotomy:
    """Classify n by membership in X = {floor(m/{alpha})} and Y = {floor(m/{beta})}.

    The value d of the returned class is delta2(alpha, n+1) - floor(beta) + 1
    for n >= 0 (see `BeattyPair.trichotomy`).  Reads the pair that alpha
    holds (see `conjugate_beatty`).
    """
    return conjugate_beatty(alpha).trichotomy(n)


_STEP_TOKENS = bytes.maketrans(b"\0\1", b"\2\3")  # step letters as placeholders for the tokens
_SWAP_MARKS = bytes.maketrans(b"\0\1", b"\1\0")


def rayleigh_verify(pair: BeattyPair, limit: int) -> bool:
    """Check that the two Beatty sequences tile [0, limit] with only 0 shared.

    Each row's step word becomes one mark byte per value in 1..limit: a step
    of floor(x) + s is floor(x) + s - 1 zero bytes and a one.  No token runs
    past limit + 1 bytes, so a floor(beta) above limit marks nothing.  Both
    rows hold 0; they tile exactly when alpha's marks are beta's with 0 and
    1 swapped.  No Python int per value and no sort.
    """
    if not 0 <= limit <= MAX_RAYLEIGH_LIMIT:
        raise ValueError(f"limit must be in [0, {MAX_RAYLEIGH_LIMIT}], got {limit}")
    marks_a, marks_b = (
        steps[:limit // whole + 1].translate(_STEP_TOKENS)
        .replace(b"\2", bytes(min(whole - 1, limit)) + b"\1")
        .replace(b"\3", bytes(min(whole, limit)) + b"\1")[:limit]
        .ljust(limit, b"\0")  # a row whose word ends marks nothing more
        for whole, steps in pair._steps(limit + 1)
    )
    return marks_a.translate(_SWAP_MARKS) == marks_b


def _unit_solution(up: int, uq: int, ur: int, vp: int, vq: int, vr: int) -> Optional[Tuple[int, int]]:
    """Positive integers (p, q) with p*u + q*v = 1 for u = (up + uq*sqrt(D))/ur
    and v = (vp + vq*sqrt(D))/vr, if they exist.

    The rational and sqrt(D) coordinates give two linear equations, solved in
    integers: p = vq*ur/det, q = -uq*vr/det, det = up*vq - vp*uq, taken only
    when integral and positive.  A singular system (u, v rational multiples of
    each other) has no solution for irrational u, v.  Scaling a triple scales
    det and the numerators alike, so the triples need no normal form.
    """
    det = up * vq - vp * uq
    if det == 0:
        return None
    p, p_rem = divmod(vq * ur, det)
    q, q_rem = divmod(-uq * vr, det)
    if p_rem or q_rem or p <= 0 or q <= 0:
        return None
    return p, q
