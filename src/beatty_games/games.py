"""Position model, constraint functions, and move legality for the game families.

Both families share one move rule, `_refusal`: from x0 <= y0, take k from
the smaller pile and l from the larger, at least one token and neither pile
below zero.  Taking from one pile only is always a move (Nim).  Taking from
both must satisfy |l - k| < f in the modified two-pile game and l - k < f in
relaxed Wythoff, so removing more from the smaller pile is always allowed
there.  f is evaluated on the physical (uncanonicalized) destination
(x0 - k, y0 - l) and x0; only afterwards is the destination sorted back to
canonical order.  `legal_moves`, `is_legal_move` and the CLI's `play` all ask
this rule, and `play` prints the reason it gives for refusing a move.
BeattyDelta and TargetBeatty build their per-x0 tables by one rule, `_BeattyRows`.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from enum import Enum
from itertools import chain, repeat
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from .quadfield import QuadraticNumber, _step_word, beatty_floor, conjugate_beatty


class Position(NamedTuple):
    x: int
    y: int


def canonical(x: int, y: int) -> Position:
    """Sort a physical pile pair into the x <= y convention."""
    if x < 0 or y < 0:
        raise ValueError(f"pile sizes must be non-negative: ({x}, {y})")
    return Position(x, y) if x <= y else Position(y, x)


class Family(Enum):
    MODIFIED = "modified"
    RELAXED = "relaxed"


class Shape(Enum):
    """How a constraint depends on (x1, y1, x0); solve_doublemex picks its path by it."""

    ORIGIN = "origin"  # f(x0) alone
    GAP_AFFINE = "gap_affine"  # f = f(0, 0, x0) - (y1 - x1)
    GENERAL = "general"


class ConstraintSpec:
    """Bound on how unequal a simultaneous two-pile removal may be.

    ``value(x1, y1, x0)`` evaluates the bound for a move from a position with
    smaller pile x0 to the physical destination (x1, y1).  ``None`` means the
    diagonal move is disallowed outright.  ``shape`` says what the value
    depends on: ``ORIGIN``, x0 alone; ``GAP_AFFINE``,
    ``value(0, 0, x0) - (y1 - x1)``, ``None`` wherever ``value(0, 0, x0)``
    is; ``GENERAL``, anything else.  The shape picks the row rule of the
    oracle and ``solve_doublemex``; both recurrences run on every shape.
    """

    kind: str = ""
    shape: Shape = Shape.GENERAL

    def value(self, x1: int, y1: int, x0: int) -> Optional[int]:
        raise NotImplementedError

    def params(self) -> dict:
        raise NotImplementedError


@dataclass(eq=True)
class Constant(ConstraintSpec):
    """f == t: reproduces the t-Wythoff diagonal rule |l - k| < t."""

    t: int
    kind = "constant"
    shape = Shape.ORIGIN

    def __post_init__(self):
        if self.t < 1:
            raise ValueError("constant constraint requires t >= 1")

    def value(self, x1: int, y1: int, x0: int) -> Optional[int]:
        return self.t

    def params(self) -> dict:
        return {"t": self.t}

    def _beatty_words(self, m: int) -> Tuple[Tuple[int, bytes], Tuple[int, bytes]]:
        """(floor(x), steps) words of `quadfield._step_word`, m steps, for x = alpha, beta: the slopes
        whose Beatty rows the recurrences write out on Constant and BeattyDelta (`solver`)."""
        # alpha_t = [1; t, t, ...], beta_t = alpha_t + t (classifier.golden_alpha), from the
        # quotients alone: at large t the radicand t*t + 4 exceeds quadfield.MAX_RADICAND.
        return tuple(_step_word(chain((whole,), repeat(self.t)), m) for whole in (1, self.t + 1))


# The row tables of BeattyDelta and TargetBeatty answer x0 up to this cap,
# which covers every x0 a generator reaches at solver.MAX_COUNT pairs
# (a_n < 2n); above it each call evaluates the exact expression.
_TABLE_CAP = 2 * 10**6 + 2
_FIRST_ROWS = 64
_PLUS_ONE = bytes.maketrans(b"\0\1", b"\1\2")
_TIMES_THREE = bytes.maketrans(b"\0\1", b"\0\3")


@dataclass(eq=True)
class _BeattyRows(ConstraintSpec):
    """Per-x0 table shared by the two constraints of the pair with slope alpha.

    `pair` is the slope's `BeattyPair`, built once here.  Row n covers the
    cells x0 in [floor(n*alpha), floor((n+1)*alpha)); the subclass's
    `_cells(k, m)` spells out rows k .. m-1 from the pair's step words
    (`BeattyPair._steps`, `BeattyPair._floors`) without an isqrt per row.
    A read past the table extends it to rows n < m, with m at least twice
    the old row count, _FIRST_ROWS and x0 + 1 (floor((x0+1)*alpha) > x0),
    and at most _TABLE_CAP + 1.  Above _TABLE_CAP nothing is stored, so
    memory stays bounded: each call returns the subclass's `_exact(x0, n)`,
    with n = floor((x0+1)/alpha) the count of lower-sequence elements <= x0.
    """

    alpha: QuadraticNumber

    def __post_init__(self):
        self.pair = conjugate_beatty(self.alpha)  # validates alpha
        self._table: List[Optional[int]] = [None]  # x0 = 0 = floor(0*alpha) has no value
        self._rows = 1  # the table holds rows n < _rows

    def _extend(self, x0: int) -> Optional[int]:
        if x0 > _TABLE_CAP:
            return self._exact(x0, beatty_floor(self.pair.alpha.inv(), x0 + 1))
        k = self._rows
        m = min(max(2 * k, x0 + 1, _FIRST_ROWS), _TABLE_CAP + 1)
        self._table += self._cells(k, m)
        self._rows = m
        return self._table[x0]

    def params(self) -> dict:
        return {"alpha": str(self.alpha)}


class BeattyDelta(_BeattyRows):
    """Second-difference constraint of the complementary pair with slope alpha.

    The value at x0 is delta2(alpha, n) where n = floor((x0+1)/alpha) counts
    the lower-sequence elements at or below x0; on every floor(n*alpha) this
    is exactly the defining second difference.  The table (`_BeattyRows`)
    holds delta2(n) on every cell of row n; above _TABLE_CAP each call takes
    four exact floors instead.
    """

    kind = "beatty"
    shape = Shape.ORIGIN

    def value(self, x1: int, y1: int, x0: int) -> Optional[int]:
        if x0 < 1:
            raise ValueError("Beatty constraint undefined at x0 = 0")
        try:
            return self._table[x0]
        except IndexError:
            return self._extend(x0)

    def _exact(self, x0: int, n: int) -> Optional[int]:
        return self.pair.delta2(n)

    def _beatty_words(self, m: int) -> Tuple[Tuple[int, bytes], Tuple[int, bytes]]:
        return self.pair._steps(m)

    def _cells(self, k: int, m: int) -> Sequence[Optional[int]]:
        (_, ua), (b, ub) = self.pair._steps(m)
        # Row n >= 1 covers 1 + ua[n] cells from floor(n*alpha) on, each
        # holding delta2(n) = b - 1 + ub[n-1] - ua[n-1].  One byte per row
        # n = k .. m-1 codes that value as 1 + ub[n-1] - ua[n-1] in {0, 1, 2},
        # plus 3 for a two-cell row; the replaces spell the rows out cell by
        # cell.  The byte-wise sum is one big-int sum: no byte leaves 0..5,
        # so no carry or borrow crosses bytes.
        rows = (
            int.from_bytes(ub[k - 1:m - 1].translate(_PLUS_ONE), "big")
            - int.from_bytes(ua[k - 1:m - 1], "big")
            + int.from_bytes(ua[k:m].translate(_TIMES_THREE), "big")
        ).to_bytes(m - k, "big")
        for wide, cells in ((b"\3", b"\0\0"), (b"\4", b"\1\1"), (b"\5", b"\2\2")):
            rows = rows.replace(wide, cells)
        values = (b - 2, b - 1, b)
        if b < 256:  # extending a list by bytes appends their values
            return rows.translate(bytes.maketrans(b"\0\1\2", bytes(values)))
        return [values[c] for c in rows]


class TargetBeatty(_BeattyRows):
    """Per-destination constraint (floor(n*beta)-y1) - (floor(n*alpha)-x1).

    Defined only when x0 = floor(n*alpha) for some n >= 1; from any other
    origin the diagonal move is disallowed.  It is gap-affine: the value is
    g - (y1 - x1) with g = value(0, 0, x0) = floor(n*beta) - floor(n*alpha).
    The table (`_BeattyRows`) holds g at x0 = floor(n*alpha) and None
    elsewhere; above _TABLE_CAP each call takes three exact floors instead.
    """

    kind = "target_beatty"
    shape = Shape.GAP_AFFINE

    def value(self, x1: int, y1: int, x0: int) -> Optional[int]:
        if x0 < 0:
            return None
        try:
            g = self._table[x0]
        except IndexError:
            g = self._extend(x0)
        return None if g is None else g - (y1 - x1)

    def _exact(self, x0: int, n: int) -> Optional[int]:
        return beatty_floor(self.pair.beta, n) - x0 if beatty_floor(self.alpha, n) == x0 else None

    def _cells(self, k: int, m: int) -> Sequence[Optional[int]]:
        fa, fb = map(list, self.pair._floors(m + 1))
        start = fa[k]
        cells: List[Optional[int]] = [None] * (fa[m] - start)
        for a, b in zip(fa[k:m], fb[k:m]):
            cells[a - start] = b - a
        return cells


@dataclass(eq=True)
class ParityHalf(ConstraintSpec):
    """f(x1, y1, x0) = (1 + (-1)**(y1+1)) * x1 / 2: x1 when y1 is odd, else 0."""

    kind = "parity_half"

    def value(self, x1: int, y1: int, x0: int) -> Optional[int]:
        return x1 if y1 % 2 == 1 else 0

    def params(self) -> dict:
        return {}


@dataclass(eq=True)
class ExplicitTable(ConstraintSpec):
    """Finite tabulated constraint keyed by (x1, y1, x0).

    Misses disallow the diagonal move; with strict=True they raise instead.
    """

    values: Dict[Tuple[int, int, int], int]
    strict: bool = False
    kind = "table"

    def value(self, x1: int, y1: int, x0: int) -> Optional[int]:
        got = self.values.get((x1, y1, x0))
        if got is None and self.strict:
            raise KeyError(f"constraint table has no entry for {(x1, y1, x0)}")
        return got

    def params(self) -> dict:
        return {
            "entries": [[*key, v] for key, v in sorted(self.values.items())],
            "strict": self.strict,
        }


@dataclass(eq=True)
class RuleSet:
    family: Family
    constraint: ConstraintSpec

    def describe(self) -> str:
        name = "modified two-pile" if self.family is Family.MODIFIED else "relaxed Wythoff"
        return f"{name} game, constraint {self.constraint.kind}({self.constraint.params()})"


def _refusal(rules: RuleSet, x0: int, y0: int, k: int, l: int) -> Optional[str]:
    """The move rule: None if k may leave the smaller pile x0 and l the larger pile y0, else why not.

    At least one token must leave and neither pile may go negative.  A removal
    from both piles must also satisfy the family's bound on
    f(x0 - k, y0 - l, x0); an undefined f (None) forbids it.  The reason is
    the text `play` prints after "illegal move: ".
    """
    if k == l == 0:
        return "must remove at least one token"
    if not (0 <= k <= x0 and 0 <= l <= y0):
        return f"cannot remove {k} from pile A({x0}) / {l} from pile B({y0})"
    if k == 0 or l == 0:  # Nim: one pile only
        return None
    d1, d2 = x0 - k, y0 - l
    bound = rules.constraint.value(d1, d2, x0)
    if bound is None:
        return f"diagonal from pile A = {x0} is disallowed (constraint undefined)"
    modified = rules.family is Family.MODIFIED
    diff = abs(l - k) if modified else l - k
    if diff < bound:
        return None
    bar = "|" if modified else ""
    return f"{bar}({y0}-{d2})-({x0}-{d1}){bar} = {diff} >= f({d1},{d2},{x0}) = {bound}"


def legal_moves(rules: RuleSet, origin: Position) -> Set[Position]:
    """All positions reachable in one move, canonicalized to x <= y."""
    x0, y0 = origin
    if canonical(x0, y0) != origin:  # canonical raises on a negative pile
        raise ValueError("origin must be canonical (x <= y)")
    return {
        canonical(x0 - k, y0 - l)
        for k in range(x0 + 1)
        for l in range(y0 + 1)
        if _refusal(rules, x0, y0, k, l) is None
    }


def is_legal_move(rules: RuleSet, origin: Position, dest: Position) -> bool:
    """Membership form of legal_moves: `_refusal` on either pile assignment of dest."""
    x0, y0 = origin
    if canonical(x0, y0) != origin:  # canonical raises on a negative pile
        raise ValueError("origin must be canonical (x <= y)")
    dx, dy = dest
    return dx <= dy and (
        _refusal(rules, x0, y0, x0 - dx, y0 - dy) is None or _refusal(rules, x0, y0, x0 - dy, y0 - dx) is None
    )


# -- serialization ----------------------------------------------------------------

SCHEMA = "beatty-games/v1"


def _json_object(text: str, what: str) -> dict:
    """The JSON object `text` holds; any malformed text raises ValueError, never RecursionError."""
    try:
        data = json.loads(text)
    except RecursionError as exc:
        raise ValueError(f"malformed {what}: JSON nested too deeply") from exc
    if not isinstance(data, dict):
        raise ValueError(f"malformed {what}: must be a JSON object, got {type(data).__name__}")
    return data


def _csv_text(comment: str, header: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """A `# comment` line, then the header and the rows as CSV (None as an empty field)."""
    buf = io.StringIO()
    buf.write(f"# {comment}\n")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


_CONSTRAINT_KINDS = {
    cls.kind: cls for cls in (Constant, BeattyDelta, TargetBeatty, ParityHalf, ExplicitTable)
}


def constraint_to_dict(spec: ConstraintSpec) -> dict:
    return {"kind": spec.kind, **spec.params()}


def constraint_from_dict(data: dict) -> ConstraintSpec:
    """Inverse of constraint_to_dict; any malformed input raises ValueError."""
    if not isinstance(data, dict):
        raise ValueError(f"a constraint must be a JSON object, got {data!r}")
    kind = data.get("kind")
    if not isinstance(kind, str) or kind not in _CONSTRAINT_KINDS:
        raise ValueError(f"unknown constraint kind: {kind!r}")
    try:
        if kind == "constant":
            if type(data["t"]) is not int:  # JSON true/false are bools
                raise TypeError("t must be an integer")
            return Constant(data["t"])
        if kind in ("beatty", "target_beatty"):
            if not isinstance(data["alpha"], str):
                raise TypeError("alpha must be a string")
            alpha = QuadraticNumber.from_string(data["alpha"])
            return _CONSTRAINT_KINDS[kind](alpha)
        if kind == "parity_half":
            return ParityHalf()
        rows = [tuple(row) for row in data["entries"]]
        if any(len(row) != 4 or any(type(x) is not int for x in row) for row in rows):
            raise TypeError("table entries must be four integers")
        strict = data.get("strict", False)
        if type(strict) is not bool:
            raise TypeError("strict must be a boolean")
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed {kind} constraint: {exc}") from exc
    return ExplicitTable({row[:3]: row[3] for row in rows}, strict=strict)


def ruleset_to_json(rules: RuleSet) -> str:
    data = {
        "schema": SCHEMA,
        "family": rules.family.value,
        "constraint": constraint_to_dict(rules.constraint),
    }
    return json.dumps(data, indent=2)


def ruleset_from_json(text: str) -> RuleSet:
    """Inverse of ruleset_to_json; any malformed input raises ValueError."""
    data = _json_object(text, "ruleset")
    return RuleSet(Family(data.get("family")), constraint_from_dict(data.get("constraint")))
