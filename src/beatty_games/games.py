"""Position model, constraint functions, and move legality for the game families.

Two families share the position model: the modified two-pile game bounds the
absolute difference of a simultaneous removal, |l - k| < f; relaxed Wythoff
bounds it one-sidedly, l - k < f, so removing more from the smaller pile is
always allowed.  The constraint inequality is evaluated on the physical
(uncanonicalized) destination pile labels with the origin written x0 <= y0;
only afterwards is the destination sorted back to canonical order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, NamedTuple, Optional, Set, Tuple

from .quadfield import QuadraticNumber, beatty_floor, conjugate_beatty


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
    GAP_AFFINE = "gap_affine"  # f = gap(x0) - (y1 - x1)
    GENERAL = "general"


class ConstraintSpec:
    """Bound on how unequal a simultaneous two-pile removal may be.

    ``value(x1, y1, x0)`` evaluates the bound for a move from a position with
    smaller pile x0 to the physical destination (x1, y1).  ``None`` means the
    diagonal move is disallowed outright.  ``shape`` says what the value
    depends on: ``ORIGIN``, x0 alone (the shape the relaxed recurrence
    requires); ``GAP_AFFINE``, ``gap(x0) - (y1 - x1)``, with ``gap`` returning
    ``None`` where the value is; ``GENERAL``, anything else.
    """

    kind: str = ""
    shape: Shape = Shape.GENERAL

    def value(self, x1: int, y1: int, x0: int) -> Optional[int]:
        raise NotImplementedError

    def gap(self, x0: int) -> Optional[int]:
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


@dataclass(eq=True)
class BeattyDelta(ConstraintSpec):
    """Second-difference constraint of the complementary pair with slope alpha.

    The value at x0 is delta2(alpha, n) where n = floor((x0+1)/alpha) counts
    the lower-sequence elements at or below x0; on every floor(n*alpha) this
    is exactly the defining second difference.  `pair` is the slope's
    `BeattyPair`, built once here.
    """

    alpha: QuadraticNumber
    _memo: Dict[int, int] = field(default_factory=dict, repr=False, compare=False)
    kind = "beatty"
    shape = Shape.ORIGIN

    def __post_init__(self):
        self.pair = conjugate_beatty(self.alpha)  # validates alpha

    def value(self, x1: int, y1: int, x0: int) -> Optional[int]:
        if x0 < 1:
            raise ValueError("Beatty constraint undefined at x0 = 0")
        got = self._memo.get(x0)
        if got is None:
            pair = self.pair
            got = pair.delta2(beatty_floor(pair.inv_alpha, x0 + 1))
            self._memo[x0] = got
        return got

    def params(self) -> dict:
        return {"alpha": str(self.alpha)}


@dataclass(eq=True)
class TargetBeatty(ConstraintSpec):
    """Per-destination constraint (floor(n*beta)-y1) - (floor(n*alpha)-x1).

    Defined only when x0 = floor(n*alpha) for some n >= 1; from any other
    origin the diagonal move is disallowed.  It is gap-affine: the value is
    gap(x0) - (y1 - x1) with gap(x0) = floor(n*beta) - floor(n*alpha).
    `pair` is the slope's `BeattyPair`, built once here.
    """

    alpha: QuadraticNumber
    _memo: Dict[int, Optional[int]] = field(default_factory=dict, repr=False, compare=False)
    kind = "target_beatty"
    shape = Shape.GAP_AFFINE

    def __post_init__(self):
        self.pair = conjugate_beatty(self.alpha)  # validates alpha

    def gap(self, x0: int) -> Optional[int]:
        memo = self._memo
        if x0 not in memo:
            n = beatty_floor(self.pair.inv_alpha, x0 + 1)
            if n >= 1 and beatty_floor(self.alpha, n) == x0:
                memo[x0] = beatty_floor(self.pair.beta, n) - x0
            else:
                memo[x0] = None
        return memo[x0]

    def value(self, x1: int, y1: int, x0: int) -> Optional[int]:
        g = self.gap(x0)
        return None if g is None else g - (y1 - x1)

    def params(self) -> dict:
        return {"alpha": str(self.alpha)}


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


def _diagonal_ok(rules: RuleSet, x0: int, y0: int, d1: int, d2: int) -> bool:
    """Legality of removing (x0-d1, y0-d2) from the physical piles."""
    if d1 > x0 - 1 or d2 > y0 - 1 or d1 < 0 or d2 < 0:
        return False
    bound = rules.constraint.value(d1, d2, x0)
    if bound is None:
        return False
    diff = (y0 - d2) - (x0 - d1)
    if rules.family is Family.MODIFIED:
        return abs(diff) < bound
    return diff < bound


def legal_moves(rules: RuleSet, origin: Position) -> Set[Position]:
    """All positions reachable in one move, canonicalized to x <= y."""
    x0, y0 = origin
    if x0 > y0:
        raise ValueError("origin must be canonical (x <= y)")
    out: Set[Position] = set()
    for v in range(x0):
        out.add(canonical(v, y0))
    for v in range(y0):
        out.add(canonical(x0, v))
    for d1 in range(x0):
        for d2 in range(y0):
            if _diagonal_ok(rules, x0, y0, d1, d2):
                out.add(canonical(d1, d2))
    return out


def is_legal_move(rules: RuleSet, origin: Position, dest: Position) -> bool:
    """Membership form of legal_moves without enumerating the whole set."""
    x0, y0 = origin
    dx, dy = dest
    if dx > dy or x0 > y0:
        return False
    if dest == origin:
        return False
    # Nim: reduce exactly one physical pile
    if dy == y0 and dx < x0:
        return True
    if dx == x0 and x0 <= dy < y0:
        return True
    if dy == x0 and dx < x0:  # reduce the larger pile below the smaller
        return True
    # Diagonal: either physical assignment of the destination pair
    return _diagonal_ok(rules, x0, y0, dx, dy) or _diagonal_ok(rules, x0, y0, dy, dx)


# -- serialization ----------------------------------------------------------------

SCHEMA = "beatty-games/v1"

_CONSTRAINT_KINDS = {
    "constant": Constant,
    "beatty": BeattyDelta,
    "target_beatty": TargetBeatty,
    "parity_half": ParityHalf,
    "table": ExplicitTable,
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
            return Constant(int(data["t"]))
        if kind in ("beatty", "target_beatty"):
            if not isinstance(data["alpha"], str):
                raise TypeError("alpha must be a string")
            alpha = QuadraticNumber.from_string(data["alpha"])
            return _CONSTRAINT_KINDS[kind](alpha)
        if kind == "parity_half":
            return ParityHalf()
        entries = {(int(a), int(b), int(c)): int(v) for a, b, c, v in data["entries"]}
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed {kind} constraint: {exc}") from exc
    return ExplicitTable(entries, strict=bool(data.get("strict", False)))


def ruleset_to_json(rules: RuleSet) -> str:
    data = {
        "schema": SCHEMA,
        "family": rules.family.value,
        "constraint": constraint_to_dict(rules.constraint),
    }
    return json.dumps(data, indent=2)


def ruleset_from_json(text: str) -> RuleSet:
    """Inverse of ruleset_to_json; any malformed input raises ValueError."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError(f"a ruleset must be a JSON object, got {data!r}")
    return RuleSet(Family(data.get("family")), constraint_from_dict(data.get("constraint")))
