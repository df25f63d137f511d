"""P-position generation, the exact retrograde oracle, and table tooling.

Three generators share the mex-driven first component a_n = mex{a_k, b_k}:

* recurrence_closed  — b_n = f(a_{n-1}, b_{n-1}, a_n) + b_{n-1} + a_n - a_{n-1},
  the closed formula that is only guaranteed when consecutive exclusion
  intervals leave no gaps (2*min f - max f >= 1).
* solve_doublemex    — the true P-positions of the modified game: b_n is the
  least b >= a_n distinct from every prior b_k and outside one interval per
  prior pair in each orientation (d1, d2) with d1 < a_n, namely
  [max(d2+1, c-f+1), c+f-1] with c = a_n - d1 + d2 and f = f(d1, d2, a_n).
  The constraint's shape picks the path; solve_doublemex's docstring gives
  each path's rule and cost, and the MAX_COUNT cap every generator shares.
* solve_relaxed      — the closed formula again, valid for relaxed Wythoff
  whenever f >= 0 and f evaluates to >= 1 at the first step.

The two recurrences run one loop, `_recurrence`, and differ only in their
hypothesis checks: the closed one refuses an undefined f (ValueError), the
relaxed one reads it as 0 and raises HypothesisError when f < 0, or when
f < 1 at the first step.

The retrograde oracle never looks at a recurrence.  Every move from a
canonical (x, y) lands in a lower row or lower in row x, so it labels the
board row by row: each earlier P-pair, in each orientation, excludes one
y-interval of the row, and the row's P-position is the least unused y >= x
outside those intervals.  That is O(bound * #P) constraint evaluations and
O(#P) memory; the keys it evaluates, which a strict ExplicitTable must hold,
are (d1, d2, x) with d1 < x <= bound and d2 < bound.  The oracle and the
general double-mex path share that row sweep; the tests hold both to a naive
search over legal_moves.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import os
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Set, Tuple

from .games import (
    SCHEMA,
    ConstraintSpec,
    Family,
    Position,
    RuleSet,
    Shape,
)
from .quadfield import QuadraticNumber, beatty_floor, conjugate_beatty

MAX_ORACLE_BOUND_ENV = "BEATTY_GAMES_MAX_ORACLE_BOUND"
_DEFAULT_MAX_ORACLE_BOUND = 4096
MAX_COUNT = 10**6  # pairs per generator call
MAX_HORIZON = 1000  # detect_gap's reports grow as horizon^2: 10^5 at 1,000 for (5+sqrt(5))/5


class HypothesisError(ValueError):
    """A generator's validity hypothesis failed on the visited values."""


class TableSource(Enum):
    CLOSED_RECURRENCE = "closed_recurrence"
    DOUBLE_MEX = "double_mex"
    RELAXED_RECURRENCE = "relaxed_recurrence"
    ORACLE = "oracle"


@dataclass(frozen=True)
class PTable:
    """Ordered P-position pairs (a_n, b_n) with the generator that produced them."""

    pairs: Tuple[Tuple[int, int], ...]
    source: TableSource

    def __post_init__(self):
        if not self.pairs:
            raise ValueError("a table needs at least the terminal pair")
        if self.pairs[0] != (0, 0):
            raise ValueError("tables start at (0, 0)")
        prev_a = -1
        ties = 0  # pairs with a == b: their value counts once
        for a, b in self.pairs:
            if a <= prev_a:
                raise ValueError("a_n must be strictly increasing")
            if b < a:
                raise ValueError(f"pair ({a}, {b}) violates a <= b")
            ties += b == a
            prev_a = a
        if self.source in (TableSource.DOUBLE_MEX, TableSource.RELAXED_RECURRENCE):
            # No value repeats iff the values, a tie counted once, are all
            # distinct (0 is only in the terminal pair: a_n > 0 for n >= 1).
            # The walk only names the repeated value.
            if len(set(itertools.chain.from_iterable(self.pairs))) == 2 * len(self.pairs) - ties:
                return
            seen: Set[int] = set()
            for a, b in self.pairs[1:]:
                for v in {a, b}:
                    if v in seen:
                        raise ValueError(f"value {v} repeats in the table")
                    seen.add(v)

    def __len__(self) -> int:
        return len(self.pairs)


def recurrence_closed(constraint: ConstraintSpec, count: int) -> PTable:
    """First `count` pairs of the closed recurrence, whether or not they are P."""
    return PTable(_recurrence(constraint.value, count, False), TableSource.CLOSED_RECURRENCE)


def solve_doublemex(constraint: ConstraintSpec, count: int) -> PTable:
    """True P-positions of the modified game, by the double-mex construction.

    a_n is the mex of the values used so far.  Each prior pair, in each
    orientation (d1, d2) with d1 < a_n, is reached diagonally from the b of
    one interval, with f = f(d1, d2, a_n) and c = a_n - d1 + d2:
    [max(d2+1, c-f+1), c+f-1] (none when f is None).  b_n is the least
    b >= a_n outside every interval and distinct from every prior b_k.
    `count` must be in [1, MAX_COUNT], as for every generator here.  The
    path follows constraint.shape:

    GENERAL: retrograde_oracle's row rule run for `count` pairs instead of
    up to a bound, at O(count) evaluations per pair, O(count^2) in all.

    ORIGIN: f = f(a_n) is evaluated once per pair and the search runs in
    d = b - a_n.  Pair (0, 0) already covers [0, f-1], which holds every
    swapped interval.  Once a_n - a_k >= f, pair k's interval is the fixed
    [e_k-f+1, e_k+f-1] with e_k = b_k - a_k; those enter a union-find "next
    uncovered d" per value of f, and only the fewer than f younger pairs and
    the used b's are checked one by one.  Near-linear for Constant and
    BeattyDelta.

    GAP_AFFINE, f = g(a_n) - (d2 - d1): every interval ends at
    c + f - 1 = a_n + g - 1, below a_n when g <= 0; when g >= 1, pair
    (0, 0)'s interval [a_n-g+1, a_n+g-1] covers all of [a_n, a_n+g-1].  So
    b_n is the least unused b >= a_n + max(g, 0), or a_n when g is None: one
    gap call and a union-find step per pair, memory O(count) however far
    b_n runs ahead of it.
    """
    _check_count(count)
    if constraint.shape is Shape.ORIGIN:
        pairs = _doublemex_origin_only(constraint.value, count)
    elif constraint.shape is Shape.GAP_AFFINE:
        pairs = _doublemex_gap_affine(constraint.gap, count)
    else:
        pairs = tuple(itertools.islice(_label_rows(constraint.value, False), count))
    return PTable(pairs, TableSource.DOUBLE_MEX)


def _check_count(count: int) -> None:
    if count < 1:
        raise ValueError("count must be >= 1")
    if count > MAX_COUNT:
        raise ValueError(f"count {count} exceeds the cap {MAX_COUNT}")


class _NextUncovered:
    """Union-find over d >= 0: find(d) is the least uncovered d' >= d."""

    def __init__(self):
        self.parent: List[int] = []
        self.matured = 0  # pairs k < matured have their intervals covered

    def find(self, d: int) -> int:
        parent = self.parent
        root = d
        while root < len(parent) and parent[root] != root:
            root = parent[root]
        while d < len(parent) and parent[d] != root:
            parent[d], d = root, parent[d]
        return root

    def cover(self, lo: int, hi: int) -> None:
        parent = self.parent
        if hi >= len(parent):
            parent.extend(range(len(parent), hi + 2))
        d = self.find(lo)
        while d <= hi:
            parent[d] = d + 1
            d = self.find(d + 1)


def _doublemex_origin_only(value, count: int) -> Tuple[Tuple[int, int], ...]:
    pairs = [(0, 0)]
    gaps = [0]  # e_k = b_k - a_k
    used = {0}  # above a_n these are all prior b_k
    covers: Dict[int, _NextUncovered] = {}
    a = 0
    for _ in range(1, count):
        a += 1  # the mex only grows
        while a in used:
            a += 1
        f = value(0, 0, a)
        d = 0  # with no interval b = a_n, the mex, which no pair has used
        if f is not None and f >= 1:
            cover = covers.get(f)
            if cover is None:
                cover = covers[f] = _NextUncovered()
            k = cover.matured
            while k < len(pairs) and a - pairs[k][0] >= f:
                e = gaps[k]
                cover.cover(max(0, e - f + 1), e + f - 1)
                k += 1
            cover.matured = k
            young = [
                (max(0, gaps[j] + 1 - (a - pairs[j][0])), gaps[j] + f - 1)
                for j in range(k, len(pairs))
            ]
            moved = True
            while moved:
                d = cover.find(d)
                moved = False
                for lo, hi in young:
                    if lo <= d <= hi:
                        d = hi + 1
                        moved = True
                if a + d in used:
                    d += 1
                    moved = True
        b = a + d
        pairs.append((a, b))
        gaps.append(d)
        used.add(b)
    return tuple(pairs)


def _doublemex_gap_affine(gap, count: int) -> Tuple[Tuple[int, int], ...]:
    # Union-find over y > 0: a used y points past itself, so unused(y) is the
    # least unused y' >= y.  Only used values have an entry, so memory
    # follows count even where b_n is far above it (slopes near 1).
    parent: Dict[int, int] = {}

    def unused(y: int) -> int:
        root = y
        while root in parent:
            root = parent[root]
        while y != root:
            parent[y], y = root, parent[y]
        return root

    pairs = [(0, 0)]
    a = 0
    for _ in range(1, count):
        a = unused(a + 1)  # the mex only grows
        g = gap(a)
        # a is still unused here, so b = a (a tie) stays possible
        b = unused(a if g is None or g < 0 else a + g)
        parent[a] = a + 1
        parent[b] = b + 1
        pairs.append((a, b))
    return tuple(pairs)


def solve_relaxed(constraint: ConstraintSpec, count: int) -> PTable:
    """P-positions of relaxed Wythoff via b_n = f + b_{n-1} + a_n - a_{n-1}.

    Checks the validity hypotheses on every visited value: f >= 0 throughout
    and f >= 1 at the first step (x0 = 1).  Raises HypothesisError otherwise.
    """
    return PTable(_recurrence(constraint.value, count, True), TableSource.RELAXED_RECURRENCE)


def _recurrence(value, count: int, relaxed: bool) -> Tuple[Tuple[int, int], ...]:
    """Pairs of b_n = f(a_{n-1}, b_{n-1}, a_n) + b_{n-1} + a_n - a_{n-1}.

    a_n, the mex of the values used so far, only grows: a pointer that skips
    the used b's finds it.  The hypothesis checks are the module docstring's.
    """
    _check_count(count)
    pairs = [(0, 0)]
    append = pairs.append
    used = {0}
    add = used.add
    a_prev = b_prev = a = 0
    for n in range(1, count):
        a += 1
        while a in used:
            a += 1
        f = value(a_prev, b_prev, a)
        if f is None:
            if not relaxed:
                raise ValueError(f"constraint undefined at ({a_prev}, {b_prev}, {a})")
            f = 0
        if relaxed and f < 1:
            if f < 0:
                raise HypothesisError(f"constraint is negative ({f}) at x0 = {a}")
            if n == 1:
                raise HypothesisError("constraint must be >= 1 at x0 = 1")
        b = f + b_prev + a - a_prev
        add(b)
        append((a, b))
        a_prev, b_prev = a, b
    return tuple(pairs)


def retrograde_oracle(rules: RuleSet, bound: int) -> Set[Position]:
    """Exact P-positions with y <= bound, labelled row by row.

    Every move from a canonical (x, y) lands in a row below x, or in row x at
    a smaller y: a diagonal destination (d1, d2) has min(d1, d2) <= d1 < x,
    and a Nim move shortens one pile.  So rows x = 0..bound are labelled in
    order.  A row holds at most one P-position, since a Nim move along the
    row reaches it, and none when x already belongs to an earlier P-pair.

    f = f(d1, d2, x) does not depend on y, so an earlier pair in orientation
    (d1, d2) with d1 < x is reached diagonally from the y of one interval,
    with c = x - d1 + d2: [max(d2+1, c-f+1), c+f-1] in the modified game,
    [d2+1, c+f-1] in relaxed Wythoff (none when f is None).  The row's
    P-position is the least y >= x outside every interval that no earlier
    pair uses.  When that y exceeds the bound the P-position is omitted; no
    position on the board can move to it, so the truncation is exact.

    Cost: O(bound * #P) constraint evaluations and O(#P) memory.  The keys
    evaluated are (d1, d2, x) with d1 < x <= bound and d2 < bound, each P-pair
    in both orientations; a strict ExplicitTable must hold them.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    cap = int(os.environ.get(MAX_ORACLE_BOUND_ENV, _DEFAULT_MAX_ORACLE_BOUND))
    if bound > cap:
        raise ValueError(
            f"oracle bound {bound} exceeds the memory guard {cap} "
            f"(raise {MAX_ORACLE_BOUND_ENV} to override)"
        )
    relaxed = rules.family is Family.RELAXED
    return {Position(x, y) for x, y in _label_rows(rules.constraint.value, relaxed, bound)}


def _label_rows(value, relaxed: bool, bound: Optional[int] = None):
    """Yield the P-pairs (x, y) in row order, by retrograde_oracle's rule.

    With a bound, rows stop at x = bound and a P-position with y > bound is
    not yielded; without one the rows go on for as long as they are drawn.
    """
    smaller: Dict[int, int] = {}  # larger element -> smaller element, per P-pair
    # Orientations (d1, d2) of the P-pairs that the current row can reach:
    # (a, b) from row a + 1 on, unless b = bound (reached only from y > bound);
    # (b, a) from row b + 1 on.
    dests: List[Tuple[int, int]] = []
    for x in itertools.count() if bound is None else range(bound + 1):
        a = smaller.get(x)
        if a is not None:  # row x moves to (a, x): no P-position in it
            dests.append((x, a))
            continue
        intervals: List[Tuple[int, int]] = []
        for d1, d2 in dests:
            f = value(d1, d2, x)
            if f is not None:
                c = x - d1 + d2
                hi = c + f - 1
                if hi >= x:
                    lo = d2 + 1 if relaxed or c - f < d2 else c - f + 1
                    if lo <= hi:
                        intervals.append((lo, hi))
        # Sweep the intervals by lower end; every y' in [x, y) is excluded.
        intervals.sort()
        y = x
        for lo, hi in intervals:
            while y < lo and y in smaller:
                y += 1
            if y < lo:
                break
            if y <= hi:
                y = hi + 1
        else:
            while y in smaller:
                y += 1
        if bound is None or y <= bound:
            smaller[y] = x
            if bound is None or y < bound:
                dests.append((x, y))
            yield x, y


def compare_tables(t1: PTable, t2: PTable) -> Optional[int]:
    """Least index where the tables disagree on their common prefix, else None."""
    for n in range(min(len(t1), len(t2))):
        if t1.pairs[n] != t2.pairs[n]:
            return n
    return None


@dataclass(frozen=True)
class GapReport:
    """A positive gap between consecutive exclusion intervals I_{k-1} and I_k.

    gap_size = f(a_k) - 2*f(a_n) + 1 > 0; filled tells whether some earlier
    b_j already lands inside the gap, rescuing the closed recurrence.
    """

    n: int
    k: int
    gap_size: int
    filled: bool


def detect_gap(alpha: QuadraticNumber, horizon: int) -> List[GapReport]:
    """Positive inter-interval gaps of the Beatty constraint, up to `horizon`.

    Works in the Beatty world: pairs are (floor(n*alpha), floor(n*beta)) and
    the constraint value at index m is delta2(alpha, m).
    """
    if not 1 <= horizon <= MAX_HORIZON:
        raise ValueError(f"horizon must be in [1, {MAX_HORIZON}], got {horizon}")
    a, b, f = zip(*_beatty_columns(alpha, horizon + 1))
    reports: List[GapReport] = []
    for n in range(2, horizon + 1):
        fn = f[n]
        for k in range(1, n):
            size = f[k] - 2 * fn + 1
            if size <= 0:
                continue
            lo = a[n] + b[k - 1] - a[k - 1] + fn
            # b is increasing: the least b_j >= lo decides whether one lands in the gap.
            j = bisect_left(b, lo, 0, n)
            filled = j < n and b[j] < lo + size
            reports.append(GapReport(n=n, k=k, gap_size=size, filled=filled))
    return reports


# -- export / import ---------------------------------------------------------------

CSV_COLUMNS = ["n", "a_n", "b_n", "floor_n_alpha", "floor_n_beta", "delta2"]


def _beatty_columns(alpha: QuadraticNumber, count: int):
    """(floor(n*alpha), floor(n*beta), delta2(n)) per row; delta2 is None at n = 0."""
    beta = conjugate_beatty(alpha).beta
    rows = []
    fa0 = fb0 = 0
    for n in range(count):
        fa, fb = beatty_floor(alpha, n), beatty_floor(beta, n)
        rows.append((fa, fb, (fb - fb0) - (fa - fa0) if n >= 1 else None))
        fa0, fb0 = fa, fb
    return rows


def ptable_to_csv(table: PTable, alpha: Optional[QuadraticNumber] = None) -> str:
    """CSV layout matching the P-row/Beatty-row tables, for direct diffing."""
    buf = io.StringIO()
    buf.write(f"# {SCHEMA} ptable source={table.source.value}\n")
    writer = csv.writer(buf)
    cols = CSV_COLUMNS if alpha is not None else CSV_COLUMNS[:3]
    writer.writerow(cols)
    extra = _beatty_columns(alpha, len(table)) if alpha is not None else None
    for n, (a, b) in enumerate(table.pairs):
        row: List[object] = [n, a, b]
        if extra is not None:
            fa, fb, d2 = extra[n]
            row += [fa, fb, "" if d2 is None else d2]
        writer.writerow(row)
    return buf.getvalue()


def ptable_from_csv(text: str) -> PTable:
    """Inverse of ptable_to_csv; a malformed structure raises ValueError."""
    source = TableSource.ORACLE
    body = []
    for line in text.splitlines():
        if line.startswith("#"):
            for token in line.split():
                if token.startswith("source="):
                    source = TableSource(token.split("=", 1)[1])
        elif line.strip():
            body.append(line)
    reader = csv.reader(body)
    header = next(reader, None)
    if header is None or header[:3] != CSV_COLUMNS[:3]:
        raise ValueError(f"unexpected CSV header: {header}")
    pairs = []
    for row in reader:
        if len(row) < 3:
            raise ValueError(f"short CSV row: {row}")
        pairs.append((int(row[1]), int(row[2])))
    return PTable(tuple(pairs), source)


def ptable_to_json(table: PTable, alpha: Optional[QuadraticNumber] = None) -> str:
    data = {
        "schema": SCHEMA,
        "kind": "ptable",
        "source": table.source.value,
        "pairs": [list(p) for p in table.pairs],
    }
    if alpha is not None:
        data["alpha"] = str(alpha)
        data["beatty"] = [
            {"floor_n_alpha": fa, "floor_n_beta": fb, "delta2": d2}
            for fa, fb, d2 in _beatty_columns(alpha, len(table))
        ]
    return json.dumps(data, indent=2)


def ptable_from_json(text: str) -> PTable:
    """Inverse of ptable_to_json; a malformed structure raises ValueError."""
    data = json.loads(text)
    try:
        pairs = tuple((a, b) for a, b in data["pairs"])
        source = TableSource(data["source"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed ptable: {exc}") from exc
    if any(type(x) is not int for pair in pairs for x in pair):  # JSON true/false are bools
        raise ValueError("malformed ptable: pair entries must be integers")
    return PTable(pairs, source)


def positions_to_csv(positions: Set[Position]) -> str:
    buf = io.StringIO()
    buf.write(f"# {SCHEMA} oracle\n")
    writer = csv.writer(buf)
    writer.writerow(["x", "y"])
    for x, y in sorted(positions):
        writer.writerow([x, y])
    return buf.getvalue()


def positions_to_json(positions: Set[Position], bound: int) -> str:
    data = {
        "schema": SCHEMA,
        "kind": "oracle",
        "bound": bound,
        "positions": [list(p) for p in sorted(positions)],
    }
    return json.dumps(data, indent=2)


def oracle_table(positions: Set[Position], limit: Optional[int] = None) -> PTable:
    """Sort an oracle P-set into table form (P-pairs have distinct smaller piles)."""
    pairs = tuple((int(x), int(y)) for x, y in sorted(positions)[:limit])
    return PTable(pairs, TableSource.ORACLE)
