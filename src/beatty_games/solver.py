"""P-position generation, the exact retrograde oracle, and table tooling.

Three generators share the mex-driven first component a_n = mex{a_k, b_k}:

* recurrence_closed  — b_n = f(a_{n-1}, b_{n-1}, a_n) + b_{n-1} + a_n - a_{n-1},
  the closed formula that is only guaranteed when consecutive exclusion
  intervals leave no gaps (2*min f - max f >= 1).
* solve_doublemex    — the true P-positions of the modified game: b_n is the
  least b >= a_n distinct from every prior b_k and outside one interval per
  prior pair in each orientation (d1, d2) with d1 < a_n, namely
  [max(d2+1, c-f+1), c+f-1] with c = a_n - d1 + d2 and f = f(d1, d2, a_n).
  The constraint's shape picks the path, each in O(count) memory;
  solve_doublemex's docstring gives each path's rule and cost, the
  MAX_COUNT cap every generator shares, and the GENERAL path's
  MAX_ROW_RULE_COUNT.
* solve_relaxed      — the closed formula again, for relaxed Wythoff.  Its
  checks require f >= 0 and f >= 1 at the first step; that is not enough
  (f = 3, 2, 3, 2, 3, 3, 3, 3, 1, ... gives (9, 27) where the P-position
  is (9, 24)).  Randomised probes support a sufficient condition for an
  origin-only f: f falls by at most 1 between consecutive visited rows.

The two recurrences run one loop, `_recurrence`, and differ only in their
hypothesis checks: the closed one refuses an undefined f (ValueError), the
relaxed one reads it as 0 and raises HypothesisError when f < 0, or when
f < 1 at the first step.

The retrograde oracle never looks at a recurrence.  Every move from a
canonical (x, y) lands in a lower row or lower in row x, so it labels the
board row by row: each earlier P-pair, in each orientation, excludes one
y-interval of the row, and the row's P-position is the least unused y >= x
outside those intervals.  That is O(#P) memory, and for a GENERAL
constraint O(bound * #P) evaluations, at the keys (d1, d2, x) with
d1 < x <= bound and d2 < bound that a strict ExplicitTable must hold.  A
shaped constraint is read once per row, by its shape, so ORIGIN costs
O(bound) evaluations and O(bound * #P) integer arithmetic, and GAP_AFFINE
O(bound) gap calls and near-linear time.  The oracle and the general
double-mex path share that row sweep; the tests hold both to a naive search
over legal_moves.

Table rules: a table starts at (0, 0), its a_n strictly increase, a_n <= b_n,
and a DOUBLE_MEX or RELAXED_RECURRENCE table uses no value twice (a tie
a_n = b_n uses it once).  `_checked_table` checks them only where a table can
break them: in the two parsers, whose pairs come from outside the program,
and in recurrence_closed, where a negative f can push b_n below a_n.  The
other paths keep them by construction: a_n is the mex; each double-mex path
picks b_n >= a_n among unused values; under f >= 0 the relaxed b_n strictly
increases and b_n >= a_n + f; oracle_table sorts canonical P-positions, (0, 0)
among them, with distinct smaller piles; cli's verify keeps a subsequence.

ptable_to_json and positions_to_json give json.dumps(record, indent=2) byte
for byte, but write their row lists one format call per row: with an indent
the stdlib encodes in pure Python, token by token.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from operator import sub
from typing import Dict, List, Optional, Set, Tuple

from .games import (
    SCHEMA,
    ConstraintSpec,
    Family,
    Position,
    RuleSet,
    Shape,
)
from .quadfield import QuadraticNumber, conjugate_beatty

MAX_ORACLE_BOUND = 4096  # board size; the oracle's time grows as bound * #P
MAX_COUNT = 10**6  # pairs per generator call
MAX_ROW_RULE_COUNT = 2048  # pairs per GENERAL double-mex call, whose time grows as count^2
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
    """P-position pairs (a_n, b_n) and their generator: a record that checks nothing."""

    pairs: Tuple[Tuple[int, int], ...]
    source: TableSource

    def __len__(self) -> int:
        return len(self.pairs)


def _checked_table(pairs: Tuple[Tuple[int, int], ...], source: TableSource) -> PTable:
    """The table of these pairs, if they keep the module docstring's table
    rules.  A repeat is named where it first recurs in a_1, b_1, a_2, b_2, ..."""
    if not pairs:
        raise ValueError("a table needs at least the terminal pair")
    if pairs[0] != (0, 0):
        raise ValueError("tables start at (0, 0)")
    prev_a = -1
    for a, b in pairs:
        if a <= prev_a:
            raise ValueError("a_n must be strictly increasing")
        if b < a:
            raise ValueError(f"pair ({a}, {b}) violates a <= b")
        prev_a = a
    if source in (TableSource.DOUBLE_MEX, TableSource.RELAXED_RECURRENCE):
        seen: Set[int] = set()
        for a, b in pairs[1:]:
            if a in seen or b in seen:  # b in seen with b == a means a in seen
                raise ValueError(f"value {a if a in seen else b} repeats in the table")
            seen.add(a)
            seen.add(b)
    return PTable(pairs, source)


def recurrence_closed(constraint: ConstraintSpec, count: int) -> PTable:
    """First `count` pairs of the closed recurrence, whether or not they are P."""
    return _checked_table(_recurrence(constraint.value, count, False), TableSource.CLOSED_RECURRENCE)


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
    up to a bound, at O(count) evaluations per pair, O(count^2) in all, so
    `count` is also capped at MAX_ROW_RULE_COUNT.

    ORIGIN: f = f(a_n) is evaluated once per pair and the search runs in
    d = b - a_n.  Pair (0, 0)'s interval holds [0, f-1] and so every swapped
    one.  Pair k's is [e_k+1-t, e_k+f-1], e_k = b_k - a_k, at age
    t = min(a_n - a_k, f): for one f its top is fixed and its bottom falls
    as a_n rises until the pair matures (t = f).  So what a row covers stays
    covered at every later row with that f, and per f the intervals merge
    into sorted, disjoint covered runs of d, at most one per pair.  A row
    covers the intervals of its f's pairs not yet matured, fewer than f of
    them young; b_n is the least uncovered d no prior b_k uses: a bisection,
    then one per used b met.  An interval starting at or above the last
    run's start grows or appends a run in O(1); one below it bisects and
    splices.  Memory O(count); near-linear time for Constant and BeattyDelta
    while f stays small.

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
        if count > MAX_ROW_RULE_COUNT:
            raise ValueError(f"count {count} exceeds the cap {MAX_ROW_RULE_COUNT} for a GENERAL constraint")
        pairs = tuple(itertools.islice(_label_rows(constraint, False), count))
    return PTable(pairs, TableSource.DOUBLE_MEX)


def _check_count(count: int) -> None:
    if count < 1:
        raise ValueError("count must be >= 1")
    if count > MAX_COUNT:
        raise ValueError(f"count {count} exceeds the cap {MAX_COUNT}")


class _CoveredRuns:
    """Covered d as sorted, disjoint, non-adjacent runs [lo, hi]."""

    def __init__(self):
        self.los: List[int] = []
        self.his: List[int] = []
        # Pairs k < matured have their final intervals covered; a younger
        # pair's interval only grows, so each row with this f covers it again.
        self.matured = 0

    def find(self, d: int) -> int:
        """Least uncovered d' >= d; no run starts right after another ends."""
        i = bisect_right(self.los, d) - 1
        return self.his[i] + 1 if i >= 0 and d <= self.his[i] else d

    def cover(self, lo: int, hi: int) -> None:
        los, his = self.los, self.his
        if not los or lo > his[-1] + 1:  # past the last run: a new one
            los.append(lo)
            his.append(hi)
            return
        if lo >= los[-1]:  # within or touching the last run: it grows
            if hi > his[-1]:
                his[-1] = hi
            return
        i = bisect_left(his, lo - 1)  # runs i..j-1 overlap or touch [lo, hi]
        j = bisect_right(los, hi + 1, i)
        if i < j:
            lo, hi = min(lo, los[i]), max(hi, his[j - 1])
        los[i:j] = [lo]
        his[i:j] = [hi]


def _doublemex_origin_only(value, count: int) -> Tuple[Tuple[int, int], ...]:
    pairs = [(0, 0)]
    gaps = [0]  # e_k = b_k - a_k
    used = {0}  # above a_n these are all prior b_k
    covers: Dict[int, _CoveredRuns] = defaultdict(_CoveredRuns)
    a = 0
    for _ in range(1, count):
        a += 1  # the mex only grows
        while a in used:
            a += 1
        f = value(0, 0, a)
        d = 0  # with no interval b = a_n, the mex, which no pair has used
        if f is not None and f >= 1:
            cover = covers[f]
            for j in range(cover.matured, len(pairs)):
                age = a - pairs[j][0]  # falls with j: the matured pairs are a prefix
                if age >= f:  # matured: the interval is final
                    cover.matured = j + 1
                    age = f
                cover.cover(gaps[j] + 1 - age, gaps[j] + f - 1)
            d = cover.find(0)
            while a + d in used:
                d = cover.find(d + 1)
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
    """Pairs of relaxed Wythoff via b_n = f + b_{n-1} + a_n - a_{n-1}.

    Checks f >= 0 on every visited value and f >= 1 at the first step
    (x0 = 1), raising HypothesisError otherwise.  Passing them does not make
    the pairs P-positions.  For an origin-only f, randomised probes against
    the retrograde oracle's rule support a sufficient condition: in addition,
    f(a_n) >= f(a_{n-1}) - 1 at every step.  A larger fall can give a wrong
    pair.
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
        if f is None or f < 1:  # one test on the common path
            if f is None:
                if not relaxed:
                    raise ValueError(f"constraint undefined at ({a_prev}, {b_prev}, {a})")
                f = 0
            if relaxed:
                if f < 0:
                    raise HypothesisError(f"constraint is negative ({f}) at x0 = {a}")
                if n == 1:
                    raise HypothesisError("constraint must be >= 1 at x0 = 1")
        b_prev += f + a - a_prev
        add(b_prev)
        append((a, b_prev))
        a_prev = a
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

    A shaped constraint is read once per labelled row x >= 1, by its shape:
    f = value(0, 0, x) (ORIGIN) or g = gap(x) (GAP_AFFINE).  Pair (0, 0)
    then excludes [x, x+f-1] in both families when f >= 1 (with f = g for
    GAP_AFFINE), so the search starts at y = x + max(f, 0).  A GAP_AFFINE
    interval ends at c + (g - (d2 - d1)) - 1 = x + g - 1, so no other one
    reaches past that start; an ORIGIN one ends at x + (d2 - d1) + f - 1,
    so only the orientations (a, b) with b > a can.

    Cost: O(#P) memory.  GENERAL: O(bound * #P) constraint evaluations, at
    the keys (d1, d2, x) with d1 < x <= bound and d2 < bound, each P-pair in
    both orientations; a strict ExplicitTable must hold them all.  ORIGIN:
    O(bound) evaluations and O(bound * #P) integer arithmetic.  GAP_AFFINE:
    O(bound) gap calls, and per row only a skip past the used values.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if bound > MAX_ORACLE_BOUND:
        raise ValueError(f"oracle bound {bound} exceeds the cap {MAX_ORACLE_BOUND}")
    relaxed = rules.family is Family.RELAXED
    return {Position(x, y) for x, y in _label_rows(rules.constraint, relaxed, bound)}


def _label_rows(constraint: ConstraintSpec, relaxed: bool, bound: Optional[int] = None):
    """Yield the P-pairs (x, y) in row order, by retrograde_oracle's rule.

    With a bound, rows stop at x = bound and a P-position with y > bound is
    not yielded; without one the rows go on for as long as they are drawn.
    """
    general = constraint.shape is Shape.GENERAL
    origin = constraint.shape is Shape.ORIGIN
    value = constraint.value
    smaller: Dict[int, int] = {}  # larger element -> smaller element, per P-pair
    # The orientations (d1, d2) of the P-pairs that the current row can reach.
    # GENERAL: (a, b) from row a + 1 on, unless b = bound (reached only from
    # y > bound); (b, a) from row b + 1 on.  ORIGIN: only the (a, b) with
    # a < b < bound, the ones that can reach past pair (0, 0)'s interval
    # (retrograde_oracle's docstring).  GAP_AFFINE: none.
    dests: List[Tuple[int, int]] = []
    for x in itertools.count() if bound is None else range(bound + 1):
        a = smaller.get(x)
        if a is not None:  # row x moves to (a, x): no P-position in it
            if general:
                dests.append((x, a))
            continue
        intervals: List[Tuple[int, int]] = []
        y = x
        if general:
            for d1, d2 in dests:
                f = value(d1, d2, x)
                if f is not None:
                    c = x - d1 + d2
                    hi = c + f - 1
                    if hi >= y:
                        lo = d2 + 1 if relaxed or c - f < d2 else c - f + 1
                        if lo <= hi:
                            intervals.append((lo, hi))
        elif x:  # row 0 reaches no pair, and BeattyDelta is undefined there
            f = value(0, 0, x) if origin else constraint.gap(x)
            if f is not None:
                y = x + max(f, 0)  # past pair (0, 0)'s interval
                for d1, d2 in dests:
                    c = x - d1 + d2
                    hi = c + f - 1
                    if hi >= y:
                        lo = d2 + 1 if relaxed or c - f < d2 else c - f + 1
                        if lo <= hi:
                            intervals.append((lo, hi))
        # Sweep the intervals by lower end; every y' in [x, y) is excluded.
        intervals.sort()
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
                if general or origin and y > x:
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
    the constraint value at index m is delta2(alpha, m).  A running max of f
    skips the rows with no positive gap, so a gap-free slope costs O(horizon).
    """
    if not 1 <= horizon <= MAX_HORIZON:
        raise ValueError(f"horizon must be in [1, {MAX_HORIZON}], got {horizon}")
    a, b, f = zip(*_beatty_columns(alpha, horizon + 1))
    reports: List[GapReport] = []
    top = f[1]  # max(f[k] for k < n): no gap in row n unless top - 2*f[n] + 1 > 0
    for n in range(2, horizon + 1):
        fn = f[n]
        if top - 2 * fn + 1 > 0:
            for k in range(1, n):
                size = f[k] - 2 * fn + 1
                if size <= 0:
                    continue
                lo = a[n] + b[k - 1] - a[k - 1] + fn
                # b is increasing: the least b_j >= lo decides whether one lands in the gap.
                j = bisect_left(b, lo, 0, n)
                filled = j < n and b[j] < lo + size
                reports.append(GapReport(n=n, k=k, gap_size=size, filled=filled))
        top = max(top, fn)
    return reports


# -- export / import ---------------------------------------------------------------

CSV_COLUMNS = ["n", "a_n", "b_n", "floor_n_alpha", "floor_n_beta", "delta2"]


def _beatty_columns(alpha: QuadraticNumber, count: int):
    """(floor(n*alpha), floor(n*beta), delta2(n)) per row; delta2 is None at n = 0."""
    fa, fb = map(list, conjugate_beatty(alpha)._floors(count))
    gaps = list(map(sub, fb, fa))
    return list(zip(fa, fb, [None, *map(sub, gaps[1:], gaps)]))


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
    return _checked_table(tuple(pairs), source)


# One row of a row list, as json.dumps(..., indent=2) writes it two levels in.
_PAIR_ROW = "\n    [\n      {},\n      {}\n    ]"
_BEATTY_ROW = '\n    {{\n      "floor_n_alpha": {},\n      "floor_n_beta": {},\n      "delta2": {}\n    }}'


def _indented_json(members) -> str:
    """json.dumps(dict, indent=2) of (key, value, row) members, in order: a
    scalar value when row is None, else a list of rows, one row.format each."""
    parts = []
    for key, value, row in members:
        if row is None:
            text = json.dumps(value)
        else:
            text = ",".join(itertools.starmap(row.format, value))
            text = f"[{text}\n  ]" if text else "[]"
        parts.append(f'"{key}": {text}')
    return "{\n  " + ",\n  ".join(parts) + "\n}"


def ptable_to_json(table: PTable, alpha: Optional[QuadraticNumber] = None) -> str:
    members = [
        ("schema", SCHEMA, None),
        ("kind", "ptable", None),
        ("source", table.source.value, None),
        ("pairs", table.pairs, _PAIR_ROW),
    ]
    if alpha is not None:
        beatty = _beatty_columns(alpha, len(table))
        if beatty:  # delta2 is undefined at n = 0
            beatty[0] = (*beatty[0][:2], "null")
        members += [("alpha", str(alpha), None), ("beatty", beatty, _BEATTY_ROW)]
    return _indented_json(members)


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
    return _checked_table(pairs, source)


def positions_to_csv(positions: Set[Position]) -> str:
    buf = io.StringIO()
    buf.write(f"# {SCHEMA} oracle\n")
    writer = csv.writer(buf)
    writer.writerow(["x", "y"])
    for x, y in sorted(positions):
        writer.writerow([x, y])
    return buf.getvalue()


def positions_to_json(positions: Set[Position], bound: int) -> str:
    return _indented_json([
        ("schema", SCHEMA, None),
        ("kind", "oracle", None),
        ("bound", bound, None),
        ("positions", sorted(positions), _PAIR_ROW),
    ])


def oracle_table(positions: Set[Position], limit: Optional[int] = None) -> PTable:
    """Sort an oracle P-set into table form (P-pairs have distinct smaller piles)."""
    pairs = tuple((int(x), int(y)) for x, y in sorted(positions)[:limit])
    return PTable(pairs, TableSource.ORACLE)
