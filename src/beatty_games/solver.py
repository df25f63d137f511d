"""P-position generation, the exact retrograde oracle, and table tooling.

The row rule.  Every move from a canonical (x, y) lands in a row below x, or
in row x at a smaller y: a diagonal destination (d1, d2) has
min(d1, d2) <= d1 < x, and a Nim move shortens one pile.  So the board is
labelled row by row.  A row holds at most one P-position, since a Nim move
along the row reaches it, and none when x already belongs to an earlier
P-pair; so the rows that hold one are, in turn, the mex of the values
used so far.  f = f(d1, d2, x) does not depend on y, so each earlier
P-pair, in each orientation (d1, d2) with d1 < x, is reached diagonally
from the y of one interval, with c = x - d1 + d2: [max(d2+1, c-f+1), c+f-1]
in the modified game, [d2+1, c+f-1] in relaxed Wythoff, none when f is
None.  The row's P-position has the least y >= x outside every interval
that no earlier pair uses.

One private generator, `_rows`, yields these pairs in row order, with one
rule per shape and family; one union-find over the used values does every
rule's skip past them:

    shape        modified              relaxed
    ORIGIN       covered runs          staircase
    GAP_AFFINE   one value(0, 0, x) read, then the least unused y >= x + max(f, 0)
    GENERAL      interval sweep        interval sweep

* GENERAL: evaluate every orientation the row reaches and sweep the
  intervals by lower end: O(#P) evaluations per row.
* A shaped constraint is read once per row, at f = value(0, 0, x), and
  pair (0, 0) then excludes [x, x+f-1] in both families when f >= 1.
* GAP_AFFINE, value(d1, d2, x) = f - (d2 - d1): every interval ends at
  c + f - (d2 - d1) - 1 = x + f - 1, so none reaches past pair (0, 0)'s.
* ORIGIN, modified: the search runs in d = y - x.  Pair (0, 0)'s interval
  holds [0, f-1] and so every swapped one and every tie's.  Pair k's is
  [e_k+1-t, e_k+f-1], e_k = b_k - a_k, at age t = min(x - a_k, f): for one
  f its top is fixed and its bottom falls as x rises until the pair matures
  (t = f).  So what a row covers stays covered at every later row with that
  f, and per f the intervals merge into sorted, disjoint covered runs of d
  (`_CoveredRuns`).  A row covers the intervals of its f's pairs not yet
  matured, fewer than f of them young; y = x + d for the least uncovered d
  whose y no pair uses.  Near-linear time for Constant and BeattyDelta
  while f stays small.
* ORIGIN, relaxed: pair k excludes y in [b_k+1, x+e_k+f-1], and a swapped
  or tie one lies inside pair (0, 0)'s [1, x+f-1].  So y is free iff it is
  unused and y >= x + f + M(y), M(y) = max{e_k : b_k < y}; M is read by
  bisection from the staircase of the (b_k, e_k) that no other pair
  dominates, two sorted lists.  y only rises in the search, and b_n can
  fall below b_{n-1} when f falls.

Memory is O(#P) on every path.  retrograde_oracle always runs these rows;
solve_doublemex runs them too, except in its two theorem cases and on
ParityHalf (below), where the rows and the oracle are its check.  So on a
shaped constraint outside those cases the oracle and the generator share
code.  Two references read no shape: the GENERAL rows of a shaped
constraint (wrapped as GENERAL) and a naive search over legal_moves; the
tests hold every shaped rule to both.

Three generators share the mex-driven first component a_n = mex{a_k, b_k}:

* recurrence_closed  — b_n = f(a_{n-1}, b_{n-1}, a_n) + b_{n-1} + a_n - a_{n-1},
  the closed formula that is only guaranteed when consecutive exclusion
  intervals leave no gaps (2*min f - max f >= 1).
* solve_doublemex    — the true P-positions of the modified game: the first
  `count` rows.  Two theorems give them as the Beatty rows, which it spells
  from the step words as the recurrences do: Fraenkel's for Constant(t),
  (floor(n*alpha_t), floor(n*alpha_t) + t*n), and the paper's sufficiency
  theorem for a BeattyDelta whose slope meets 2*min delta2 - max delta2 >= 1
  (`classifier._classify`, in exact integers).  On ParityHalf they are the
  closed recurrence's pairs, the odd/even law (b_n = a_n + b_{n-1}, less
  a_{n-1} when b_{n-1} is even), checked against the GENERAL rows up to
  MAX_ROW_RULE_COUNT, not proved.  MAX_COUNT caps every generator, and
  MAX_ROW_RULE_COUNT every GENERAL constraint, whose rows' time grows as
  count^2.
* solve_relaxed      — the closed formula again, for relaxed Wythoff.  Its
  checks require f >= 0 and f >= 1 at the first step; that is not enough
  (f = 3, 2, 3, 2, 3, 3, 3, 3, 1, ... gives (9, 27) where the P-position
  is (9, 24)).  Randomised probes support a sufficient condition for an
  origin-only f: f falls by at most 1 between consecutive visited rows.

The two recurrences run one loop, `_recurrence`, and differ only in their
hypothesis checks: the closed one refuses an undefined f (ValueError), the
relaxed one reads it as 0 and raises HypothesisError when f < 0, or when
f < 1 at the first step.  On BeattyDelta(alpha) and Constant(t) the loop
writes out the Beatty rows (floor(n*alpha), floor(n*beta)), which
`_recurrence` spells from the constraint's step words (`_beatty_words`).
A subclass that overrides `value` takes the loop, and in solve_doublemex
the rows: its law is its own.
By induction, as the integers strictly between floor((n-1)*alpha) and
floor(n*alpha) are floor(k*beta), k < n (Beatty's theorem): the mex is
a_n = floor(n*alpha), where BeattyDelta reads delta2(n) since
floor((a_n + 1)/alpha) = n, and b_n = b_{n-1} + delta2(n) + a_n - a_{n-1}
= floor(n*beta).  Constant(t) is delta2 of alpha_t = [1; t, t, ...] =
beta_t - t (Fraenkel's theorem: b_n = a_n + t*n).  No check can fire:
delta2 >= floor(beta) - 2 >= 0, delta2(1) = floor(beta) - 1 >= 1, t >= 1.

Table rules: a table starts at (0, 0), its a_n strictly increase, a_n <= b_n,
and a DOUBLE_MEX or RELAXED_RECURRENCE table uses no value twice (a tie
a_n = b_n uses it once).  `_checked_table` checks them only where a table can
break them: in the two parsers, whose pairs come from outside the program,
and on the closed loop path (recurrence_closed, and solve_doublemex on
ParityHalf), where a negative f can push b_n below a_n.  The other paths keep them by construction: a_n is the mex; the rows
pick b_n >= a_n among unused values; the step words spell Beatty rows
(Beatty's theorem); under f >= 0 the relaxed b_n strictly increases and
b_n >= a_n + f.
Tables are built in a list and made a tuple once: a tuple grown from an
iterator is re-tracked on each resize, so every young collection would
rescan it.

ptable_to_json and positions_to_json give json.dumps(record, indent=2) byte
for byte, but write their row lists one format call per row: with an indent
the stdlib encodes in pure Python, token by token.
"""

from __future__ import annotations

import csv
import itertools
import json
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from operator import sub
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from .classifier import _classify
from .games import (
    SCHEMA,
    BeattyDelta,
    Constant,
    ConstraintSpec,
    Family,
    ParityHalf,
    Position,
    RuleSet,
    Shape,
    _csv_text,
    _json_object,
)
from .quadfield import QuadraticNumber, _running_floors, conjugate_beatty

MAX_ORACLE_BOUND = 4096  # board size; the oracle's time grows as bound * #P
MAX_COUNT = 10**6  # pairs per generator call
# Pairs per GENERAL double-mex call: the rows' time grows as count^2, and
# ParityHalf's recurrence was checked against them exhaustively up to here.
MAX_ROW_RULE_COUNT = 2048
MAX_HORIZON = 1000  # detect_gap's reports grow as horizon^2: 10^5 at 1,000 for (5+sqrt(5))/5, ~0.75 us each


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
    """First `count` pairs of the closed recurrence, whether or not they are P:
    on BeattyDelta and Constant, the slope's Beatty rows (module docstring)."""
    return _recurrence(constraint, count, TableSource.CLOSED_RECURRENCE)


def solve_doublemex(constraint: ConstraintSpec, count: int) -> PTable:
    """True P-positions of the modified game: the first `count` rows.

    On Constant(t) (Fraenkel's theorem) and on a BeattyDelta whose slope is
    compatible (the paper's sufficiency theorem, decided by
    `classifier._classify`) these are the slope's Beatty rows, spelled from
    the step words as the recurrences spell them.  On ParityHalf they are the
    closed recurrence's pairs, one value read per pair: its odd/even law
    equals the rows at every count up to MAX_ROW_RULE_COUNT, checked
    exhaustively, not proved.  Elsewhere b_n is the least
    b >= a_n distinct from every prior b_k and outside the intervals of the
    module docstring's row rule, found by the rule of the constraint's shape.
    `count` must be in [1, MAX_COUNT], as for every generator here, and in
    [1, MAX_ROW_RULE_COUNT] for a GENERAL constraint: its rows cost O(count)
    evaluations each, O(count^2) in all, and ParityHalf's recurrence is
    checked only that far.  Every path holds O(count) memory, however far
    b_n runs ahead of a_n.
    """
    own = type(constraint).value  # a subclass that overrides value has rows of its own
    if own is Constant.value or (own is BeattyDelta.value and _classify(constraint.pair).compatible):
        return _recurrence(constraint, count, TableSource.DOUBLE_MEX)
    _check_count(count)
    if constraint.shape is Shape.GENERAL and count > MAX_ROW_RULE_COUNT:
        raise ValueError(f"count {count} exceeds the cap {MAX_ROW_RULE_COUNT} for a GENERAL constraint")
    if own is ParityHalf.value:
        return _recurrence(constraint, count, TableSource.DOUBLE_MEX)
    return PTable(tuple(list(itertools.islice(_rows(constraint, False), count))), TableSource.DOUBLE_MEX)


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

    def row(self, xs: List[int], es: List[int], x: int, f: int) -> int:
        """Cover row x's intervals of the pairs (a_k, a_k + e_k) not yet
        matured, and return the least uncovered d >= 0."""
        for j in range(self.matured, len(xs)):
            age = x - xs[j]  # falls with j: the matured pairs are a prefix
            if age >= f:  # matured: the interval is final
                self.matured = j + 1
                age = f
            self.cover(es[j] + 1 - age, es[j] + f - 1)
        return self.find(0)

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


def solve_relaxed(constraint: ConstraintSpec, count: int) -> PTable:
    """Pairs of relaxed Wythoff via b_n = f + b_{n-1} + a_n - a_{n-1}.

    Checks f >= 0 on every visited value and f >= 1 at the first step
    (x0 = 1), raising HypothesisError otherwise; passing them does not make
    the pairs P-positions (module docstring).  On BeattyDelta and Constant
    the pairs are the slope's Beatty rows and no check can fail.
    """
    return _recurrence(constraint, count, TableSource.RELAXED_RECURRENCE)


def _recurrence(constraint: ConstraintSpec, count: int, source: TableSource) -> PTable:
    """Pairs of b_n = f(a_{n-1}, b_{n-1}, a_n) + b_{n-1} + a_n - a_{n-1}.

    From the Beatty words of a Constant or BeattyDelta that keeps its
    class's value; else a_n, the mex, only grows and a pointer skipping the
    used b's finds it.  The relaxed checks run when `source` is
    RELAXED_RECURRENCE, and only the other loop's table is checked.  See the
    module docstring.
    """
    _check_count(count)
    own = type(constraint).value
    if own is Constant.value or own is BeattyDelta.value:
        return PTable(tuple(list(zip(*_running_floors(constraint._beatty_words(count - 1))))), source)
    relaxed = source is TableSource.RELAXED_RECURRENCE
    value = constraint.value
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
    return PTable(tuple(pairs), source) if relaxed else _checked_table(tuple(pairs), source)


def retrograde_oracle(rules: RuleSet, bound: int) -> Set[Position]:
    """Exact P-positions with y <= bound, by the module docstring's row rule.

    Rows x = 0..bound are labelled in order.  When a row's P-position has
    y > bound it is omitted; no position on the board can move to it, so
    the truncation is exact.

    Cost: O(#P) memory.  GENERAL: O(bound * #P) constraint evaluations, at
    the keys (d1, d2, x) with d1 < x <= bound and d2 < bound, each P-pair in
    both orientations; a strict ExplicitTable must hold them all.  A shaped
    constraint is read once per labelled row x in 1..bound, never at
    bound + 1, and costs what its rule costs in solve_doublemex.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if bound > MAX_ORACLE_BOUND:
        raise ValueError(f"oracle bound {bound} exceeds the cap {MAX_ORACLE_BOUND}")
    relaxed = rules.family is Family.RELAXED
    # tuple.__new__ skips Position.__new__'s argument binding, as in detect_gap
    return set(map(tuple.__new__, itertools.repeat(Position), _rows(rules.constraint, relaxed, bound)))


def _rows(constraint: ConstraintSpec, relaxed: bool, bound: Optional[int] = None):
    """Yield the P-pairs (x, y) in row order, by the module docstring's rule.

    With a bound, rows stop at x = bound and a pair with y > bound is not
    yielded; without one the rows go on for as long as they are drawn.
    """
    value = constraint.value
    general, origin = constraint.shape is Shape.GENERAL, constraint.shape is Shape.ORIGIN
    # Union-find over the used values: a used y points past itself, so
    # unused(y) is the least unused y' >= y.  Only the larger value of each
    # pair has an entry, since every later query lies above the smaller one;
    # so memory follows the pairs however far y runs ahead of x.
    parent: Dict[int, int] = {0: 1}

    def unused(y: int) -> int:
        root = y
        while root in parent:
            root = parent[root]
        while y != root:
            parent[y], y = root, parent[y]
        return root

    # Each rule's state starts with pair (0, 0).  GENERAL: the orientations
    # (d1, d2) the row reaches, (a, b) and, once the rows pass b, (b, a).
    # ORIGIN: e_k = b_k - a_k per pair, with the covered runs per f
    # (modified) or the staircase of the (b_k, e_k) no other pair dominates
    # (relaxed).  With a bound, a pair (a, b) with b >= bound joins no rule's
    # intervals: they would start above b, off the board.
    smaller, dests = {0: 0}, [(0, 0)]
    xs, es = [0], [0]
    covers: Dict[int, _CoveredRuns] = defaultdict(_CoveredRuns)
    stair_b, stair_e = [0], [0]
    yield 0, 0
    x = 0
    while True:
        prev, x = x, x + 1
        while x in parent:  # the mex only grows: this walk is linear over all rows
            x += 1
        if bound is not None and x > bound:
            return
        if general:
            for s in range(prev + 1, x):  # rows owned by an earlier pair
                dests.append((s, smaller[s]))
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
                if y < lo and y in parent:
                    y = unused(y)
                if y < lo:
                    break
                if y <= hi:
                    y = hi + 1
            if y in parent:
                y = unused(y)
            smaller[y] = x
            if bound is None or y < bound:
                dests.append((x, y))
        else:
            f = value(0, 0, x)
            if f is None:
                y = x  # no interval; x, the mex, is unused
            elif not origin:
                y = unused(x + max(f, 0))
            elif relaxed:
                # y is free iff y >= x + f + M(y), M(y) = max{e_k : b_k < y}.
                y = x
                while True:
                    if y in parent:
                        y = unused(y)
                    i = bisect_left(stair_b, y)
                    need = x + f + stair_e[i - 1]
                    if y >= need:
                        break
                    y = need
                # A pair k with b_k > y has e_k > y - x, as a_k < x; so
                # (y, y - x) is dominated or dominates no point.
                if stair_e[i - 1] < y - x and (bound is None or y < bound):
                    stair_b.insert(i, y)
                    stair_e.insert(i, y - x)
            else:
                d = 0  # f < 1 casts no interval
                if f >= 1:
                    cover = covers[f]
                    d = cover.row(xs, es, x, f)
                    while x + d in parent:
                        d = cover.find(unused(x + d) - x)
                y = x + d
                if d and (bound is None or y < bound):  # a tie's interval lies inside (0, 0)'s
                    xs.append(x)
                    es.append(d)
        parent[y] = y + 1
        if bound is None or y <= bound:
            yield x, y


class GapReport(NamedTuple):
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
    the constraint value at index m is delta2(alpha, m).  Row n reads only the
    k whose f[k] leaves it a gap (one index list per value of f, at most
    three), so the cost is O(horizon + reports).
    """
    if not 1 <= horizon <= MAX_HORIZON:
        raise ValueError(f"horizon must be in [1, {MAX_HORIZON}], got {horizon}")
    a, b, f = zip(*_beatty_columns(alpha, horizon + 1))
    reports: List[GapReport] = []
    new = tuple.__new__  # skips GapReport.__new__'s argument binding
    later = {v: [] for v in f[1:]}  # later[v]: the k < n with f[k] - 2*v + 1 > 0
    for n in range(1, horizon + 1):
        fn = f[n]
        for k in later[fn]:
            size = f[k] - 2 * fn + 1
            lo = a[n] + b[k - 1] - a[k - 1] + fn
            # b is increasing: the least b_j >= lo decides whether one lands in the gap.
            j = bisect_left(b, lo, 0, n)
            filled = j < n and b[j] < lo + size
            reports.append(new(GapReport, (n, k, size, filled)))
        for v, ks in later.items():
            if fn - 2 * v + 1 > 0:
                ks.append(n)
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
    comment = f"{SCHEMA} ptable source={table.source.value}"
    if alpha is None:
        return _csv_text(comment, CSV_COLUMNS[:3], ((n, a, b) for n, (a, b) in enumerate(table.pairs)))
    beatty = _beatty_columns(alpha, len(table))
    rows = ((n, a, b, *extra) for n, ((a, b), extra) in enumerate(zip(table.pairs, beatty)))
    return _csv_text(comment, CSV_COLUMNS, rows)


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
    try:
        header = next(reader, None)
        if header is None or header[:3] != CSV_COLUMNS[:3]:
            raise ValueError(f"unexpected CSV header: {header}")
        pairs = []
        for row in reader:
            if len(row) < 3:
                raise ValueError(f"short CSV row: {row}")
            pairs.append((int(row[1]), int(row[2])))
    except csv.Error as exc:
        raise ValueError(f"malformed CSV: {exc}") from exc
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
    data = _json_object(text, "ptable")
    try:
        pairs = tuple([(a, b) for a, b in data["pairs"]])
        source = TableSource(data["source"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed ptable: {exc}") from exc
    if any(type(x) is not int for pair in pairs for x in pair):  # JSON true/false are bools
        raise ValueError("malformed ptable: pair entries must be integers")
    return _checked_table(pairs, source)


def positions_to_csv(positions: Set[Position]) -> str:
    return _csv_text(f"{SCHEMA} oracle", ["x", "y"], sorted(positions))


def positions_to_json(positions: Set[Position], bound: int) -> str:
    return _indented_json([
        ("schema", SCHEMA, None),
        ("kind", "oracle", None),
        ("bound", bound, None),
        ("positions", sorted(positions), _PAIR_ROW),
    ])
