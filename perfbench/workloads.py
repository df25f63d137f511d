"""Seeded inputs, operations and their checks for the three workloads.

`build(name, bg, seed)` returns one round: a fixed list of operations, each
with a `run` (the timed calls into the engine) and a `check` (untimed, against
the independent references in `reference.py`).  The benchmark repeats whole
rounds, so every operation type runs equally often and a seed always gives
the same failures.  Every constraint and ruleset is built inside `run`, as
the CLI builds them, so no constraint memo outlives an operation.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass
from math import isqrt
from typing import Callable, Optional, Tuple

import reference as ref

SIZES = {
    # doublemex at n and 2n (every `box_stride`-th family-box slope at n only,
    # `box` seeded ones at both); relaxed and closed recurrences at `long`
    "gen": {"n": 300, "long": 100_000, "box_stride": 2, "box": 2, "long_slopes": 2},
    # oracle bound (and 2x for the scale ruleset); random tables at table_bound
    "oracle": {"bound": 180, "table_bound": 28, "tables": 2, "naive_bound": 24},
    # seeded slopes per round (plus the whole family box); per-slope call sizes
    "survey": {"random": 12, "count": 40, "sweep": 200, "horizon": 40,
               "rayleigh": 2000, "cli_count": 20, "rows": 2000},
}

A55, A19, PHI, SQRT2 = (5, 1, 5, 5), (-3, 1, 1, 19), (1, 1, 2, 5), (0, 1, 1, 2)
TEST_SLOPES = (A55, A19, PHI, SQRT2)
# Criterion 7's incompatible fixtures: their double-mex tables leave the Beatty
# rows within 300 steps.  Random incompatible slopes can follow the rows for
# 600 steps or more, so only these get a "must diverge" check.
INCOMPATIBLE = (A55, (0, 1, 1, 3), (1, 1, 2, 7), (7, 1, 5, 5), (3, 1, 3, 3))
T_WYTHOFF = (1, 2, 3, 4)  # Constant(t) constraints of gen, each in every round
NONSQUARES = tuple(d for d in range(2, 51) if isqrt(d) ** 2 != d)
NONZERO_Q = tuple(q for q in range(-8, 9) if q)


@dataclass
class Op:
    """One operation: `run` is timed, `check(result)` returns an error or None."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    work: int
    scale: Optional[Tuple[str, str, int]] = None  # ("gen"/"oracle", ruleset key, size)
    argvs: tuple = ()  # CLI argument lists the operation runs in-process
    # Untimed probe of a known defect of another layer, run when `check`
    # passes: returns the mismatch or None.  It is counted and reported
    # (`solver.gen.oracle_mismatch_frac`) but does not fail the operation.
    defect: Optional[Callable[[object], Optional[str]]] = None


def slope_text(s) -> str:
    p, q, r, d = s
    return f"({p}{'+' if q >= 0 else '-'}{abs(q)}*sqrt({d}))/{r}"


def random_slopes(rng: random.Random, k: int):
    """Criterion-10-style slopes: (p + q*sqrt(d))/r in (1, 2), distinct values."""
    out, seen = [], set()
    while len(out) < k:
        s = (rng.randint(-30, 30), rng.choice(NONZERO_Q), rng.randint(1, 12), rng.choice(NONSQUARES))
        if ref.is_slope(*s) and ref.normal_form(*s) not in seen:
            seen.add(ref.normal_form(*s))
            out.append(s)
    return out


class Rows:
    """Beatty rows per slope, computed once per run and extended on demand."""

    def __init__(self):
        self._rows = {}

    def __call__(self, s, count):
        got = self._rows.get(s)
        if got is None or len(got) < count:
            got = ref.beatty_rows(*s, count)
            self._rows[s] = got
        return got


def _diff(name, got, want) -> Optional[str]:
    if got == want:
        return None
    if isinstance(got, (list, tuple)) and isinstance(want, (list, tuple)):
        i = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), min(len(got), len(want)))
        return f"{name}: first difference at {i} (len {len(got)} vs {len(want)})"
    return f"{name}: {got!r} != {want!r}"


# -- gen ----------------------------------------------------------------------------


def build_gen(bg, seed: int):
    """Double-mex at n and 2n on fixed and seeded slopes; the recurrences at `long`.

    The four test slopes, the incompatible fixtures, a fixed share of the
    family box and Constant(t) for every t in T_WYTHOFF are in every round,
    so the seed moves only a few operations and the run-to-run cost stays
    level.  The fixed box share runs at n only, so the median operation falls
    among the many near-equal n calls, and the tail percentile among the
    relaxed Constant(t) recurrences, rather than at a gap in the costs where
    a seeded slope would move them.
    Double-mex must reproduce the Beatty rows exactly when the slope is
    compatible (test slopes, family-box slopes, t-Wythoff) and must leave
    them for the fixtures; the relaxed and closed recurrences must reproduce
    them for every slope.
    """
    size = SIZES["gen"]
    rng = random.Random(seed)
    n, long = size["n"], size["long"]
    box = [s for s in ref.family_box(6, 6, 6) if s not in TEST_SLOPES]
    fixed = box[::size["box_stride"]]
    compatible = [A19, PHI, SQRT2] + fixed + rng.sample([s for s in box if s not in fixed], size["box"])
    long_slopes = random_slopes(rng, size["long_slopes"])
    rows = Rows()
    qn, games, solver = bg.quadfield.QuadraticNumber, bg.games, bg.solver

    def beatty(s):
        return lambda: games.BeattyDelta(qn(*s))

    def constant(t):
        return lambda: games.Constant(t)

    def op(gen_name, make, count, s, expect_agree, key):
        def run():
            return getattr(solver, gen_name)(make(), count).pairs

        def check(pairs):
            want = rows(s, count)[:count]
            if len(pairs) != count:
                return f"{gen_name}: {len(pairs)} pairs, wanted {count}"
            agrees = list(pairs) == want
            if agrees != expect_agree:
                return _diff(f"{gen_name}({key}) vs Beatty rows", list(pairs), want) if expect_agree \
                    else f"{gen_name}({key}) follows the Beatty rows of an incompatible slope"
            return None

        scale = ("gen", key, count) if gen_name == "solve_doublemex" else None
        return Op(gen_name, run, check, count, scale)

    ops = []
    for s in compatible + list(INCOMPATIBLE):
        for count in (n,) if s in fixed else (n, 2 * n):
            ops.append(op("solve_doublemex", beatty(s), count, s, s in compatible, slope_text(s)))
    for t in T_WYTHOFF:
        for count in (n, 2 * n):
            ops.append(op("solve_doublemex", constant(t), count, ref.golden(t), True, f"constant{t}"))
    for s in long_slopes:
        ops.append(op("solve_relaxed", beatty(s), long, s, True, slope_text(s)))
        ops.append(op("recurrence_closed", beatty(s), long, s, True, slope_text(s)))
    for t in T_WYTHOFF:
        ops.append(op("solve_relaxed", constant(t), long, ref.golden(t), True, f"constant{t}"))
    return ops


# -- oracle ---------------------------------------------------------------------------


def random_table(rng: random.Random, bound: int, origin_only: bool):
    """Entries f(x1, y1, x0) for x1 < x0 <= bound + 1 and y1 <= 4*bound + 8.

    The domain holds every key the oracle queries and every key that can
    move a generator pair onto the board, so a miss never decides a compared
    result.  Origin-only tables
    draw one value in [1, 3] per x0 (relaxed Wythoff); the others draw one
    value in [1, 6] per entry (modified game).
    """
    ymax = 4 * bound + 8
    values = {}
    for x0 in range(1, bound + 2):
        g = rng.randint(1, 3)
        for x1 in range(x0):
            for y1 in range(ymax + 1):
                values[(x1, y1, x0)] = g if origin_only else rng.randint(1, 6)
    return values


def build_oracle(bg, seed: int):
    """One oracle call per operation, on both families.

    Every ruleset but the random tables is fixed, so the seed moves only the
    cheapest operations.  The oracle must equal a naive legal_moves search on
    the small board.  On the fixed rulesets the generator of the family at
    count bound + 2 must also equal the oracle (criterion 4), and relaxed
    ParityHalf must be refused, as f(0, 0, 1) = 0.  On the random tables the
    generators have a known defect (ROADMAP item 1): there the generator is
    still run and compared with the oracle, but a mismatch is counted as a
    known defect rather than failing the oracle operation.  modified/beatty0
    also runs at 2*bound.
    """
    size = SIZES["oracle"]
    rng = random.Random(seed)
    bound, tbound, nb = size["bound"], size["table_bound"], size["naive_bound"]
    modified_tables = [random_table(rng, tbound, False) for _ in range(size["tables"])]
    relaxed_tables = [random_table(rng, tbound, True) for _ in range(size["tables"])]
    qn, games, solver = bg.quadfield.QuadraticNumber, bg.games, bg.solver
    naive = {}

    def op(key, family, make, b, expect_refusal=False, table=False):
        fam = games.Family(family)
        gen_name = "solve_doublemex" if fam is games.Family.MODIFIED else "solve_relaxed"

        def run():
            rules = games.RuleSet(fam, make())
            pset = solver.retrograde_oracle(rules, b)
            try:
                pairs = getattr(solver, gen_name)(rules.constraint, b + 2).pairs
            except solver.HypothesisError as exc:
                pairs = exc
            return pset, pairs

        def check_oracle(result):
            pset, _ = result
            small = min(b, nb)
            if key not in naive:
                naive[key] = ref.naive_p_positions(games, games.RuleSet(fam, make()), small)
            got = {p for p in pset if p[1] <= small}
            if got != naive[key]:
                return f"oracle({key}) != naive search at bound {small}"
            return None

        def check_generator(result):
            pset, pairs = result
            if isinstance(pairs, Exception):
                return None if expect_refusal else f"generator({key}) raised {pairs}"
            if expect_refusal:
                return f"generator({key}) accepted a constraint with f(0, 0, 1) < 1"
            if pairs[-1][0] <= b:
                return f"generator({key}) stopped below the board"
            if key.startswith("modified/parity"):
                bad = _diff(f"generator({key}) vs parity closed form", list(pairs), ref.parity_table(b + 2))
                if bad:
                    return bad
            want = {games.Position(x, y) for x, y in pairs if y <= b}
            if want != pset:
                first = min(want ^ pset)
                return f"generator({key}) != oracle at bound {b}: first difference at {first}"
            return None

        def check(result):
            return check_oracle(result) or (None if table else check_generator(result))

        scale = ("oracle", key, b) if key == "modified/beatty0" else None
        return Op(key, run, check, (b + 1) * (b + 2) // 2, scale, defect=check_generator if table else None)

    ops = []
    for family in ("modified", "relaxed"):
        for t in (1, 2):
            ops.append(op(f"{family}/constant{t}", family, lambda t=t: games.Constant(t), bound))
        ops.append(op(f"{family}/parity", family, games.ParityHalf, bound, expect_refusal=family == "relaxed"))
        for i, s in enumerate(TEST_SLOPES):
            ops.append(op(f"{family}/beatty{i}", family, lambda s=s: games.BeattyDelta(qn(*s)), bound))
            ops.append(op(f"{family}/target{i}", family, lambda s=s: games.TargetBeatty(qn(*s)), bound))
    for i, values in enumerate(modified_tables):
        ops.append(op(f"modified/table{i}", "modified", lambda v=values: games.ExplicitTable(v), tbound,
                      table=True))
    for i, values in enumerate(relaxed_tables):
        ops.append(op(f"relaxed/table{i}", "relaxed", lambda v=values: games.ExplicitTable(v), tbound,
                      table=True))
    ops.append(op("modified/beatty0", "modified", lambda: games.BeattyDelta(qn(*A55)), 2 * bound))
    return ops


# -- survey ---------------------------------------------------------------------------


def build_survey(bg, seed: int):
    """One slope per operation: seeded criterion-10-style slopes and the whole
    family box (the box's large radicands are the costly slopes, so all of
    them run in every round).

    Checks use only what the rows prove: an observed second difference must
    be in delta2_range, rows that break 2*min - max >= 1 cannot be called
    compatible, box slopes must be compatible, and the inverse table, the
    sweep, the trichotomy identity (criterion 8), detect_gap, the serialized
    tables and the CLI outputs must match the rows.
    """
    size = SIZES["survey"]
    rng = random.Random(seed)
    box = ref.family_box(6, 6, 6)
    slopes = [(s, False) for s in random_slopes(rng, size["random"])] + [(s, True) for s in box]
    count, sweep, horizon = size["count"], size["sweep"], size["horizon"]
    rows = Rows()
    quadfield, games, solver, classifier, cli = bg.quadfield, bg.games, bg.solver, bg.classifier, bg.cli

    def op(s, in_box):
        text = slope_text(s)
        argvs = (
            ["classify", "--alpha", text, "--json"],
            ["inverse", "--alpha", text, "--count", str(size["cli_count"])],
            ["families", "--p-max", "3", "--q-max", "3", "--t-max", "3"],
        )

        def run():
            alpha = quadfield.QuadraticNumber.from_string(text)
            res = classifier.classify_alpha(alpha)
            rng_ = classifier.delta2_range(alpha)
            rules, constraint = classifier.inverse_solve(alpha)
            gen = solver.solve_doublemex if rules.family is games.Family.MODIFIED else solver.solve_relaxed
            table = gen(constraint, count)
            d2 = [quadfield.delta2(alpha, n) for n in range(1, sweep + 1)]
            tri = [quadfield.trichotomy_class(alpha, n).value for n in range(sweep)]
            gaps = [(g.n, g.k, g.gap_size, g.filled) for g in solver.detect_gap(alpha, horizon)]
            tiles = quadfield.rayleigh_verify(quadfield.conjugate_beatty(alpha), size["rayleigh"])
            positions = {games.Position(a, b) for a, b in table.pairs}
            texts = (
                solver.ptable_to_csv(table, alpha),
                solver.ptable_to_json(table, alpha),
                solver.positions_to_csv(positions),
                solver.positions_to_json(positions, table.pairs[-1][1]),
            )
            outs = []
            for argv in argvs:
                buf = io.StringIO()
                outs.append((cli.main(argv, out=buf), buf.getvalue()))
            return res.compatible, sorted(rng_), rules.family.value, table.pairs, d2, tri, gaps, tiles, texts, outs

        def check(result):
            compatible, rng_, family, pairs, d2, tri, gaps, tiles, texts, outs = result
            r = rows(s, size["rows"])
            f = ref.second_differences(r)
            seen = set(f[1:])
            violated = 2 * min(seen) - max(seen) < 1
            checks = [
                ("delta2_range misses an observed value", not seen <= set(rng_)),
                ("compatible although the rows violate 2*min - max >= 1", compatible and violated),
                ("family-box slope classified incompatible", in_box and not compatible),
                ("inverse family disagrees with the classification",
                 family != ("modified" if compatible else "relaxed")),
                ("rayleigh_verify failed", tiles is not True),
            ]
            for what, bad in checks:
                if bad:
                    return f"{text}: {what}"
            bf = r[1][1]
            bad = (
                _diff("inverse table vs Beatty rows", list(pairs), r[:count])
                or _diff("delta2 vs second differences", d2, f[1:sweep + 1])
                or _diff("trichotomy identity", d2, [bf - 1 + v for v in tri])
                or _diff("detect_gap vs gaps of the rows", gaps, ref.gap_reports(r, horizon))
                or _check_serialized(texts, r[:count], f)
                or _check_cli(outs, r, seen, compatible, size["cli_count"], rows)
            )
            return f"{text}: {bad}" if bad else None

        return Op("slope", run, check, 1, argvs=argvs)

    return [op(s, in_box) for s, in_box in slopes]


def _check_serialized(texts, r, f) -> Optional[str]:
    table_csv, table_json, pos_csv, pos_json = texts
    lines = [ln for ln in table_csv.splitlines() if not ln.startswith("#")]
    body = list(csv.reader(lines))
    want = [["n", "a_n", "b_n", "floor_n_alpha", "floor_n_beta", "delta2"]]
    want += [[str(n), str(a), str(b), str(a), str(b), "" if n == 0 else str(f[n])] for n, (a, b) in enumerate(r)]
    data = json.loads(table_json)
    sorted_pairs = [list(p) for p in sorted(r)]
    pos_lines = [ln for ln in pos_csv.splitlines() if not ln.startswith("#")]
    return (
        _diff("ptable_to_csv", body, want)
        or _diff("ptable_to_json pairs", data["pairs"], [list(p) for p in r])
        or _diff("ptable_to_json beatty", data["beatty"],
                 [{"floor_n_alpha": a, "floor_n_beta": b, "delta2": f[n] if n else None}
                  for n, (a, b) in enumerate(r)])
        or _diff("positions_to_csv", list(csv.reader(pos_lines)),
                 [["x", "y"]] + [[str(x), str(y)] for x, y in sorted_pairs])
        or _diff("positions_to_json", json.loads(pos_json)["positions"], sorted_pairs)
    )


def _check_cli(outs, r, seen, compatible, cli_count, rows) -> Optional[str]:
    (c1, classify), (c2, inverse), (c3, families) = outs
    if (c1, c2, c3) != (0, 0, 0):
        return f"cli exit codes {(c1, c2, c3)}"
    data = json.loads(classify)
    if data["compatible"] != compatible or not seen <= set(data["delta2_range"]):
        return "classify --json disagrees with the rows"
    head, _, table = inverse.partition("n,a_n,b_n,floor_n_alpha,floor_n_beta\n")
    want = [f"{n},{a},{b},{a},{b}" for n, (a, b) in enumerate(r[:cli_count])]
    bad = _diff("inverse rows", table.splitlines(), want)
    if bad:
        return bad
    if json.loads(head)["family"] != ("modified" if compatible else "relaxed"):
        return "inverse ruleset family disagrees with classify"
    body = list(csv.reader(ln for ln in families.splitlines() if not ln.startswith("#")))[1:]
    for label, t_or_p, _q, _bf, p, q, rr, d, _approx in body:
        fr = rows((int(p), int(q), int(rr), int(d)), 200)
        f = ref.second_differences(fr)[1:]
        if 2 * min(f) - max(f) < 1:
            return f"families lists ({p}+{q}*sqrt({d}))/{rr}, whose rows violate the inequality"
        if label == "I" and any(b - a != int(t_or_p) * n for n, (a, b) in enumerate(fr)):
            return f"families lists a Family I slope whose rows are not t-Wythoff (t = {t_or_p})"
    return None


BUILDERS = {"gen": build_gen, "oracle": build_oracle, "survey": build_survey}


def build(name: str, bg, seed: int):
    return BUILDERS[name](bg, seed)
