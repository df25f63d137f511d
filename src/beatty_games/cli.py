"""Command-line surface: generation, verification, classification, play.

Exit codes: 0 success, 1 divergence found by `verify`, 2 argument/parse
failure, 3 generator hypothesis violation.
"""

from __future__ import annotations

import argparse
import random
import re
import sys
from typing import Callable, List, Optional, Tuple

from .classifier import (
    classification_to_json,
    classify_alpha,
    enumerate_families,
    families_to_csv,
    inverse_solve,
)
from .games import (
    BeattyDelta,
    Constant,
    Family,
    ParityHalf,
    Position,
    RuleSet,
    TargetBeatty,
    canonical,
    is_legal_move,
    ruleset_from_json,
    ruleset_to_json,
)
from .quadfield import QuadraticNumber, beatty_floor
from .solver import (
    HypothesisError,
    PTable,
    compare_tables,
    oracle_table,
    positions_to_csv,
    positions_to_json,
    ptable_to_csv,
    ptable_to_json,
    recurrence_closed,
    retrograde_oracle,
    solve_doublemex,
    solve_relaxed,
)

EXIT_OK = 0
EXIT_DIVERGENCE = 1
EXIT_PARSE = 2
EXIT_HYPOTHESIS = 3


def _parse_alpha(text: str) -> QuadraticNumber:
    alpha = QuadraticNumber.from_string(text)
    if alpha.q == 0 or not (1 < alpha < 2):
        raise ValueError(f"alpha must be an irrational in (1, 2), got {text!r}")
    return alpha


def _add_constraint_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--family", choices=["modified", "relaxed"], default="modified")
    group = parser.add_mutually_exclusive_group(required=False)
    group.add_argument("--constant", type=int, metavar="T", help="constant constraint t")
    group.add_argument("--beatty", metavar="ALPHA", help='Beatty constraint, e.g. "(5+1*sqrt(5))/5"')
    group.add_argument("--target-beatty", metavar="ALPHA", help="per-destination Beatty constraint")
    group.add_argument("--parity-half", action="store_true", help="(1+(-1)^(y1+1))*x1/2 constraint")
    group.add_argument("--rules", metavar="FILE", help="JSON ruleset file (overrides --family)")


def _build_rules(args) -> RuleSet:
    if args.rules:
        with open(args.rules) as fh:
            return ruleset_from_json(fh.read())
    if args.constant is not None:
        constraint = Constant(args.constant)
    elif args.beatty is not None:
        constraint = BeattyDelta(_parse_alpha(args.beatty))
    elif args.target_beatty is not None:
        constraint = TargetBeatty(_parse_alpha(args.target_beatty))
    elif args.parity_half:
        constraint = ParityHalf()
    else:
        raise ValueError("no constraint given (use --constant/--beatty/--target-beatty/--parity-half)")
    return RuleSet(Family(args.family), constraint)


def _table_alpha(rules: RuleSet) -> Optional[QuadraticNumber]:
    if isinstance(rules.constraint, (BeattyDelta, TargetBeatty)):
        return rules.constraint.alpha
    return None


def _write_output(text: str, path: Optional[str], out) -> None:
    if path is None:
        out.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _cmd_gen(args, out) -> int:
    rules = _build_rules(args)
    if args.closed:
        table = recurrence_closed(rules.constraint, args.count)
    elif rules.family is Family.MODIFIED:
        table = solve_doublemex(rules.constraint, args.count)
    else:
        table = solve_relaxed(rules.constraint, args.count)
    to_text = ptable_to_json if (args.output or "").endswith(".json") else ptable_to_csv
    _write_output(to_text(table, _table_alpha(rules)), args.output, out)
    return EXIT_OK


def _cmd_oracle(args, out) -> int:
    rules = _build_rules(args)
    pset = retrograde_oracle(rules, args.bound)
    if args.output and args.output.endswith(".json"):
        text = positions_to_json(pset, args.bound)
    else:
        text = positions_to_csv(pset)
    _write_output(text, args.output, out)
    return EXIT_OK


def _cmd_verify(args, out) -> int:
    rules = _build_rules(args)
    recurrence = recurrence_closed(rules.constraint, args.count)
    pset = retrograde_oracle(rules, args.bound)
    # The oracle cannot certify beyond its board: intersect the domains.
    trimmed = tuple(p for p in recurrence.pairs if p[1] <= args.bound)
    recurrence = PTable(trimmed, recurrence.source)
    truth = oracle_table(pset, limit=len(trimmed))
    index = compare_tables(recurrence, truth)
    if index is None:
        out.write(f"match: closed recurrence equals oracle on {len(trimmed)} pairs\n")
        return EXIT_OK
    out.write(
        f"divergence at n={index}: recurrence {recurrence.pairs[index]} "
        f"vs oracle {truth.pairs[index]}\n"
    )
    return EXIT_DIVERGENCE


def _cmd_classify(args, out) -> int:
    alpha = _parse_alpha(args.alpha)
    result = classify_alpha(alpha)
    if args.json:
        out.write(classification_to_json(result) + "\n")
    else:
        out.write(f"alpha = {alpha}: {result.describe()}\n")
    return EXIT_OK


def _cmd_inverse(args, out) -> int:
    alpha = _parse_alpha(args.alpha)
    rules, constraint = inverse_solve(alpha)
    if rules.family is Family.MODIFIED:
        table = solve_doublemex(constraint, args.count)
    else:
        table = solve_relaxed(constraint, args.count)
    beta = constraint.pair.beta
    out.write(ruleset_to_json(rules) + "\n")
    out.write("n,a_n,b_n,floor_n_alpha,floor_n_beta\n")
    for n, (a, b) in enumerate(table.pairs):
        out.write(f"{n},{a},{b},{beatty_floor(alpha, n)},{beatty_floor(beta, n)}\n")
    return EXIT_OK


def _cmd_families(args, out) -> int:
    entries = enumerate_families(args.p_max, args.q_max, args.t_max)
    _write_output(families_to_csv(entries), args.output, out)
    return EXIT_OK


# -- interactive play ---------------------------------------------------------------

_MOVE_RE = re.compile(
    r"^\s*take\s+(\d+)\s+from\s+pile\s+([ab])"
    r"(?:\s*,\s*(\d+)\s+from\s+pile\s+([ab]))?\s*$",
    re.IGNORECASE,
)


def _parse_move(line: str) -> Tuple[int, int]:
    """Removal amounts (from smaller pile, from larger pile) for a move line."""
    m = _MOVE_RE.match(line)
    if m is None:
        raise ValueError('say e.g. "take 2 from pile A" or "take 2 from pile A, 3 from pile B"')
    take = {"a": 0, "b": 0}
    take[m.group(2).lower()] += int(m.group(1))
    if m.group(3) is not None:
        pile = m.group(4).lower()
        if take[pile]:
            raise ValueError("each pile may appear once")
        take[pile] += int(m.group(3))
    return take["a"], take["b"]


def _explain_illegal(rules: RuleSet, pos: Position, k: int, l: int) -> str:
    x0, y0 = pos
    if k == 0 and l == 0:
        return "must remove at least one token"
    if k > x0 or l > y0:
        return f"cannot remove {k} from pile A({x0}) / {l} from pile B({y0})"
    if k == 0 or l == 0:
        return "that single-pile removal is not legal here"
    d1, d2 = x0 - k, y0 - l
    bound = rules.constraint.value(d1, d2, x0)
    diff = l - k
    if bound is None:
        return f"diagonal from pile A = {x0} is disallowed (constraint undefined)"
    if rules.family is Family.MODIFIED:
        return f"|({y0}-{d2})-({x0}-{d1})| = {abs(diff)} >= f({d1},{d2},{x0}) = {bound}"
    return f"({y0}-{d2})-({x0}-{d1}) = {diff} >= f({x0}) = {bound}"


def choose_engine_move(rules: RuleSet, pos: Position, pset) -> Position:
    """Least legal move into the P-set when one exists, else a stalling move.

    Only P-positions with y <= pos.y can be reached, so those are tested one
    by one instead of enumerating every legal move.  The stalling move takes
    one token from the larger pile, which keeps transcripts deterministic and
    prolongs play.
    """
    for move in sorted(pset):
        if move.y <= pos.y and is_legal_move(rules, pos, move):
            return move
    return canonical(pos.x, pos.y - 1)


def play_session(
    rules: RuleSet,
    start: Position,
    input_fn: Callable[[str], str] = input,
    print_fn: Callable[[str], None] = print,
) -> str:
    """Alternating human/engine loop; returns "human" or "engine" (the winner)."""
    pos = canonical(start.x, start.y)
    if pos == (0, 0):
        raise ValueError("start position must have tokens")
    print_fn(f"playing {rules.describe()}")
    pset = retrograde_oracle(rules, pos.y)
    print_fn('moves look like "take 2 from pile A, 3 from pile B"; "quit" resigns')
    while True:
        print_fn(f"position: pile A = {pos.x}, pile B = {pos.y}")
        try:
            line = input_fn("your move> ")
        except EOFError:
            print_fn("engine wins (resignation)")
            return "engine"
        if line.strip().lower() in ("quit", "resign"):
            print_fn("engine wins (resignation)")
            return "engine"
        try:
            k, l = _parse_move(line)
        except ValueError as exc:
            print_fn(f"could not read that move: {exc}")
            continue
        dest_raw = (pos.x - k, pos.y - l)
        if min(dest_raw) < 0:
            print_fn(f"illegal move: {_explain_illegal(rules, pos, k, l)}")
            continue
        dest = canonical(*dest_raw)
        if not is_legal_move(rules, pos, dest):
            print_fn(f"illegal move: {_explain_illegal(rules, pos, k, l)}")
            continue
        pos = dest
        if pos == (0, 0):
            print_fn("you win!")
            return "human"
        move = choose_engine_move(rules, pos, pset)
        print_fn(f"engine moves to (pile A = {move.x}, pile B = {move.y})")
        pos = move
        if pos == (0, 0):
            print_fn("engine wins")
            return "engine"


def _cmd_play(args, out) -> int:
    if args.alpha is not None:
        rules, _ = inverse_solve(_parse_alpha(args.alpha))
    else:
        rules = _build_rules(args)
    if args.start is not None:
        start = canonical(args.start[0], args.start[1])
    else:
        rng = random.Random(args.seed)
        b = args.random_bound
        start = canonical(rng.randint(1, b), rng.randint(1, b))
    play_session(rules, start, print_fn=lambda s: out.write(s + "\n"))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beatty-games",
        description="Exact engine for 2-pile subtraction games with Beatty P-positions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a P-position table from a recurrence")
    _add_constraint_args(gen)
    gen.add_argument("--count", type=int, required=True)
    gen.add_argument("--closed", action="store_true", help="use the closed recurrence")
    gen.add_argument("--output", metavar="FILE", help=".csv or .json; stdout otherwise")
    gen.set_defaults(func=_cmd_gen)

    oracle = sub.add_parser("oracle", help="brute-force P-positions by retrograde analysis")
    _add_constraint_args(oracle)
    oracle.add_argument("--bound", type=int, required=True)
    oracle.add_argument("--output", metavar="FILE")
    oracle.set_defaults(func=_cmd_oracle)

    verify = sub.add_parser("verify", help="compare the closed recurrence against the oracle")
    _add_constraint_args(verify)
    verify.add_argument("--count", type=int, required=True)
    verify.add_argument("--bound", type=int, required=True)
    verify.set_defaults(func=_cmd_verify)

    classify = sub.add_parser("classify", help="classify a slope into its game family")
    classify.add_argument("--alpha", required=True)
    classify.add_argument("--json", action="store_true")
    classify.set_defaults(func=_cmd_classify)

    inverse = sub.add_parser("inverse", help="ruleset whose P-positions are alpha's Beatty pairs")
    inverse.add_argument("--alpha", required=True)
    inverse.add_argument("--count", type=int, default=10)
    inverse.set_defaults(func=_cmd_inverse)

    families = sub.add_parser("families", help="enumerate compatible slopes as CSV")
    families.add_argument("--p-max", type=int, default=6)
    families.add_argument("--q-max", type=int, default=6)
    families.add_argument("--t-max", type=int, default=6)
    families.add_argument("--output", metavar="FILE")
    families.set_defaults(func=_cmd_families)

    play = sub.add_parser("play", help="interactive terminal game against the engine")
    _add_constraint_args(play)
    play.add_argument("--alpha", help="pick rules via the inverse solver for this slope")
    play.add_argument("--start", type=int, nargs=2, metavar=("X", "Y"))
    play.add_argument("--random-bound", type=int, default=20)
    play.add_argument("--seed", type=int)
    play.set_defaults(func=_cmd_play)

    return parser


def main(argv: Optional[List[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, out)
    except HypothesisError as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
