"""Command-line surface: generation, verification, classification, play.

Exit codes: 0 success, 1 divergence found by `verify`, 2 argument/parse
failure, 3 generator hypothesis violation.

`main(argv, out=...)` may be called repeatedly in one process.  The argument
grammar is built on the first call and reused by every later one; no result
is kept between calls.  In-process, an argv that argparse rejects raises
`SystemExit(2)` (and `--help` raises `SystemExit(0)`) where a process would
exit with that code.
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
    _refusal,
    canonical,
    is_legal_move,
    ruleset_from_json,
    ruleset_to_json,
)
from .quadfield import QuadraticNumber
from .solver import (
    HypothesisError,
    MAX_ORACLE_BOUND,
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


def _add_constraint_args(parser: argparse.ArgumentParser):
    # No default, so play can tell a given --family from none: None reads as modified.
    parser.add_argument("--family", choices=["modified", "relaxed"], help="default: modified")
    group = parser.add_mutually_exclusive_group(required=False)
    group.add_argument("--constant", type=int, metavar="T", help="constant constraint t")
    group.add_argument("--beatty", metavar="ALPHA", help='Beatty constraint, e.g. "(5+1*sqrt(5))/5"')
    group.add_argument("--target-beatty", metavar="ALPHA", help="per-destination Beatty constraint")
    group.add_argument("--parity-half", action="store_true", help="(1+(-1)^(y1+1))*x1/2 constraint")
    group.add_argument("--rules", metavar="FILE", help="JSON ruleset file")
    return group


def _build_rules(args) -> RuleSet:
    if args.rules:
        if args.family is not None:
            raise ValueError("--family does not apply with --rules: the ruleset file names its family")
        with open(args.rules) as fh:
            return ruleset_from_json(fh.read())
    if args.constant is not None:
        constraint = Constant(args.constant)
    elif args.beatty is not None:
        constraint = BeattyDelta(QuadraticNumber.from_string(args.beatty))
    elif args.target_beatty is not None:
        constraint = TargetBeatty(QuadraticNumber.from_string(args.target_beatty))
    elif args.parity_half:
        constraint = ParityHalf()
    else:
        raise ValueError("no constraint given (use --constant/--beatty/--target-beatty/--parity-half)")
    return RuleSet(Family(args.family or "modified"), constraint)


def _write_output(text: str, path: Optional[str], out) -> None:
    if path is None:
        out.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _solve(rules: RuleSet, count: int):
    """The family's generator: the true P-positions, or the relaxed recurrence."""
    solve = solve_doublemex if rules.family is Family.MODIFIED else solve_relaxed
    return solve(rules.constraint, count)


def _cmd_gen(args, out) -> int:
    rules = _build_rules(args)
    table = recurrence_closed(rules.constraint, args.count) if args.closed else _solve(rules, args.count)
    to_text = ptable_to_json if (args.output or "").endswith(".json") else ptable_to_csv
    _write_output(to_text(table, getattr(rules.constraint, "alpha", None)), args.output, out)
    return EXIT_OK


def _cmd_oracle(args, out) -> int:
    rules = _build_rules(args)
    pset = retrograde_oracle(rules, args.bound)
    if (args.output or "").endswith(".json"):
        text = positions_to_json(pset, args.bound)
    else:
        text = positions_to_csv(pset)
    _write_output(text, args.output, out)
    return EXIT_OK


def _cmd_verify(args, out) -> int:
    rules = _build_rules(args)
    recurrence = recurrence_closed(rules.constraint, args.count)
    rows = dict(retrograde_oracle(rules, args.bound))  # row x: its P-position's y <= bound
    matched = 0
    for n, (a, b) in enumerate(recurrence.pairs):
        y = rows.get(a)
        if y == b:
            matched += 1
        elif y is not None or b <= args.bound:  # else both sides leave row a off the board
            oracle = f" ({a}, {y})" if y is not None else f": no P-position in row {a} with y <= {args.bound}"
            out.write(f"divergence at n={n}: recurrence {(a, b)} vs oracle{oracle}\n")
            return EXIT_DIVERGENCE
    out.write(f"match: closed recurrence equals oracle on {matched} pairs\n")
    return EXIT_OK


def _cmd_classify(args, out) -> int:
    alpha = QuadraticNumber.from_string(args.alpha)
    result = classify_alpha(alpha)
    if args.json:
        out.write(classification_to_json(result) + "\n")
    else:
        out.write(f"alpha = {alpha}: {result.describe()}\n")
    return EXIT_OK


def _cmd_inverse(args, out) -> int:
    alpha = QuadraticNumber.from_string(args.alpha)
    rules, constraint = inverse_solve(alpha)
    table = _solve(rules, args.count)
    out.write(ruleset_to_json(rules) + "\n")
    out.write("n,a_n,b_n,floor_n_alpha,floor_n_beta\n")
    for n, ((a, b), fa, fb) in enumerate(zip(table.pairs, *constraint.pair._floors(len(table)))):
        out.write(f"{n},{a},{b},{fa},{fb}\n")
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
    take[m.group(2).lower()] = int(m.group(1))
    if m.group(3) is not None:
        pile = m.group(4).lower()
        if pile == m.group(2).lower():
            raise ValueError("each pile may appear once")
        take[pile] = int(m.group(3))
    return take["a"], take["b"]


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
    pset = retrograde_oracle(rules, pos.y)
    print_fn(f"playing {rules.describe()}")
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
        reason = _refusal(rules, pos.x, pos.y, k, l)
        if reason is not None:
            print_fn(f"illegal move: {reason}")
            continue
        pos = canonical(pos.x - k, pos.y - l)
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
        if args.family is not None:
            raise ValueError("--family does not apply with --alpha: the inverse solver picks the family")
        rules, _ = inverse_solve(QuadraticNumber.from_string(args.alpha))
    else:
        rules = _build_rules(args)
    if args.start is not None:
        start = canonical(args.start[0], args.start[1])
    else:
        b = args.random_bound
        if not 1 <= b <= MAX_ORACLE_BOUND:  # play's oracle runs to the larger pile
            raise ValueError(f"--random-bound must be in [1, {MAX_ORACLE_BOUND}], got {b}")
        rng = random.Random(args.seed)
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
    _add_constraint_args(play).add_argument("--alpha", help="rules from the inverse solver for this slope")
    play.add_argument("--start", type=int, nargs=2, metavar=("X", "Y"))
    play.add_argument("--random-bound", type=int, default=20)
    play.add_argument("--seed", type=int)
    play.set_defaults(func=_cmd_play)

    return parser


_parser: Optional[argparse.ArgumentParser] = None  # main's grammar, built on its first call


def main(argv: Optional[List[str]] = None, out=None) -> int:
    global _parser
    out = out if out is not None else sys.stdout
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args, out)
    except HypothesisError as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
