"""README.md's library sketch runs as written and its commented results hold."""

import ast
import re
from pathlib import Path

from beatty_games.games import Family
from beatty_games.quadfield import beatty_floor, conjugate_beatty

README = Path(__file__).resolve().parents[1] / "README.md"


def sketch_results():
    """Run the README's fenced python block statement by statement.

    Returns the namespace it leaves and, for each bare expression whose
    trailing comment is a Python literal, the pair (value, literal)."""
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1, "the README has one python block"
    source = blocks[0]
    lines = source.splitlines()
    namespace, checked = {}, []
    for node in ast.parse(source).body:
        code = compile(ast.Module([node], type_ignores=[]), str(README), "exec")
        if not isinstance(node, ast.Expr):
            exec(code, namespace)
            continue
        value = eval(compile(ast.Expression(node.value), str(README), "eval"), namespace)
        comment = lines[node.end_lineno - 1].partition("#")[2].strip()
        try:
            literal = ast.literal_eval(comment)
        except (ValueError, SyntaxError):
            continue
        checked.append((value, literal))
    return namespace, checked


def test_library_sketch_results():
    namespace, checked = sketch_results()
    assert [literal for _, literal in checked] == [
        "Incompatible; delta2 range {1, 2, 3}",
        [2, 2, 1, 2, 2, 2, 1],
        [0, 0, -1, 0, 0, 0, -1],
    ]
    for value, literal in checked:
        assert value == literal
    alpha, rules = namespace["alpha"], namespace["rules"]
    beta = conjugate_beatty(alpha).beta
    rows = tuple((beatty_floor(alpha, n), beatty_floor(beta, n)) for n in range(10))
    # "relaxed Wythoff for this slope", whose first ten pairs are "exactly
    # alpha's Beatty pairs"
    assert rules.family is Family.RELAXED
    assert namespace["solve_relaxed"](namespace["constraint"], 10).pairs == rows
    # the oracle's P-positions on the board y <= 150 are the Beatty pairs there
    board = {(beatty_floor(alpha, n), beatty_floor(beta, n)) for n in range(50)}
    assert {(p.x, p.y) for p in namespace["truth"]} == {(a, b) for a, b in board if b <= 150}
