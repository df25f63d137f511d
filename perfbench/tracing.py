"""Spans and counters around calls into the engine, installed from outside.

`Tracer(bg)` builds a timing wrapper for each public function of the engine's
modules, for `value` on every constraint class and for the public methods of
`QuadraticNumber`.  `install` puts each function's wrapper in its home module
and in every module that imported it by name (`solver` holds its own
`beatty_floor`, for instance); `uninstall` restores the originals.  Nothing
under `src/` is edited.

Calls into `solver`, `classifier` and `cli` are recorded as spans (id,
parent, operation, name, start, end), kept in memory and written out at the
end.  Calls into `quadfield` and `games` run up to millions of times per
operation, so they are aggregated (calls, inclusive time, self time) instead
of recorded one by one.  Self time is a call's duration minus the time its
wrapped children cover.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

LAYERS = ("quadfield", "games", "solver", "classifier", "cli")
RECORDED = frozenset(("solver", "classifier", "cli"))
# eval_constraint only forwards to ConstraintSpec.value, which is wrapped.
SKIPPED = frozenset(("games.eval_constraint",))
# Calls whose constraint evaluations and output size are counted separately.
GROUPS = {"solve_doublemex": "gen", "solve_relaxed": "gen", "recurrence_closed": "gen",
          "retrograde_oracle": "oracle"}
QUADRATIC_METHODS = (
    "from_string", "floor", "inv", "conjugate", "sign", "_cmp",
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__lt__", "__le__", "__gt__",
    "__ge__", "__eq__", "__hash__",
)


class Tracer:
    def __init__(self, bg):
        self.spans = []  # (span_id, parent_id, op_id, name, start, end)
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # name -> [calls, total_s, self_s]
        self.evals = defaultdict(int)  # group -> constraint evaluations inside it
        self.work = defaultdict(int)  # group -> pairs generated / board positions labelled
        self.last = {}  # group -> duration of its latest call
        self.op_id = 0
        self._active = defaultdict(int)  # group -> open calls
        self._stack = [[0, 0.0]]  # [span id, child time] of each open call
        self._next_id = 1
        self._patches = self._plan(bg)  # (owner, attr, original, wrapper)
        self._op = self._wrap("bench.op", lambda run: run(), record=True)

    def run_op(self, op_id: int, run):
        """Run one operation under a root span that its calls share as `op`."""
        self.op_id = op_id
        return self._op(run)

    def _wrap(self, name, fn, record, group=None):
        stack, stats, spans, active = self._stack, self.stats, self.spans, self._active

        def wrapper(*args, **kwargs):
            if record:
                span_id = self._next_id
                self._next_id += 1
                parent = stack[-1][0]
            else:
                span_id = stack[-1][0]
            frame = [span_id, 0.0]
            stack.append(frame)
            if group:
                active[group] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                took = end - start
                stack[-1][1] += took
                s = stats[name]
                s[0] += 1
                s[1] += took
                s[2] += took - frame[1]
                if record:
                    spans.append((span_id, parent, self.op_id, name, start, end))
                if group:
                    active[group] -= 1
                    self.last[group] = took
            if group == "gen":
                self.work[group] += len(result)
            elif group == "oracle":
                self.work[group] += (args[1] + 1) * (args[1] + 2) // 2
            return result

        return wrapper

    def _wrap_value(self, fn):
        evals, active = self.evals, self._active
        timed = self._wrap("games.constraint", fn, record=False)

        def value(spec, x1, y1, x0):
            if active["gen"]:
                evals["gen"] += 1
            elif active["oracle"]:
                evals["oracle"] += 1
            return timed(spec, x1, y1, x0)

        return value

    def _plan(self, bg):
        modules = [bg.package] + [getattr(bg, layer) for layer in LAYERS]
        plan = []
        for layer in LAYERS:
            home = getattr(bg, layer)
            for attr, fn in list(vars(home).items()):
                name = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or not callable(fn)
                    or isinstance(fn, type)
                    or getattr(fn, "__module__", None) != home.__name__
                    or name in SKIPPED
                ):
                    continue
                wrapper = self._wrap(name, fn, layer in RECORDED, GROUPS.get(attr))
                plan += [(mod, attr, fn, wrapper) for mod in modules if vars(mod).get(attr) is fn]
        for cls in _subclasses(bg.games.ConstraintSpec):
            if "value" in vars(cls):
                plan.append((cls, "value", vars(cls)["value"], self._wrap_value(vars(cls)["value"])))
        qn = bg.quadfield.QuadraticNumber
        for attr in QUADRATIC_METHODS:
            fn = vars(qn)[attr]
            if isinstance(fn, classmethod):
                wrapper = classmethod(self._wrap(f"quadfield.QuadraticNumber.{attr}", fn.__func__, False))
            else:
                wrapper = self._wrap(f"quadfield.QuadraticNumber.{attr}", fn, False)
            plan.append((qn, attr, fn, wrapper))
        return plan

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def write(self, path, extra: dict) -> None:
        """Spans one JSON object per line, then one line of aggregated stats."""
        with open(path, "w") as fh:
            for span_id, parent, op_id, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "op": op_id,
                                     "name": name, "start": start, "end": end}) + "\n")
            stats = {k: {"calls": c, "total_s": t, "self_s": s} for k, (c, t, s) in sorted(self.stats.items())}
            fh.write(json.dumps({"stats": stats, **extra}) + "\n")


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out += [sub] + _subclasses(sub)
    return out
