"""Per-layer spans recorded from outside the program.

Each public function on the user path is wrapped at the module attribute
its caller resolves at call time (for example `fstsynth.cli.minimize`,
which `cmd_trie` calls, and `fstsynth.synth_table.lower_bound`, which
`synthesize_minimal` calls). The search engine is wrapped in
`fstsynth.cli.ENGINES["table"]`, the object `cmd_synth` hands to
`synthesize_minimal`. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

# (module, attribute, span name); one span name may be wrapped at several
# call sites, as `verify` is imported into three modules.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("tasks", "parse_task", "tasks.parse_task"),
    ("cli", "build_trie", "trie.build_trie"),
    ("cli", "minimize", "trie.minimize"),
    ("cli", "prune", "core.prune"),
    ("cli", "serialize_transducer", "serialize.serialize_transducer"),
    ("synth_table", "lower_bound", "synth_table.lower_bound"),
    ("core", "verify", "core.verify"),
    ("trie", "verify", "core.verify"),
    ("synth_table", "verify", "core.verify"),
)
ENGINE = "table"
ENGINE_SPAN = "synth_table.synthesize_at"

# span name -> per-layer metric holding the summed self time of its spans
SELF_TIME = {
    "cli.main": "cli.self.s",
    "tasks.parse_task": "tasks.parse_task.s",
    "trie.build_trie": "trie.build_trie.s",
    "trie.minimize": "trie.minimize.s",
    "core.verify": "core.verify.s",
    "core.prune": "core.prune.s",
    "serialize.serialize_transducer": "serialize.serialize_transducer.s",
    "synth_table.lower_bound": "synth_table.lower_bound.s",
}


class Span:
    __slots__ = ("name", "parent", "start", "end", "attrs")

    def __init__(self, name: str, parent: Optional[int], start: float):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.attrs: dict = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _states(result) -> dict:
    return {"states": result.n_states}


def _outcome(result) -> dict:
    stats = result.stats
    return {"sat": result.sat, "nodes": stats.nodes,
            "backtracks": stats.backtracks, "seconds": stats.seconds}


ON_RESULT: dict[str, Callable] = {
    "trie.build_trie": _states,
    "trie.minimize": _states,
    ENGINE_SPAN: _outcome,
}


class Tracer:
    """Installs the wrappers on enter and restores the originals on exit.
    `task` names the op in progress; engine spans carry it."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[Span] = []
        self.task: Optional[str] = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        on_result = ON_RESULT.get(name)

        def traced(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else None, time.perf_counter())
            if name == ENGINE_SPAN:  # engine(task, n, cfg)
                span.attrs.update(task=self.task, n=args[1])
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as e:
                span.attrs["error"] = type(e).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if on_result is not None:
                span.attrs.update(on_result(result))
            return result

        return traced

    def __enter__(self):
        for mod_name, attr, name in TARGETS:
            mod = self.modules[mod_name]
            original = getattr(mod, attr)
            self._undo.append((setattr, mod, attr, original))
            setattr(mod, attr, self._wrap(name, original))
        engines = self.modules["cli"].ENGINES
        self._undo.append((dict.__setitem__, engines, ENGINE, engines[ENGINE]))
        engines[ENGINE] = self._wrap(ENGINE_SPAN, engines[ENGINE])
        return self

    def __exit__(self, *exc):
        while self._undo:
            restore, target, key, original = self._undo.pop()
            restore(target, key, original)
        return False

    def take(self) -> list[Span]:
        """Return the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass. A span's self time is its
    duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.seconds
    m = {metric: 0.0 for metric in SELF_TIME.values()}
    m.update({k: 0 for k in ("core.verify.calls", "synth_table.levels", "synth_table.nodes",
                             "synth_table.backtracks", "synth_table.sat_nodes",
                             "synth_table.unsat_nodes", "trie.states", "trie.min_states")})
    m["synth_table.sat.s"] = m["synth_table.unsat.s"] = 0.0
    for i, s in enumerate(spans):
        own = s.seconds - child[i]
        if s.name in SELF_TIME:
            m[SELF_TIME[s.name]] += own
        if s.name == "core.verify":
            m["core.verify.calls"] += 1
        elif s.name == "trie.build_trie" and "states" in s.attrs:
            m["trie.states"] += s.attrs["states"]
        elif s.name == "trie.minimize" and "states" in s.attrs:
            m["trie.min_states"] += s.attrs["states"]
        elif s.name == ENGINE_SPAN and "nodes" in s.attrs:
            verdict = "sat" if s.attrs["sat"] else "unsat"
            m[f"synth_table.{verdict}.s"] += own
            m[f"synth_table.{verdict}_nodes"] += s.attrs["nodes"]
            m["synth_table.nodes"] += s.attrs["nodes"]
            m["synth_table.backtracks"] += s.attrs["backtracks"]
            m["synth_table.levels"] += 1
    search_s = m["synth_table.sat.s"] + m["synth_table.unsat.s"]
    nodes = m["synth_table.nodes"]
    m["synth_table.nodes_per_s"] = nodes / search_s if search_s else 0.0
    m["synth_table.advance_frac"] = 1 - m["synth_table.backtracks"] / nodes if nodes else 0.0
    return m


def level_rows(spans: list[Span]) -> list[dict]:
    """Per task and per n: verdict, nodes, backtracks and seconds, in call order."""
    rows = []
    for s in spans:
        if s.name != ENGINE_SPAN:
            continue
        a = s.attrs
        verdict = a.get("error") or ("SAT" if a.get("sat") else "UNSAT")
        rows.append({"task": a["task"], "n": a["n"], "verdict": verdict, "nodes": a.get("nodes"),
                     "backtracks": a.get("backtracks"), "seconds": a.get("seconds", s.seconds)})
    return rows
