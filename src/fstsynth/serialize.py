"""FST/1 transducer file format and Graphviz DOT export.

FST/1 is a diff-friendly text format with a bit-exact round trip:
  @states N
  @initial 0
  @inputs a b ...
  @outputs x y ...
  then N body lines "state output succ_1 ... succ_|I|", with "-" for an
  undefined output or successor.
"""

from __future__ import annotations

from .core import UNDEFINED_TOKEN, FormatError, Transducer, content_lines


def serialize_transducer(t: Transducer) -> str:
    lines = [
        f"@states {t.n_states}",
        "@initial 0",
        "@inputs " + " ".join(t.input_alphabet),
        "@outputs " + " ".join(t.output_alphabet),
    ]
    for q, (out, row) in enumerate(zip(t.omega, t.delta)):
        succs = " ".join([UNDEFINED_TOKEN if c is None else str(c) for c in row])
        lines.append(f"{q} {UNDEFINED_TOKEN if out is None else out} {succs}".rstrip())
    return "\n".join(lines) + "\n"


def _number(lineno: int, field: str, what: str) -> int:
    try:
        return int(field)
    except ValueError:
        raise FormatError(lineno, f"{what} must be a number, got {field!r}") from None


def parse_transducer(text: str) -> Transducer:
    n = None
    inputs = None
    outputs = None
    body: list[tuple[int, list[str]]] = []
    for lineno, fields in content_lines(text):
        if fields[0] in ("@states", "@initial") and len(fields) != 2:
            raise FormatError(lineno, f"{fields[0]} takes one number")
        if fields[0] == "@states":
            n = _number(lineno, fields[1], "@states")
        elif fields[0] == "@initial":
            if fields[1] != "0":
                raise FormatError(lineno, "initial state must be 0")
        elif fields[0] == "@inputs":
            inputs = tuple(fields[1:])
        elif fields[0] == "@outputs":
            outputs = tuple(fields[1:])
        elif fields[0].startswith("@"):
            raise FormatError(lineno, f"unknown directive {fields[0]}")
        else:
            body.append((lineno, fields))
    if n is None or inputs is None or outputs is None:
        raise FormatError(0, "missing @states/@inputs/@outputs header")
    if len(body) != n:
        raise FormatError(0, f"expected {n} body lines, got {len(body)}")
    delta = [[None] * len(inputs) for _ in range(n)]
    omega: list[str | None] = [None] * n
    seen = set()
    for lineno, fields in body:
        if len(fields) != 2 + len(inputs):
            raise FormatError(lineno, f"expected state, output and {len(inputs)} successors")
        q = _number(lineno, fields[0], "state")
        if not 0 <= q < n or q in seen:
            raise FormatError(lineno, f"bad or repeated state {fields[0]}")
        seen.add(q)
        omega[q] = None if fields[1] == UNDEFINED_TOKEN else fields[1]
        for a, cell in enumerate(fields[2:]):
            delta[q][a] = None if cell == UNDEFINED_TOKEN else _number(lineno, cell, "successor")
    return Transducer(n, inputs, outputs, delta, omega)


def _dot_string(text: str) -> str:
    """text as a quoted DOT string, with backslash and quote escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(t: Transducer, show_nil_sink: bool = False) -> str:
    """Deterministic DOT digraph: nodes in state order, one edge per
    (source, target) with its symbols comma-joined in alphabet order.
    With show_nil_sink, undefined cells route to a shared "nil" node."""
    lines = ["digraph transducer {", "  rankdir=LR;", '  __start [shape=none, label=""];']
    for q in range(t.n_states):
        label = str(q) if t.omega[q] is None else f"{q}:{t.omega[q]}"
        lines.append(f"  q{q} [shape=circle, label={_dot_string(label)}];")
    nil_needed = show_nil_sink and any(
        c is None for row in t.delta for c in row
    )
    if nil_needed:
        lines.append('  nil [shape=circle, label="nil"];')
    lines.append("  __start -> q0;")
    for q in range(t.n_states):
        by_target: dict[object, list[str]] = {}
        for a, sym in enumerate(t.input_alphabet):
            cell = t.delta[q][a]
            if cell is None:
                if show_nil_sink:
                    by_target.setdefault("nil", []).append(sym)
                continue
            by_target.setdefault(cell, []).append(sym)
        for target in sorted(by_target, key=str):
            syms = ",".join(by_target[target])
            dst = "nil" if target == "nil" else f"q{target}"
            lines.append(f"  q{q} -> {dst} [label={_dot_string(syms)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
