"""Independent output check.

A small FST/1 reader and simulator verifies every machine the program
writes against the task pairs. It never calls the program's own
`verify` or `parse_transducer`, so a bug shared by the writer and the
program's reader cannot pass unnoticed.
"""

from __future__ import annotations

import re
from typing import Optional

from inputs import Task


class CheckError(Exception):
    """An output the program produced is wrong or malformed."""


def read_fst(text: str) -> tuple[int, tuple[str, ...], list[Optional[str]], list[list[Optional[int]]]]:
    """Parse FST/1 into (states, inputs, omega, delta)."""
    header: dict[str, list[str]] = {}
    body: list[list[str]] = []
    for line in text.splitlines():
        fields = line.split()
        if not fields or fields[0].startswith("#"):
            continue
        if fields[0].startswith("@"):
            header[fields[0]] = fields[1:]
        else:
            body.append(fields)
    try:
        (n_text,) = header["@states"]
        n = int(n_text)
        inputs = tuple(header["@inputs"])
        outputs = set(header["@outputs"])
    except (KeyError, ValueError) as e:
        raise CheckError(f"bad FST/1 header: {e!r}") from None
    if header.get("@initial", ["0"]) != ["0"]:
        raise CheckError("initial state is not 0")
    if len(body) != n:
        raise CheckError(f"@states {n} but {len(body)} state lines")
    omega: list[Optional[str]] = [None] * n
    delta: list[list[Optional[int]]] = [[None] * len(inputs) for _ in range(n)]
    seen = set()
    for fields in body:
        if len(fields) != 2 + len(inputs):
            raise CheckError(f"state line {' '.join(fields)!r} has the wrong width")
        q = _int(fields[0])
        if not 0 <= q < n or q in seen:
            raise CheckError(f"bad or repeated state {q}")
        seen.add(q)
        if fields[1] != "-":
            if fields[1] not in outputs:
                raise CheckError(f"state {q} output {fields[1]!r} not in @outputs")
            omega[q] = fields[1]
        for a, cell in enumerate(fields[2:]):
            if cell != "-":
                target = _int(cell)
                if not 0 <= target < n:
                    raise CheckError(f"state {q} successor {target} out of range")
                delta[q][a] = target
    return n, inputs, omega, delta


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise CheckError(f"{text!r} is not a state number") from None


def check_machine(text: str, task: Task, states: int) -> None:
    """The machine has `states` states and maps every task word to its output."""
    n, inputs, omega, delta = read_fst(text)
    if n != states:
        raise CheckError(f"{n} states, expected {states}")
    index = {s: i for i, s in enumerate(inputs)}
    for word, out in task.pairs:
        q = 0
        for c in word:
            a = index.get(c)
            q = None if a is None else delta[q][a]
            if q is None:
                raise CheckError(f"word {word!r} falls off the machine at {c!r}")
        if omega[q] != out:
            raise CheckError(f"word {word!r} gives {omega[q]!r}, expected {out!r}")


def _count(pattern: str, text: str) -> Optional[int]:
    m = re.search(pattern, text)
    return int(m.group(1)) if m else None


def check_synth(task: Task, code: int, stdout: str, stderr: str, fst: Optional[str]) -> None:
    """The verdict is the expected one: either the witness at n_min with an
    UNSAT line for each n below it, down to where the search started, or
    the expected "UNSAT up to max_states" with no machine written. A search
    may start above the output-count bound when it proves a stronger one."""
    if task.n_min is None:
        if code != 1 or f"UNSAT up to {task.max_states} states" not in stderr:
            raise CheckError(f"expected UNSAT up to {task.max_states}, got exit {code}: {stderr.strip()!r}")
        if fst is not None:
            raise CheckError("a machine was written for an UNSAT task")
        return
    if code != 0 or fst is None:
        raise CheckError(f"synth exit {code}: {stderr.strip()!r}")
    if _count(r"minimal states: (\d+)", stdout) != task.n_min:
        raise CheckError(f"reported n_min differs from {task.n_min}")
    refuted = sorted(int(k) for k in re.findall(r"UNSAT at (\d+) states", stdout))
    if refuted != list(range(task.n_min - len(refuted), task.n_min)):
        raise CheckError(f"UNSAT trail {refuted} does not certify n_min {task.n_min}")
    check_machine(fst, task, task.n_min)


def check_trie(task: Task, expected: tuple[int, int], code: int, stdout: str, fst: Optional[str]) -> None:
    """`trie --minimize` reports and writes the expected counts, and the
    minimized machine verifies."""
    trie_states, min_states = expected
    if code != 0 or fst is None:
        raise CheckError(f"trie exit {code}")
    got = (_count(r"trie states: (\d+)", stdout), _count(r"minimized states: (\d+)", stdout))
    if got != expected:
        raise CheckError(f"trie/minimized {got[0]}/{got[1]}, expected {trie_states}/{min_states}")
    check_machine(fst, task, min_states)
