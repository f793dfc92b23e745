"""Classical baseline: prefix trie over the task words, minimized by
Moore-style partition refinement generalized to multiple outputs and
partial maps.

Undefined successors are a distinguished class of their own, so a state
with a defined a-successor never merges with one lacking it. Exploiting
such don't-cares is NP-hard in general and is exactly what the exact
search engine does instead; the baseline stays the textbook algorithm.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from .core import CheckFailed, PreconditionViolated, TaskSpec, Transducer, verify


def build_trie(task: TaskSpec) -> Transducer:
    """One state per distinct prefix of the task words (state 0 is the
    empty prefix); outputs defined exactly on full-word states."""
    k = len(task.input_alphabet)
    sym_index = {s: i for i, s in enumerate(task.input_alphabet)}
    delta: list[list[Optional[int]]] = [[None] * k]
    omega: list[Optional[str]] = [None]
    for word, out in task.pairs:
        q = 0
        for sym in word:
            a = sym_index[sym]
            if delta[q][a] is None:
                delta.append([None] * k)
                omega.append(None)
                delta[q][a] = len(delta) - 1
            q = delta[q][a]
        omega[q] = out  # TaskSpec rules out conflicting assignments
    return Transducer(
        len(delta),
        task.input_alphabet,
        task.output_alphabet,
        tuple(tuple(row) for row in delta),
        tuple(omega),
    )


def minimize(t: Transducer, task: TaskSpec) -> Transducer:
    """Quotient t by the coarsest partition where equivalent states share
    an output symbol and, per input symbol, equivalent successors
    (undefined successor counting as its own class)."""
    if not verify(t, task).ok:
        raise PreconditionViolated("minimize requires a verifying transducer")
    n = t.n_states
    k = len(t.input_alphabet)

    # initial partition: one class per output symbol, one for no-output
    outputs: dict[Optional[str], int] = {}
    cls = []
    for q in range(n):
        cls.append(outputs.setdefault(t.omega[q], len(outputs)))

    # refine until a full pass makes no split
    while True:
        signatures: dict[tuple, int] = {}
        new_cls = []
        for q in range(n):
            sig = (
                cls[q],
                tuple(
                    -1 if t.delta[q][a] is None else cls[t.delta[q][a]]
                    for a in range(k)
                ),
            )
            new_cls.append(signatures.setdefault(sig, len(signatures)))
        if len(signatures) == len(set(cls)):
            break
        cls = new_cls

    # renumber classes by breadth-first discovery from the initial class
    order: dict[int, int] = {cls[0]: 0}
    members: dict[int, list[int]] = {}
    for q in range(n):
        members.setdefault(cls[q], []).append(q)
    queue = deque([cls[0]])
    while queue:
        c = queue.popleft()
        rep = members[c][0]
        for a in range(k):
            succ = t.delta[rep][a]
            if succ is None:
                continue
            sc = cls[succ]
            if sc not in order:
                order[sc] = len(order)
                queue.append(sc)
    # unreachable classes (none for tries) go after, in state order
    for q in range(n):
        if cls[q] not in order:
            order[cls[q]] = len(order)

    m = len(order)
    delta: list[list[Optional[int]]] = [[None] * k for _ in range(m)]
    omega: list[Optional[str]] = [None] * m
    for c, qs in members.items():
        i = order[c]
        rep = qs[0]
        omega[i] = t.omega[rep]
        for a in range(k):
            succ = t.delta[rep][a]
            delta[i][a] = None if succ is None else order[cls[succ]]
        # the quotient map must be a transducer morphism
        for q in qs[1:]:
            targets = [None if succ is None else order[cls[succ]] for succ in t.delta[q]]
            if t.omega[q] != omega[i] or targets != delta[i]:
                raise CheckFailed(f"state {q} does not agree with its class {i}")
    result = Transducer(
        m,
        t.input_alphabet,
        t.output_alphabet,
        tuple(tuple(row) for row in delta),
        tuple(omega),
    )
    if not verify(result, task).ok:
        raise CheckFailed("the minimized transducer does not verify")
    return result
