"""Classical baseline: prefix trie over the task words, minimized by
merging states with equal labelled subtrees, bottom-up, with multiple
outputs and partial maps.

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


def children_first(t: Transducer) -> list[int]:
    """Every state of the acyclic t, each after all its successors, found
    by peeling states whose successors are placed. Raises
    PreconditionViolated if a cycle leaves states unplaced."""
    parents: list[list[int]] = [[] for _ in range(t.n_states)]
    pending = [0] * t.n_states
    for u, row in enumerate(t.delta):
        for c in row:
            if c is not None:
                parents[c].append(u)
                pending[u] += 1
    order = [u for u in range(t.n_states) if not pending[u]]
    for u in order:  # grows while iterated
        for p in parents[u]:
            pending[p] -= 1
            if not pending[p]:
                order.append(p)
    if len(order) < t.n_states:
        raise PreconditionViolated("the transducer has a cycle")
    return order


def minimize(t: Transducer, task: TaskSpec) -> Transducer:
    """Quotient the acyclic t by merging states with equal labelled
    subtrees: equal output and, per input symbol, equal successor classes
    (undefined successor counting as its own class). Classes are assigned
    children first, so one pass decides them (Revuz, TCS 1992); a cycle
    raises PreconditionViolated."""
    if not verify(t, task).ok:
        raise PreconditionViolated("minimize requires a verifying transducer")
    n = t.n_states
    k = len(t.input_alphabet)
    signatures: dict[tuple, int] = {}
    cls = [0] * n
    for q in children_first(t):
        sig = (t.omega[q], tuple(-1 if c is None else cls[c] for c in t.delta[q]))
        cls[q] = signatures.setdefault(sig, len(signatures))

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
