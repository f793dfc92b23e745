"""Classical baseline: prefix trie over the task words, minimized by
merging states with equal labelled subtrees, bottom-up, with multiple
outputs and partial maps. `minimize` and the clique lower bound in
`synth_table` read the same subtree-class table.

Undefined successors are a distinguished class of their own, so a state
with a defined a-successor never merges with one lacking it. Exploiting
such don't-cares is NP-hard in general and is exactly what the exact
search engine does instead; the baseline stays the textbook algorithm.
"""

from __future__ import annotations

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
    return Transducer(len(delta), task.input_alphabet, task.output_alphabet, delta, omega)


def subtree_classes(t: Transducer) -> tuple[list[int], list[tuple]]:
    """The states of the acyclic t grouped by labelled subtree, in one
    children-first peel: (cls, classes), where cls[q] is the class of state
    q and classes[c] is (output, successor classes with -1 for undefined).
    A class is numbered after the classes of its successors. Raises
    PreconditionViolated if a cycle leaves states unplaced."""
    parents: list[list[int]] = [[] for _ in range(t.n_states)]
    pending = [0] * t.n_states
    for u, row in enumerate(t.delta):
        for c in row:
            if c is not None:
                parents[c].append(u)
                pending[u] += 1
    signatures: dict[tuple, int] = {}
    cls = [0] * t.n_states
    order = [u for u in range(t.n_states) if not pending[u]]
    for u in order:  # grows while iterated
        sig = (t.omega[u], tuple(-1 if c is None else cls[c] for c in t.delta[u]))
        cls[u] = signatures.setdefault(sig, len(signatures))
        for p in parents[u]:
            pending[p] -= 1
            if not pending[p]:
                order.append(p)
    if len(order) < t.n_states:
        raise PreconditionViolated("the transducer has a cycle")
    return cls, list(signatures)


def breadth_first(cls: list[int], classes: list[tuple]) -> dict[int, Optional[int]]:
    """The classes reachable from the initial class cls[0], in breadth-first
    discovery order with successors taken in symbol order, each mapped to
    the class it was first reached from (None for the initial class).
    Following these parents back, taking at each step the first symbol
    from parent to child, spells the first shortest word to a class."""
    parent: dict[int, Optional[int]] = {cls[0]: None}
    queue = [cls[0]]
    for c in queue:  # grows while iterated
        for s in classes[c][1]:
            if s >= 0 and s not in parent:
                parent[s] = c
                queue.append(s)
    return parent


def minimize(t: Transducer, task: TaskSpec) -> Transducer:
    """Quotient the acyclic t by merging states with equal labelled
    subtrees: equal output and, per input symbol, equal successor classes
    (undefined successor counting as its own class). The classes come from
    one children-first pass (Revuz, TCS 1992) and are numbered in
    `breadth_first` order from the initial class; a cycle raises
    PreconditionViolated. The quotient map is checked to be a morphism, so
    the quotient gives t's output on every word, and t is walked through
    the task only when the quotient fails to verify: PreconditionViolated
    if t does not verify either, else CheckFailed."""
    cls, classes = subtree_classes(t)
    number = {c: i for i, c in enumerate(breadth_first(cls, classes))}
    for c in cls:  # unreachable classes (none for tries) go after, in state order
        number.setdefault(c, len(number))
    # the dict lists the classes in their new order
    omega = [classes[c][0] for c in number]
    delta = [[None if s < 0 else number[s] for s in classes[c][1]] for c in number]
    # the quotient map must be a transducer morphism
    image = [number[c] for c in cls]
    for q, row in enumerate(t.delta):
        i = image[q]
        if t.omega[q] != omega[i] or [None if s is None else image[s] for s in row] != delta[i]:
            raise CheckFailed(f"state {q} does not agree with its class {i}")
    result = Transducer(len(classes), t.input_alphabet, t.output_alphabet, delta, omega)
    if not verify(result, task).ok:
        if not verify(t, task).ok:
            raise PreconditionViolated("minimize requires a verifying transducer")
        raise CheckFailed("the minimized transducer does not verify")
    return result
