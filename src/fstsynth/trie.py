"""Classical baseline: prefix trie over the task words, minimized by
merging states with equal labelled subtrees, found bottom-up in one
depth-first pass, with multiple outputs and partial maps. `minimize` and
the clique lower bound in `synth_table` read the same subtree-class table.

Undefined successors are a distinguished class of their own, so a state
with a defined a-successor never merges with one lacking it. Exploiting
such don't-cares is NP-hard in general and is exactly what the exact
search engine does instead; the baseline stays the textbook algorithm.
"""

from __future__ import annotations

from typing import Optional

from .core import CheckFailed, FstError, TaskSpec, Transducer, verify


def build_trie(task: TaskSpec) -> Transducer:
    """One state per distinct prefix of the task words (state 0 is the
    empty prefix), numbered in order of first appearance; outputs defined
    exactly on full-word states. The cells grow as one flat list, cell
    q * k + a, a blank row appended per new state."""
    k = len(task.input_alphabet)
    sym_index = {s: i for i, s in enumerate(task.input_alphabet)}
    blank = (None,) * k
    cells: list[Optional[int]] = list(blank)
    omega: list[Optional[str]] = [None]
    for word, out in task.pairs:
        q = 0
        for sym in word:
            cell = q * k + sym_index[sym]
            r = cells[cell]
            if r is None:
                r = cells[cell] = len(omega)
                cells += blank
                omega.append(None)
            q = r
        omega[q] = out  # TaskSpec rules out conflicting assignments
    rows = zip(*[iter(cells)] * k)  # k cells at a time, as tuples
    return Transducer(len(omega), task.input_alphabet, task.output_alphabet, tuple(rows), omega)


def subtree_classes(t: Transducer) -> tuple[list[int], list[tuple]]:
    """The states of the acyclic t grouped by labelled subtree, in one
    depth-first pass: (cls, classes), where cls[q] is the class of state q
    and classes[c] is (output, successor classes with -1 for undefined).
    A state is classed after its successors, so a class is numbered after
    theirs. Roots go from the highest state down: `build_trie` numbers each
    child after its parent, so in a trie every successor of a root is
    classed already and the root is classed at once. A state with a
    successor not classed yet waits on an explicit path, and a successor
    that is itself waiting raises FstError (a cycle)."""
    delta, omega = t.delta, t.omega
    cls = [-2] * t.n_states  # -2: not classed yet
    waiting = bytearray(t.n_states)  # set once a state waits; unclassed and set: on the path
    signatures: dict[tuple, int] = {}
    path: list[int] = []  # the waiting states above u, empty between roots
    for root in range(t.n_states - 1, -1, -1):
        u = root if cls[root] == -2 else None
        while u is not None:
            succ = tuple([-1 if c is None else cls[c] for c in delta[u]])
            if -2 in succ:  # u waits on its first successor not classed yet
                waiting[u] = 1
                c = delta[u][succ.index(-2)]
                if waiting[c]:
                    raise FstError("the transducer has a cycle")
                path.append(u)
                u = c
            else:
                cls[u] = signatures.setdefault((omega[u], succ), len(signatures))
                u = path.pop() if path else None
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
    one depth-first pass (Revuz, TCS 1992) and are numbered in
    `breadth_first` order from the initial class; a cycle raises FstError.
    Each class takes the row and output of its first state through the
    quotient map, and every later state must agree, so the map is a
    morphism and the quotient gives t's output on every word; t is walked
    through the task only when the quotient fails to verify: FstError if t
    does not verify either, else CheckFailed."""
    cls, classes = subtree_classes(t)
    order = list(breadth_first(cls, classes))
    if len(order) < len(classes):  # unreachable classes (none for tries) go after, in state order
        order = list(dict.fromkeys(order + cls))
    number = [0] * len(classes)
    for i, c in enumerate(order):
        number[c] = i
    image = [number[c] for c in cls]
    # the quotient map must be a transducer morphism
    omega: list[Optional[str]] = [None] * len(classes)
    delta: list[Optional[list]] = [None] * len(classes)
    for q, (out, row) in enumerate(zip(t.omega, t.delta)):
        i = image[q]
        mapped = [None if s is None else image[s] for s in row]
        if delta[i] is None:
            delta[i], omega[i] = mapped, out
        elif out != omega[i] or mapped != delta[i]:
            raise CheckFailed(f"state {q} does not agree with its class {i}")
    result = Transducer(len(classes), t.input_alphabet, t.output_alphabet, delta, omega)
    if not verify(result, task).ok:
        if not verify(t, task).ok:
            raise FstError("minimize requires a verifying transducer")
        raise CheckFailed("the minimized transducer does not verify")
    return result
