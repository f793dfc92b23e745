"""Alternative synthesis encoding: one decision variable per trajectory
position rather than per table cell.

Each word contributes |word| state variables (position 0 is pinned to the
initial state). Functionality is the constraint: whenever one occurrence of
(state, symbol) goes to some successor, every other occurrence must agree.
Trajectories ending in the same state must demand the same output. Witnesses
come out partial directly, assembled from the bindings the trajectories
induce. Variable count grows with the total length of the input words, so
this engine falls behind the table encoding quickly; it is kept for
cross-validation.
"""

from __future__ import annotations

from typing import Optional

from .core import CheckFailed, FstError, TaskSpec, Transducer, verify
from .synth_table import (
    SearchConfig,
    SearchOutcome,
    _Budget,
    ordered_pairs,
)


def trajectory_variable_count(task: TaskSpec) -> int:
    """Total number of free trajectory variables: the summed word length."""
    return sum(len(w) for w, _ in task.pairs)


def synthesize_at_traj(
    task: TaskSpec, n: int, cfg: SearchConfig = SearchConfig()
) -> SearchOutcome:
    """Search over trajectory assignments for an n-state realization.

    SAT/UNSAT verdicts agree with the table engine; the witness is the
    partial transducer the satisfying trajectories induce.
    """
    if n < 1:
        raise FstError("n must be >= 1")
    alphabet = task.input_alphabet
    k = len(alphabet)
    sym_index = {s: i for i, s in enumerate(alphabet)}
    pairs = ordered_pairs(task, cfg.word_order)
    words = [tuple(sym_index[s] for s in w) for w, _ in pairs]
    outs = [out for _, out in pairs]

    # bindings induced by the trajectory variables assigned so far
    delta: list[list[Optional[int]]] = [[None] * k for _ in range(n)]
    omega: list[Optional[str]] = [None] * n
    budget = _Budget(cfg, n)
    # open choices, as in the table engine: a cell (state, symbol, word
    # index, position, hi, candidate, cap), an output binding (state,), or
    # () for a position whose cell is bound, which admits one value only
    stack: list[tuple] = []
    pi = pos = q = hi = 0
    sat = False
    while True:
        budget.tick()
        if pi == len(words):
            sat = True
            break
        word = words[pi]
        if pos < len(word):
            a = word[pos]
            bound = delta[q][a]
            if bound is None:  # branch over every value, 0 first
                delta[q][a] = 0
                stack.append((q, a, pi, pos, hi, 0, min(hi + 1, n - 1)))
                q = 0
            else:  # the functionality constraint rejects all values but one
                stack.append(())
                q = bound
                hi = max(hi, bound)
            pos += 1
            continue
        have = omega[q]
        if have is None or have == outs[pi]:  # on to the next word
            if have is None:
                omega[q] = outs[pi]
                stack.append((q,))
            pi += 1
            pos = q = 0
            continue
        # a dead end: withdraw choices until one has a value left
        while stack:
            frame = stack.pop()
            budget.backtracks += 1
            if len(frame) == 1:
                omega[frame[0]] = None
            elif frame and frame[5] < frame[6]:
                q, a, pi, pos, hi, cand, cap = frame
                cand += 1
                delta[q][a] = cand
                stack.append((q, a, pi, pos, hi, cand, cap))
                q = cand
                hi = max(hi, cand)
                pos += 1
                break
            elif frame:
                delta[frame[0]][frame[1]] = None
        else:
            break

    stats = budget.stats()
    if not sat:
        return SearchOutcome(n=n, witness=None, stats=stats)
    witness = Transducer(
        n,
        alphabet,
        task.output_alphabet,
        tuple(tuple(row) for row in delta),
        tuple(omega),
    )
    if not verify(witness, task).ok:
        raise CheckFailed("search produced a non-verifying witness")
    return SearchOutcome(n=n, witness=witness, stats=stats, total=False)
