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

    def solve(pi: int, pos: int, q: int, hi: int) -> bool:
        budget.tick()
        if pi == len(words):
            return True
        word = words[pi]
        if pos == len(word):
            required = outs[pi]
            if omega[q] is None:
                omega[q] = required
                if solve(pi + 1, 0, 0, hi):
                    return True
                omega[q] = None
                budget.backtracks += 1
                return False
            if omega[q] != required:
                return False
            return solve(pi + 1, 0, 0, hi)
        a = word[pos]
        bound = delta[q][a]
        cap = min(hi + 1, n - 1)
        # branch over every value of this trajectory variable; the
        # functionality constraint rejects all but one when already bound
        for cand in range(cap + 1):
            if bound is not None:
                if cand != bound:
                    continue
                if solve(pi, pos + 1, cand, max(hi, cand)):
                    return True
                budget.backtracks += 1
            else:
                delta[q][a] = cand
                if solve(pi, pos + 1, cand, max(hi, cand)):
                    return True
                delta[q][a] = None
                budget.backtracks += 1
        return False

    sat = solve(0, 0, 0, 0)
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
