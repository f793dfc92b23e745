"""Brute-force ground truth for tiny instances.

Enumerates the raw assignment cube with no symmetry breaking: delta cells
in row-major order, omega last. Its only virtue is independence from the
search engine's cleverness; a size cap keeps it honest.
"""

from __future__ import annotations

import itertools
from typing import Optional

from .core import CheckFailed, FstError, TaskSpec, Transducer, verify
from .synth_table import NoSolutionWithin, search_space_size

DEFAULT_CAP = 10**8


def oracle_sat(
    task: TaskSpec, n: int, cap: int = DEFAULT_CAP
) -> tuple[bool, Optional[Transducer]]:
    """Whether some total n-state transducer (initial state 0) realizes the
    task, with the first witness in enumeration order."""
    k = len(task.input_alphabet)
    sym_index = {s: i for i, s in enumerate(task.input_alphabet)}
    size = search_space_size(n, k, len(task.output_alphabet))
    if size > cap:
        raise FstError(f"enumeration size {size} exceeds cap {cap}")
    words = [tuple(sym_index[s] for s in w) for w, _ in task.pairs]
    outs = [out for _, out in task.pairs]

    for flat in itertools.product(range(n), repeat=n * k):
        delta = [flat[q * k : (q + 1) * k] for q in range(n)]
        # the final states fix omega where it matters; the remaining
        # entries take the first output value, which is exactly the first
        # omega vector in enumeration order
        omega: list[Optional[str]] = [None] * n
        ok = True
        for word, out in zip(words, outs):
            q = 0
            for a in word:
                q = delta[q][a]
            if omega[q] is None:
                omega[q] = out
            elif omega[q] != out:
                ok = False
                break
        if ok:
            omega_full = tuple(
                o if o is not None else task.output_alphabet[0] for o in omega
            )
            witness = Transducer(n, task.input_alphabet, task.output_alphabet, delta, omega_full)
            if not verify(witness, task).ok:
                raise CheckFailed("oracle produced a non-verifying witness")
            return True, witness
    return False, None


def oracle_min(task: TaskSpec, max_n: int, cap: int = DEFAULT_CAP) -> int:
    """Least state count realizing the task, by exhaustive probing."""
    for n in range(1, max_n + 1):
        sat, _ = oracle_sat(task, n, cap=cap)
        if sat:
            return n
    raise NoSolutionWithin(max_n)
