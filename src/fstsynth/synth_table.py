"""Exact minimal-transducer synthesis over transition-table variables.

One decision per transition-table cell; outputs are bound as constraints the
first time a word ends in a state. Search is chronological backtracking
driven by word simulation, with interchangeable-state symmetry breaking:
when branching on an unassigned cell, candidate successors are limited to
the states already in use plus one fresh state. Every solution has a
canonical representative under 0-fixing relabeling, so an exhausted search
is a valid unsatisfiability certificate.

Some levels need no search: prefixes that pairwise reach different outputs
under a common suffix must all reach distinct states, so a clique of such
prefixes certifies every state count below its size.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from .core import CheckFailed, FstError, TaskSpec, Transducer, Word, totalize, trajectory, verify
from .trie import breadth_first, build_trie, subtree_classes


class BudgetExhausted(FstError):
    def __init__(self, kind: str, n: int, stats: "SearchStats"):
        self.kind = kind  # "nodes" or "time"
        self.n = n
        self.stats = stats  # partial counts of the level that ran out
        super().__init__(f"{kind} budget exhausted while searching at {n} states")


class NoSolutionWithin(FstError):
    def __init__(self, max_states: int, trail: tuple = ()):
        self.max_states = max_states
        self.trail = trail  # the UNSAT outcomes up to max_states, if searched
        super().__init__(f"no solution with at most {max_states} states")


@dataclass(frozen=True)
class SearchConfig:
    max_states: int = 16
    node_budget: Optional[int] = None
    time_budget: Optional[float] = None

    def __post_init__(self):
        if self.max_states < 1:
            raise FstError("max_states must be >= 1")
        if any(b is not None and not b >= 0 for b in (self.node_budget, self.time_budget)):
            raise FstError("budgets must be >= 0")


@dataclass(frozen=True)
class SearchStats:
    nodes: int
    backtracks: int
    seconds: float


@dataclass(frozen=True)
class SearchOutcome:
    """Either a verified witness at n states or a certificate that no
    n-state transducer realizes the task: an exhausted search, or a clique
    of more than n pairwise-incompatible prefixes (then stats are zero)."""

    n: int
    witness: Optional[Transducer]
    stats: SearchStats
    clique: tuple[Word, ...] = ()

    @property
    def sat(self) -> bool:
        return self.witness is not None


def lower_bound(task: TaskSpec) -> int:
    """No transducer with fewer states than the number of distinct outputs
    demanded by the pairs can realize the task (omega is a function)."""
    return max(1, len(task.used_outputs()))


def variable_count(n: int, alphabet_size: int) -> int:
    """Decision-variable count of this encoding: n transition cells per
    input symbol plus one output per state."""
    if n < 1 or alphabet_size < 1:
        raise FstError("n and alphabet_size must be >= 1")
    return n * (alphabet_size + 1)


def search_space_size(n: int, alphabet_size: int, output_size: int) -> int:
    """Raw assignment count: n^(n*|I|) * |O|^n."""
    if min(n, alphabet_size, output_size) < 1:
        raise FstError("all arguments must be >= 1")
    return n ** (n * alphabet_size) * output_size**n


class _Budget:
    """Node and time limits of one level. `check` raises BudgetExhausted at
    a limit and returns the node count to call it at next: one past the node
    limit or 4096 on, as a clock read per node would dominate. The search
    counts its own nodes; the clique search calls `tick` once per node."""

    __slots__ = ("node_limit", "start", "deadline", "nodes", "next_check", "n")

    def __init__(self, cfg: SearchConfig, n: int):
        self.node_limit = cfg.node_budget if cfg.node_budget is not None else float("inf")
        self.start = time.monotonic()
        self.deadline = self.start + cfg.time_budget if cfg.time_budget is not None else None
        self.nodes = 0
        self.next_check = min(self.node_limit + 1, 4096)
        self.n = n

    def check(self, nodes: int, backtracks: int) -> int:
        if nodes > self.node_limit:
            raise BudgetExhausted("nodes", self.n, self.stats(nodes, backtracks))
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExhausted("time", self.n, self.stats(nodes, backtracks))
        return min(self.node_limit + 1, nodes + 4096)

    def tick(self):
        self.nodes += 1
        if self.nodes >= self.next_check:
            self.next_check = self.check(self.nodes, 0)  # the clique search withdraws no choice

    def stats(self, nodes: int, backtracks: int) -> SearchStats:
        return SearchStats(nodes, backtracks, time.monotonic() - self.start)


def synthesize_at(task: TaskSpec, n: int, cfg: SearchConfig = SearchConfig()) -> SearchOutcome:
    """Search for an n-state transducer realizing every task pair.

    Returns a SAT outcome with a total, verified witness, or an UNSAT
    outcome only after exhausting the symmetry-reduced space.

    The depth-first search keeps its open choices on an explicit stack: a
    transition cell as (row, symbol, step, hi, candidate, cap), an output
    binding as (state,). The steps come from the prefix trie `build_trie`
    builds: per word in task order, the trie edges no earlier word walked
    as (parent node, symbol, child node), then the word's end as (its
    node, -1, its output). Within a word each step leaves the node the
    step before reached; a word's first step leaves the state recorded at
    its parent node, which stays valid while the word is open: the cells
    on the way there stay bound, and walking bound cells counts no node
    and cannot raise hi, the highest state in use. A node is counted per
    candidate, per output binding and per word end with a matching output;
    a backtrack each time a candidate or a binding is withdrawn.
    """
    if n < 1:
        raise FstError("n must be >= 1")
    trie = build_trie(task)
    idx = trie.symbol_index
    parent: list[int] = []
    symbol: list[int] = []
    child: list = []  # a node, or the output at a word's end
    seen = [True] + [False] * (trie.n_states - 1)
    for word, out in task.pairs:
        states = trajectory(trie, word)
        for p, s, c in zip(states, word, states[1:]):
            if not seen[c]:
                seen[c] = True
                parent.append(p)
                symbol.append(idx[s])
                child.append(c)
        parent.append(states[-1])
        symbol.append(-1)
        child.append(out)
    state_at = [0] * trie.n_states

    delta: list[list[Optional[int]]] = [[None] * len(idx) for _ in range(n)]
    omega: list[Optional[str]] = [None] * n
    budget = _Budget(cfg, n)
    next_check = budget.next_check
    nodes = backtracks = 0
    stack: list[tuple] = []
    e = q = hi = 0
    last = len(symbol)
    sat = False
    while True:
        nodes += 1
        if nodes >= next_check:
            next_check = budget.check(nodes, backtracks)
        if e == last:
            sat = True
            break
        a = symbol[e]
        while a >= 0:  # walk the bound cells; a word's end step stops it
            nxt = delta[q][a]
            if nxt is None:
                break
            q = state_at[child[e]] = nxt
            e += 1
            a = symbol[e]
        if a >= 0:  # an unbound cell: try candidate 0 first
            row = delta[q]
            row[a] = 0
            stack.append((row, a, e, hi, 0, min(hi + 1, n - 1)))
            q = state_at[child[e]] = 0
            e += 1
            continue
        have = omega[q]
        if have is None or have == child[e]:  # on to the next word
            if have is None:
                omega[q] = child[e]
                stack.append((q,))
            e += 1
            q = state_at[parent[e]] if e < last else 0
            continue
        # a dead end: withdraw choices until one has a candidate left
        while stack:
            frame = stack.pop()
            backtracks += 1
            if len(frame) == 1:
                omega[frame[0]] = None
            elif frame[4] < frame[5]:
                row, a, e, hi, cand, cap = frame
                cand += 1
                row[a] = cand
                stack.append((row, a, e, hi, cand, cap))
                if cand > hi:
                    hi = cand
                q = state_at[child[e]] = cand
                e += 1
                break
            else:
                frame[0][frame[1]] = None
        else:
            break
    stats = budget.stats(nodes, backtracks)
    if not sat:
        return SearchOutcome(n=n, witness=None, stats=stats)
    witness = totalize(Transducer(n, task.input_alphabet, task.output_alphabet, delta, omega))
    if not verify(witness, task).ok:
        raise CheckFailed("search produced a non-verifying witness")
    return SearchOutcome(n=n, witness=witness, stats=stats)


def _bits(x: int):
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def _max_clique(adj: list[int], budget: _Budget) -> list[int]:
    """A maximum clique of the graph with bitset adjacency `adj`: a greedy
    start, then depth-first branch and bound. Each node ticks `budget`."""
    best: list[int] = []
    cand = (1 << len(adj)) - 1
    while cand:  # greedy: the candidate with the most candidate neighbours
        v = max(_bits(cand), key=lambda u: (adj[u] & cand).bit_count())
        best.append(v)
        cand &= adj[v]
    stack = [((), (1 << len(adj)) - 1)]
    while stack:
        clique, cand = stack.pop()
        budget.tick()
        if len(clique) + cand.bit_count() <= len(best):
            continue
        if not cand:
            best = list(clique)
            continue
        v = cand.bit_length() - 1
        stack.append((clique, cand ^ (1 << v)))
        stack.append((clique + (v,), cand & adj[v]))
    return best


def check_clique(task: TaskSpec, clique: tuple[Word, ...]) -> None:
    """Raise CheckFailed unless every two prefixes in `clique` have a
    common suffix that completes both to task words with different
    outputs."""
    outputs = dict(task.pairs)
    for i, p in enumerate(clique):
        for r in clique[:i]:
            if not any(
                word[: len(p)] == p and outputs.get(r + word[len(p) :], out) != out
                for word, out in task.pairs
            ):
                raise CheckFailed(f"clique prefixes {p!r} and {r!r} are compatible")


def incompatibility_clique(task: TaskSpec, budget: Optional[_Budget] = None) -> tuple[Word, ...]:
    """A largest set of pairwise-incompatible prefixes of the task words,
    one shortest prefix per member. Two prefixes are incompatible when some
    common suffix completes both to task words with different outputs; a
    realization must send them to distinct states, so no machine has fewer
    states than the clique has members (Heule & Verwer, ICGI 2010).

    The graph has one vertex per class of the prefix trie's subtree
    table, numbered as `trie.minimize` numbers its states: prefixes in one
    class share their suffix function, so the largest clique is the same.
    Pair tests and branch-and-bound nodes tick `budget`."""
    if budget is None:
        budget = _Budget(SearchConfig(), 0)
    cls, classes = subtree_classes(build_trie(task))
    parent = breadth_first(cls, classes)
    order = list(parent)
    vertex = {c: i for i, c in enumerate(order)}
    # u and v are incompatible if both have outputs that differ, or some
    # shared symbol leads to an incompatible pair of children, whose row
    # is complete because classes are numbered children first (no class
    # is incompatible with itself)
    adj = [0] * len(classes)
    for u, (ou, su) in enumerate(classes):
        row = 0
        for v, (ov, sv) in enumerate(classes[:u]):
            budget.tick()
            if (ou is not None and ov is not None and ou != ov) or any(
                cu >= 0 and cv >= 0 and adj[vertex[cu]] >> vertex[cv] & 1 for cu, cv in zip(su, sv)
            ):
                row |= 1 << vertex[v]
        adj[vertex[u]] |= row
        for v in _bits(row):
            adj[v] |= 1 << vertex[u]
    members = []
    for v in _max_clique(adj, budget):
        # the first shortest word to the class, spelled back from its parents
        word, c = [], order[v]
        while parent[c] is not None:
            p = parent[c]
            word.append(task.input_alphabet[classes[p][1].index(c)])
            c = p
        members.append(tuple(reversed(word)))
    clique = tuple(sorted(members, key=lambda w: (len(w), w)))
    check_clique(task, clique)
    return clique


def synthesize_minimal(
    task: TaskSpec,
    cfg: SearchConfig = SearchConfig(),
    engine=synthesize_at,
) -> tuple[int, Transducer, list[SearchOutcome]]:
    """Iterative deepening on the state count, starting from the output
    lower bound. Returns (n_min, witness, UNSAT trail below n_min).

    When the level at the output bound is UNSAT, the incompatibility
    clique is computed once; the levels below its size enter the trail
    certified by it, without a search."""
    lo = lower_bound(task)
    if cfg.max_states < lo:
        raise NoSolutionWithin(cfg.max_states)
    unsat_trail: list[SearchOutcome] = []
    clique: tuple[Word, ...] = ()
    for n in range(lo, cfg.max_states + 1):
        if n < len(clique):
            unsat_trail.append(
                SearchOutcome(n=n, witness=None, stats=SearchStats(0, 0, 0.0), clique=clique)
            )
            continue
        outcome = engine(task, n, cfg)
        if outcome.sat:
            return n, outcome.witness, unsat_trail
        unsat_trail.append(outcome)
        if n == lo:
            clique = incompatibility_clique(task, _Budget(cfg, n + 1))
    raise NoSolutionWithin(cfg.max_states, tuple(unsat_trail))
