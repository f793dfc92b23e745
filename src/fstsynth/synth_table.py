"""Exact minimal-transducer synthesis over transition-table variables.

The search places the nodes of the prefix trie on states, binding one
transition cell per decision: fail-first, ties to the cell that routes the
most task words (Brélaz's degree rule, CACM 1979). At the output count it
walks the trie itself; above it, the DAG of the trie's subtree classes
(Revuz, TCS 1992), as all it reads of a node is fixed by its class. Every
placement is checked against the prefixes already on its state: two
prefixes that a common suffix completes to different outputs never share
one (Heule & Verwer, ICGI 2010). Candidate states are those in use plus
one fresh state, so an exhausted search is a valid unsatisfiability
certificate, and a clique of such prefixes certifies every state count
below its size with no search.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from .core import CheckFailed, FstError, TaskSpec, Transducer, Word, verify
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


def search_space_text(n: int, alphabet_size: int, output_size: int) -> str:
    """search_space_size in decimal or, when the decimal has more digits
    than the interpreter converts (`sys.get_int_max_str_digits`), as the
    product n^(n*|I|)*|O|^n."""
    try:
        return str(search_space_size(n, alphabet_size, output_size))
    except ValueError:
        return f"{n}^{n * alphabet_size}*{output_size}^{n}"


class _Budget:
    """Node and time limits of one level. A node is a search decision: the
    search counts its own and calls `check`, which raises BudgetExhausted at
    a limit and returns the node count to call it at next, one past the node
    limit or 4096 on, as a clock read per node would dominate. Building the
    class table and growing the clique are not search: they call `clock`,
    which reads the time every 4096 calls, so only the time limit applies to
    them and running out there reports 0 nodes."""

    __slots__ = ("node_limit", "start", "deadline", "clocks", "n")

    def __init__(self, cfg: SearchConfig, n: int):
        self.node_limit = cfg.node_budget if cfg.node_budget is not None else float("inf")
        self.start = time.monotonic()
        self.deadline = self.start + cfg.time_budget if cfg.time_budget is not None else None
        self.clocks = 0  # calls of `clock`
        self.n = n

    def check(self, nodes: int, backtracks: int) -> int:
        if nodes > self.node_limit:
            raise BudgetExhausted("nodes", self.n, self.stats(nodes, backtracks))
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExhausted("time", self.n, self.stats(nodes, backtracks))
        return min(self.node_limit + 1, nodes + 4096)

    def clock(self):
        self.clocks += 1
        if not self.clocks % 4096:
            self.check(0, 0)

    def stats(self, nodes: int, backtracks: int) -> SearchStats:
        return SearchStats(nodes, backtracks, time.monotonic() - self.start)


FRONTIER_POINTS = 4096  # the most frames a level keeps for the next to resume from


class _Tables:
    """What the search and the clique read of one task at every n: its trie,
    the task words through each trie node, once needed the class table, and
    the frontier the last class level searched left, if it was UNSAT."""

    def __init__(self, task: TaskSpec):
        self.trie = build_trie(task)
        self.words = words = [o is not None for o in self.trie.omega]
        for u in range(self.trie.n_states - 1, 0, -1):  # children come after their parents
            for c in self.trie.delta[u]:
                if c is not None:
                    words[u] += words[c]
        self._table: Optional[tuple] = None
        self.frontier: Optional[tuple] = None  # (n, points), see synthesize_at

    def table(self, clock) -> tuple[list[int], list[tuple], list[int], tuple]:
        """`subtree_classes`, their `incompatibility_table` and their
        `class_graph`; only the table build calls `clock`."""
        if self._table is None:
            cls, classes = subtree_classes(self.trie)
            self._table = cls, classes, incompatibility_table(classes, clock), class_graph(classes)
        return self._table


def class_graph(classes: list[tuple]) -> tuple[list, list[int], list[int]]:
    """Per class of `subtree_classes`: its (symbol, child class) pairs with
    undefined children left out, the task words through its subtree (the
    classes are numbered children first) and its bit."""
    kids, words = [], []
    for o, succ in classes:
        pairs = [(a, c) for a, c in enumerate(succ) if c >= 0]
        kids.append(pairs)
        words.append((o is not None) + sum(words[c] for _, c in pairs))
    return kids, words, [1 << c for c in range(len(classes))]


def synthesize_at(task: TaskSpec, n: int, cfg: SearchConfig = SearchConfig(), *, tables=None) -> SearchOutcome:
    """Search for an n-state transducer realizing every task pair.

    Returns a SAT outcome with a verified witness, or an UNSAT outcome
    only after exhausting the symmetry-reduced space; below the output
    count, with no search and a clique of one word per output. The witness
    is partial and already pruned: it defines the cells the search bound
    and the output of each state a task word ends on, nothing else.

    The graph walked is the trie `build_trie` builds at the output count
    and the DAG of its `subtree_classes` above it: there a node's key is its
    class, and its output, its word count and its children's classes are
    fixed by it, so walking class ids (children from `class_graph`) makes
    the decisions walking trie nodes would. The root sits on state 0; every
    other node waits on the cell (its parent's state, its symbol), and
    binding that cell places all its waiting nodes. A state keeps the mask
    of keys its nodes exclude: outputs at the output-count level, classes
    of `incompatibility_table` above it. A placement walks the cell's chain
    from its head, the heaviest node (most task words, ties to the newest:
    a joining node heads if it carries at least the head's words, else goes
    second), each node depth first through bound cells, and fails at the
    first node whose key its state's mask holds (fail-first within the
    placement). The set of nodes placed is fixed by the bound cells and
    incompatibility is symmetric, so the order decides only how soon a
    failing placement stops, never whether it fails.
    Each decision binds the open cell with the fewest admissible states;
    ties go to the cell whose waiting nodes carry the most task words, then
    to the first in (state, symbol) order. Whichever cell is chosen, the
    states not yet used are interchangeable: no cell leaves them, no node
    sits on them and no mask names them. So trying the used states plus one
    fresh state is complete. Choices sit on an explicit stack; a cell's
    waiting nodes form an immutable chain, so a decision undoes itself
    alone, restoring its copy of the chains and masks from before it. The
    scan stops counting a cell's admissible states once the cell can no
    longer be the least. No decision reads a state's output: the masks
    keep the keys that fix it, and a SAT level gives each state the output
    of the task words it ends, walked through the bound cells. A node is
    counted per candidate tried, a backtrack per candidate withdrawn. The
    trie and table come from `tables`, else are built after the level's
    clock starts, so the time budget and the stats cover them (but not a
    table built before the call); building the table is not a node.

    As the fresh state is tried last, the search at n + 1 makes level n's
    decisions in level n's order, but at each frame where all n states are
    in use it then tries state n (the re-expansion of iterative deepening,
    Korf, AIJ 1985). So a class level below `cfg.max_states` that is UNSAT
    leaves in `tables` the frames it popped with all n states in use, in
    the order it popped them (none if there would be more than
    `FRONTIER_POINTS`), and the next level called with those tables starts
    from each of them in turn, trying state n there alone, instead of from
    the root. It makes the same decisions as a search from the root but
    level n's, so its verdict and witness are the same and its stats count
    the nodes and backtracks it adds: UNSAT, they are those of a search
    from the root less level n's. That needs each scan to choose the least
    cell exactly, so a cell that cannot win even with no admissible state
    is skipped uncounted.
    """
    if n < 1:
        raise FstError("n must be >= 1")
    lo = lower_bound(task)
    if n < lo:
        pairs = sorted(task.pairs, key=lambda p: (len(p[0]), p[0]))
        clique = tuple(next(w for w, o in pairs if o == out) for out in task.used_outputs())
        check_clique(task, clique)
        return SearchOutcome(n=n, witness=None, stats=SearchStats(0, 0, 0.0), clique=clique)
    budget = _Budget(cfg, n)
    tables = tables or _Tables(task)
    if n == lo:  # trie nodes, keyed by output: no class table is built here
        trie = tables.trie
        outputs = {o: i for i, o in enumerate(task.output_alphabet, start=1)}
        key = [outputs.get(o, 0) for o in trie.omega]  # 0: no output, excludes nothing
        everything = (1 << len(outputs) + 1) - 2
        adj = [0] + [everything ^ 1 << i for i in outputs.values()]
        bit = [1 << c for c in key]
        excludes = [adj[c] for c in key]
        root, kids, words, each = 0, trie.delta, tables.words, enumerate
    else:  # classes, each its own key
        cls, _, excludes, (kids, words, bit) = tables.table(budget.clock)
        root, each = cls[0], iter
    k = len(task.input_alphabet)
    delta: list[Optional[int]] = [None] * (n * k)  # cell q * k + a
    # per cell, None or (mask of its nodes' keys, words through them, chain),
    # the chain a linked list (node, rest) headed by the heaviest node
    waiting: list[Optional[tuple]] = [None] * (n * k)
    excluded = [0] * n

    def place(chain: Optional[tuple], t: int) -> bool:
        walk: list[tuple[int, int]] = []  # bound children waiting their turn
        while chain is not None:
            u, chain = chain
            q = t
            while True:
                while u >= 0:  # on down the first bound child without the stack
                    ex = excluded[q]
                    if ex & bit[u]:
                        return False
                    excluded[q] = ex | excludes[u]
                    v = r = -1
                    qk = q * k
                    for a, c in each(kids[u]):  # (symbol, child): a trie row, None cells too, or a class's pairs
                        if c is None:
                            continue
                        cell = qk + a
                        s = delta[cell]
                        if s is None:
                            w = words[c]
                            entry = waiting[cell]
                            if entry is None:
                                waiting[cell] = (bit[c], w, (c, None))
                            else:
                                mask, weight, first = entry
                                head, tail = first
                                first = (c, first) if w >= words[head] else (head, (c, tail))
                                waiting[cell] = (mask | bit[c], weight + w, first)
                        elif v < 0:
                            v, r = c, s
                        else:
                            walk.append((c, s))
                    u, q = v, r
                if not walk:
                    break
                u, q = walk.pop()
        return True

    frontier, tables.frontier = tables.frontier, None
    # the root, or the frames level n - 1 popped with all its states in use
    starts = frontier[1] if frontier is not None and frontier[0] == n - 1 else (None,)
    # (cell, waiting, excluded, delta) of each frame this level pops with
    # all n states in use, for level n + 1
    points: Optional[list] = [] if lo < n < cfg.max_states else None
    fresh = (None,) * k
    next_check = min(budget.node_limit + 1, 4096)
    nodes = backtracks = 0
    # [cell, candidates, next index, hi, waiting and excluded before]; the
    # copies are tuples, which the cyclic GC stops tracking
    frames: list[list] = []
    for start in starts:
        if start is None:
            hi = 0
            placed = place((root, None), 0)
        else:  # the frame again, with state n - 1 its one candidate
            cell, was_waiting, was_excluded, was_delta = start
            delta[:] = was_delta + fresh
            frames.append([cell, (n - 1,), 0, n - 2, was_waiting + fresh, was_excluded + (0,)])
            placed = False
        while True:
            if placed:
                top = min(hi + 2, n)
                masks = excluded[:top]  # of the states in use and one fresh state
                # the least (admissible count, -words through the cell, cell);
                # a cell's count stops once it can no longer win
                best_count, best_weight, best = top + 1, 0, None
                for cell in range((hi + 1) * k):
                    entry = waiting[cell]
                    if entry is not None:
                        mask, weight, _ = entry
                        limit = best_count if weight > best_weight else best_count - 1
                        if limit < 0:  # not even a count of 0 would win
                            continue
                        count = 0
                        for ex in masks:
                            if not ex & mask:
                                count += 1
                                if count > limit:
                                    break
                        else:
                            best_count, best_weight, best = count, weight, (cell, mask)
                if best is None:
                    stats = budget.stats(nodes, backtracks)
                    return SearchOutcome(n=n, witness=_witness(task, n, delta), stats=stats)
                cell, mask = best
                candidates = [t for t in range(top) if not excluded[t] & mask]
                frames.append([cell, candidates, 0, hi, tuple(waiting), tuple(excluded)])
            elif not frames:
                break
            frame = frames[-1]
            cell, candidates, i, hi, waiting[:], excluded[:] = frame
            delta[cell] = None
            backtracks += i > 0  # the candidate tried last is withdrawn
            if i == len(candidates):
                frames.pop()
                placed = False
                if hi == n - 1 and points is not None:
                    if len(points) < FRONTIER_POINTS:
                        points.append((cell, frame[4], frame[5], tuple(delta)))
                    else:
                        points = None
                continue
            frame[2] = i + 1
            nodes += 1
            if nodes >= next_check:
                next_check = budget.check(nodes, backtracks)
            t = candidates[i]
            if t > hi:
                hi = t
            delta[cell] = t
            _, _, chain = waiting[cell]
            waiting[cell] = None  # no node waits on a bound cell
            placed = place(chain, t)
    if points is not None:
        tables.frontier = (n, tuple(points))
    return SearchOutcome(n=n, witness=None, stats=budget.stats(nodes, backtracks))


def _witness(task: TaskSpec, n: int, delta: list) -> Transducer:
    """The machine of the bound cells `delta`, verified, with an output on
    each state some task word ends on. Every task word runs on bound cells,
    and the masks kept the outputs of the words ending on one state equal,
    so each such state gets their output. A cell is bound only when a node
    waits on it, so some task word runs through every bound cell and the
    machine is already pruned: `prune` would return it unchanged."""
    k = len(task.input_alphabet)
    rows = [delta[q * k : q * k + k] for q in range(n)]
    step = [dict(zip(task.input_alphabet, row)) for row in rows]
    omega: list[Optional[str]] = [None] * n
    for word, out in task.pairs:
        q = 0
        for a in word:
            q = step[q][a]
        omega[q] = out
    witness = Transducer(n, task.input_alphabet, task.output_alphabet, rows, omega)
    if not verify(witness, task).ok:
        raise CheckFailed("search produced a non-verifying witness")
    return witness


def _bits(x: int):
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def _max_clique(adj: list[int], order: list[int], budget: _Budget) -> list[int]:
    """A clique of the graph with bitset adjacency `adj` over the vertices
    in `order`, grown greedily: each member is the candidate with the most
    candidate neighbours, ties to the first in `order`, and each member
    calls `budget.clock`. Any clique is a valid lower bound; an exact
    maximum costs seconds on tasks of a thousand classes and was no larger
    on any family task."""
    clique: list[int] = []
    cand = sum(1 << v for v in order)
    while cand:
        budget.clock()
        v = max((u for u in order if cand >> u & 1), key=lambda u: (adj[u] & cand).bit_count())
        clique.append(v)
        cand &= adj[v]
    return clique


def check_clique(task: TaskSpec, clique: tuple[Word, ...]) -> None:
    """Raise CheckFailed unless every two prefixes in `clique` have a
    common suffix that completes both to task words with different
    outputs. Each member's {suffix: output} map over the task words it
    prefixes is filled in one pass over the words; a pair is then a lookup
    per suffix."""
    completions: dict[Word, dict] = {p: {} for p in clique}
    lengths = {len(p) for p in clique}
    for word, out in task.pairs:
        for n in lengths:
            mine = completions.get(word[:n])
            if mine is not None:
                mine[word[n:]] = out
    for i, p in enumerate(clique):
        mine = completions[p]
        for r in clique[:i]:
            theirs = completions[r]
            if not any(theirs.get(s, out) != out for s, out in mine.items()):
                raise CheckFailed(f"clique prefixes {p!r} and {r!r} are compatible")


def incompatibility_table(classes: list[tuple], clock) -> list[int]:
    """The incompatibility relation over the classes of `trie.subtree_classes`
    as bitset rows: classes u and v are incompatible if both have outputs
    that differ, or some symbol a leads to an incompatible pair of children.
    Classes are numbered children first, so the rows row u reads are
    complete once the rows before it are built. Its bits below u are the
    classes with another output plus, per a-child cu of u, the union of
    `parents[a][x]` (the classes whose a-child is x) over the x incompatible
    with cu. No class is incompatible with itself. The work grows with the
    classes and the incompatible child pairs, not with all pairs of classes:
    `clock` is called once per row and once per union."""
    by_output: dict[str, int] = {}
    parents = [[0] * len(classes) for _ in classes[0][1]]  # per symbol
    for v, (o, succ) in enumerate(classes):
        if o is not None:
            by_output[o] = by_output.get(o, 0) | 1 << v
        for a, c in enumerate(succ):
            if c >= 0:
                parents[a][c] |= 1 << v
    defined = sum(by_output.values())
    adj = [0] * len(classes)
    for u, (ou, su) in enumerate(classes):
        clock()
        row = 0 if ou is None else defined ^ by_output[ou]
        for a, cu in enumerate(su):
            if cu >= 0:
                column = parents[a]
                for x in _bits(adj[cu]):
                    clock()
                    row |= column[x]
        row &= (1 << u) - 1
        adj[u] = row
        for v in _bits(row):
            adj[v] |= 1 << u
    return adj


def incompatibility_clique(task: TaskSpec, budget: Optional[_Budget] = None, tables=None) -> tuple[Word, ...]:
    """A large set of pairwise-incompatible prefixes of the task words,
    one shortest prefix per member. Two prefixes are incompatible when some
    common suffix completes both to task words with different outputs; a
    realization must send them to distinct states, so no machine has fewer
    states than the clique has members (Heule & Verwer, ICGI 2010).

    The graph is `incompatibility_table` over the classes of the prefix
    trie: prefixes in one class share their suffix function, so a clique of
    classes is one of prefixes. The clique is grown greedily, ties to the
    first class in `trie.breadth_first` order, so it may fall short of the
    largest; the search then refutes the levels in between. Building a table
    not yet built and growing the clique call `budget.clock`: only its time
    limit applies, as neither is a search node."""
    if budget is None:
        budget = _Budget(SearchConfig(), 0)
    cls, classes, table, _ = (tables or _Tables(task)).table(budget.clock)
    parent = breadth_first(cls, classes)
    members = []
    for c in _max_clique(table, list(parent), budget):
        # the first shortest word to the class, spelled back from its parents
        word = []
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
    certified by it, without a search. One `_Tables` serves every level, as
    `engine(task, n, cfg, tables=...)`, and the clique, which builds the table."""
    lo = lower_bound(task)
    if cfg.max_states < lo:
        raise NoSolutionWithin(cfg.max_states)
    tables = _Tables(task)
    unsat_trail: list[SearchOutcome] = []
    clique: tuple[Word, ...] = ()
    for n in range(lo, cfg.max_states + 1):
        if n < len(clique):
            unsat_trail.append(
                SearchOutcome(n=n, witness=None, stats=SearchStats(0, 0, 0.0), clique=clique)
            )
            continue
        outcome = engine(task, n, cfg, tables=tables)
        if outcome.sat:
            return n, outcome.witness, unsat_trail
        unsat_trail.append(outcome)
        if n == lo:
            clique = incompatibility_clique(task, _Budget(cfg, n + 1), tables)
    raise NoSolutionWithin(cfg.max_states, tuple(unsat_trail))
