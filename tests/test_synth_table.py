import hashlib
import random
import sys

import pytest
from hypothesis import given, settings

from conftest import load_script, sorted_pairs, tiny_tasks
from fstsynth import synth_table
from fstsynth.core import FstError, TaskSpec, Transducer, prune, totalize, verify
from fstsynth.oracle import oracle_sat
from fstsynth.serialize import serialize_transducer
from fstsynth.synth_table import (
    BudgetExhausted,
    _Budget,
    NoSolutionWithin,
    SearchConfig,
    lower_bound,
    search_space_size,
    synthesize_at,
    synthesize_minimal,
    variable_count,
)
from fstsynth.tasks import (
    gen_palindrome,
    gen_parity,
    gen_signal_locator,
    gen_zeroes_or_ones,
    word_classification,
)

random_target = load_script("scripts/stress.py").random_target


def w(s):
    return tuple(s)


class TestBounds:
    def test_parity_lower_bound(self):
        assert lower_bound(gen_parity(2)) == 2

    def test_word_classification_lower_bound(self):
        assert lower_bound(word_classification()) == 3

    def test_single_pair(self):
        assert lower_bound(TaskSpec(("0",), ("r",), ((w("0"), "r"),))) == 1

    def test_variable_count(self):
        assert variable_count(5, 2) == 15
        assert variable_count(1, 1) == 2
        assert variable_count(3, 17) == 54

    def test_search_space_size(self):
        assert search_space_size(5, 2, 3) == 5**10 * 3**5
        assert search_space_size(5, 2, 2) == 5**10 * 2**5
        assert search_space_size(1, 1, 1) == 1

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: SearchConfig(max_states=0), "max_states must be >= 1"),
            (lambda: synthesize_at(gen_parity(2), 0), "n must be >= 1"),
            (lambda: variable_count(0, 1), "n and alphabet_size must be >= 1"),
        ],
        ids=["max-states", "synthesize-at", "variable-count"],
    )
    def test_sizes_below_one_are_refused(self, call, message):
        with pytest.raises(FstError, match=f"^{message}$"):
            call()


class TestSynthesizeAt:
    def test_parity_at_two(self):
        out = synthesize_at(gen_parity(2), 2)
        assert out.sat and prune(out.witness, gen_parity(2)) == out.witness
        assert verify(out.witness, gen_parity(2)).ok

    def test_signal_locator_at_four_unsat(self):
        out = synthesize_at(gen_signal_locator(9, 3), 4)
        assert not out.sat

    def test_signal_locator_at_five_sat(self):
        out = synthesize_at(gen_signal_locator(9, 3), 5)
        assert out.sat and verify(out.witness, gen_signal_locator(9, 3)).ok

    def test_two_outputs_unsat_at_one(self):
        out = synthesize_at(gen_parity(1), 1)
        assert not out.sat

    def test_monotone_by_padding(self):
        # a SAT witness at n stays a witness at n+1 with an unreachable state
        task = gen_parity(2)
        t = synthesize_at(task, 2).witness
        padded = Transducer(
            3,
            t.input_alphabet,
            t.output_alphabet,
            t.delta + ((2, 2),),
            t.omega + (t.output_alphabet[0],),
        )
        assert verify(padded, task).ok
        assert synthesize_at(task, 3).sat

    def test_deterministic_node_counts(self):
        task = gen_zeroes_or_ones(4)
        a = synthesize_at(task, 4)
        b = synthesize_at(task, 4)
        assert a.witness == b.witness
        assert a.stats.nodes == b.stats.nodes
        assert a.stats.backtracks == b.stats.backtracks

    def test_word_orders_agree_on_verdict(self):
        task = gen_palindrome(3)
        verdicts = {
            synthesize_at(sorted_pairs(task, key), 3).sat
            for key in (lambda p: 0, lambda p: len(p[0]), lambda p: -len(p[0]))
        }
        assert len(verdicts) == 1

    def test_node_budget(self):
        with pytest.raises(BudgetExhausted):
            synthesize_at(
                gen_signal_locator(9, 3), 5, SearchConfig(node_budget=10)
            )

    def test_budget_carries_partial_stats(self):
        with pytest.raises(BudgetExhausted) as info:
            synthesize_at(gen_signal_locator(9, 3), 5, SearchConfig(node_budget=10))
        assert info.value.n == 5
        assert info.value.stats.nodes == 11
        assert 0 <= info.value.stats.backtracks <= 11
        assert info.value.stats.seconds >= 0


ENDS_INSIDE = (("0101", "x"), ("01", "y"), ("1", "z"), ("010", "x"), ("11", "y"), ("0", "z"))
EXTENDS = (("01", "x"), ("0110", "y"), ("011", "z"), ("01101", "x"), ("1", "y"), ("10", "z"))


class TestSearchCore:
    """The fail-first, forward-checking search: its counts per level, and
    its budget."""

    @pytest.mark.parametrize(
        "task, n, table",
        [
            (gen_palindrome(4), 4, (52, 52)),
            (gen_zeroes_or_ones(4), 3, (36, 36)),
            (gen_signal_locator(8, 4), 5, (246, 246)),
            (gen_signal_locator(9, 3), 5, (192, 183)),
            (word_classification(), 3, (42, 13)),
            # deep levels, undone across many decisions
            (gen_palindrome(5), 7, (1_534, 1_534)),
            (gen_palindrome(6), 8, (4_035, 4_035)),
            (gen_palindrome(6), 9, (12_451, 12_451)),
            (gen_palindrome(6), 10, (7_354, 7_334)),
            (gen_palindrome(7), 11, (42_135, 42_135)),
            # the witness workload: the output count, then the class DAG
            (gen_signal_locator(12, 4), 4, (105, 105)),
            (gen_signal_locator(12, 4), 5, (207, 207)),
            (gen_signal_locator(12, 4), 6, (421, 421)),
            (gen_signal_locator(12, 4), 7, (215, 205)),
            (gen_signal_locator(10, 5), 5, (247, 247)),
            (gen_signal_locator(10, 5), 6, (511, 511)),
            (gen_signal_locator(10, 5), 7, (67, 58)),
            # the other levels the benchmark searches
            (gen_palindrome(4), 2, (9, 9)),
            (gen_palindrome(4), 5, (21, 11)),
            (gen_zeroes_or_ones(4), 4, (8, 0)),
            (gen_signal_locator(8, 4), 4, (100, 100)),
            (gen_signal_locator(8, 4), 6, (179, 170)),
            (gen_zeroes_or_ones(8), 3, (94, 94)),
            (gen_zeroes_or_ones(8), 6, (12, 0)),
            (gen_palindrome(5), 2, (9, 9)),
            (gen_palindrome(5), 4, (48, 48)),
            (gen_palindrome(5), 5, (98, 98)),
            (gen_palindrome(5), 6, (305, 305)),
            (gen_signal_locator(9, 3), 3, (40, 40)),
            (gen_signal_locator(9, 3), 4, (93, 93)),
            (gen_zeroes_or_ones(6), 3, (65, 65)),
            (gen_zeroes_or_ones(6), 5, (10, 0)),
            (gen_parity(9), 2, (4, 0)),
            (gen_parity(10), 2, (4, 0)),
        ],
        ids=["pal4-4", "zo4-3", "sl8-4-5", "sl9-3-5", "words-3", "pal5-7", "pal6-8", "pal6-9", "pal6-10",
             "pal7-11", "sl12-4-4", "sl12-4-5", "sl12-4-6", "sl12-4-7", "sl10-5-5", "sl10-5-6", "sl10-5-7",
             "pal4-2", "pal4-5", "zo4-4", "sl8-4-4", "sl8-4-6", "zo8-3", "zo8-6", "pal5-2", "pal5-4", "pal5-5",
             "pal5-6", "sl9-3-3", "sl9-3-4", "zo6-3", "zo6-5", "par9-2", "par10-2"],
    )
    def test_pinned_counts(self, task, n, table):
        stats = synthesize_at(task, n).stats
        assert (stats.nodes, stats.backtracks) == table

    def test_pinned_deep_witness(self):
        # sha256 of the FST/1 text of the palindrome 6 witness at 10 states
        witness = synthesize_at(gen_palindrome(6), 10).witness
        digest = hashlib.sha256(serialize_transducer(witness).encode()).hexdigest()
        assert digest == "c6dac165cf9d492761bc2683bf50df4c7e857365acd3ff8f5e7c0c2b56c03b9d"

    def test_pinned_class_dag_witness(self):
        # sha256 of the FST/1 text of the signal locator 12-4 witness at 7
        # states, found walking the class DAG, with its holes filled
        witness = totalize(synthesize_at(gen_signal_locator(12, 4), 7).witness)
        digest = hashlib.sha256(serialize_transducer(witness).encode()).hexdigest()
        assert digest == "fb13f081e07c29394e86d898d520e997bbe5e086a921bcbc0de0a9b7ac4611ec"

    @pytest.mark.parametrize(
        "pairs, n, table, delta, omega",
        [
            # 01, 010 and 0 end on nodes 0101 made
            (ENDS_INSIDE, 3, (6, 6), None, None),
            (ENDS_INSIDE, 4, (5, 0), ((1, 1), (1, 2), (3, 2), (3, 0)), ("x", "z", "y", "x")),
            # 0110 extends the end of 01, 01101 that of 011; 2 states are
            # below the output count, refuted with no search
            (EXTENDS, 2, (0, 0), None, None),
            (EXTENDS, 3, (12, 7), ((1, 1), (0, 2), (2, 0)), ("z", "y", "x")),
        ],
        ids=["ends-inside-3", "ends-inside-4", "extends-2", "extends-3"],
    )
    def test_pinned_trie_order(self, pairs, n, table, delta, omega):
        task = TaskSpec(("0", "1"), ("x", "y", "z"), tuple((w(word), out) for word, out in pairs))
        outcome = synthesize_at(task, n)
        assert (outcome.stats.nodes, outcome.stats.backtracks) == table
        if delta is None:
            assert not outcome.sat
        else:
            witness = totalize(outcome.witness)  # the table with its holes filled
            assert (witness.delta, witness.omega) == (delta, omega)

    def test_no_recursion_limit(self):
        task = gen_parity(12)
        assert len(task.pairs) == 4096 > sys.getrecursionlimit()
        n_min, witness, trail = synthesize_minimal(task)
        assert n_min == 2 and trail == []
        assert verify(witness, task).ok

    @pytest.mark.parametrize("budget", [1, 4095, 4096, 100_000])
    def test_node_budget_is_exact(self, budget):
        # palindrome 7 at 12 states takes 129,797 nodes
        with pytest.raises(BudgetExhausted) as info:
            synthesize_at(gen_palindrome(7), 12, SearchConfig(node_budget=budget))
        assert info.value.kind == "nodes"
        assert info.value.stats.nodes == budget + 1

    @pytest.mark.parametrize(
        "task, n",
        [(gen_signal_locator(12, 4), 7), (gen_palindrome(5), 6), (gen_zeroes_or_ones(8), 3),
         (gen_signal_locator(10, 5), 6), (gen_palindrome(6), 9)],
    )
    def test_task_line_order_moves_nothing(self, task, n):
        # the trie is numbered in line order, and a placement walks tied
        # nodes newest first, but no decision reads that order
        a = synthesize_at(task, n)
        for seed in (1, 2, 3):
            pairs = list(task.pairs)
            random.Random(seed).shuffle(pairs)
            b = synthesize_at(TaskSpec(task.input_alphabet, task.output_alphabet, tuple(pairs)), n)
            assert (a.stats.nodes, a.stats.backtracks) == (b.stats.nodes, b.stats.backtracks)
            assert a.witness == b.witness

    def test_signal_locator_12_4_within_1000_nodes(self):
        task = gen_signal_locator(12, 4)
        outcome = synthesize_at(task, 7, SearchConfig(node_budget=1_000))
        assert outcome.sat and verify(outcome.witness, task).ok

    def test_zero_time_budget_stops_the_table_build(self):
        # all 512 words of length 9, labelled at random: 141 classes, so the
        # table above the output count takes 9,870 pair tests, none a node
        rng = random.Random(1)
        task = TaskSpec(("0", "1"), ("a", "b"), [(w(f"{i:09b}"), rng.choice("ab")) for i in range(512)])
        with pytest.raises(BudgetExhausted) as info:
            synthesize_at(task, lower_bound(task) + 1, SearchConfig(time_budget=0))
        assert info.value.kind == "time"
        assert (info.value.stats.nodes, info.value.stats.backtracks) == (0, 0)

    def test_zero_time_budget_stops_at_the_first_clock_check(self):
        with pytest.raises(BudgetExhausted) as info:
            synthesize_at(gen_palindrome(6), 9, SearchConfig(time_budget=0))  # 12,451 nodes
        assert info.value.kind == "time"
        assert info.value.stats.nodes == 4096

    def test_zero_time_budget_stops_the_clique_search(self):
        budget = _Budget(SearchConfig(time_budget=0), 3)
        with pytest.raises(BudgetExhausted, match="time"):
            for _ in range(4096):
                budget.clock()

    def test_nan_time_budget_is_refused(self):
        # NaN compares false with everything, so it would set no limit
        with pytest.raises(FstError, match="budgets must be >= 0"):
            SearchConfig(time_budget=float("nan"))


class TestSynthesizeMinimal:
    def test_parity(self):
        n_min, witness, trail = synthesize_minimal(gen_parity(2))
        assert n_min == 2
        assert verify(witness, gen_parity(2)).ok
        assert [o.n for o in trail] == []  # lower bound 2 is tight

    def test_unsat_trail_covers_gap(self):
        task = gen_signal_locator(9, 3)
        n_min, _, trail = synthesize_minimal(task)
        assert n_min == 5
        assert [o.n for o in trail] == [3, 4]
        assert all(not o.sat for o in trail)

    def test_no_solution_within(self):
        with pytest.raises(NoSolutionWithin):
            synthesize_minimal(gen_signal_locator(9, 3), SearchConfig(max_states=4))

    def test_palindrome_5_is_decided_within_100k_nodes_a_level(self):
        task = gen_palindrome(5)
        n_min, witness, trail = synthesize_minimal(
            task, SearchConfig(max_states=8, node_budget=100_000)
        )
        assert n_min == 8 and verify(witness, task).ok
        assert [o.n for o in trail] == list(range(lower_bound(task), 8))
        assert not any(o.sat for o in trail)

    def test_palindrome_6_is_decided_within_100k_nodes_a_level(self):
        task = gen_palindrome(6)
        n_min, witness, trail = synthesize_minimal(
            task, SearchConfig(max_states=12, node_budget=100_000)
        )
        assert n_min == 10 and verify(witness, task).ok
        assert [o.n for o in trail] == list(range(lower_bound(task), 10))
        assert not any(o.sat for o in trail)

    @pytest.mark.parametrize(
        "task, built",
        [(gen_signal_locator(12, 4), (1, 1, 1, 1)), (word_classification(), (1, 0, 0, 0)),
         (gen_parity(9), (1, 0, 0, 0))],
        ids=["sl12-4", "words", "par9"],
    )
    def test_task_tables_are_built_once(self, monkeypatch, task, built):
        # sl12-4 searches 4 levels and builds the clique; words and parity 9
        # are SAT at the output count, where the search walks the trie
        names = ("build_trie", "subtree_classes", "incompatibility_table", "class_graph")
        calls = dict.fromkeys(names, 0)
        for name in names:
            def counted(*args, _name=name, _original=getattr(synth_table, name)):
                calls[_name] += 1
                return _original(*args)
            monkeypatch.setattr(synth_table, name, counted)
        synthesize_minimal(task)
        assert tuple(calls.values()) == built

    @pytest.mark.parametrize(
        "task, max_states",
        [(gen_signal_locator(12, 4), 16), (gen_signal_locator(10, 5), 16), (gen_zeroes_or_ones(8), 16),
         (gen_palindrome(5), 6)],
        ids=["sl12-4", "sl10-5", "zo8", "pal5"],
    )
    def test_shared_tables_resume_exactly(self, task, max_states):
        levels = shared_levels(task, max_states)
        assert len(levels) >= 2  # the output count and a level above it
        assert_resumed_exactly(task, levels)

    def test_max_states_below_lower_bound(self):
        with pytest.raises(NoSolutionWithin):
            synthesize_minimal(word_classification(), SearchConfig(max_states=2))


def shared_levels(task, max_states: int) -> list[tuple]:
    """(outcome, resumed) per level `synthesize_minimal` searches with one
    `_Tables`: resumed when the level went on from the frontier the level
    below left."""
    levels = []

    def engine(task, n, cfg, *, tables):
        resumed = tables.frontier is not None and tables.frontier[0] == n - 1
        levels.append((synthesize_at(task, n, cfg, tables=tables), resumed))
        return levels[-1][0]

    try:
        synthesize_minimal(task, SearchConfig(max_states=max_states), engine)
    except NoSolutionWithin:
        pass
    return levels


def assert_resumed_exactly(task, levels) -> int:
    """Every level has a fresh call's verdict and witness. A resumed UNSAT
    level's counts plus a fresh call's one level below are a fresh call's;
    a resumed SAT level stops inside that sum; any other level's counts
    are a fresh call's. Returns the levels resumed."""
    resumed = 0
    for shared, from_frontier in levels:
        fresh = synthesize_at(task, shared.n)
        assert shared.witness == fresh.witness
        counts = (shared.stats.nodes, shared.stats.backtracks)
        full = (fresh.stats.nodes, fresh.stats.backtracks)
        if not from_frontier:
            assert counts == full
            continue
        resumed += 1
        below = synthesize_at(task, shared.n - 1).stats
        total = (counts[0] + below.nodes, counts[1] + below.backtracks)
        if shared.sat:
            assert counts[0] <= full[0] <= total[0]
        else:
            assert total == full
    return resumed


def random_task(seed: int) -> TaskSpec:
    """Up to 40 distinct words over 0 and 1 (or 0, 1 and 2) of 1 to 7
    symbols, each labelled at random with one of two or three outputs."""
    rng = random.Random(seed)
    symbols, outputs = rng.choice([("01", "ab"), ("01", "abc"), ("012", "ab")])
    words = {tuple(rng.choice(symbols) for _ in range(rng.randint(1, 7))) for _ in range(rng.randint(4, 40))}
    return TaskSpec(tuple(symbols), tuple(outputs), tuple((w, rng.choice(outputs)) for w in sorted(words)))


class TestFrontier:
    """A class level below `max_states` keeps the frames it exhausts with
    all its states in use; the next level searched with the same tables
    tries only the fresh state on them."""

    def test_differential(self):
        tasks = [(gen_palindrome(p), 11) for p in (3, 4, 5, 6)]
        tasks += [(gen_zeroes_or_ones(z), 8) for z in (4, 6, 8)]
        tasks += [(gen_signal_locator(*p), 9) for p in ((8, 4), (9, 3), (12, 4), (10, 5))]
        tasks += [(word_classification(), 6)] + [(random_task(seed), 7) for seed in range(200)]
        resumed = searched = 0
        for task, max_states in tasks:
            levels = shared_levels(task, max_states)
            searched += len(levels)
            resumed += assert_resumed_exactly(task, levels)
        assert (searched, resumed) == (642, 236)

    def test_an_overflowed_frontier_searches_from_the_root(self, monkeypatch):
        # pal5 keeps 17 frames at n=4 and would keep 30 at n=5
        monkeypatch.setattr(synth_table, "FRONTIER_POINTS", 20)
        task = gen_palindrome(5)
        tables = synth_table._Tables(task)
        synthesize_at(task, 4, tables=tables)
        assert tables.frontier[0] == 4 and len(tables.frontier[1]) == 17
        assert synthesize_at(task, 5, tables=tables).stats.nodes == 98 - 48
        assert tables.frontier is None
        stats = synthesize_at(task, 6, tables=tables).stats
        assert (stats.nodes, stats.backtracks) == (305, 305)

    def test_the_level_at_max_states_keeps_nothing(self):
        task = gen_palindrome(5)
        tables = synth_table._Tables(task)
        assert not synthesize_at(task, 6, SearchConfig(max_states=6), tables=tables).sat
        assert tables.frontier is None
        assert synthesize_at(task, 7, tables=tables).stats.nodes == synthesize_at(task, 7).stats.nodes


@settings(max_examples=60, deadline=None)
@given(tiny_tasks())
def test_agrees_with_oracle_on_tiny_tasks(task):
    for n in (1, 2, 3):
        expected, _ = oracle_sat(task, n)
        assert synthesize_at(task, n).sat == expected


@pytest.mark.parametrize(
    "task",
    [gen_parity(3), gen_zeroes_or_ones(4), gen_palindrome(4), gen_signal_locator(9, 3),
     gen_signal_locator(8, 4), word_classification(),
     *(random_target(k, 60, 8, seed) for k in (5, 6) for seed in range(8))],
    ids=["par3", "zo4", "pal4", "sl9-3", "sl8-4", "words", *(f"target{k}-{seed}" for k in (5, 6) for seed in range(8))],
)
def test_witness_is_verified_and_pruned(task):
    # a cell is bound only when a node waits on it, so a witness defines
    # nothing the task words do not reach; n_min + 1 is a class-DAG level
    n_min, witness, _ = synthesize_minimal(task)
    for w in (witness, synthesize_at(task, n_min + 1).witness):
        assert verify(w, task).ok
        assert prune(w, task) == w
