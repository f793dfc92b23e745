import hashlib
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PARITY, tiny_tasks
from fstsynth.cli import BENCH_ROWS
from fstsynth.core import FstError, TaskSpec, Transducer, relabel, verify
from fstsynth.serialize import serialize_transducer
from fstsynth.synth_table import SearchConfig, synthesize_minimal
from fstsynth.tasks import (
    gen_palindrome,
    gen_parity,
    gen_signal_locator,
    gen_zeroes_or_ones,
    word_classification,
)
from fstsynth import trie as trie_module
from fstsynth.trie import build_trie, minimize, subtree_classes


def w(s):
    return tuple(s)


class TestBuildTrie:
    def test_zeroes_or_ones_4(self):
        t = build_trie(gen_zeroes_or_ones(4))
        assert t.n_states == 31  # 1+2+4+8+16 distinct prefixes
        assert verify(t, gen_zeroes_or_ones(4)).ok

    def test_palindrome_4(self):
        assert build_trie(gen_palindrome(4)).n_states == 31

    def test_single_pair(self):
        task = TaskSpec(("a", "b"), ("r",), ((w("ab"), "r"),))
        t = build_trie(task)
        assert t.n_states == 3

    def test_outputs_only_on_word_states(self):
        task = gen_parity(2)
        t = build_trie(task)
        # 7 prefixes, outputs on the 4 leaves only
        assert t.n_states == 7
        assert sum(1 for o in t.omega if o is not None) == 4


class TestMinimize:
    def test_zeroes_or_ones_target(self):
        task = gen_zeroes_or_ones(4)
        m = minimize(build_trie(task), task)
        assert m.n_states == 13
        assert verify(m, task).ok

    def test_palindrome_target(self):
        task = gen_palindrome(4)
        m = minimize(build_trie(task), task)
        assert m.n_states == 12
        assert verify(m, task).ok

    def test_parity_trie_shrinks(self):
        task = gen_parity(2)
        m = minimize(build_trie(task), task)
        assert 2 <= m.n_states <= 7
        assert verify(m, task).ok

    def test_idempotent(self):
        for task in (
            gen_signal_locator(9, 3),
            gen_signal_locator(8, 4),
            gen_zeroes_or_ones(4),
            gen_palindrome(4),
            word_classification(),
        ):
            m = minimize(build_trie(task), task)
            assert minimize(m, task).n_states == m.n_states

    def test_unreachable_class_goes_last(self):
        # state 2 is reached by no word and has a subtree of its own
        t = Transducer(3, ("a",), ("r", "s"), ((1,), (None,), (None,)), (None, "r", "s"))
        task = TaskSpec(("a",), ("r", "s"), ((w("a"), "r"),))
        m = minimize(t, task)
        assert m == t  # the unreachable class keeps the last number
        assert verify(m, task).ok
        assert minimize(m, task) == m

    def test_requires_verifying_machine(self):
        t = build_trie(gen_parity(2))
        with pytest.raises(FstError, match="^minimize requires a verifying transducer$"):
            minimize(t, gen_signal_locator(9, 3))

    def test_walks_only_the_quotient_when_it_verifies(self, monkeypatch):
        walked = []
        monkeypatch.setattr(trie_module, "verify", lambda t, task: walked.append(t) or verify(t, task))
        task = gen_signal_locator(9, 3)
        m = minimize(build_trie(task), task)
        assert walked == [m]

    def test_cyclic_machine_rejected(self):
        with pytest.raises(FstError, match="^the transducer has a cycle$"):
            minimize(PARITY, gen_parity(2))

    # sha256 of the FST/1 text of each minimized bench trie, as written by
    # the partition-refinement minimize this one replaced
    @pytest.mark.parametrize(
        "row, n_states, digest",
        [
            (0, 27, "707c5b25cc43ebdfd327b88df88807caaa70573efdd9515bedc16f022efbd20e"),
            (1, 28, "b5028fea878234ba075386e40f45d84fab034eec83a62e32a67e5e94ebb05e02"),
            (2, 13, "1b4ff2d2066fc49fbc83ce86c5df5cb4765fc5b37089673c2bb19a383508ca21"),
            (3, 12, "e4c2a9cb13ca6e1193cf7ab2281e7cfc2f9ee156ef831c152fdb6a3cb9f36953"),
            (4, 55, "7ee0338c2af2fe4e8e5464ae3566e594bcb075a384942b7829b64d60b6345cdb"),
        ],
        ids=["sl9-3", "sl8-4", "zo4", "pal4", "words"],
    )
    def test_pinned_bench_files(self, row, n_states, digest):
        task = BENCH_ROWS[row][1]()
        m = minimize(build_trie(task), task)
        assert m.n_states == n_states
        assert hashlib.sha256(serialize_transducer(m).encode()).hexdigest() == digest

    def test_undefined_successors_never_merge_with_defined(self):
        # "a" and "aa" demand the same output but only the first has a
        # defined continuation, so they stay apart
        task = TaskSpec(("a",), ("r",), ((w("a"), "r"), (w("aa"), "r")))
        m = minimize(build_trie(task), task)
        assert m.n_states == 3


@settings(max_examples=40, deadline=None)
@given(tiny_tasks())
def test_sandwich_property(task):
    trie = build_trie(task)
    mini = minimize(trie, task)
    n_min, _, _ = synthesize_minimal(task, SearchConfig(max_states=8))
    assert n_min <= mini.n_states <= trie.n_states


@settings(max_examples=60, deadline=None)
@given(tiny_tasks())
def test_minimized_states_are_distinct(task):
    mini = minimize(build_trie(task), task)
    assert verify(mini, task).ok
    rows = {(mini.omega[q], mini.delta[q]) for q in range(mini.n_states)}
    assert len(rows) == mini.n_states
    assert serialize_transducer(minimize(mini, task)) == serialize_transducer(mini)


def test_subtree_classes_reject_a_cycle():
    with pytest.raises(FstError, match="^the transducer has a cycle$"):
        subtree_classes(PARITY)


def test_subtree_classes_reject_a_cycle_reachable_only_from_a_high_state():
    # 0 -> 1 is a trie; 2 <-> 3 is a cycle that only state 4 leads into
    t = Transducer(5, ("a",), ("r",), ((1,), (None,), (3,), (2,), (2,)), (None, "r", None, None, None))
    with pytest.raises(FstError, match="^the transducer has a cycle$"):
        subtree_classes(t)


def test_subtree_classes_reject_a_self_loop():
    t = Transducer(3, ("a", "b"), ("r",), ((1, 2), (None, 1), (None, None)), (None, None, "r"))
    with pytest.raises(FstError, match="^the transducer has a cycle$"):
        subtree_classes(t)


def test_subtree_classes_of_a_long_chain_numbered_leaf_first():
    # 0 -> n-1 -> n-2 -> ... -> 1: every state waits on a lower-numbered
    # one, so the whole chain goes on the path at once; no recursion and
    # no quadratic on-path test
    n = 200_000
    delta = [(n - 1,), (None,)] + [(q - 1,) for q in range(2, n)]
    omega = [None, "r"] + [None] * (n - 2)
    chain = Transducer(n, ("a",), ("r",), delta, omega)
    start = time.perf_counter()
    cls, classes = subtree_classes(chain)
    assert time.perf_counter() - start < 20  # about 0.4 s; quadratic would take minutes
    assert cls == [n - 1] + list(range(n - 1))
    assert classes[0] == ("r", (-1,)) and classes[n - 1] == (None, (n - 2,))


def assert_suffix_classes(machine, task):
    """subtree_classes(machine) against the task's suffix sets, computed
    independently of the depth-first pass: each state's first prefix in a
    breadth-first walk, then its set of (suffix, output) over the task
    words. Holds for machines whose every state lies on a path to a task
    word's end: tries and their quotients, relabelled or not."""
    cls, classes = subtree_classes(machine)
    assert sorted(set(cls)) == list(range(len(classes)))
    for c, (_, successors) in enumerate(classes):
        assert all(s < c for s in successors)
    prefix, queue = {0: ()}, [0]
    for q in queue:  # grows while iterated
        for sym, child in zip(machine.input_alphabet, machine.delta[q]):
            if child is not None and child not in prefix:
                prefix[child] = prefix[q] + (sym,)
                queue.append(child)
    assert len(prefix) == machine.n_states
    suffixes = [
        frozenset((w[len(p):], out) for w, out in task.pairs if w[: len(p)] == p)
        for p in (prefix[q] for q in range(machine.n_states))
    ]
    for q in range(machine.n_states):
        for r in range(q):
            assert (cls[q] == cls[r]) == (suffixes[q] == suffixes[r])


@settings(max_examples=60, deadline=None)
@given(tiny_tasks())
def test_subtree_classes_are_suffix_functions(task):
    assert_suffix_classes(build_trie(task), task)


@settings(max_examples=60, deadline=None)
@given(tiny_tasks(max_pairs=8, max_len=4), st.randoms(use_true_random=False))
def test_subtree_classes_of_machines_that_are_not_tries(task, rng):
    trie = build_trie(task)
    quotient = minimize(trie, task)  # breadth-first: a child may come before one of its parents
    for machine in (quotient, trie):
        perm = [0] + rng.sample(range(1, machine.n_states), machine.n_states - 1)
        shuffled = relabel(machine, perm)
        assert_suffix_classes(machine, task)
        assert_suffix_classes(shuffled, task)
        # the quotient's numbering reads only the classes, not the states
        assert serialize_transducer(minimize(shuffled, task)) == serialize_transducer(quotient)
