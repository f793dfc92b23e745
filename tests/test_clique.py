"""The incompatibility-clique lower bound: its table, its certified UNSAT
levels, its budget, and a differential check against the brute-force
oracle."""

import itertools
import random
import re

import pytest

from conftest import load_script
from fstsynth.core import CheckFailed, TaskSpec, Transducer, run
from fstsynth.oracle import oracle_min, oracle_sat
from fstsynth import synth_table
from fstsynth.synth_table import (
    BudgetExhausted,
    NoSolutionWithin,
    SearchConfig,
    _Budget,
    check_clique,
    incompatibility_clique,
    incompatibility_table,
    lower_bound,
    synthesize_at,
    synthesize_minimal,
)
from fstsynth.trie import build_trie, subtree_classes
from fstsynth.tasks import (
    gen_palindrome,
    gen_parity,
    gen_signal_locator,
    gen_zeroes_or_ones,
    word_classification,
)

random_target = load_script("scripts/stress.py").random_target


def assert_pairwise_incompatible(task, prefixes):
    """Checker independent of the package: every two prefixes p, r have a
    suffix s with p+s and r+s both task words, mapped to different outputs."""
    outputs = dict(task.pairs)
    assert len(set(prefixes)) == len(prefixes)
    for p, r in itertools.combinations(prefixes, 2):
        suffixes = {w[len(p):] for w in outputs if w[: len(p)] == p}
        assert any(
            r + s in outputs and outputs[r + s] != outputs[p + s] for s in suffixes
        ), f"{p} and {r} are compatible"


@pytest.mark.parametrize(
    "task, size",
    [
        (gen_zeroes_or_ones(4), 4),
        (gen_zeroes_or_ones(6), 5),
        (gen_zeroes_or_ones(8), 6),
        (gen_palindrome(4), 4),
        (gen_palindrome(5), 4),
        (gen_signal_locator(9, 3), 3),
        (word_classification(), 3),
    ],
)
def test_clique_sizes(task, size):
    clique = incompatibility_clique(task)
    assert len(clique) == size
    assert_pairwise_incompatible(task, clique)


# each clique as computed on the minimized trie, before the clique read the
# subtree-class table directly; its _Budget clock calls ("ticks"): one per
# table row, per union of a row and one per clique member. A row takes one
# union per child and per class numbered before the row that is incompatible
# with that child, so the ticks follow the numbering of `subtree_classes`: its
# depth-first pass gives these; the children-first peel it replaced gave
# 133, 80, 60 and 80
@pytest.mark.parametrize(
    "task, clique, ticks",
    [
        (gen_zeroes_or_ones(6), ("0000", "0001", "0011", "0111", "1111"), 95),
        (gen_palindrome(5), ("00", "01", "10", "11"), 60),
        (gen_signal_locator(9, 3), ("0000001", "0000010", "0010000"), 42),
        (word_classification(), ("eki", "asztal", "erudite"), 71),
    ],
    ids=["zo6", "pal5", "sl9-3", "words"],
)
def test_pinned_cliques(task, clique, ticks):
    budget = _Budget(SearchConfig(), 0)
    assert incompatibility_clique(task, budget) == tuple(tuple(w) for w in clique)
    assert budget.clocks == ticks


def test_zo8_levels_four_and_five_are_certified():
    task = gen_zeroes_or_ones(8)
    n_min, witness, trail = synthesize_minimal(task)
    assert n_min == 6
    assert [o.n for o in trail] == [3, 4, 5]
    assert all(not o.sat for o in trail)
    searched, *certified = trail
    assert searched.clique == () and searched.stats.nodes > 0
    for outcome in certified:
        assert len(outcome.clique) == 6
        assert outcome.stats.nodes == 0
        assert_pairwise_incompatible(task, outcome.clique)


def test_clique_only_after_the_output_bound_fails(monkeypatch):
    def no_clique(*args):
        raise AssertionError("clique computed although the output bound holds")

    monkeypatch.setattr(synth_table, "incompatibility_clique", no_clique)
    n_min, _, trail = synthesize_minimal(word_classification())
    assert n_min == 3 and trail == []


def test_output_count_level_builds_no_table(monkeypatch):
    # the `wide` tries have thousands of classes; their answers sit at the output count
    def no_table(*args):
        raise AssertionError("incompatibility table built at the output-count level")

    monkeypatch.setattr(synth_table, "incompatibility_table", no_table)
    for task in (gen_zeroes_or_ones(8), gen_palindrome(5), gen_parity(10), word_classification()):
        synthesize_at(task, lower_bound(task))
    with pytest.raises(AssertionError, match="incompatibility table"):
        synthesize_at(gen_palindrome(5), lower_bound(gen_palindrome(5)) + 1)


@pytest.mark.parametrize(
    "task, n", [(word_classification(), 1), (word_classification(), 2), (gen_signal_locator(10, 5), 4)],
    ids=["words-1", "words-2", "sl10-5-4"],
)
def test_below_the_output_count_no_search(task, n):
    outcome = synthesize_at(task, n)
    assert not outcome.sat and outcome.stats.nodes == 0
    assert len(outcome.clique) > n
    check_clique(task, outcome.clique)
    assert_pairwise_incompatible(task, outcome.clique)
    outputs = dict(task.pairs)
    assert len({outputs[word] for word in outcome.clique}) == len(outcome.clique)


def test_certified_levels_agree_with_the_search():
    task = gen_palindrome(4)
    _, _, trail = synthesize_minimal(task)
    certified = [o.n for o in trail if o.clique]
    assert certified == [3]
    for n in certified:
        assert not synthesize_at(task, n).sat


def test_clique_budget_is_reported_as_budget():
    # n=2 takes 8 nodes; the clique certifies 3 to 7 and counts no nodes
    task = gen_palindrome(6)
    with pytest.raises(BudgetExhausted) as info:
        synthesize_minimal(task, SearchConfig(node_budget=100))
    assert info.value.n == 8 and info.value.stats.nodes == 101
    assert len(incompatibility_clique(task, _Budget(SearchConfig(node_budget=10), 3))) == 8


def test_bad_certificate_is_rejected(monkeypatch):
    task = gen_zeroes_or_ones(4)
    with pytest.raises(CheckFailed):
        check_clique(task, (("0",), ("0", "0")))
    # a "clique" of every class holds compatible pairs
    monkeypatch.setattr(synth_table, "_max_clique", lambda adj, order, budget: order)
    with pytest.raises(CheckFailed):
        incompatibility_clique(task)


def _labelled_task(seed, m, shortest, longest):
    """m random binary words of `shortest` to `longest` symbols with random
    labels: few of their prefixes share a completion, so the graph is sparse."""
    rng = random.Random(seed)
    words = {tuple(rng.choice("01") for _ in range(rng.randint(shortest, longest))) for _ in range(m)}
    return TaskSpec(("0", "1"), ("a", "b"), tuple((w, rng.choice("ab")) for w in sorted(words)))


@pytest.mark.parametrize(
    "task",
    [gen_zeroes_or_ones(6), gen_palindrome(5), gen_palindrome(6), gen_signal_locator(9, 3),
     gen_signal_locator(12, 4), gen_parity(6), word_classification(),
     random_target(5, 60, 8, 1), random_target(8, 120, 10, 2), _labelled_task(3, 40, 4, 10)],
    ids=["zo6", "pal5", "pal6", "sl9-3", "sl12-4", "par6", "words", "target-5", "target-8", "labelled"],
)
def test_table_rows_match_pairwise_recomputation(task):
    """Each row, against the classes' shortest prefixes tested pair by pair:
    incompatible when a common suffix completes both to different outputs."""
    trie = build_trie(task)
    cls, classes = subtree_classes(trie)
    prefix = {}
    queue = [(0, ())]
    for q, word in queue:  # breadth first, so each class keeps a shortest prefix
        prefix.setdefault(cls[q], word)
        queue += [(c, word + (a,)) for a, c in zip(task.input_alphabet, trie.delta[q]) if c is not None]
    assert sorted(prefix) == list(range(len(classes)))
    completions = [
        {w[len(prefix[c]):]: o for w, o in task.pairs if w[: len(prefix[c])] == prefix[c]}
        for c in range(len(classes))
    ]
    expected = [
        sum(1 << v for v, other in enumerate(completions) if any(other.get(s, o) != o for s, o in mine.items()))
        for mine in completions
    ]
    assert incompatibility_table(classes, lambda: None) == expected


def test_sparse_table_ticks_far_fewer_than_class_pairs():
    # 145 classes and 329 incompatible pairs; one tick per class pair would be 10,440
    task = _labelled_task(0, 60, 6, 12)
    _, classes = subtree_classes(build_trie(task))
    budget = _Budget(SearchConfig(), 0)
    incompatibility_table(classes, budget.clock)
    assert budget.clocks < len(classes) ** 2 / 10


def _random_task(rng, symbols):
    outputs = ("a", "b", "c")[: rng.randint(1, 3)]
    mapping = {}
    for _ in range(rng.randint(2, 6)):
        word = tuple(rng.choice(symbols) for _ in range(rng.randint(1, 5)))
        mapping[word] = rng.choice(outputs)
    return TaskSpec(symbols, outputs, tuple(sorted(mapping.items())))


@pytest.mark.parametrize(
    "clique, pair", [((("0", "0"), ()), "() and ('0', '0')"), (((), ("0", "0")), "('0', '0') and ()")]
)
def test_compatible_clique_pair_is_named(clique, pair):
    # every palindrome-5 word has 5 symbols, so 00 and the empty prefix share no completion
    with pytest.raises(CheckFailed, match=re.escape(f"clique prefixes {pair} are compatible")):
        check_clique(gen_palindrome(5), clique)


def test_check_clique_names_the_first_compatible_pair():
    # against a pair-by-pair rescan of the task words, member by member
    rng = random.Random(5)
    refused = 0
    for _ in range(300):
        task = _random_task(rng, ("0", "1"))
        outputs = dict(task.pairs)
        prefixes = sorted({w[:i] for w in outputs for i in range(len(w) + 1)})
        words = sorted(outputs)  # two with different outputs are incompatible
        clique = tuple(rng.choice(rng.choice((prefixes, words))) for _ in range(rng.randint(2, 3)))
        compatible = [
            (p, r)
            for i, p in enumerate(clique)
            for r in clique[:i]
            if not any(outputs.get(r + w[len(p):], o) != o for w, o in outputs.items() if w[: len(p)] == p)
        ]
        if compatible:
            refused += 1
            message = "clique prefixes %r and %r are compatible" % compatible[0]
            with pytest.raises(CheckFailed, match=re.escape(message)):
                check_clique(task, clique)
        else:
            check_clique(task, clique)
    assert min(refused, 300 - refused) >= 20  # both verdicts are exercised


def test_differential_ternary_against_oracle():
    # ternary alphabets stay within the oracle's cap up to 3 states
    rng = random.Random(20261018)
    decided = 0
    for _ in range(60):
        task = _random_task(rng, ("0", "1", "2"))
        clique = incompatibility_clique(task)
        assert_pairwise_incompatible(task, clique)
        try:
            expected = oracle_min(task, 3)
        except NoSolutionWithin:
            with pytest.raises(NoSolutionWithin):
                synthesize_minimal(task, SearchConfig(max_states=3))
            continue
        n_min, _, trail = synthesize_minimal(task, SearchConfig(max_states=3))
        assert n_min == expected
        assert lower_bound(task) <= len(clique) <= expected
        for outcome in trail:
            assert_pairwise_incompatible(task, outcome.clique)
        decided += 1
    assert decided >= 50


def test_differential_certified_levels_against_oracle():
    # binary tasks labelled by random 4-state machines often need 4 states
    # with only 2 outputs, so the clique certifies levels the oracle can check
    rng = random.Random(11)
    words = [w for n in range(1, 6) for w in itertools.product("01", repeat=n)]
    certified = 0
    for _ in range(40):
        machine = Transducer(
            4,
            ("0", "1"),
            ("a", "b"),
            tuple(tuple(rng.randrange(4) for _ in range(2)) for _ in range(4)),
            tuple(rng.choice("ab") for _ in range(4)),
        )
        sample = rng.sample(words, rng.randint(20, 40))
        task = TaskSpec(("0", "1"), ("a", "b"), tuple((w, run(machine, w)) for w in sample))
        expected = oracle_min(task, 4)
        n_min, _, trail = synthesize_minimal(task, SearchConfig(max_states=4))
        assert n_min == expected
        assert len(incompatibility_clique(task)) <= expected
        for outcome in trail:
            if outcome.clique:
                certified += 1
                assert outcome.stats.nodes == 0
                assert len(outcome.clique) > outcome.n
                assert_pairwise_incompatible(task, outcome.clique)
                assert oracle_sat(task, outcome.n) == (False, None)
    assert certified >= 5
