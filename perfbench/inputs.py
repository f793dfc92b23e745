"""Workload inputs, generated by the benchmark itself, with the answers
each task must produce.

The pair lists are built here rather than by `fstsynth.tasks`, so the
output check does not trust the program to say what the task is. Family
tasks keep the natural pair order of the built-in generators (shuffling
pairs changes the search cost several-fold), and the explicit `@inputs` /
`@outputs` lines keep the alphabet order the built-in generators use, so
node counts match `fstsynth gen` files exactly.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Task:
    name: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    pairs: tuple[tuple[str, str], ...]  # (word as a string of 1-char symbols, output)
    n_min: Optional[int]  # None: no machine within max_states
    trie_states: Optional[int]  # None: computed by trie_counts, outside set-up timing
    min_states: Optional[int]
    max_states: Optional[int] = None  # passed as --max-states when set

    def text(self) -> str:
        """The task as an IOPAIRS/1 document."""
        lines = ["@inputs " + " ".join(self.inputs), "@outputs " + " ".join(self.outputs)]
        lines += [f"{word} {out}" for word, out in self.pairs]
        return "\n".join(lines) + "\n"


def _binary(length: int) -> list[str]:
    return ["".join(p) for p in itertools.product("01", repeat=length)]


def parity(length: int) -> list[tuple[str, str]]:
    return [(w, str(w.count("1") % 2)) for w in _binary(length)]


def palindrome(length: int) -> list[tuple[str, str]]:
    return [(w, "1" if w == w[::-1] else "0") for w in _binary(length)]


def zeroes_or_ones(length: int) -> list[tuple[str, str]]:
    pairs = []
    for w in _binary(length):
        ones = w.count("1")
        zeros = length - ones
        pairs.append((w, "zeros" if zeros > ones else "ones" if ones > zeros else "equal"))
    return pairs


def signal_locator(n: int, k: int) -> list[tuple[str, str]]:
    return [("0" * (i - 1) + "1" + "0" * (n - i), str(1 + (i - 1) * k // n)) for i in range(1, n + 1)]


WORDS = (
    ("eruption", "en"), ("erudite", "en"), ("oriental", "en"), ("topology", "en"),
    ("serendipity", "en"), ("eki", "jp"), ("origami", "jp"), ("arigato", "jp"),
    ("asztal", "hu"), ("mester", "hu"),
)

BIN = ("0", "1")
ZO_OUT = ("zeros", "equal", "ones")


def _family(name, pairs, outputs, n_min, trie_states, min_states, inputs=BIN, max_states=None):
    return Task(name, inputs, outputs, tuple(pairs), n_min, trie_states, min_states, max_states)


# n_min and the trie / minimized-trie counts below were established on the
# program as first published and are the answers every later version must
# give. zo4 is 4, not the published 5: a 4-state machine exists and verifies.
def _refute() -> list[Task]:
    return [
        _family("pal4", palindrome(4), BIN, 5, 31, 12),
        _family("zo4", zeroes_or_ones(4), ZO_OUT, 4, 31, 13),
        _family("sl8-4", signal_locator(8, 4), ("1", "2", "3", "4"), 6, 44, 28),
        _family("zo8", zeroes_or_ones(8), ZO_OUT, 6, 511, 33),
        _family("pal5", palindrome(5), BIN, None, 63, 16, max_states=6),
    ]


def _witness() -> list[Task]:
    words_in = tuple(sorted({c for w, _ in WORDS for c in w}))
    return [
        _family("sl12-4", signal_locator(12, 4), ("1", "2", "3", "4"), 7, 90, 42),
        _family("sl10-5", signal_locator(10, 5), ("1", "2", "3", "4", "5"), 7, 65, 40),
        _family("sl9-3", signal_locator(9, 3), ("1", "2", "3"), 5, 54, 27),
        _family("words", WORDS, ("en", "jp", "hu"), 3, 64, 55, inputs=words_in),
    ]


# zo6 (64 pairs, two cheap UNSAT levels) keeps a certified-minimality
# share in `wide`, so its UNSAT-level time and counts are never zero.
#
# Random tasks: task i has k = 2, 3, 4, 2 input symbols and a seeded word
# count from its own stratum of 200..800 (so the pass total and the largest
# trie barely move with the seed), word lengths 10..24. The label is the
# parity of the count of a seeded symbol subset, so n_min is exactly 2 and
# the search stays tiny; a richer hidden machine (a 4-state counter) made
# one search take minutes. At most 800 words keeps the current recursive
# search below Python's recursion limit, which parity 10 (1024 words)
# exceeds on purpose.
RANDOM_TASKS = 4
WORD_COUNT_RANGE = (200, 800)
WORD_LENGTH_RANGE = (10, 24)


def random_parity_task(rng: random.Random, index: int, n_words: int) -> Task:
    symbols = tuple("abcd"[: 2 + index % 3])
    subset = set()
    while not subset:
        subset = {s for s in symbols if rng.random() < 0.5}
    words: dict[str, str] = {}
    while len(words) < n_words:
        w = "".join(rng.choice(symbols) for _ in range(rng.randint(*WORD_LENGTH_RANGE)))
        words[w] = "odd" if sum(c in subset for c in w) % 2 else "even"
    if len(set(words.values())) < 2:
        raise ValueError("random task drew a single label")  # impossible at >= 200 words in practice
    return Task(f"rand{index}", symbols, ("even", "odd"), tuple(words.items()), 2, None, None)


def _wide(seed: int) -> list[Task]:
    rng = random.Random(f"wide:{seed}")
    lo, hi = WORD_COUNT_RANGE
    step = (hi - lo) // RANDOM_TASKS
    return [
        _family("par9", parity(9), BIN, 2, 1023, 19),
        _family("par10", parity(10), BIN, 2, 2047, 21),
        _family("zo6", zeroes_or_ones(6), ZO_OUT, 5, 127, 22),
    ] + [random_parity_task(rng, i, rng.randint(lo + i * step, lo + (i + 1) * step)) for i in range(RANDOM_TASKS)]


def trie_counts(pairs) -> tuple[int, int]:
    """(prefix-trie states, states after Moore minimization), computed
    independently of the program. On a tree, Moore equivalence is equality
    of the labelled subtrees, so the minimized count is the number of
    distinct subtrees (hash-consing, bottom-up)."""
    children: list[dict[str, int]] = [{}]
    output: list[Optional[str]] = [None]
    for word, out in pairs:
        q = 0
        for c in word:
            nxt = children[q].get(c)
            if nxt is None:
                nxt = len(children)
                children.append({})
                output.append(None)
                children[q][c] = nxt
            q = nxt
        output[q] = out
    # a child always has a larger index than its parent
    canon: dict[tuple, int] = {}
    ids = [0] * len(children)
    for q in range(len(children) - 1, -1, -1):
        key = (output[q], tuple(sorted((c, ids[t]) for c, t in children[q].items())))
        ids[q] = canon.setdefault(key, len(canon))
    return len(children), len(canon)


WORKLOADS = {
    "refute": lambda seed: _refute(),
    "witness": lambda seed: _witness(),
    "wide": _wide,
}
