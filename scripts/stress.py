#!/usr/bin/env python3
"""Stress tier: decide the larger tasks with `synthesize_minimal`, up to 12
states and with no budget. With --frontier, run instead the frontier tier,
the tasks the search cannot yet finish or only just finishes: palindrome 7
up to 13 states and three random-target tasks, each level under a 60 s
budget.

Each task runs in a fresh process, one at a time in table order, and
prints one JSON line: its n_min, or null if it was not reached; per level
decided, the verdict, the search nodes and seconds, and the certificate,
"search" for a level the search decided, "clique" for one the clique
refuted with no search; the last level refuted, or null; why the run
stopped, null once n_min is reached; and the peak resident set size of
the task's process, in MB.

`random_target` and `decide` are the one random-target generator and the
one level recorder of the tests and `scripts/bench_compare.py`."""

import argparse
import json
import multiprocessing
import random
import resource

from fstsynth.core import TaskSpec, Transducer, run
from fstsynth.synth_table import (
    BudgetExhausted,
    NoSolutionWithin,
    SearchConfig,
    synthesize_at,
    synthesize_minimal,
)
from fstsynth.tasks import (
    gen_palindrome,
    gen_parity,
    gen_signal_locator,
    gen_zeroes_or_ones,
    word_classification,
)


def random_target(k: int, m: int, length: int, seed: int) -> TaskSpec:
    """m distinct binary words of 1 to `length` symbols, labelled by a random
    k-state machine over two outputs, so n_min is at most k: the Abbadingo
    setup (Lang, Pearlmutter & Price, ICGI 1998)."""
    rng = random.Random(seed)
    machine = Transducer(
        k,
        ("0", "1"),
        ("a", "b"),
        tuple(tuple(rng.randrange(k) for _ in range(2)) for _ in range(k)),
        tuple(rng.choice("ab") for _ in range(k)),
    )
    words = set()
    while len(words) < m:
        words.add(tuple(rng.choice("01") for _ in range(rng.randint(1, length))))
    return TaskSpec(("0", "1"), ("a", "b"), tuple((w, run(machine, w)) for w in sorted(words)))


STRESS = SearchConfig(max_states=12)


def frontier(max_states):
    return SearchConfig(max_states=max_states, time_budget=60.0)  # seconds per level


# tier: {name: (task, search config)}
TIERS = {
    "stress": {
        "pal5": (lambda: gen_palindrome(5), STRESS),
        "pal6": (lambda: gen_palindrome(6), STRESS),
        "sl12-4": (lambda: gen_signal_locator(12, 4), STRESS),
        "sl10-5": (lambda: gen_signal_locator(10, 5), STRESS),
        "zo8": (lambda: gen_zeroes_or_ones(8), STRESS),
        "par12": (lambda: gen_parity(12), STRESS),
        "words": (word_classification, STRESS),
    },
    "frontier": {
        "pal7": (lambda: gen_palindrome(7), frontier(13)),
        "target10-800": (lambda: random_target(10, 800, 16, 0), frontier(16)),
        "target12-1000": (lambda: random_target(12, 1000, 16, 0), frontier(16)),
        # a greedy clique of 8 against n_min 12: the search refutes 8 to 11
        "target12-400": (lambda: random_target(12, 400, 16, 2), frontier(16)),
    },
}


def level(outcome):
    stats = outcome.stats
    return {
        "n": outcome.n,
        "verdict": "SAT" if outcome.sat else "UNSAT",
        "nodes": stats.nodes,
        "seconds": round(stats.seconds, 4),
        "certificate": "clique" if outcome.clique else "search",
    }


def decide(task, cfg):
    """synthesize_minimal's n_min or None, the levels it decided with the
    SAT level last (after a blown budget, only the levels it searched), and
    why it stopped: None once n_min is reached."""
    searched = []

    def engine(task, n, cfg, **kw):
        searched.append(synthesize_at(task, n, cfg, **kw))
        return searched[-1]

    try:
        n_min, _, trail = synthesize_minimal(task, cfg, engine)
        return n_min, trail + searched[-1:], None
    except NoSolutionWithin as e:
        return None, list(e.trail), "max_states"
    except BudgetExhausted as e:
        return None, [o for o in searched if o.n < e.n], f"{e.kind} budget at {e.n} states"


def row(tier, name):
    """The printed line of one tier task, in the process that decides it."""
    make_task, cfg = TIERS[tier][name]
    n_min, levels, stopped = decide(make_task(), cfg)
    refuted = [o for o in levels if not o.sat]
    return {"task": name, "n_min": n_min, "levels": [level(o) for o in levels],
            "last_refuted": level(refuted[-1]) if refuted else None, "stopped": stopped,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--frontier", action="store_true", help="run the frontier tier instead")
    tier = "frontier" if parser.parse_args().frontier else "stress"
    # a fresh process per task, as ru_maxrss is the peak of the process so far
    with multiprocessing.get_context("spawn").Pool(1, maxtasksperchild=1) as pool:
        for name in TIERS[tier]:
            print(json.dumps(pool.apply(row, (tier, name))), flush=True)


if __name__ == "__main__":
    main()
