#!/usr/bin/env python3
"""Stress tier: decide the larger tasks with `synthesize_minimal`, up to 12
states and with no budget, and print one JSON line per task: its n_min and,
per level from the output lower bound to n_min, the verdict, the search
nodes and seconds, and the certificate: "search" for a level the search
decided, "clique" for one the clique refuted with no search."""

import argparse
import json

from fstsynth.synth_table import SearchConfig, synthesize_at, synthesize_minimal
from fstsynth.tasks import (
    gen_palindrome,
    gen_parity,
    gen_signal_locator,
    gen_zeroes_or_ones,
    word_classification,
)

TASKS = {
    "pal5": lambda: gen_palindrome(5),
    "pal6": lambda: gen_palindrome(6),
    "sl12-4": lambda: gen_signal_locator(12, 4),
    "sl10-5": lambda: gen_signal_locator(10, 5),
    "zo8": lambda: gen_zeroes_or_ones(8),
    "par12": lambda: gen_parity(12),
    "words": word_classification,
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


def main():
    argparse.ArgumentParser(description=__doc__).parse_args()
    for name, make_task in TASKS.items():
        searched = []

        def engine(task, n, cfg, **kw):
            searched.append(synthesize_at(task, n, cfg, **kw))
            return searched[-1]

        n_min, _, trail = synthesize_minimal(make_task(), SearchConfig(max_states=12), engine)
        levels = [level(outcome) for outcome in trail + searched[-1:]]
        print(json.dumps({"task": name, "n_min": n_min, "levels": levels}), flush=True)


if __name__ == "__main__":
    main()
