#!/usr/bin/env python3
"""Reproduce the headline results: synthesize every built-in task, print
the comparison table, and drop DOT figures + FST files into an output
directory (render with `dot -Tpdf`)."""

import argparse
import pathlib
import sys

from fstsynth.cli import BENCH_CONFIG, BENCH_ROWS, bench_table, format_bench
from fstsynth.core import defined_map_count, prune
from fstsynth.serialize import serialize_transducer, to_dot
from fstsynth.synth_table import synthesize_minimal
from fstsynth.trie import build_trie, minimize


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results", help="output directory")
    args = parser.parse_args()
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    for name, make_task, *_ in BENCH_ROWS:
        task = make_task()
        slug = name.lower().replace(" ", "_").replace("-", "_")
        n_min, witness, trail = synthesize_minimal(task, BENCH_CONFIG)
        pruned = prune(witness, task)
        d, o = defined_map_count(pruned)
        print(f"{name}: minimal {n_min} states, {d} delta / {o} omega maps defined")
        for outcome in trail:
            print(f"  UNSAT at {outcome.n} ({outcome.stats.nodes} nodes)")
        (out / f"{slug}.fst").write_text(serialize_transducer(pruned))
        (out / f"{slug}.dot").write_text(to_dot(pruned, show_nil_sink=True))
        mini = minimize(build_trie(task), task)
        (out / f"{slug}_trie_min.dot").write_text(to_dot(mini))

    rows, timings = bench_table()
    table = format_bench(rows, timings, "text")
    sys.stdout.write("\n" + table)
    (out / "comparison.csv").write_text(
        format_bench(rows, timings, "csv", show_timings=False)
    )
    print(f"\nartifacts in {out}/")


if __name__ == "__main__":
    main()
