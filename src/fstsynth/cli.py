"""Command-line surface.

Subcommands: synth (exact minimal synthesis), trie (baseline build +
minimize), bench (the five-task comparison table), run (apply a machine to
a word), gen (write a built-in task file, one integer argument per
parameter of its generator). `main` parses with one parser per process
(`_parser`) and looks up the handler `cmd_<subcommand>` by name per call.

synth and trie open their output paths before any work, so a path that
cannot be written, or that is the task file or the other output under
any name, is refused (exit 2) before the search or the trie build.

Exit codes: 0 success, 1 unsatisfiable within limits or budget exhausted,
2 invalid input, 3 internal error (a crash or a failed internal check; the
console entry `entry` prints one `internal error: ...` line, while `main`
lets the exception propagate to in-process callers).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import inspect
import os
import sys
import time

from . import tasks as tasks_mod
from .core import (
    CheckFailed,
    FstError,
    TaskSpec,
    UndefinedOutput,
    UndefinedTransition,
    defined_map_count,
    prune,
    run,
    trajectory,
)
from .serialize import parse_transducer, serialize_transducer, to_dot
from .synth_table import (
    BudgetExhausted,
    NoSolutionWithin,
    SearchConfig,
    lower_bound,
    search_space_size,
    synthesize_at,
    synthesize_minimal,
    variable_count,
)
from .trie import build_trie, minimize

EXIT_OK = 0
EXIT_UNSAT = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

# perfbench/spans.py wraps ENGINES["table"]; cmd_synth looks it up per call
ENGINES = {"table": synthesize_at}

# the five comparison tasks with the published reference counts
BENCH_ROWS = (
    ("Signal Locator 9-3", lambda: tasks_mod.gen_signal_locator(9, 3), 5, 45, 24),
    ("Signal Locator 8-4", lambda: tasks_mod.gen_signal_locator(8, 4), 6, 36, 23),
    ("Zeroes and ones 4", lambda: tasks_mod.gen_zeroes_or_ones(4), 5, 31, 13),
    ("Palindrome 4", lambda: tasks_mod.gen_palindrome(4), 5, 31, 12),
    ("Word Classification", tasks_mod.word_classification, 3, 68, 57),
)
# the search limits every BENCH_ROWS task is synthesized under
BENCH_CONFIG = SearchConfig(max_states=8)


def _read(path: str, parse):
    """parse(text) of a task or FST/1 file; a byte order mark is not text."""
    with open(path, encoding="utf-8-sig") as f:
        try:
            return parse(f.read())
        except UnicodeDecodeError as e:
            raise FstError(f"cannot read {path}: {e}") from None


def _print_trail(task: TaskSpec, unsat_trail) -> None:
    """The lower bound the deepening used, then how each level below n_min
    was refuted: by search, or by a clique of incompatible prefixes."""
    lo = lower_bound(task)
    clique = next((o.clique for o in unsat_trail if o.clique), ())
    if clique:
        print(f"lower bound: {len(clique)} (prefix clique; output count {lo})")
    else:
        print(f"lower bound: {lo} (output count)")
    for outcome in unsat_trail:
        if outcome.clique:
            print(f"UNSAT at {outcome.n} states (clique of {len(outcome.clique)} prefixes)")
        else:
            print(
                f"UNSAT at {outcome.n} states "
                f"({outcome.stats.nodes} nodes, {outcome.stats.seconds:.3f}s)"
            )


def _output_paths(args) -> tuple[str, str | None]:
    """The FST/1 path, --output or by default beside the task file with its
    extension replaced by .fst, and the --dot path or None. Each is opened
    for appending before any work, so it fails as the later write would,
    and must not share its device and inode with the task file or the other
    output; the probes stay open until compared, so no inode is reused. A
    file a probe created is removed, so a run that writes nothing leaves none."""
    paths = (args.output or os.path.splitext(args.taskfile)[0] + ".fst", args.dot)
    seen = [(os.stat(args.taskfile), f"task file {args.taskfile}")]
    with contextlib.ExitStack() as probes:
        for role, path in zip(("FST/1 output", "DOT output"), paths):
            if not path:
                continue
            existed = os.path.exists(path)
            probe = os.fstat(probes.enter_context(open(path, "a")).fileno())
            if not existed:
                probes.callback(os.remove, os.path.realpath(path))
            same = next((name for st, name in seen if os.path.samestat(st, probe)), None)
            if same:
                raise FstError(f"the {role} {path} is the {same}; each path must name its own file")
            seen.append((probe, f"{role} {path}"))
    return paths


def _write_machine(t, paths: tuple[str, str | None], nil_sink: bool) -> None:
    """Write t as FST/1 to paths[0] and, if paths[1] is set, as DOT there."""
    out_path, dot = paths
    with open(out_path, "w", encoding="utf-8") as f:
        f.write(serialize_transducer(t))
    print(f"wrote {out_path}")
    if dot:
        with open(dot, "w", encoding="utf-8") as f:
            f.write(to_dot(t, show_nil_sink=nil_sink))
        print(f"wrote {dot}")


def cmd_synth(args) -> int:
    task = _read(args.taskfile, tasks_mod.parse_task)
    cfg = SearchConfig(
        max_states=args.max_states, node_budget=args.budget_nodes, time_budget=args.budget_seconds
    )
    paths = _output_paths(args)
    start = time.monotonic()
    try:
        n_min, witness, unsat_trail = synthesize_minimal(task, cfg, engine=ENGINES["table"])
    except NoSolutionWithin as e:
        _print_trail(task, e.trail)
        print(f"UNSAT up to {cfg.max_states} states", file=sys.stderr)
        return EXIT_UNSAT
    except BudgetExhausted as e:
        print(f"budget exhausted: {e} after {e.stats.nodes} nodes", file=sys.stderr)
        return EXIT_UNSAT
    elapsed = time.monotonic() - start
    witness = prune(witness, task)
    d, o = defined_map_count(witness)
    k = len(task.input_alphabet)
    print(f"minimal states: {n_min}")
    print(f"defined maps: delta={d} omega={o}")
    print(f"logic variables at n={n_min}: {variable_count(n_min, k)}")
    print(
        f"search space at n={n_min}: "
        f"{search_space_size(n_min, k, len(task.output_alphabet))}"
    )
    _print_trail(task, unsat_trail)
    print(f"total time: {elapsed:.3f}s")
    _write_machine(witness, paths, args.nil_sink)
    return EXIT_OK


def cmd_trie(args) -> int:
    task = _read(args.taskfile, tasks_mod.parse_task)
    paths = _output_paths(args)
    t = build_trie(task)
    print(f"trie states: {t.n_states}")
    if args.minimize:
        t = minimize(t, task)
        print(f"minimized states: {t.n_states}")
    _write_machine(t, paths, args.nil_sink)
    return EXIT_OK


def bench_table() -> tuple[list[list[str]], list[str]]:
    """Compute the comparison rows. Returns (rows, timing column per row);
    timings are kept separate so the table proper is deterministic."""
    rows = []
    timings = []
    for name, make_task, *paper in BENCH_ROWS:
        task = make_task()
        t0 = time.monotonic()
        n_min, _, _ = synthesize_minimal(task, BENCH_CONFIG)
        t1 = time.monotonic()
        t = build_trie(task)
        mini = minimize(t, task)
        t2 = time.monotonic()
        if not n_min <= mini.n_states <= t.n_states:
            raise CheckFailed(
                f"{name}: minimal {n_min} <= minimized {mini.n_states}"
                f" <= trie {t.n_states} does not hold"
            )
        rows.append([name, str(n_min), str(t.n_states), str(mini.n_states), *map(str, paper)])
        timings.append(f"synth {t1 - t0:.3f}s, trie {t2 - t1:.3f}s")
    return rows, timings


BENCH_HEADER = [
    "Task",
    "Minimal",
    "Trie",
    "Minimized",
    "PaperMinimal",
    "PaperTrie",
    "PaperMinimized",
]


def format_bench(rows, timings, fmt: str, show_timings: bool = True) -> str:
    header = BENCH_HEADER + (["Timings"] if show_timings else [])
    full = [
        row + ([timing] if show_timings else [])
        for row, timing in zip(rows, timings)
    ]
    if fmt == "csv":
        lines = [",".join(header)]
        lines += [",".join(f'"{c}"' if "," in c else c for c in row) for row in full]
        return "\n".join(lines) + "\n"
    widths = [
        max(len(header[i]), max(len(row[i]) for row in full))
        for i in range(len(header))
    ]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    for row in full:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def cmd_bench(args) -> int:
    rows, timings = bench_table()
    sys.stdout.write(
        format_bench(rows, timings, args.format, show_timings=not args.no_timings)
    )
    return EXIT_OK


def cmd_run(args) -> int:
    t = _read(args.transducerfile, parse_transducer)
    if not args.word:
        print("word must be non-empty", file=sys.stderr)
        return EXIT_USAGE
    word = tuple(args.word if tasks_mod.chars_mode(t.input_alphabet) else args.word.split(","))
    try:
        if args.trace:
            print("trajectory: " + " ".join(str(q) for q in trajectory(t, word)))
        out = run(t, word)
    except (UndefinedTransition, UndefinedOutput) as e:
        print(e, file=sys.stderr)
        return EXIT_UNSAT
    print(out)
    return EXIT_OK


def cmd_gen(args) -> int:
    generate = tasks_mod.GENERATORS[args.family]
    names = list(inspect.signature(generate).parameters)
    if len(args.params) != len(names):
        raise FstError(f"{args.family} takes {len(names)} parameters: {' '.join(names)}".rstrip(": "))
    values = []
    for name, raw in zip(names, args.params):
        try:
            values.append(int(raw))
        except ValueError:
            raise FstError(f"{args.family}: {name} must be an integer, got {raw!r}") from None
    task = generate(*values)
    text = tasks_mod.write_task(task)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(text)
        print(f"wrote {args.output} ({len(task.pairs)} pairs)")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    """A new parser on every call; `main` keeps one per process (`_parser`)."""
    parser = argparse.ArgumentParser(
        prog="fstsynth",
        description="Exact minimal single-output transducer synthesis "
        "and the trie+minimization baseline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the task file and the output options synth and trie share
    machine = argparse.ArgumentParser(add_help=False)
    machine.add_argument("taskfile")
    machine.add_argument("--output", "-o", default=None, help="FST/1 output path")
    machine.add_argument("--dot", default=None, help="also write a DOT graph here")
    machine.add_argument("--nil-sink", action="store_true", help="route undefined cells to a nil node in DOT")

    p = sub.add_parser("synth", parents=[machine], help="synthesize a state-minimal transducer")
    p.add_argument("--max-states", type=int, default=SearchConfig.max_states)
    p.add_argument("--budget-nodes", type=int, default=None, help="search nodes per state count")
    p.add_argument("--budget-seconds", type=float, default=None)

    p = sub.add_parser("trie", parents=[machine], help="build (and optionally minimize) the prefix trie")
    p.add_argument("--minimize", action="store_true")

    p = sub.add_parser("bench", help="print the five-task comparison table")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.add_argument("--no-timings", action="store_true")

    p = sub.add_parser("run", help="apply a transducer to a word")
    p.add_argument("transducerfile")
    p.add_argument("word")
    p.add_argument("--trace", action="store_true", help="print the full trajectory")

    p = sub.add_parser("gen", help="write a built-in task file")
    p.add_argument("family", choices=sorted(tasks_mod.GENERATORS))
    p.add_argument("params", nargs="*")
    p.add_argument("--output", "-o", default=None)

    return parser


_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except OSError as e:
        if e.filename is None:
            raise
        print(f"cannot open {e.filename}: {e.strerror}", file=sys.stderr)
        return EXIT_USAGE
    except FstError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


def entry(argv=None) -> int:
    """Console entry point: `main`, with any exception that escapes it (a
    crash or a failed internal check) reported on one line as exit 3, so
    it can never read as UNSAT."""
    try:
        return main(argv)
    except Exception as e:
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(entry())
