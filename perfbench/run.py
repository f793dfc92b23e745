"""fstsynth benchmark: time to a checked verdict through the command line.

    python3 perfbench/run.py --workload refute|witness|wide|all \
        --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports the program from
`src/`. One op is one task file through `fstsynth synth` and then
`fstsynth trie --minimize`, both called in-process through
`fstsynth.cli.main`: one process, one thread, one client, closed loop. A
pass runs every task of the workload once, in an order drawn from the
seed. Passes repeat until `--seconds` have gone by. Every written
machine is checked by the benchmark's own reader and simulator. Times
behind the end-to-end metrics are in reference seconds (`speed.py`),
which take out the drift of a shared host's speed.

With `--trace 0` the last line is a JSON object with the end-to-end
metrics; with `--trace 1` passes alternate between untraced and traced
and the JSON holds the per-layer metrics (medians of per-pass values).
Both print every metric, the environment, failures and, when traced, the
per-task per-n search levels before that line. `--workload all` runs
every workload traced and prints all of it.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import check
import inputs
import spans
import speed

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
# Set-up runs this many times before measuring and once more before each
# pass, so its median samples the whole run, not one moment of it.
SETUP_REPEATS = 5
# Each goodput sample covers consecutive whole passes totalling at least
# this much op time. On a shared host, speed swings between contention
# phases lasting seconds; one-second samples mostly record the phase.
SAMPLE_SECONDS = 3.0
# Search budget passed to `synth --budget-seconds` (the CLI applies it to
# each state count). The slowest level here, sl12-4 at 7 states, takes
# 6-9 s on a shared 2-core Xeon, depending on host load.
BUDGET_SECONDS = 30
PROGRAM_MODULES = ("cli", "core", "tasks", "trie", "synth_table", "serialize")

# Nodes per (task, n) on the program as first published. Informational: a
# later search change moves them on purpose, and the report says where.
SEED_NODES = {
    ("pal4", 2): 28, ("pal4", 3): 282, ("pal4", 4): 3358, ("pal4", 5): 1857,
    ("zo4", 3): 279, ("zo4", 4): 48,
    ("sl8-4", 4): 2260, ("sl8-4", 5): 18516, ("sl8-4", 6): 14439,
    ("zo8", 3): 2407, ("zo8", 4): 39129, ("zo8", 5): 741091, ("zo8", 6): 4256,
    ("pal5", 2): 26, ("pal5", 3): 239, ("pal5", 4): 3184, ("pal5", 5): 53149, ("pal5", 6): 1121877,
    ("sl12-4", 4): 3646, ("sl12-4", 5): 31912, ("sl12-4", 6): 298564, ("sl12-4", 7): 1813553,
    ("sl10-5", 5): 18516, ("sl10-5", 6): 163980, ("sl10-5", 7): 351822,
    ("sl9-3", 3): 399, ("sl9-3", 4): 3646, ("sl9-3", 5): 9394,
    ("words", 3): 48658,
    ("par9", 2): 519,
    ("zo6", 3): 879, ("zo6", 4): 9652, ("zo6", 5): 191,
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def environment(seed: int) -> dict:
    """Where a result came from: commit (when the checkout is a git work
    tree), a digest of the program sources, Python, usable CPUs, seed."""
    sources = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {"git_sha": _git_sha(), "src_sha256": digest.hexdigest()[:16],
            "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "seed": seed}


def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def setup(workload: str, seed: int, work: Path):
    """Import the program afresh, generate the workload and write its task
    files. Returns (program modules, tasks, paths per task)."""
    for name in [m for m in sys.modules if m == "fstsynth" or m.startswith("fstsynth.")]:
        del sys.modules[name]
    importlib.import_module("fstsynth.cli")
    modules = {m: sys.modules[f"fstsynth.{m}"] for m in PROGRAM_MODULES}
    tasks = inputs.WORKLOADS[workload](seed)
    paths = {}
    for task in tasks:
        task_file = work / f"{task.name}.io"
        task_file.write_text(task.text(), encoding="utf-8")
        paths[task.name] = (task_file, work / f"{task.name}.synth.fst", work / f"{task.name}.trie.fst")
    return modules, tasks, paths


def import_program():
    src = ROOT / "src"
    if not (src / "fstsynth" / "__init__.py").is_file():
        raise BenchError(f"no program sources at {src}/fstsynth")
    sys.path.insert(0, str(src))
    import fstsynth

    if Path(fstsynth.__file__).resolve().parent != (src / "fstsynth").resolve():
        raise BenchError(f"imported fstsynth from {fstsynth.__file__}, not from {src}")


class Call:
    """One `fstsynth.cli.main` call: exit code, captured output, and the
    exception that escaped it, if any."""

    def __init__(self, cli, argv: list[str]):
        out, err = io.StringIO(), io.StringIO()
        self.code = None
        self.error = None
        try:
            with redirect_stdout(out), redirect_stderr(err):
                self.code = cli.main(argv)
        except SystemExit as e:  # argparse rejected argv
            self.code = e.code
        except Exception as e:  # a crash is a failed op, recorded, never fatal
            self.error = (type(e).__name__, "".join(traceback.format_exception(e, limit=-3)))
        self.stdout = out.getvalue()
        self.stderr = err.getvalue()


def _read(path: Path):
    return path.read_text(encoding="utf-8") if path.is_file() else None


class Runner:
    def __init__(self, modules, tasks, paths, seed: int, before_pass):
        self.modules = modules
        self.before_pass = before_pass
        self.tasks = tasks
        self.paths = paths
        self.order = random.Random(f"order:{seed}")
        # trie/minimized counts not written by hand are computed here, outside set-up timing
        self.expected = {t.name: (t.trie_states, t.min_states) if t.trie_states is not None
                         else inputs.trie_counts(t.pairs) for t in tasks}
        self.tracer = spans.Tracer(modules)
        self.attempted = 0
        self.wrong = 0
        self.failures: dict[str, int] = {}
        self.failure_detail: dict[str, str] = {}

    def op(self, task) -> tuple[float, bool]:
        """Run one op; return (seconds, decided correctly)."""
        task_file, synth_fst, trie_fst = self.paths[task.name]
        for stale in (synth_fst, trie_fst):
            stale.unlink(missing_ok=True)
        synth_argv = ["synth", str(task_file), "-o", str(synth_fst), "--budget-seconds", str(BUDGET_SECONDS)]
        if task.max_states is not None:
            synth_argv += ["--max-states", str(task.max_states)]
        cli = self.modules["cli"]
        self.tracer.task = task.name
        # Start every op from a collected heap, as a fresh `fstsynth` process
        # would; otherwise when the cyclic collector runs, and over how big a
        # heap, drifts from pass to pass and dominates the spread.
        gc.collect()
        start = time.perf_counter()
        synth = Call(cli, synth_argv)
        trie = Call(cli, ["trie", str(task_file), "--minimize", "-o", str(trie_fst)])
        seconds = time.perf_counter() - start
        self.attempted += 1
        reason = detail = None
        if synth.error or trie.error:
            name, detail = synth.error or trie.error
            reason = f"exception:{name}"
        elif "budget exhausted" in synth.stderr:
            reason, detail = "budget", synth.stderr.strip()
        else:
            try:
                check.check_synth(task, synth.code, synth.stdout, synth.stderr, _read(synth_fst))
                check.check_trie(task, self.expected[task.name], trie.code, trie.stdout, _read(trie_fst))
            except check.CheckError as e:
                reason, detail = "wrong", str(e)
                self.wrong += 1
        if reason is None:
            return seconds, True
        self.failures[reason] = self.failures.get(reason, 0) + 1
        self.failure_detail.setdefault(reason, f"{task.name}: {detail}")
        return seconds, False

    def one_pass(self) -> dict:
        """Run every task once. Each op is timed in wall seconds and in
        reference seconds, scaled by the reference job run on either side
        of it."""
        order = list(self.tasks)
        self.order.shuffle(order)
        seconds = ref_seconds = 0.0
        pairs = decided = 0
        before = speed.reference()
        for task in order:
            op_seconds, ok = self.op(task)
            after = speed.reference()
            seconds += op_seconds
            ref_seconds += op_seconds * speed.scale(before, after)
            before = after
            if ok:
                decided += 1
                pairs += len(task.pairs)
        return {"seconds": seconds, "ref_seconds": ref_seconds, "pairs": pairs,
                "decided": decided, "ops": len(order)}

    def measure(self, seconds: float, traced: bool) -> tuple[list[dict], list[dict]]:
        """Run passes for about `seconds`: another pass starts only if at
        least half of it, at the mean pass time so far, fits. When traced,
        untraced and traced passes alternate. Returns (untraced passes,
        traced passes)."""
        plain: list[dict] = []
        with_trace: list[dict] = []
        start = time.perf_counter()

        def another() -> bool:
            done = len(plain) + len(with_trace)
            elapsed = time.perf_counter() - start
            return elapsed + elapsed / done / 2 < seconds

        while not plain or (traced and not with_trace) or another():
            self.before_pass()
            if traced and len(with_trace) < len(plain):
                with self.tracer:
                    result = self.one_pass()
                recorded = self.tracer.take()
                result["layers"] = spans.layer_metrics(recorded)
                result["levels"] = spans.level_rows(recorded)
                result["spans"] = recorded
                with_trace.append(result)
            else:
                plain.append(self.one_pass())
        return plain, with_trace


def goodput_samples(passes: list[dict], clock: str = "ref_seconds") -> list[float]:
    """Pairs of correctly decided tasks per second of op time (reference
    seconds unless `clock` says "seconds"), over runs of consecutive passes
    of at least SAMPLE_SECONDS; a shorter remainder at the end is dropped
    unless it is all there is."""
    samples = []
    seconds = pairs = 0
    for p in passes:
        seconds += p[clock]
        pairs += p["pairs"]
        if seconds >= SAMPLE_SECONDS:
            samples.append(pairs / seconds)
            seconds = pairs = 0
    return samples or [pairs / seconds]


def end_to_end(passes: list[dict], setup_times: list[tuple[float, float]]) -> dict[str, float]:
    goodput = goodput_samples(passes)
    # slow tail: the lower quartile of the goodput samples. A run holds 3
    # (witness) to about 10 (wide) samples, too few for a lower percentile
    # that more than one sample stands behind.
    tail = statistics.quantiles(goodput, n=4, method="inclusive")[0] if len(goodput) > 1 else goodput[0]
    return {
        "pairs_per_s.p50": statistics.median(goodput),
        "pairs_per_s.tail": tail,
        "decided_frac": sum(p["decided"] for p in passes) / sum(p["ops"] for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(ref for _, ref in setup_times),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    layers = {name: statistics.median(p["layers"][name] for p in traced) for name in traced[0]["layers"]}
    layers["trace.overhead_frac"] = (statistics.median(p["ref_seconds"] for p in traced)
                                     / statistics.median(p["ref_seconds"] for p in plain) - 1)
    return layers


def determinism(traced: list[dict]) -> list[str]:
    """Notes on search counts: whether they repeat across traced passes and
    whether they equal the first published program's counts."""
    counts = [sorted((r["task"], r["n"], r["verdict"], r["nodes"], r["backtracks"]) for r in p["levels"])
              for p in traced]
    notes = ["search counts repeat exactly across %d traced passes" % len(counts)
             if all(c == counts[0] for c in counts) else "SEARCH COUNTS DIFFER between traced passes"]
    seen = [(r[0], r[1], r[3]) for r in counts[0] if (r[0], r[1]) in SEED_NODES]
    moved = [f"{t} n={n}: {nodes} (was {SEED_NODES[t, n]})" for t, n, nodes in seen if nodes != SEED_NODES[t, n]]
    notes.append(f"nodes equal the first published program's on {len(seen) - len(moved)} of {len(seen)} levels"
                 + (": " + "; ".join(moved) if moved else ""))
    return notes


def run_workload(workload: str, seed: int, seconds: float, traced: bool, spec: dict) -> dict:
    work = WORK / workload
    work.mkdir(parents=True, exist_ok=True)
    setup_times = []  # (wall seconds, reference seconds)

    def timed_setup():
        gc.collect()
        before = speed.reference()
        start = time.perf_counter()
        result = setup(workload, seed, work)
        seconds = time.perf_counter() - start
        setup_times.append((seconds, seconds * speed.scale(before, speed.reference())))
        return result

    for _ in range(SETUP_REPEATS):
        modules, tasks, paths = timed_setup()
    # the runner keeps the modules imported here; later set-ups are only timed
    runner = Runner(modules, tasks, paths, seed, before_pass=timed_setup)
    plain, with_trace = runner.measure(seconds, traced)

    env = environment(seed)
    metrics = end_to_end(plain, setup_times)
    if traced:
        metrics.update(per_layer(plain, with_trace))
    reported = spec["per_layer"] if traced else spec["end_to_end"]
    missing = [m["name"] for m in reported if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")

    print(f"== {workload} seed={seed} trace={int(traced)} env={json.dumps(env, sort_keys=True)}")
    print("tasks: " + ", ".join(f"{t.name}({len(t.pairs)} pairs)" for t in tasks))
    print(f"ops: attempted {runner.attempted}, failed {sum(runner.failures.values())}"
          f" {json.dumps(runner.failures, sort_keys=True)}; untraced passes {len(plain)}"
          f" giving {len(goodput_samples(plain))} goodput samples (behind the pairs_per_s median and"
          f" lower quartile), traced passes {len(with_trace)}, set-ups {len(setup_times)}")
    print("untraced pass seconds, wall/reference: " + " ".join(f"{p['seconds']:.3f}/{p['ref_seconds']:.3f}" for p in plain))
    print(f"in wall seconds: pairs_per_s.p50 {statistics.median(goodput_samples(plain, 'seconds')):.6g},"
          f" setup_s {statistics.median(wall for wall, _ in setup_times):.6g}")
    for reason, detail in sorted(runner.failure_detail.items()):
        print(f"failure {reason}: {detail.strip().splitlines()[-1]}")
    for section in ("end_to_end", "per_layer") if traced else ("end_to_end",):
        print(f"{section}:")
        for m in spec[section]:
            value = metrics[m["name"]]
            shown = int(value) if float(value).is_integer() else f"{value:.6g}"
            print(f"  {m['name']:36s} {shown} {m['unit']}")
    if traced:
        for note in determinism(with_trace):
            print(note)
        print("levels of the first traced pass (task n verdict nodes backtracks seconds):")
        for r in with_trace[0]["levels"]:
            print(f"  {r['task']:8s} {r['n']:3d} {r['verdict']:14s} {r['nodes']} {r['backtracks']} {r['seconds']:.4f}")
        trace_file = WORK / f"trace-{workload}-seed{seed}.json"
        trace_file.write_text(json.dumps({
            "env": env, "workload": workload, "failures": runner.failures,
            "metrics": metrics,
            "levels": [p["levels"] for p in with_trace],
            "spans": [[s.name, s.parent, s.start, s.end, s.attrs] for s in with_trace[0]["spans"]],
        }, indent=1, default=str))
        print(f"trace written to {trace_file.relative_to(ROOT)}")
    return {
        "correct": runner.wrong == 0,
        "attempted": runner.attempted,
        "failed": sum(runner.failures.values()),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in reported},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        try:
            spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        except OSError as e:
            raise BenchError(f"cannot read BENCHMARK.json: {e}") from None
        import_program()
        if args.workload != "all":
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), spec)
        else:
            results = {w: run_workload(w, args.seed, args.seconds, True, spec) for w in sorted(inputs.WORKLOADS)}
            result = {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{w}:{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
            }
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
