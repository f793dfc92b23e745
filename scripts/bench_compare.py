"""Before/after numbers for a committed BENCH_<tag>.json.

    python3 scripts/bench_compare.py BEFORE AFTER --out BENCH_tag.json \
        [--workloads refute witness wide] [--seeds 1 2 3 4] [--seconds 40]

BEFORE and AFTER are source checkouts, each with its `perfbench/`. For
every seed and workload the benchmark runs once in each checkout, one run
at a time, with the first of the two alternating from seed to seed; the
file keeps every run's end-to-end metrics and their medians, and a
summary per workload and end-to-end metric of `BENCHMARK.json`: the
after/before ratio of the medians, the seed pairs the after side won and
the before side's interquartile range. It also keeps, per checkout, task
and state count, how each level was decided (verdict, search nodes,
clique certificate), from `synthesize_minimal` on the workload's tasks
as `perfbench/inputs.py` builds them for seed 1, recorded by
`scripts/stress.py`'s `decide` against the checkout's `src/`; each
workload's summary says whether those rows are equal in both checkouts
(`levels_equal`), lists the rows that differ (`levels_changed`) and says
whether every row has the same verdict in both (`verdicts_equal`).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def levels(checkout: Path, workload: str) -> list[dict]:
    """Every level `synthesize_minimal` decides for each workload task, as
    `stress.decide` records them, in the program of `checkout`. Levels
    without a search carry the clique."""
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench"), str(Path(__file__).resolve().parent)]
    import inputs
    import stress
    from fstsynth.synth_table import SearchConfig
    from fstsynth.tasks import parse_task

    rows = []
    for bench_task in inputs.WORKLOADS[workload](1):
        cfg = SearchConfig(max_states=bench_task.max_states or SearchConfig.max_states)
        _, decided, _ = stress.decide(parse_task(bench_task.text()), cfg)
        rows += [{"task": bench_task.name, "n": o.n, "verdict": "SAT" if o.sat else "UNSAT", "nodes": o.stats.nodes,
                  "certificate": ["".join(w) for w in o.clique] if o.clique else "search"} for o in decided]
    return rows


def src_digest(checkout: Path) -> str:
    """The program-source digest perfbench prints as `src_sha256`."""
    digest = hashlib.sha256()
    for path in sorted((checkout / "src").rglob("*.py")):
        digest.update(str(path.relative_to(checkout)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def run_checkout(checkout: Path, args: list[str]) -> str:
    """The stdout of `python ARGS` run in `checkout`; a failed run raises
    RuntimeError carrying the child's stderr."""
    result = subprocess.run([sys.executable, *args], cwd=checkout, capture_output=True, text=True)
    if result.returncode:
        raise RuntimeError(f"{' '.join(args)} in {checkout} exited {result.returncode}:\n{result.stderr}")
    return result.stdout


def benchmark(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    out = run_checkout(checkout, ["perfbench/run.py", "--workload", workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", "0"])
    result = json.loads(out.splitlines()[-1])
    return {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def changed_levels(before: list[dict], after: list[dict]) -> list[dict]:
    """The level rows of one workload that differ between the checkouts,
    matched by task and state count; a row one side lacks is None."""
    sides = [{(r["task"], r.get("n")): r for r in rows} for rows in (before, after)]
    keys = dict.fromkeys([*sides[0], *sides[1]])
    return [{"before": sides[0].get(key), "after": sides[1].get(key)}
            for key in keys if sides[0].get(key) != sides[1].get(key)]


def summary(runs: dict, medians: dict, end_to_end: list[dict], levels: dict | None = None) -> dict:
    """Per workload and end-to-end metric: the after/before ratio of the
    medians (None if the before median is 0), the seed pairs whose after
    run was better, and the before side's interquartile range (the default
    method of `statistics.quantiles`; 0 for one seed). Given `levels`
    ({side: {workload: rows}}), each workload also gets `levels_equal` and
    `levels_changed` from `changed_levels`, and `verdicts_equal`: whether
    each changed row is on both sides with the same verdict."""
    out = {}
    for workload, before_runs in runs["before"].items():
        after_runs, rows = runs["after"][workload], {}
        for metric in end_to_end:
            name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
            before = [r["metrics"][name] for r in before_runs]
            after = [r["metrics"][name] for r in after_runs]
            q1, _, q3 = statistics.quantiles(before, n=4) if len(before) > 1 else (0, 0, 0)
            b, a = medians["before"][workload][name], medians["after"][workload][name]
            rows[name] = {"ratio": a / b if b else None,
                          "after_wins": sum(sign * (y - x) > 0 for x, y in zip(before, after)),
                          "pairs": len(before), "before_iqr": q3 - q1}
        if levels is not None:
            changed = changed_levels(levels["before"][workload], levels["after"][workload])
            rows["levels_equal"], rows["levels_changed"] = not changed, changed
            rows["verdicts_equal"] = all(
                c["before"] and c["after"] and c["before"].get("verdict") == c["after"].get("verdict") for c in changed
            )
        out[workload] = rows
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--workloads", nargs="+", default=["refute", "witness", "wide"])
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3, 4])
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--levels", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.levels:  # child mode: one checkout's levels as JSON
        print(json.dumps(levels(args.before.resolve(), args.levels)))
        return 0
    sides = {"before": args.before.resolve(), "after": args.after.resolve()}
    runs = {side: {w: [] for w in args.workloads} for side in sides}
    for i, seed in enumerate(args.seeds):
        for workload in args.workloads:
            for side in (("before", "after") if i % 2 == 0 else ("after", "before")):
                runs[side][workload].append(benchmark(sides[side], workload, seed, args.seconds))
                print(f"{workload} seed {seed} {side}: {runs[side][workload][-1]['metrics']}", file=sys.stderr)
    end_to_end = json.loads((sides["after"] / "BENCHMARK.json").read_text())["end_to_end"]
    medians = {side: {w: {m: statistics.median(r["metrics"][m] for r in rs) for m in rs[0]["metrics"]}
                      for w, rs in by_workload.items()} for side, by_workload in runs.items()}
    script = str(Path(__file__).resolve())
    level_rows = {side: {w: json.loads(run_checkout(path, [script, str(path), str(path), "--levels", w]))
                         for w in args.workloads} for side, path in sides.items()}
    report = {
        "host": {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
                 "machine": platform.machine(), "processor": _cpu_model()},
        "src_sha256": {side: src_digest(path) for side, path in sides.items()},
        "seconds": args.seconds, "seeds": args.seeds,
        "median": medians, "summary": summary(runs, medians, end_to_end, level_rows),
        "runs": runs, "levels": level_rows,
    }
    text = json.dumps(report, indent=1)
    if args.out:
        args.out.write_text(text + "\n")
    else:
        print(text)
    return 0


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


if __name__ == "__main__":
    sys.exit(main())
