"""Every script under scripts/ must at least import and parse its
arguments: `--help` exits 0. The quick ones also run."""

import importlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import load_script
from fstsynth.cli import BENCH_ROWS
from fstsynth.core import verify
from fstsynth.serialize import parse_transducer

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
bench_compare = load_script("scripts/bench_compare.py")
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))


@pytest.mark.parametrize("script", SCRIPTS, ids=[s.name for s in SCRIPTS])
def test_help_exits_0(script):
    result = subprocess.run(
        [sys.executable, str(script), "--help"], capture_output=True, text=True, env=ENV, timeout=60
    )
    assert result.returncode == 0, result.stderr


def test_reproduce_results(tmp_path):
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reproduce_results.py"), "--out", str(tmp_path)],
        capture_output=True, text=True, env=ENV, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    # per bench task: the synthesized machine as FST/1 and DOT, and the
    # minimized trie as DOT; then the comparison table
    slugs = {name.lower().replace(" ", "_").replace("-", "_"): make for name, make, *_ in BENCH_ROWS}
    expected = {f"{slug}{suffix}" for slug in slugs for suffix in (".fst", ".dot", "_trie_min.dot")}
    assert {p.name for p in tmp_path.iterdir()} == expected | {"comparison.csv"}
    lines = (tmp_path / "comparison.csv").read_text().splitlines()
    assert lines[0].startswith("Task,Minimal,Trie,Minimized")
    assert len(lines) == 1 + len(BENCH_ROWS)
    for slug, make_task in slugs.items():
        assert verify(parse_transducer((tmp_path / f"{slug}.fst").read_text()), make_task()).ok


def test_benchmark_hooks_exist():
    """Every attribute perfbench/spans.py wraps must exist, or `--trace 1`
    loses a layer without an error."""
    spans = load_script("perfbench/spans.py")
    for module, attr, _ in spans.TARGETS:
        assert hasattr(importlib.import_module(f"fstsynth.{module}"), attr), f"fstsynth.{module}.{attr}"
    assert callable(importlib.import_module("fstsynth.cli").ENGINES[spans.ENGINE])


def test_stress_tier():
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "stress.py")],
        capture_output=True, text=True, env=ENV, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    rows = [json.loads(line) for line in result.stdout.splitlines()]
    assert [(r["task"], r["n_min"]) for r in rows] == [
        ("pal5", 8), ("pal6", 10), ("sl12-4", 7), ("sl10-5", 7), ("zo8", 6), ("par12", 2), ("words", 3)
    ]
    for row in rows:
        # one row shape for both tiers
        assert set(row) == {"task", "n_min", "levels", "last_refuted", "stopped", "peak_rss_mb"}
        assert row["stopped"] is None and row["peak_rss_mb"] > 0
        # one level per state count from the output bound up, all UNSAT but the last
        levels = row["levels"]
        assert row["last_refuted"] == (levels[-2] if len(levels) > 1 else None)
        assert [lv["n"] for lv in levels] == list(range(levels[0]["n"], row["n_min"] + 1))
        assert [lv["verdict"] for lv in levels] == ["UNSAT"] * (len(levels) - 1) + ["SAT"]
        assert all(lv["certificate"] in ("search", "clique") for lv in levels)


def test_bench_compare_levels():
    """The rows of the child mode: per task and level, the verdict, the
    search nodes and the clique that certified a level with no search."""
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_compare.py"), str(ROOT), str(ROOT), "--levels", "refute"],
        capture_output=True, text=True, env=ENV, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    four, six = ["00", "01", "10", "11"], ["00000", "00001", "00011", "00111", "01111", "11111"]
    levels = {
        "pal4": [(2, 9), (3, four), (4, 52), (5, 7)],
        "zo4": [(3, 36), (4, 8)],
        "sl8-4": [(4, 100), (5, 246), (6, 71)],
        "zo8": [(3, 94), (4, six), (5, six), (6, 12)],
        "pal5": [(2, 9), (3, four), (4, 48), (5, 50), (6, 207)],  # no machine within 6 states
    }
    sat = {"pal4": 5, "zo4": 4, "sl8-4": 6, "zo8": 6}
    assert json.loads(result.stdout) == [
        {"task": task, "n": n, "verdict": "SAT" if sat.get(task) == n else "UNSAT",
         "nodes": 0 if isinstance(level, list) else level, "certificate": level if isinstance(level, list) else "search"}
        for task, trail in levels.items() for n, level in trail
    ]


def test_bench_compare_reports_the_child_error(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")  # and no BENCHMARK.json
    with pytest.raises(RuntimeError, match="cannot read BENCHMARK.json"):
        bench_compare.benchmark(tmp_path, "refute", 1, 0.1)


def test_bench_compare_summary():
    def side(values):
        return {"refute": [{"metrics": {"pairs_per_s.p50": v, "setup_s": v / 100}} for v in values]}

    before, after = [100, 110, 90, 120, 80], [120, 100, 130, 125, 95]
    runs = {"before": side(before), "after": side(after)}
    medians = {s: {"refute": {m: statistics.median(r["metrics"][m] for r in rs["refute"])
                              for m in ("pairs_per_s.p50", "setup_s")}} for s, rs in runs.items()}
    metrics = [{"name": "pairs_per_s.p50", "better": "higher"}, {"name": "setup_s", "better": "lower"}]
    rows = bench_compare.summary(runs, medians, metrics)["refute"]
    assert rows["pairs_per_s.p50"] == {"ratio": 1.2, "after_wins": 4, "pairs": 5, "before_iqr": 30}
    assert rows["setup_s"]["after_wins"] == 1
    assert rows["setup_s"]["ratio"] == pytest.approx(1.2)


def test_bench_compare_says_whether_the_levels_moved():
    def side(values):
        return {w: [{"metrics": {"pairs_per_s.p50": v}} for v in values] for w in ("refute", "wide", "witness")}

    runs = {"before": side([100, 110]), "after": side([120, 100])}
    medians = {s: {w: {"pairs_per_s.p50": 105} for w in ("refute", "wide", "witness")} for s in runs}
    pal4 = [{"task": "pal4", "n": n, "verdict": "UNSAT", "nodes": 9, "certificate": "search"} for n in (2, 3)]
    moved = dict(pal4[1], nodes=8)
    error = {"task": "par10", "error": "RecursionError"}
    levels = {"before": {"refute": pal4, "wide": pal4 + [error], "witness": pal4},
              "after": {"refute": list(pal4), "wide": [pal4[0], moved], "witness": [pal4[0], moved]}}
    metrics = [{"name": "pairs_per_s.p50", "better": "higher"}]
    out = bench_compare.summary(runs, medians, metrics, levels)
    assert out["refute"]["levels_equal"] is True and out["refute"]["levels_changed"] == []
    assert out["refute"]["verdicts_equal"] is True
    assert out["wide"]["levels_equal"] is False
    assert out["wide"]["verdicts_equal"] is False  # par10's row is gone
    assert (out["witness"]["levels_equal"], out["witness"]["verdicts_equal"]) == (False, True)  # nodes alone moved
    assert out["wide"]["levels_changed"] == [{"before": pal4[1], "after": moved}, {"before": error, "after": None}]
    assert out["wide"]["pairs_per_s.p50"]["after_wins"] == 1
    assert "levels_equal" not in bench_compare.summary(runs, medians, metrics)["refute"]

