"""Internal checks are explicit raises, not asserts: they must still fire
under `python -O`, which strips every assert statement."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Each probe breaks one dependency of a checked site and prints whether the
# site raised CheckFailed.
SCRIPT = r"""
import itertools, sys
from fstsynth import cli, oracle, synth_table, trie
from fstsynth.core import CheckFailed, VerifyReport
from fstsynth.tasks import gen_parity, gen_zeroes_or_ones

if __debug__:
    sys.exit("not running under -O")
task = gen_parity(2)


def fails(*args):
    return VerifyReport(ok=False)


def fails_once():
    calls = itertools.count()
    return lambda *args: VerifyReport(ok=next(calls) > 0)


probes = [
    ("synth_table", synth_table, "verify", fails, lambda: synth_table.synthesize_at(task, 2)),
    ("oracle", oracle, "verify", fails, lambda: oracle.oracle_sat(task, 2)),
    ("minimize", trie, "verify", fails_once(), lambda: trie.minimize(trie.build_trie(task), task)),
    ("morphism", trie, "subtree_classes", lambda t: ([0] * t.n_states, [(None, (0, 0))]),
     lambda: trie.minimize(trie.build_trie(task), task)),
    ("clique", synth_table, "_max_clique", lambda adj, order, budget: order,
     lambda: synth_table.incompatibility_clique(gen_zeroes_or_ones(4))),
    ("bench", cli, "synthesize_minimal", lambda task, cfg: (99, None, []), lambda: cli.bench_table()),
]
for name, module, attr, replacement, call in probes:
    original = getattr(module, attr)
    setattr(module, attr, replacement)
    try:
        call()
        print(name, "missed")
    except CheckFailed as e:
        print(name, "raised:", e)
    finally:
        setattr(module, attr, original)

cli.synthesize_minimal = lambda task, cfg: (99, None, [])
print("entry exit", cli.entry(["bench", "--no-timings"]))
"""


def test_checks_survive_python_O():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-O", "-c", SCRIPT], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines == [
        "synth_table raised: search produced a non-verifying witness",
        "oracle raised: oracle produced a non-verifying witness",
        "minimize raised: the minimized transducer does not verify",
        "morphism raised: state 2 does not agree with its class 0",
        "clique raised: clique prefixes ('0',) and () are compatible",
        "bench raised: Signal Locator 9-3: minimal 99 <= minimized 27 <= trie 54 does not hold",
        "entry exit 3",
    ]
    assert result.stderr.startswith("internal error: CheckFailed: ")
    assert len(result.stderr.splitlines()) == 1
