"""Every FstError that bad input or a misused call provokes, with its exact
message, and the one `error: ...` line and exit 2 the CLI turns it into."""

import re

import pytest

from conftest import PARITY
from fstsynth.cli import entry
from fstsynth.core import FstError, TaskSpec, Transducer, prune, relabel
from fstsynth.oracle import oracle_sat
from fstsynth.tasks import gen_parity, gen_signal_locator
from fstsynth.trie import build_trie, minimize, subtree_classes


def w(s):
    return tuple(s)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: TaskSpec(("0", "-"), ("a",), ((w("0"), "a"),)), "invalid input symbol '-'"),
        (lambda: TaskSpec(("0",), ("a", "a"), ((w("0"), "a"),)), "duplicate output symbol 'a'"),
        (lambda: TaskSpec(("0",), ("a",), (((), "a"),)), "words must be non-empty"),
        (
            lambda: TaskSpec(("0", "1"), ("a", "b"), ((w("01"), "a"), (w("01"), "b"))),
            "word '01' mapped to both 'a' and 'b'",
        ),
        (lambda: TaskSpec(("0",), ("a",), ()), "a task needs at least one (word, output) pair"),
        (lambda: prune(PARITY, gen_signal_locator(9, 3)), "prune requires a verifying transducer"),
        (lambda: relabel(PARITY, [0, 0]), "not a permutation of 0..1"),
        (lambda: relabel(PARITY, [1, 0]), "permutation must fix the initial state 0"),
        (lambda: subtree_classes(PARITY), "the transducer has a cycle"),
        (
            lambda: minimize(build_trie(gen_parity(2)), gen_signal_locator(9, 3)),
            "minimize requires a verifying transducer",
        ),
        (lambda: gen_signal_locator(10, 3), "k=3 does not divide n=10"),
        (lambda: oracle_sat(gen_parity(2), 3, cap=100), "enumeration size 5832 exceeds cap 100"),
    ],
    ids=[
        "invalid-symbol",
        "duplicate-symbol",
        "empty-word",
        "contradictory-pair",
        "empty-task",
        "prune",
        "not-a-permutation",
        "permutation-moves-0",
        "cycle",
        "minimize",
        "non-divisible",
        "oracle-cap",
    ],
)
def test_message(call, message):
    with pytest.raises(FstError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize(
    "task_text, argv, message",
    [
        ("01 a\n01 b\n", None, "word '01' mapped to both 'a' and 'b'"),
        ("@inputs 0 1\n@outputs a b\n", None, "a task needs at least one (word, output) pair"),
        ("0 -\n", None, "invalid output symbol '-'"),
        (None, ["gen", "signal-locator", "10", "3"], "k=3 does not divide n=10"),
    ],
    ids=["contradictory-pair", "empty-task", "invalid-symbol", "non-divisible"],
)
def test_cli_exit_2(tmp_path, capsys, task_text, argv, message):
    if argv is None:
        path = tmp_path / "task.io"
        path.write_text(task_text)
        argv = ["synth", str(path)]
    assert entry(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
