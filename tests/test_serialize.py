import pytest
from hypothesis import given

from conftest import total_transducers
from fstsynth.core import FormatError, Transducer, prune
from fstsynth.serialize import (
    parse_transducer,
    serialize_transducer,
    to_dot,
)
from fstsynth.synth_table import synthesize_at
from fstsynth.tasks import gen_signal_locator


def test_roundtrip_parity(parity_machine):
    assert parse_transducer(serialize_transducer(parity_machine)) == parity_machine


def test_roundtrip_partial():
    t = Transducer(2, ("0", "1"), ("a",), ((1, None), (None, None)), (None, "a"))
    assert parse_transducer(serialize_transducer(t)) == t


@given(total_transducers())
def test_roundtrip_random(t):
    assert parse_transducer(serialize_transducer(t)) == t


def test_missing_header():
    with pytest.raises(FormatError):
        parse_transducer("@states 1\n0 a 0\n")


@pytest.mark.parametrize("directive", ["@states", "@initial"])
def test_bare_directive(directive):
    text = f"{directive}\n@states 1\n@inputs 0\n@outputs a\n0 a 0\n"
    with pytest.raises(FormatError, match="line 1"):
        parse_transducer(text)


def test_wrong_body_arity():
    text = "@states 1\n@inputs 0 1\n@outputs a\n0 a 0\n"
    with pytest.raises(FormatError):
        parse_transducer(text)


@pytest.mark.parametrize(
    "text, line",
    [
        ("@states x\n@inputs 0\n@outputs a\n0 a 0\n", 1),
        ("@states 1\n@inputs 0\n@outputs a\nz a 0\n", 4),
        ("@states 1\n@inputs 0\n@outputs a\n0 a y\n", 4),
    ],
    ids=["states", "state", "successor"],
)
def test_non_numeric_field(text, line):
    with pytest.raises(FormatError, match=f"line {line}: .* must be a number") as info:
        parse_transducer(text)
    assert info.value.lineno == line


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("@states 1\n@bogus\n@inputs 0\n@outputs a\n0 a 0\n", 2, "unknown directive @bogus"),
        ("@states 2\n@inputs 0\n@outputs a\n0 a 0\n", 0, "expected 2 body lines, got 1"),
        ("@states 1\n@inputs 0\n@outputs a\n1 a 0\n", 4, "bad or repeated state 1"),
        ("@states 2\n@inputs 0\n@outputs a\n0 a 1\n0 a 0\n", 5, "bad or repeated state 0"),
    ],
    ids=["unknown-directive", "body-count", "state-out-of-range", "state-repeated"],
)
def test_malformed_machine(text, line, message):
    with pytest.raises(FormatError, match=f"^line {line}: {message}$") as info:
        parse_transducer(text)
    assert info.value.lineno == line


def test_nonzero_initial_rejected():
    text = "@states 1\n@initial 1\n@inputs 0\n@outputs a\n0 a 0\n"
    with pytest.raises(FormatError):
        parse_transducer(text)


class TestDot:
    def test_parity(self, parity_machine):
        dot = to_dot(parity_machine)
        assert '"0:0"' in dot and '"1:1"' in dot
        assert dot.count("->") == 5  # entry arrow + 4 labeled transitions
        assert "nil" not in dot

    def test_nil_sink_for_empty_machine(self):
        t = Transducer(1, ("0",), ("a",), ((None,),), (None,))
        dot = to_dot(t, show_nil_sink=True)
        assert 'label="nil"' in dot
        assert "q0 -> nil" in dot

    def test_no_nil_without_option(self):
        t = Transducer(1, ("0",), ("a",), ((None,),), (None,))
        assert "nil" not in to_dot(t)

    def test_pruned_signal_locator_has_nil_sink(self):
        task = gen_signal_locator(9, 3)
        pruned = prune(synthesize_at(task, 5).witness, task)
        dot = to_dot(pruned, show_nil_sink=True)
        assert "-> nil" in dot

    def test_symbols_share_edges(self):
        t = Transducer(1, ("a", "b"), ("x",), ((0, 0),), ("x",))
        dot = to_dot(t)
        assert 'label="a,b"' in dot

    @pytest.mark.parametrize(
        "symbol, escaped", [('a"b', r"a\"b"), ("a\\b", r"a\\b")], ids=["quote", "backslash"]
    )
    def test_labels_are_escaped(self, symbol, escaped):
        # the symbol is an output of state 1 and an input on the edge to it
        t = Transducer(2, ("0", symbol), ("c", symbol), ((1, 1), (None, None)), ("c", symbol))
        dot = to_dot(t)
        assert f'  q1 [shape=circle, label="1:{escaped}"];\n' in dot
        assert f'  q0 -> q1 [label="0,{escaped}"];\n' in dot

    def test_deterministic(self, parity_machine):
        assert to_dot(parity_machine) == to_dot(parity_machine)
