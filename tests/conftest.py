import importlib.util
from pathlib import Path

import pytest
from hypothesis import strategies as st

from fstsynth.core import TaskSpec, Transducer

# the textbook parity machine: 1 toggles the state, 0 preserves it,
# outputs are the state names
PARITY = Transducer(
    n_states=2,
    input_alphabet=("0", "1"),
    output_alphabet=("0", "1"),
    delta=((0, 1), (1, 0)),
    omega=("0", "1"),
)


def sorted_pairs(task, key):
    """task with its pairs in a stable sort by key: the search walks pairs
    in task order, so this is how a test picks the word order."""
    return TaskSpec(task.input_alphabet, task.output_alphabet, tuple(sorted(task.pairs, key=key)))


def one_token_task(words: int, outputs: int) -> TaskSpec:
    """`words` one-token words t0, t1, ..., each its own input symbol, with
    the outputs o0, o1, ... in turn."""
    symbols = tuple(f"t{i}" for i in range(words))
    labels = tuple(f"o{j}" for j in range(outputs))
    return TaskSpec(symbols, labels, tuple(((s,), labels[i % outputs]) for i, s in enumerate(symbols)))


def load_script(path):
    """The module in the file at `path`, relative to the repository root:
    scripts/ and perfbench/ are not packages."""
    spec = importlib.util.spec_from_file_location(Path(path).stem, Path(__file__).resolve().parents[1] / path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def parity_machine():
    return PARITY


def word_st(max_len=3):
    return st.lists(
        st.sampled_from(["0", "1"]), min_size=1, max_size=max_len
    ).map(tuple)


@st.composite
def tiny_tasks(draw, max_pairs=4, max_len=3, max_outputs=3):
    """Random contradiction-free tasks over a binary input alphabet."""
    n_out = draw(st.integers(1, max_outputs))
    outputs = ("a", "b", "c")[:n_out]
    mapping = draw(
        st.dictionaries(
            word_st(max_len), st.sampled_from(outputs), min_size=1, max_size=max_pairs
        )
    )
    return TaskSpec(("0", "1"), outputs, tuple(sorted(mapping.items())))


@st.composite
def total_transducers(draw, max_states=4):
    """Random total machines over a binary alphabet."""
    n = draw(st.integers(1, max_states))
    outputs = ("x", "y", "z")
    delta = tuple(
        tuple(draw(st.integers(0, n - 1)) for _ in range(2)) for _ in range(n)
    )
    omega = tuple(draw(st.sampled_from(outputs)) for _ in range(n))
    return Transducer(n, ("0", "1"), outputs, delta, omega)
