import pytest
from hypothesis import given, settings

from conftest import one_token_task, tiny_tasks
from fstsynth.core import FstError, TaskSpec, verify
from fstsynth.oracle import oracle_min, oracle_sat
from fstsynth.synth_table import NoSolutionWithin, SearchConfig, synthesize_minimal
from fstsynth.tasks import gen_parity


def w(s):
    return tuple(s)


def test_parity_unsat_at_one():
    sat, witness = oracle_sat(gen_parity(2), 1)
    assert not sat and witness is None


def test_parity_sat_at_two():
    sat, witness = oracle_sat(gen_parity(2), 2)
    assert sat and verify(witness, gen_parity(2)).ok


def test_parity_min():
    assert oracle_min(gen_parity(2), 4) == 2


def test_single_pair_min():
    assert oracle_min(TaskSpec(("0",), ("r",), ((w("0"), "r"),)), 3) == 1


def test_monotone_in_states():
    task = TaskSpec(
        ("0", "1"), ("a", "b"), ((w("0"), "a"), (w("1"), "b"), (w("00"), "b"))
    )
    previous = False
    for n in (1, 2, 3):
        sat, _ = oracle_sat(task, n)
        assert sat or not previous
        previous = sat


def test_no_solution_within():
    with pytest.raises(NoSolutionWithin):
        oracle_min(gen_parity(2), 1)


def test_cap_exceeded():
    with pytest.raises(FstError, match="^enumeration size 102400000000000000000000 exceeds cap 1000000$"):
        oracle_sat(gen_parity(2), 10, cap=10**6)


def test_cap_message_past_the_int_to_str_limit():
    # 5^6500*5^5 has 4,547 decimal digits, more than Python converts by default
    with pytest.raises(FstError, match=r"^enumeration size 5\^6500\*5\^5 exceeds cap 100000000$"):
        oracle_sat(one_token_task(1300, 5), 5)


def test_deterministic_witness():
    task = gen_parity(2)
    _, a = oracle_sat(task, 2)
    _, b = oracle_sat(task, 2)
    assert a == b


@settings(max_examples=50, deadline=None)
@given(tiny_tasks())
def test_oracle_min_matches_engine(task):
    expected = oracle_min(task, 4)
    n_min, _, _ = synthesize_minimal(task, SearchConfig(max_states=4))
    assert n_min == expected
