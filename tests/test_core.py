import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import tiny_tasks, total_transducers, word_st
from fstsynth.core import (
    FstError,
    TaskSpec,
    Transducer,
    UndefinedOutput,
    UndefinedTransition,
    UnknownSymbol,
    defined_map_count,
    prune,
    relabel,
    run,
    totalize,
    trajectory,
    verify,
)
from fstsynth.tasks import gen_parity, gen_signal_locator


def w(s):
    return tuple(s)


class TestTaskSpec:
    def test_dedup_keeps_order(self):
        task = TaskSpec(
            ("0", "1"), ("a",), ((w("01"), "a"), (w("0"), "a"), (w("01"), "a"))
        )
        assert task.pairs == ((w("01"), "a"), (w("0"), "a"))

    def test_contradiction_rejected(self):
        with pytest.raises(FstError, match="^word '01' mapped to both 'a' and 'b'$"):
            TaskSpec(("0", "1"), ("a", "b"), ((w("01"), "a"), (w("01"), "b")))

    def test_empty_rejected(self):
        with pytest.raises(FstError, match=r"^a task needs at least one \(word, output\) pair$"):
            TaskSpec(("0", "1"), ("a",), ())

    def test_empty_word_rejected(self):
        with pytest.raises(FstError, match="^words must be non-empty$"):
            TaskSpec(("0", "1"), ("a",), (((), "a"),))

    def test_unknown_symbols_rejected(self):
        with pytest.raises(UnknownSymbol):
            TaskSpec(("0",), ("a",), ((w("01"), "a"),))
        with pytest.raises(UnknownSymbol):
            TaskSpec(("0",), ("a",), ((w("0"), "b"),))

    def test_unknown_symbol_is_the_first_of_the_first_bad_word(self):
        with pytest.raises(UnknownSymbol, match=r"^symbol 'x' not in alphabet \['0'\]$") as e:
            TaskSpec(("0",), ("a",), ((w("00"), "a"), (w("0xy"), "a"), (w("z"), "a")))
        assert e.value.symbol == "x"

    def test_reserved_undefined_marker_rejected(self):
        with pytest.raises(FstError, match="^invalid input symbol '-'$"):
            TaskSpec(("-",), ("a",), (((("-",)), "a"),))

    @pytest.mark.parametrize(
        "inputs, outputs, message",
        [
            (("0", "1", "0"), ("a",), "duplicate input symbol '0'"),
            (("0",), ("a", "a"), "duplicate output symbol 'a'"),
        ],
        ids=["input", "output"],
    )
    def test_duplicate_symbol_rejected(self, inputs, outputs, message):
        with pytest.raises(FstError, match=f"^{message}$"):
            TaskSpec(inputs, outputs, ((w("0"), "a"),))


class TestTransducerValidation:
    def test_no_states(self):
        with pytest.raises(FstError, match="^a transducer needs at least one state$"):
            Transducer(0, ("a",), ("r",), (), ())

    def test_wrong_row_count(self):
        with pytest.raises(FstError, match="^delta must have one row per state$"):
            Transducer(2, ("a",), ("r",), ((0,),), ("r", None))

    def test_wrong_row_length(self):
        with pytest.raises(FstError, match="^delta rows must have one cell per input symbol$"):
            Transducer(2, ("a", "b"), ("r",), ((0, 1), (1,)), ("r", None))

    def test_target_out_of_range_is_the_first_in_row_order(self):
        with pytest.raises(FstError, match="^delta target 5 out of range$"):
            Transducer(2, ("a", "b"), ("r",), ((0, 5), (-1, 7)), ("r", None))
        with pytest.raises(FstError, match="^delta target -1 out of range$"):
            Transducer(2, ("a", "b"), ("r",), ((0, 1), (-1, 7)), ("r", None))

    def test_wrong_output_count(self):
        with pytest.raises(FstError, match="^omega must have one entry per state$"):
            Transducer(2, ("a",), ("r",), ((1,), (None,)), ("r",))

    def test_unknown_output_is_the_first_in_state_order(self):
        with pytest.raises(UnknownSymbol, match=r"^symbol 'x' not in alphabet \['r'\]$") as e:
            Transducer(3, ("a",), ("r",), ((1,), (2,), (None,)), (None, "x", "y"))
        assert e.value.symbol == "x"


class TestTrajectoryAndRun:
    def test_parity_trajectory(self, parity_machine):
        assert trajectory(parity_machine, w("01")) == (0, 0, 1)

    def test_trajectory_is_a_plain_tuple(self, parity_machine):
        assert type(trajectory(parity_machine, w("011"))) is tuple

    def test_self_loop_length_one(self):
        t = Transducer(1, ("a",), ("r",), ((0,),), ("r",))
        assert trajectory(t, ("a",)) == (0, 0)

    def test_undefined_transition_position(self):
        t = Transducer(
            3, ("a",), ("r",), ((1,), (None,), (None,)), ("r", None, None)
        )
        with pytest.raises(UndefinedTransition) as e:
            trajectory(t, ("a", "a"))
        assert e.value.position == 2
        assert e.value.state == 1

    def test_parity_runs(self, parity_machine):
        assert run(parity_machine, w("11")) == "0"
        assert run(parity_machine, w("01")) == "1"

    def test_single_state_runs(self):
        t = Transducer(1, ("0",), ("r",), ((0,),), ("r",))
        assert run(t, w("0000")) == "r"

    def test_unknown_symbol(self, parity_machine):
        with pytest.raises(UnknownSymbol):
            run(parity_machine, ("2",))

    def test_undefined_output(self):
        t = Transducer(1, ("0",), ("r",), ((0,),), (None,))
        with pytest.raises(UndefinedOutput):
            run(t, w("0"))


class TestVerify:
    def test_parity_ok(self, parity_machine):
        report = verify(parity_machine, gen_parity(2))
        assert report.ok and report.failures == ()

    def test_swapped_outputs_fail_everywhere(self, parity_machine):
        bad = Transducer(2, ("0", "1"), ("0", "1"), ((0, 1), (1, 0)), ("1", "0"))
        report = verify(bad, gen_parity(2))
        assert not report.ok
        assert len(report.failures) == 4

    def test_failures_are_data_not_errors(self):
        t = Transducer(1, ("0", "1"), ("0", "1"), ((0, None),), ("0",))
        report = verify(t, gen_parity(2))
        assert not report.ok


class TestPrune:
    def test_parity_unchanged(self, parity_machine):
        # all 4 delta cells and both outputs are exercised by length-2 words
        assert prune(parity_machine, gen_parity(2)) == parity_machine

    def test_requires_verifying_machine(self, parity_machine):
        with pytest.raises(FstError, match="^prune requires a verifying transducer$"):
            prune(parity_machine, gen_signal_locator(9, 3))

    @pytest.mark.parametrize(
        "delta, omega, word",
        [
            (((0, None),), ("0",), "01"),
            (((0, 0),), (None,), "01"),
            (((0, 0),), ("1",), "01"),
            (((0, 0),), ("0",), "02"),
        ],
        ids=["undefined-transition", "undefined-output", "wrong-output", "unknown-symbol"],
    )
    def test_rejects_a_pair_it_does_not_reproduce(self, delta, omega, word):
        t = Transducer(1, ("0", "1"), ("0", "1"), delta, omega)
        task = TaskSpec(("0", "1", "2"), ("0", "1"), ((w("00"), "0"), (w(word), "0")))
        with pytest.raises(FstError, match="^prune requires a verifying transducer$"):
            prune(t, task)

    def test_single_pair_leaves_one_cell(self):
        t = Transducer(2, ("0",), ("r",), ((0,), (1,)), ("r", "r"))
        task = TaskSpec(("0",), ("r",), ((w("0"), "r"),))
        pruned = prune(t, task)
        assert defined_map_count(pruned) == (1, 1)

    def test_delta_count_matches_distinct_steps(self):
        from fstsynth.cli import BENCH_ROWS
        from fstsynth.synth_table import synthesize_minimal

        parity = Transducer(2, ("0", "1"), ("0", "1"), ((0, 1), (1, 0)), ("0", "1"))
        # no task word reaches state 2: its cells and its output go
        unreachable = Transducer(
            3, ("0", "1"), ("0", "1"), ((0, 1), (1, 0), (2, 0)), ("0", "1", "0")
        )
        cases = [(parity, gen_parity(2)), (unreachable, gen_parity(3))]
        for _, make_task, *_ in BENCH_ROWS:
            task = make_task()
            cases.append((synthesize_minimal(task)[1], task))
        for t, task in cases:
            steps, ends = {}, {}
            for word, out in task.pairs:
                traj = trajectory(t, word)
                for q, sym, r in zip(traj, word, traj[1:]):
                    steps[q, t.input_alphabet.index(sym)] = r
                ends[traj[-1]] = out
            pruned = prune(t, task)
            cells = {
                (q, a): r
                for q, row in enumerate(pruned.delta)
                for a, r in enumerate(row)
                if r is not None
            }
            assert cells == steps
            assert {q: o for q, o in enumerate(pruned.omega) if o is not None} == ends
            assert defined_map_count(pruned)[0] == len(steps)


class TestTotalize:
    def test_identity_on_total(self, parity_machine):
        assert totalize(parity_machine) == parity_machine

    def test_fills_omega_with_first_output(self):
        t = Transducer(1, ("0",), ("r", "s"), ((None,),), (None,))
        tt = totalize(t)
        assert tt.omega == ("r",) and tt.delta == ((0,),)

    @given(tiny_tasks())
    def test_prune_then_totalize_verifies(self, task):
        from fstsynth.synth_table import SearchConfig, synthesize_minimal

        _, witness, _ = synthesize_minimal(task, SearchConfig(max_states=6))
        pruned = prune(witness, task)
        assert verify(pruned, task).ok
        assert verify(totalize(pruned), task).ok


class TestRelabel:
    def test_identity(self, parity_machine):
        assert relabel(parity_machine, [0, 1]) == parity_machine

    def test_must_fix_initial(self, parity_machine):
        with pytest.raises(FstError, match="^permutation must fix the initial state 0$"):
            relabel(parity_machine, [1, 0])

    def test_not_a_permutation(self, parity_machine):
        with pytest.raises(FstError, match=r"^not a permutation of 0\.\.1$"):
            relabel(parity_machine, [0, 0])

    @given(total_transducers(), word_st(max_len=5), st.randoms())
    def test_preserves_run(self, t, word, rng):
        perm = list(range(1, t.n_states))
        rng.shuffle(perm)
        perm = [0] + perm
        assert run(relabel(t, perm), word) == run(t, word)


class TestDefinedMapCount:
    def test_total_machine(self):
        t = Transducer(
            5,
            ("0", "1"),
            ("a",),
            tuple((0, 0) for _ in range(5)),
            tuple("a" for _ in range(5)),
        )
        assert defined_map_count(t) == (10, 5)

    def test_empty_machine(self):
        t = Transducer(1, ("0",), ("a",), ((None,),), (None,))
        assert defined_map_count(t) == (0, 0)

    def test_pruned_signal_locator_is_partial(self):
        from fstsynth.synth_table import synthesize_at

        task = gen_signal_locator(9, 3)
        witness = synthesize_at(task, 5).witness
        pruned = prune(witness, task)
        d, o = defined_map_count(pruned)
        assert (d, o) < (10, 5)


@given(total_transducers(), word_st(max_len=5))
def test_trajectory_length_and_run_agree(t, word):
    traj = trajectory(t, word)
    assert len(traj) == len(word) + 1
    assert run(t, word) == t.omega[traj[-1]]
