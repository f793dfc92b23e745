import pytest
from hypothesis import given, settings

from conftest import tiny_tasks
from fstsynth.core import FormatError, FstError, TaskSpec
from fstsynth.tasks import (
    gen_palindrome,
    gen_parity,
    gen_signal_locator,
    gen_zeroes_or_ones,
    parse_task,
    word_classification,
    write_task,
)


def w(s):
    return tuple(s)


class TestGenerators:
    def test_parity_2_exact(self):
        task = gen_parity(2)
        assert dict(task.pairs) == {
            w("00"): "0",
            w("01"): "1",
            w("10"): "1",
            w("11"): "0",
        }

    def test_parity_1(self):
        assert dict(gen_parity(1).pairs) == {w("0"): "0", w("1"): "1"}

    def test_parity_3_odd_word(self):
        assert dict(gen_parity(3).pairs)[w("111")] == "1"

    def test_signal_locator_9_3(self):
        task = gen_signal_locator(9, 3)
        mapping = dict(task.pairs)
        assert mapping[w("000010000")] == "2"
        assert mapping[w("100000000")] == "1"
        assert len(task.pairs) == 9

    def test_signal_locator_8_4_blocks(self):
        task = gen_signal_locator(8, 4)
        assert len(task.pairs) == 8
        outs = [o for _, o in task.pairs]
        assert sorted(outs) == ["1", "1", "2", "2", "3", "3", "4", "4"]

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: gen_palindrome(0), "length must be >= 1"),
            (lambda: gen_signal_locator(0, 1), "n and k must be >= 1"),
        ],
        ids=["palindrome-0", "signal-locator-0-1"],
    )
    def test_sizes_below_one_are_refused(self, make, message):
        with pytest.raises(FstError, match=f"^{message}$"):
            make()

    def test_signal_locator_nondivisible(self):
        with pytest.raises(FstError, match="^k=4 does not divide n=9$"):
            gen_signal_locator(9, 4)

    def test_zeroes_or_ones_4(self):
        task = gen_zeroes_or_ones(4)
        mapping = dict(task.pairs)
        assert mapping[w("0011")] == "equal"
        assert len(task.pairs) == 16
        assert sum(1 for o in mapping.values() if o == "equal") == 6

    def test_palindrome_4(self):
        task = gen_palindrome(4)
        mapping = dict(task.pairs)
        assert mapping[w("0110")] == "1"
        assert sum(1 for o in mapping.values() if o == "1") == 4

    def test_word_classification(self):
        task = word_classification()
        assert len(task.input_alphabet) == 17
        assert dict(task.pairs)[w("eki")] == "jp"
        assert len(task.pairs) == 10
        assert task.output_alphabet == ("en", "jp", "hu")

    def test_generators_deterministic(self):
        assert gen_palindrome(4) == gen_palindrome(4)
        assert gen_signal_locator(9, 3) == gen_signal_locator(9, 3)
        lex = [w for w, _ in gen_parity(3).pairs]
        assert lex == sorted(lex)


class TestTaskFormat:
    def test_parse_parity(self):
        task = parse_task("00 0\n01 1\n10 1\n11 0\n")
        assert task == gen_parity(2)

    def test_contradiction(self):
        with pytest.raises(FstError, match="^word '01' mapped to both '1' and '0'$"):
            parse_task("01 1\n01 0\n")

    def test_comments_and_blanks(self):
        task = parse_task("# a comment\n\n0 a\n")
        assert task.pairs == ((w("0"), "a"),)

    def test_tokens_mode(self):
        task = parse_task("@mode tokens\nfoo,bar baz\n")
        assert task.pairs == ((("foo", "bar"), "baz"),)

    def test_tokens_mode_empty_token(self):
        for word in ("foo,,bar", "foo,", ",foo"):
            with pytest.raises(FormatError, match=f"^line 2: empty token in word '{word}'$"):
                parse_task(f"@mode tokens\n{word} baz\n")

    def test_alphabet_overrides(self):
        task = parse_task("@inputs 0 1 2\n@outputs a b\n0 a\n")
        assert task.input_alphabet == ("0", "1", "2")
        assert task.output_alphabet == ("a", "b")

    def test_override_must_be_superset(self):
        with pytest.raises(FstError):
            parse_task("@inputs 0\n01 a\n")

    def test_bad_directive(self):
        with pytest.raises(FormatError):
            parse_task("@bogus x\n0 a\n")

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("@mode bytes\n0 a\n", 1, "@mode must be chars or tokens"),
            ("0 a\n@mode tokens\n1 b\n", 2, "@mode must precede pair lines"),
        ],
        ids=["unknown-mode", "mode-after-pair"],
    )
    def test_malformed_mode(self, text, line, message):
        with pytest.raises(FormatError, match=f"^line {line}: {message}$") as e:
            parse_task(text)
        assert e.value.lineno == line

    def test_bad_pair_line(self):
        with pytest.raises(FormatError) as e:
            parse_task("0 a\nnot a pair line\n")
        assert e.value.lineno == 2

    def test_empty_task(self):
        with pytest.raises(FstError, match=r"^a task needs at least one \(word, output\) pair$"):
            parse_task("# nothing here\n")

    def test_roundtrip_signal_locator(self):
        task = gen_signal_locator(9, 3)
        assert parse_task(write_task(task)) == task

    def test_roundtrip_tokens(self):
        task = parse_task("@mode tokens\nfoo,bar x\nfoo,foo y\n")
        assert parse_task(write_task(task)) == task

    def test_roundtrip_word_classification(self):
        task = word_classification()
        assert parse_task(write_task(task)) == task

    @pytest.mark.parametrize(
        "inputs, word",
        [
            (("#", "0"), ("#", "0")),
            (("@", "0"), ("@", "0")),
            (("@mode", "0"), ("@mode", "0")),
            (("a,b", "0"), ("a,b", "0")),  # would read back as a, b, 0
        ],
        ids=["comment", "directive", "tokens", "comma"],
    )
    def test_write_refuses_what_would_not_read_back(self, inputs, word):
        task = TaskSpec(inputs, ("a", "b"), ((word, "a"), (("0",), "b")))
        with pytest.raises(FstError, match="cannot be written"):
            write_task(task)

    def test_marker_inside_a_word_round_trips(self):
        task = TaskSpec(("#", "@", "0"), ("a",), ((w("0#@"), "a"),))
        assert parse_task(write_task(task)) == task

    @settings(max_examples=50)
    @given(tiny_tasks())
    def test_roundtrip_random(self, task):
        assert parse_task(write_task(task)) == task
