import argparse
import gc
import hashlib
import re

import pytest

from conftest import load_script, one_token_task
from fstsynth import cli, synth_table
from fstsynth.cli import entry, main
from fstsynth.serialize import parse_transducer
from fstsynth.core import CheckFailed, verify
from fstsynth.tasks import (
    gen_palindrome,
    gen_parity,
    gen_signal_locator,
    gen_zeroes_or_ones,
    parse_task,
    write_task,
)

random_target = load_script("scripts/stress.py").random_target


@pytest.fixture
def parity_file(tmp_path):
    path = tmp_path / "parity.io"
    path.write_text(write_task(gen_parity(2)))
    return path


@pytest.fixture
def sl93_file(tmp_path):
    path = tmp_path / "sl93.io"
    path.write_text(write_task(gen_signal_locator(9, 3)))
    return path


class TestSynth:
    def test_parity(self, parity_file, tmp_path, capsys):
        out_path = tmp_path / "parity.fst"
        assert main(["synth", str(parity_file), "-o", str(out_path)]) == 0
        stdout = capsys.readouterr().out
        assert "minimal states: 2" in stdout
        t = parse_transducer(out_path.read_text())
        assert verify(t, gen_parity(2)).ok

    def test_unsat_within_max_states(self, sl93_file, capsys):
        assert main(["synth", str(sl93_file), "--max-states", "4"]) == 1
        captured = capsys.readouterr()
        assert "UNSAT up to 4 states" in captured.err
        assert re.findall(r"UNSAT at (\d+) states", captured.out) == ["3", "4"]

    def test_budget_never_claims_unsat(self, sl93_file, capsys):
        code = main(["synth", str(sl93_file), "--budget-nodes", "50"])
        err = capsys.readouterr().err
        assert code == 1
        assert "budget exhausted" in err
        assert "UNSAT" not in err

    def test_zero_budget_is_a_limit(self, tmp_path, capsys):
        # palindrome 6 takes 12,451 nodes at 9 states, past the first clock read
        path = tmp_path / "pal6.io"
        path.write_text(write_task(gen_palindrome(6)))
        assert main(["synth", str(path), "--budget-seconds", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("budget exhausted: time budget exhausted")
        assert not (tmp_path / "pal6.fst").exists()
        assert main(["synth", str(path), "--budget-nodes", "0"]) == 1
        assert capsys.readouterr().err.strip().endswith("after 1 nodes")

    @pytest.mark.parametrize("flag", ["--budget-nodes", "--budget-seconds"])
    def test_negative_budget_is_usage_error(self, sl93_file, flag, capsys):
        assert main(["synth", str(sl93_file), flag, "-1"]) == 2
        assert capsys.readouterr().err == "error: budgets must be >= 0\n"

    def test_nan_budget_is_usage_error(self, sl93_file, capsys):
        assert main(["synth", str(sl93_file), "--budget-seconds", "nan"]) == 2
        assert capsys.readouterr().err == "error: budgets must be >= 0\n"

    def test_budget_reports_nodes(self, sl93_file, capsys):
        assert main(["synth", str(sl93_file), "--budget-nodes", "50"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("budget exhausted: ")
        assert err.strip().endswith("after 51 nodes")

    def test_clique_certified_levels(self, tmp_path, capsys):
        path = tmp_path / "zo8.io"
        path.write_text(write_task(gen_zeroes_or_ones(8)))
        assert main(["synth", str(path), "-o", str(tmp_path / "zo8.fst")]) == 0
        out = capsys.readouterr().out
        assert "minimal states: 6" in out
        assert "lower bound: 6 (prefix clique; output count 3)" in out
        assert re.search(r"UNSAT at 3 states \(94 nodes, ", out)
        assert "UNSAT at 4 states (clique of 6 prefixes)" in out
        assert "UNSAT at 5 states (clique of 6 prefixes)" in out

    def test_output_count_bound(self, sl93_file, tmp_path, capsys):
        assert main(["synth", str(sl93_file), "-o", str(tmp_path / "s.fst")]) == 0
        assert "lower bound: 3 (output count)" in capsys.readouterr().out

    def test_parity_10(self, tmp_path, capsys):
        path = tmp_path / "parity10.io"
        path.write_text(write_task(gen_parity(10)))
        assert main(["synth", str(path)]) == 0
        assert "minimal states: 2" in capsys.readouterr().out

    # sha256 of the FST/1 file synth writes for each bench task
    @pytest.mark.parametrize(
        "row, n_states, digest",
        [
            (0, 5, "1b45036f849a70ede5c316b5c9dcc61c01cb94d1b4ee61e2da6fc8a15d530a70"),
            (1, 6, "79fc6fd253f0dd6a6b7131712427318c76e9aa7d57e4d4ed974ba24d50472054"),
            (2, 4, "8f17bc583f3bc4e101d649f3374db085888e12f727cc2b93fc17fec99b2a1e26"),
            (3, 5, "a23e20fc72ff4e4a1fa49a630d9370552e743b56942c274a8a4bc77b95c4ee3d"),
            (4, 3, "ae40d87200032e22fcd7fdddfa39edeee3759ff80455cbad5a034f046c2ca90e"),
        ],
        ids=["sl9-3", "sl8-4", "zo4", "pal4", "words"],
    )
    def test_pinned_bench_files(self, row, n_states, digest, tmp_path, capsys):
        task_path = tmp_path / "task.io"
        task_path.write_text(write_task(cli.BENCH_ROWS[row][1]()))
        out_path = tmp_path / "task.fst"
        assert main(["synth", str(task_path), "-o", str(out_path)]) == 0
        assert f"minimal states: {n_states}\n" in capsys.readouterr().out
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest

    def test_search_space_past_the_int_to_str_limit(self, tmp_path, capsys):
        # at 5 states the search space, 5^6500*5^5, has 4,547 decimal
        # digits, more than Python converts by default (4,300)
        task = one_token_task(1300, 5)
        task_path, out_path = tmp_path / "tokens.io", tmp_path / "tokens.fst"
        task_path.write_text(write_task(task))
        assert main(["synth", str(task_path), "-o", str(out_path)]) == 0
        assert "search space at n=5: 5^6500*5^5\n" in capsys.readouterr().out
        assert verify(parse_transducer(out_path.read_text()), task).ok

    def test_dot_output(self, parity_file, tmp_path):
        dot_path = tmp_path / "parity.dot"
        assert main(["synth", str(parity_file), "--dot", str(dot_path),
                     "-o", str(tmp_path / "p.fst")]) == 0
        assert dot_path.read_text().startswith("digraph")

    def test_missing_file(self, capsys):
        assert main(["synth", "/nonexistent/task.io"]) == 2

    def test_missing_output_directory(self, parity_file, tmp_path, capsys):
        out_path = tmp_path / "nodir" / "p.fst"
        assert main(["synth", str(parity_file), "-o", str(out_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # refused before the search
        assert captured.err == f"cannot open {out_path}: No such file or directory\n"

    def test_missing_dot_directory(self, sl93_file, tmp_path, capsys):
        dot_path = tmp_path / "nodir" / "p.dot"
        out_path = tmp_path / "p.fst"
        assert main(["synth", str(sl93_file), "-o", str(out_path), "--dot", str(dot_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"cannot open {dot_path}: No such file or directory\n"
        assert not out_path.exists()

    @pytest.mark.parametrize("flag", ["-o", "--dot"])
    def test_output_under_a_regular_file(self, parity_file, tmp_path, capsys, flag):
        afile = tmp_path / "afile"
        afile.write_text("")
        for out_path in (afile / "q.fst", afile / "sub" / "q.fst"):
            assert main(["synth", str(parity_file), flag, str(out_path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""  # refused before the search
            assert captured.err == f"cannot open {out_path}: Not a directory\n"

    def test_directory_as_task_file(self, tmp_path, capsys):
        assert main(["synth", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"cannot open {tmp_path}: Is a directory\n"

    def test_directory_as_output(self, sl93_file, tmp_path, capsys):
        assert main(["synth", str(sl93_file), "-o", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"cannot open {tmp_path}: Is a directory\n"

    def test_malformed_task(self, tmp_path, capsys):
        bad = tmp_path / "bad.io"
        bad.write_text("01 1\n01 0\n")
        assert main(["synth", str(bad)]) == 2

    def test_mode_after_a_pair(self, tmp_path, capsys):
        bad = tmp_path / "bad.io"
        bad.write_text("01 1\n@mode tokens\n")
        assert main(["synth", str(bad), "-o", str(tmp_path / "out.fst")]) == 2
        assert "line 2: @mode must precede pair lines" in capsys.readouterr().err
        assert not (tmp_path / "out.fst").exists()


class TestTrie:
    def test_counts(self, tmp_path, capsys):
        from fstsynth.tasks import gen_zeroes_or_ones

        path = tmp_path / "zo4.io"
        path.write_text(write_task(gen_zeroes_or_ones(4)))
        assert main(["trie", str(path), "-o", str(tmp_path / "t.fst")]) == 0
        assert "trie states: 31" in capsys.readouterr().out
        assert main(
            ["trie", str(path), "--minimize", "-o", str(tmp_path / "m.fst")]
        ) == 0
        assert "minimized states: 13" in capsys.readouterr().out

    def test_missing_output_directory(self, parity_file, tmp_path, capsys):
        out_path = tmp_path / "nodir" / "r.fst"
        assert main(["trie", str(parity_file), "--minimize", "-o", str(out_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # refused before the trie is built
        assert captured.err == f"cannot open {out_path}: No such file or directory\n"

    def test_output_under_a_regular_file(self, parity_file, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("")
        dot_path = afile / "x.dot"
        assert main(["trie", str(parity_file), "-o", str(tmp_path / "t.fst"), "--dot", str(dot_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # refused before the trie is built
        assert captured.err == f"cannot open {dot_path}: Not a directory\n"
        assert not (tmp_path / "t.fst").exists()

    def test_directory_as_task_file_or_output(self, parity_file, tmp_path, capsys):
        assert main(["trie", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"cannot open {tmp_path}: Is a directory\n"
        assert main(["trie", str(parity_file), "-o", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"cannot open {tmp_path}: Is a directory\n"

    def test_single_pair(self, tmp_path, capsys):
        path = tmp_path / "one.io"
        path.write_text("abc r\n")
        assert main(["trie", str(path), "-o", str(tmp_path / "t.fst")]) == 0
        assert "trie states: 4" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["synth", "trie"])
@pytest.mark.parametrize("kind", ["name-too-long", "dangling-symlink"])
def test_output_path_the_os_refuses(command, kind, parity_file, tmp_path, capsys):
    if kind == "name-too-long":
        out_path = tmp_path / ("x" * 300 + ".fst")
    else:
        out_path = tmp_path / "link.fst"
        out_path.symlink_to(tmp_path / "nodir" / "x.fst")
    assert main([command, str(parity_file), "-o", str(out_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # refused before any work
    assert captured.err.startswith(f"cannot open {out_path}: ")


@pytest.mark.parametrize("command", ["synth", "trie"])
@pytest.mark.parametrize("spelling", ["identical", "dot-slash", "symlink"])
def test_output_naming_the_task_file_is_refused(command, spelling, parity_file, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    before = parity_file.read_bytes()
    if spelling == "symlink":
        (tmp_path / "link.io").symlink_to(parity_file)
    out_path = {"identical": "parity.io", "dot-slash": "./parity.io", "symlink": "link.io"}[spelling]
    entries = sorted(tmp_path.iterdir())
    assert main([command, "parity.io", "-o", out_path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # refused before any work
    assert captured.err.startswith(f"error: the FST/1 output {out_path} is the task file ")
    assert parity_file.read_bytes() == before
    assert sorted(tmp_path.iterdir()) == entries


@pytest.mark.parametrize(
    "command, flag", [("synth", "-o"), ("synth", "--dot"), ("trie", "-o")], ids=["synth-o", "synth-dot", "trie-o"]
)
def test_hard_link_of_the_task_file_is_refused(command, flag, parity_file, tmp_path, capsys):
    before = parity_file.read_bytes()
    hard = tmp_path / "hard.io"
    hard.hardlink_to(parity_file)
    entries = sorted(tmp_path.iterdir())
    assert main([command, str(parity_file), flag, str(hard)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # refused before any work
    role = "DOT" if flag == "--dot" else "FST/1"
    assert captured.err.startswith(f"error: the {role} output {hard} is the task file {parity_file};")
    assert parity_file.read_bytes() == before
    assert sorted(tmp_path.iterdir()) == entries


@pytest.mark.parametrize("command", ["synth", "trie"])
def test_dot_path_hard_linked_to_the_output_is_refused(command, parity_file, tmp_path, capsys):
    existing = tmp_path / "old.fst"
    existing.write_bytes(b"keep me\n")
    hard = tmp_path / "hard.dot"
    hard.hardlink_to(existing)
    before = parity_file.read_bytes()
    entries = sorted(tmp_path.iterdir())
    assert main([command, str(parity_file), "-o", str(existing), "--dot", str(hard)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: the DOT output {hard} is the FST/1 output {existing};")
    assert existing.read_bytes() == b"keep me\n"
    assert parity_file.read_bytes() == before
    assert sorted(tmp_path.iterdir()) == entries


def test_default_output_of_an_fst_task_file_is_refused(tmp_path, monkeypatch, capsys):
    # the default output replaces the extension, which is already .fst
    monkeypatch.chdir(tmp_path)
    task = tmp_path / "t.fst"
    task.write_text(write_task(gen_parity(2)))
    before = task.read_bytes()
    assert main(["trie", "t.fst"]) == 2
    assert capsys.readouterr().out == ""
    assert task.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.fst"]


@pytest.mark.parametrize("command", ["synth", "trie"])
def test_dot_path_naming_the_output_is_refused(command, parity_file, tmp_path, capsys):
    same = tmp_path / "same.fst"
    assert main([command, str(parity_file), "-o", str(same), "--dot", str(same)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: the DOT output {same} is the FST/1 output {same};")
    assert not same.exists()


def test_unsat_leaves_output_paths_as_they_were(sl93_file, tmp_path, capsys):
    existing = tmp_path / "old.fst"
    existing.write_bytes(b"keep me\n")
    link = tmp_path / "link.dot"
    link.symlink_to(tmp_path / "target.dot")
    assert main(["synth", str(sl93_file), "--max-states", "4", "-o", str(existing), "--dot", str(link)]) == 1
    assert existing.read_bytes() == b"keep me\n"
    assert link.is_symlink() and not (tmp_path / "target.dot").exists()
    assert main(["synth", str(sl93_file), "--max-states", "4", "-o", str(tmp_path / "new.fst")]) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.dot", "old.fst", "sl93.io"]


def test_symlinked_output_writes_its_target(parity_file, tmp_path, capsys):
    link = tmp_path / "link.fst"
    link.symlink_to(tmp_path / "target.fst")
    assert main(["synth", str(parity_file), "-o", str(link)]) == 0
    assert verify(parse_transducer((tmp_path / "target.fst").read_text()), gen_parity(2)).ok


@pytest.mark.parametrize("first", ["01 a", "@inputs 0 1"])
def test_byte_order_mark_in_a_task_file(first, tmp_path, capsys):
    task = tmp_path / "bom.io"
    task.write_bytes(b"\xef\xbb\xbf" + f"{first}\n01 a\n10 b\n".encode())
    machine = tmp_path / "bom.fst"
    assert main(["synth", str(task), "-o", str(machine)]) == 0
    assert "\n@inputs 0 1\n" in machine.read_text()


def test_byte_order_mark_in_a_machine_file(parity_file, tmp_path, capsys):
    machine = tmp_path / "parity.fst"
    assert main(["synth", str(parity_file), "-o", str(machine)]) == 0
    capsys.readouterr()
    marked = tmp_path / "marked.fst"
    marked.write_bytes(b"\xef\xbb\xbf" + machine.read_bytes())
    assert main(["run", str(marked), "10"]) == 0
    assert capsys.readouterr().out == "1\n"


def test_task_file_that_is_not_utf8(tmp_path, capsys):
    bad = tmp_path / "bad.io"
    bad.write_bytes(b"\xff\xfe0\x00 \x00a\x00\n\x00")
    assert main(["synth", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read {bad}: 'utf-8' codec can't decode byte 0xff ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.io"]


@pytest.mark.parametrize(
    "command, taskfile",
    [("synth", "./parity"), ("synth", "data.v1/parity"), ("trie", "./parity")],
)
def test_default_output_beside_task_file(command, taskfile, tmp_path, monkeypatch, capsys):
    # the extension is taken from the file name, never from a directory
    monkeypatch.chdir(tmp_path)
    task_path = tmp_path / taskfile
    task_path.parent.mkdir(exist_ok=True)
    task_path.write_text(write_task(gen_parity(2)))
    assert main([command, taskfile]) == 0
    out_path = task_path.parent / "parity.fst"
    assert verify(parse_transducer(out_path.read_text()), gen_parity(2)).ok
    assert not (tmp_path / ".fst").exists()
    assert not (tmp_path / "data.fst").exists()


class TestRun:
    @pytest.fixture
    def parity_fst(self, parity_file, tmp_path):
        out = tmp_path / "parity.fst"
        main(["synth", str(parity_file), "-o", str(out)])
        return out

    def test_run(self, parity_fst, capsys):
        assert main(["run", str(parity_fst), "11"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "0"

    def test_trace(self, parity_fst, capsys):
        assert main(["run", str(parity_fst), "01", "--trace"]) == 0
        assert "trajectory:" in capsys.readouterr().out

    def test_empty_word(self, parity_fst, capsys):
        assert main(["run", str(parity_fst), ""]) == 2

    def test_undefined_transition(self, sl93_file, tmp_path, capsys):
        out = tmp_path / "sl93.fst"
        main(["synth", str(sl93_file), "-o", str(out)])
        capsys.readouterr()
        code = main(["run", str(out), "110000000"])
        captured = capsys.readouterr()
        assert code in (0, 1)  # outside the training set partiality may bite
        if code == 1:
            assert "undefined" in captured.err

    @pytest.mark.parametrize("directive", ["@states", "@initial"])
    def test_bare_directive(self, directive, tmp_path, capsys):
        path = tmp_path / "bad.fst"
        path.write_text(f"{directive}\n@inputs 0\n@outputs a\n0 a 0\n")
        assert main(["run", str(path), "0"]) == 2
        assert "line 1:" in capsys.readouterr().err

    def test_directory_as_machine_file(self, tmp_path, capsys):
        assert main(["run", str(tmp_path), "0"]) == 2
        assert capsys.readouterr().err == f"cannot open {tmp_path}: Is a directory\n"

    def test_comma_is_a_symbol_in_chars_mode(self, tmp_path, capsys):
        task = tmp_path / "c.io"
        task.write_text("0,1 a\n1 b\n")
        machine = tmp_path / "c.fst"
        assert main(["synth", str(task), "-o", str(machine)]) == 0
        capsys.readouterr()
        assert main(["run", str(machine), "0,1"]) == 0
        assert capsys.readouterr().out == "a\n"

    def test_tokens_split_at_commas(self, tmp_path, capsys):
        task = tmp_path / "t.io"
        task.write_text("@mode tokens\nfoo,bar x\nbar y\n")
        machine = tmp_path / "t.fst"
        assert main(["synth", str(task), "-o", str(machine)]) == 0
        capsys.readouterr()
        assert main(["run", str(machine), "foo,bar"]) == 0
        assert capsys.readouterr().out == "x\n"

    def test_machine_file_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin1.fst"
        path.write_bytes("@states 1\n@inputs 0\n@outputs \xe9\n0 \xe9 0\n".encode("latin-1"))
        assert main(["run", str(path), "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xe9 ")

    def test_unknown_directive(self, tmp_path, capsys):
        path = tmp_path / "bad.fst"
        path.write_text("@states 1\n@inputs 0\n@outputs a\n@bogus\n0 a 0\n")
        assert main(["run", str(path), "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "line 4: unknown directive @bogus" in captured.err

    def test_non_numeric_successor(self, tmp_path, capsys):
        path = tmp_path / "bad.fst"
        path.write_text("@states 1\n@inputs 0\n@outputs a\n0 a y\n")
        assert main(["run", str(path), "0"]) == 2
        assert "line 4: successor must be a number" in capsys.readouterr().err


class TestEntry:
    @pytest.fixture
    def crashing_gen(self, monkeypatch):
        def boom(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_gen", boom)

    def test_crash_exits_3(self, crashing_gen, capsys):
        assert entry(["gen", "parity", "2"]) == 3
        err = capsys.readouterr().err
        assert err == "internal error: RuntimeError: boom\n"

    def test_main_still_raises(self, crashing_gen):
        with pytest.raises(RuntimeError):
            main(["gen", "parity", "2"])

    def test_os_error_without_a_file_is_internal(self, monkeypatch, capsys):
        def no_file(args):
            raise OSError("no file involved")

        monkeypatch.setattr(cli, "cmd_gen", no_file)
        with pytest.raises(OSError):
            main(["gen", "parity", "2"])
        assert entry(["gen", "parity", "2"]) == 3

    def test_value_error_is_internal(self, parity_file, monkeypatch, capsys):
        # only FstError and OSError with a file name are invalid input
        def broken(task):
            raise ValueError("broken bound")

        monkeypatch.setattr(synth_table, "lower_bound", broken)
        with pytest.raises(ValueError):
            main(["synth", str(parity_file)])
        assert entry(["synth", str(parity_file)]) == 3
        assert capsys.readouterr().err == "internal error: ValueError: broken bound\n"

    def test_entry_passes_exit_codes(self, parity_file, tmp_path):
        assert entry(["synth", str(parity_file), "-o", str(tmp_path / "p.fst")]) == 0
        assert entry(["synth", str(parity_file), "--max-states", "1"]) == 1
        assert entry(["synth", str(tmp_path / "missing.io")]) == 2
        assert entry(["synth", str(tmp_path)]) == 2


class TestCollector:
    """`main` runs a command with the cyclic collector paused and gives the
    caller back the collector state it had, on every exit path."""

    @pytest.fixture(autouse=True)
    def restore(self):
        was = gc.isenabled()
        yield
        (gc.enable if was else gc.disable)()

    @pytest.fixture(params=[True, False], ids=["caller-on", "caller-off"])
    def enabled(self, request):
        (gc.enable if request.param else gc.disable)()
        return request.param

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["synth", "{parity}", "-o", "{tmp}/p.fst"], 0),
            (["synth", "{sl93}", "--budget-nodes", "1"], 1),
            (["synth", "{tmp}/missing.io"], 2),
        ],
        ids=["exit-0", "exit-1", "exit-2"],
    )
    def test_state_restored(self, enabled, argv, code, parity_file, sl93_file, tmp_path, capsys):
        argv = [a.format(parity=parity_file, sl93=sl93_file, tmp=tmp_path) for a in argv]
        assert main(argv) == code
        assert gc.isenabled() is enabled

    def test_state_restored_when_a_check_fails(self, enabled, parity_file, tmp_path, monkeypatch, capsys):
        seen = []

        def failing(t, task):
            seen.append(gc.isenabled())
            raise CheckFailed("the minimized transducer does not verify")

        monkeypatch.setattr(cli, "minimize", failing)
        with pytest.raises(CheckFailed):
            main(["trie", str(parity_file), "--minimize", "-o", str(tmp_path / "p.fst")])
        assert seen == [False]
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize(
        "make_task",
        [lambda: gen_parity(9), lambda: random_target(10, 200, 12, 0)],
        ids=["parity-9", "target10-200"],
    )
    def test_commands_leave_no_cyclic_garbage(self, make_task, tmp_path, capsys):
        # what the pause relies on: nothing a command leaves behind needs
        # the cyclic collector to be freed
        task_path = tmp_path / "task.io"
        task_path.write_text(write_task(make_task()))
        synth = ["synth", str(task_path), "-o", str(tmp_path / "s.fst")]
        gc.disable()
        assert main(synth) == 0  # warm-up: a first call may fill lazy caches
        gc.collect()
        assert main(synth) == 0
        assert main(["trie", str(task_path), "--minimize", "-o", str(tmp_path / "t.fst")]) == 0
        assert gc.collect() == 0


class TestParser:
    """One parser serves every call in a process; no call may see another's options."""

    def test_options_do_not_carry_over(self, sl93_file, capsys):
        # sl9-3 needs 5 states
        assert main(["synth", str(sl93_file), "--max-states", "3"]) == 1
        assert main(["synth", str(sl93_file)]) == 0
        assert "minimal states: 5" in capsys.readouterr().out
        assert cli.build_parser().parse_args(["synth", str(sl93_file)]).max_states == 16

    def test_bad_argv_then_good_call(self, sl93_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", str(sl93_file), "--max-states", "three"])
        assert exc.value.code == 2
        assert main(["synth", str(sl93_file)]) == 0

    def test_output_default_after_explicit_output(self, sl93_file, tmp_path, capsys):
        default = tmp_path / "sl93.fst"
        assert main(["trie", str(sl93_file), "-o", str(tmp_path / "a.fst")]) == 0
        assert not default.exists()
        assert main(["trie", str(sl93_file)]) == 0
        assert capsys.readouterr().out.endswith(f"wrote {default}\n")
        assert default.exists()

    def test_built_once_per_process(self, monkeypatch, capsys):
        constructed = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            constructed.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli.build_parser()
        one_build = len(constructed)
        assert one_build > 0
        cli._parser.cache_clear()
        constructed.clear()
        for _ in range(3):
            assert main(["gen", "parity", "2"]) == 0
        assert len(constructed) == one_build
        assert cli._parser() is cli._parser()

    def test_public_parser_is_not_the_shared_one(self, sl93_file, capsys):
        parser = cli.build_parser()
        assert parser is not cli.build_parser()
        parser.add_argument("--always", required=True)
        assert main(["synth", str(sl93_file)]) == 0
        assert "minimal states: 5" in capsys.readouterr().out

    def test_every_subcommand_has_a_handler(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        names = re.search(r"\{([\w,]+)\}", capsys.readouterr().out).group(1).split(",")
        handlers = {name.removeprefix("cmd_") for name in vars(cli) if name.startswith("cmd_")}
        assert set(names) == handlers
        for name in names:
            with pytest.raises(SystemExit) as exc:
                main([name, "--help"])
            assert exc.value.code == 0
            assert capsys.readouterr().out.startswith(f"usage: fstsynth {name}")


class TestGen:
    def test_signal_locator(self, tmp_path, capsys):
        out = tmp_path / "sl.io"
        assert main(["gen", "signal-locator", "9", "3", "-o", str(out)]) == 0
        task = parse_task(out.read_text())
        assert dict(task.pairs)[tuple("000010000")] == "2"

    def test_parity_to_stdout(self, capsys):
        assert main(["gen", "parity", "2"]) == 0
        task = parse_task(capsys.readouterr().out)
        assert task == gen_parity(2)

    def test_directory_as_output(self, tmp_path, capsys):
        assert main(["gen", "parity", "2", "-o", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"cannot open {tmp_path}: Is a directory\n"

    def test_nondivisible(self, capsys):
        assert main(["gen", "signal-locator", "9", "4"]) == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["words", "7"], "words takes 0 parameters"),
            (["signal-locator", "9"], "signal-locator takes 2 parameters: n k"),
            (["parity"], "parity takes 1 parameters: length"),
        ],
        ids=["words", "signal-locator", "parity"],
    )
    def test_parameter_count(self, argv, message, capsys):
        assert main(["gen", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["parity", "x"], "parity: length must be an integer, got 'x'"),
            (["signal-locator", "9", "3.0"], "signal-locator: k must be an integer, got '3.0'"),
        ],
        ids=["parity", "signal-locator"],
    )
    def test_parameter_not_an_integer(self, argv, message, capsys):
        assert main(["gen", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestBench:
    def test_deterministic_without_timings(self, capsys):
        assert main(["bench", "--no-timings"]) == 0
        first = capsys.readouterr().out
        assert main(["bench", "--no-timings"]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_table_shape_and_sandwich(self, capsys):
        assert main(["bench", "--format", "csv", "--no-timings"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("Task,Minimal,Trie,Minimized")
        assert len(lines) == 6
        for line in lines[1:]:
            _, minimal, trie, minimized = line.split(",")[:4]
            assert int(minimal) <= int(minimized) <= int(trie)

    def test_text_rows_include_paper_references(self, capsys):
        assert main(["bench", "--no-timings"]) == 0
        out = capsys.readouterr().out
        assert "Signal Locator 9-3" in out
        assert "PaperTrie" in out
        assert re.search(r"Palindrome 4\s+5\s+31\s+12", out)
