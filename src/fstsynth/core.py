"""Core domain types: tasks and transducers, and the operations (simulate,
verify, prune, totalize, relabel) every other module builds on.

States are dense integers 0..n-1 with the initial state hardwired to 0.
Symbols are plain non-empty strings. Undefined table entries are None; the
token "-" is reserved for the textual serialization of None and is not a
legal symbol.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional, Sequence

UNDEFINED_TOKEN = "-"

Word = tuple[str, ...]


class FstError(Exception):
    """The input or the caller is at fault: a malformed task or machine, or
    a call outside an operation's domain; the CLI exits 2 with its message.
    Only what a caller tells apart has a subclass: `FormatError` (with its
    line), the three walk failures, which `verify` collects and `fstsynth
    run` exits 1 on, and the search's two stops in `synth_table` (exit 1)."""


class UnknownSymbol(FstError):
    def __init__(self, symbol: str, alphabet: Sequence[str]):
        self.symbol = symbol
        super().__init__(f"symbol {symbol!r} not in alphabet {list(alphabet)}")


class UndefinedTransition(FstError):
    def __init__(self, state: int, symbol: str, position: int):
        self.state = state
        self.symbol = symbol
        self.position = position  # 1-indexed position in the word
        super().__init__(
            f"undefined transition from state {state} on {symbol!r} "
            f"at position {position}"
        )


class UndefinedOutput(FstError):
    def __init__(self, state: int):
        self.state = state
        super().__init__(f"undefined output at state {state}")


class CheckFailed(Exception):
    """An internal consistency check failed: a bug in this package, never
    a property of the input, so not an FstError; the console entry reports
    it as exit 3. Raised explicitly, so it survives `python -O`."""


class FormatError(FstError):
    """A malformed task or machine file, at line `lineno` (0: the whole file)."""

    def __init__(self, lineno: int, message: str):
        self.lineno = lineno
        super().__init__(f"line {lineno}: {message}")


def content_lines(text: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, whitespace-separated fields) of every line of a task
    or machine file that is neither blank nor a "#" comment."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        fields = line.split()
        if fields and not fields[0].startswith("#"):
            yield lineno, fields


def _check_alphabet(symbols: Sequence[str], kind: str) -> tuple[str, ...]:
    seen = set()
    for s in symbols:
        if not s or any(c.isspace() for c in s) or s == UNDEFINED_TOKEN:
            raise FstError(f"invalid {kind} symbol {s!r}")
        if s in seen:
            raise FstError(f"duplicate {kind} symbol {s!r}")
        seen.add(s)
    return tuple(symbols)


@dataclass(frozen=True)
class TaskSpec:
    """A finite training set: every word must map to exactly its output.

    Duplicate identical pairs are dropped; contradictory pairs are an error;
    an empty pair list is an error (there is nothing to verify).
    """

    input_alphabet: tuple[str, ...]
    output_alphabet: tuple[str, ...]
    pairs: tuple[tuple[Word, str], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "input_alphabet", _check_alphabet(self.input_alphabet, "input")
        )
        object.__setattr__(
            self, "output_alphabet", _check_alphabet(self.output_alphabet, "output")
        )
        inputs = set(self.input_alphabet)
        outputs = set(self.output_alphabet)
        seen: dict[Word, str] = {}
        deduped = []
        for word, out in self.pairs:
            word = tuple(word)
            if not word:
                raise FstError("words must be non-empty")
            if not inputs.issuperset(word):
                sym = next(sym for sym in word if sym not in inputs)
                raise UnknownSymbol(sym, self.input_alphabet)
            if out not in outputs:
                raise UnknownSymbol(out, self.output_alphabet)
            if word in seen:
                if seen[word] != out:
                    raise FstError(f"word {''.join(word)!r} mapped to both {seen[word]!r} and {out!r}")
                continue
            seen[word] = out
            deduped.append((word, out))
        if not deduped:
            raise FstError("a task needs at least one (word, output) pair")
        object.__setattr__(self, "pairs", tuple(deduped))

    def used_outputs(self) -> tuple[str, ...]:
        """Output symbols that actually occur in pairs, in alphabet order."""
        used = {out for _, out in self.pairs}
        return tuple(s for s in self.output_alphabet if s in used)


@dataclass(frozen=True)
class Transducer:
    """A (possibly partial) deterministic single-output transducer.

    delta[q][i] is the successor of state q on input_alphabet[i], or None.
    omega[q] is the output emitted when a word ends in state q, or None.
    The initial state is always 0.
    """

    n_states: int
    input_alphabet: tuple[str, ...]
    output_alphabet: tuple[str, ...]
    delta: tuple[tuple[Optional[int], ...], ...]
    omega: tuple[Optional[str], ...]

    def __post_init__(self):
        if self.n_states < 1:
            raise FstError("a transducer needs at least one state")
        object.__setattr__(
            self, "input_alphabet", _check_alphabet(self.input_alphabet, "input")
        )
        object.__setattr__(
            self, "output_alphabet", _check_alphabet(self.output_alphabet, "output")
        )
        n, k = self.n_states, len(self.input_alphabet)
        delta = tuple(map(tuple, self.delta))
        if len(delta) != n:
            raise FstError("delta must have one row per state")
        for row in delta:
            if len(row) != k:
                raise FstError("delta rows must have one cell per input symbol")
            for cell in row:
                if cell is not None and not (0 <= cell < n):
                    raise FstError(f"delta target {cell} out of range")
        object.__setattr__(self, "delta", delta)
        omega = tuple(self.omega)
        if len(omega) != n:
            raise FstError("omega must have one entry per state")
        outputs = {None, *self.output_alphabet}
        if not outputs.issuperset(omega):
            out = next(out for out in omega if out not in outputs)
            raise UnknownSymbol(out, self.output_alphabet)
        object.__setattr__(self, "omega", omega)

    @cached_property
    def symbol_index(self) -> dict[str, int]:
        return {s: i for i, s in enumerate(self.input_alphabet)}

    def is_total(self) -> bool:
        return all(c is not None for row in self.delta for c in row) and all(
            o is not None for o in self.omega
        )


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    failures: tuple[tuple[Word, str, str], ...] = ()
    # each failure is (word, required output, reason)


def trajectory(t: Transducer, word: Sequence[str]) -> tuple[int, ...]:
    """Run word through t and return all |word|+1 visited states, the
    initial state first. This is the one walk through a machine; the
    oracle keeps its own, as the independent ground truth."""
    idx, delta = t.symbol_index, t.delta
    q, states = 0, [0]
    for sym in word:
        a = idx.get(sym)
        if a is None:
            raise UnknownSymbol(sym, t.input_alphabet)
        q = delta[q][a]
        if q is None:
            raise UndefinedTransition(states[-1], sym, len(states))
        states.append(q)
    return tuple(states)


def run(t: Transducer, word: Sequence[str]) -> str:
    """Output symbol for word: omega applied to the trajectory's last state."""
    q = trajectory(t, word)[-1]
    out = t.omega[q]
    if out is None:
        raise UndefinedOutput(q)
    return out


def verify(t: Transducer, task: TaskSpec) -> VerifyReport:
    """Check every task pair; failures are collected, never raised."""
    failures = []
    for word, required in task.pairs:
        try:
            got = run(t, word)
        except (UndefinedTransition, UndefinedOutput, UnknownSymbol) as e:
            failures.append((word, required, str(e)))
            continue
        if got != required:
            failures.append((word, required, f"produced {got!r}"))
    return VerifyReport(ok=not failures, failures=tuple(failures))


def prune(t: Transducer, task: TaskSpec) -> Transducer:
    """Drop every delta cell and omega entry no task word touches.

    Requires t to verify the task: each pair is walked once, and the first
    that does not reproduce raises FstError. The pruned machine still
    verifies the task.
    """
    idx = t.symbol_index
    delta = [[None] * len(t.input_alphabet) for _ in range(t.n_states)]
    omega: list[Optional[str]] = [None] * t.n_states
    for word, out in task.pairs:
        try:
            states = trajectory(t, word)
        except (UndefinedTransition, UnknownSymbol):
            states = None
        if states is None or t.omega[states[-1]] != out:
            raise FstError("prune requires a verifying transducer")
        for q, sym, r in zip(states, word, states[1:]):
            delta[q][idx[sym]] = r
        omega[states[-1]] = out
    return Transducer(t.n_states, t.input_alphabet, t.output_alphabet, delta, omega)


def totalize(t: Transducer) -> Transducer:
    """Fill every undefined entry: delta with a self-loop, omega with the
    first output symbol. Task words that avoided the holes are unaffected."""
    delta = tuple(
        tuple(q if cell is None else cell for cell in row)
        for q, row in enumerate(t.delta)
    )
    omega = tuple(o if o is not None else t.output_alphabet[0] for o in t.omega)
    return Transducer(t.n_states, t.input_alphabet, t.output_alphabet, delta, omega)


def defined_map_count(t: Transducer) -> tuple[int, int]:
    """(# defined delta cells, # defined omega entries)."""
    d = sum(1 for row in t.delta for c in row if c is not None)
    o = sum(1 for out in t.omega if out is not None)
    return d, o


def relabel(t: Transducer, perm: Sequence[int]) -> Transducer:
    """Rename states by a permutation fixing 0; the realized word function
    is unchanged."""
    if sorted(perm) != list(range(t.n_states)):
        raise FstError(f"not a permutation of 0..{t.n_states - 1}")
    if perm[0] != 0:
        raise FstError("permutation must fix the initial state 0")
    n = t.n_states
    delta: list[list[Optional[int]]] = [[None] * len(t.input_alphabet) for _ in range(n)]
    omega: list[Optional[str]] = [None] * n
    for q in range(n):
        omega[perm[q]] = t.omega[q]
        for a, cell in enumerate(t.delta[q]):
            delta[perm[q]][a] = None if cell is None else perm[cell]
    return Transducer(n, t.input_alphabet, t.output_alphabet, delta, omega)
