"""Built-in task families and the IOPAIRS/1 task file format.

Format (UTF-8 text):
  - lines starting with "#" and blank lines are ignored
  - optional "@mode chars" (default) or "@mode tokens"
  - optional "@inputs a b c" / "@outputs x y z" alphabet overrides, which
    must be supersets of what the pairs use
  - pair lines "<word> <output>"; in chars mode every character of the word
    is an input symbol, in tokens mode the word is comma-separated tokens
"""

from __future__ import annotations

import itertools
from typing import Callable

from .core import FormatError, FstError, TaskSpec, Word, content_lines


def _binary_task(length: int, outputs: tuple[str, ...], label: Callable[[Word], str]) -> TaskSpec:
    """All binary words of the given length in lexicographic order, each
    paired with label(word)."""
    if length < 1:
        raise FstError("length must be >= 1")
    words = itertools.product("01", repeat=length)
    return TaskSpec(("0", "1"), outputs, tuple((w, label(w)) for w in words))


def gen_parity(length: int) -> TaskSpec:
    """All binary words of the given length; output is the parity of 1s."""
    return _binary_task(length, ("0", "1"), lambda w: str(w.count("1") % 2))


def gen_signal_locator(n: int, k: int) -> TaskSpec:
    """n-bit words of zeroes with a single 1; output is the 1-indexed block
    (of k equal blocks) containing the 1."""
    if n < 1 or k < 1:
        raise FstError("n and k must be >= 1")
    if n % k != 0:
        raise FstError(f"k={k} does not divide n={n}")
    outputs = tuple(str(b) for b in range(1, k + 1))
    pairs = []
    for i in range(1, n + 1):
        word = tuple("1" if j == i else "0" for j in range(1, n + 1))
        block = 1 + (i - 1) * k // n
        pairs.append((word, str(block)))
    return TaskSpec(("0", "1"), outputs, tuple(pairs))


def gen_zeroes_or_ones(length: int) -> TaskSpec:
    """All binary words of the given length; output names the majority
    symbol, or "equal" on a tie."""

    def majority(w: Word) -> str:
        ones = w.count("1")
        return "ones" if 2 * ones > length else "zeros" if 2 * ones < length else "equal"

    return _binary_task(length, ("zeros", "equal", "ones"), majority)


def gen_palindrome(length: int) -> TaskSpec:
    """All binary words of the given length; output 1 iff the word equals
    its reverse."""
    return _binary_task(length, ("0", "1"), lambda w: "1" if w == w[::-1] else "0")


_WORD_GROUPS = (
    (("eruption", "erudite", "oriental", "topology", "serendipity"), "en"),
    (("eki", "origami", "arigato"), "jp"),
    (("asztal", "mester"), "hu"),
)


def word_classification() -> TaskSpec:
    """The fixed ten-word language-classification corpus; the input
    alphabet is the 17 letters occurring in it."""
    pairs = tuple((tuple(word), lang) for words, lang in _WORD_GROUPS for word in words)
    letters = sorted({c for word, _ in pairs for c in word})
    return TaskSpec(tuple(letters), ("en", "jp", "hu"), pairs)


GENERATORS = {
    "parity": gen_parity,
    "signal-locator": gen_signal_locator,
    "zeroes-or-ones": gen_zeroes_or_ones,
    "palindrome": gen_palindrome,
    "words": word_classification,
}


def parse_task(text: str) -> TaskSpec:
    """Parse an IOPAIRS/1 document into a TaskSpec."""
    mode = "chars"
    forced: dict[str, tuple[str, ...]] = {}  # the @inputs and @outputs lines
    pairs: list[tuple[Word, str]] = []
    used: dict[str, set[str]] = {"@inputs": set(), "@outputs": set()}
    for lineno, fields in content_lines(text):
        directive = fields[0]
        if directive.startswith("@"):
            if directive == "@mode":
                if len(fields) != 2 or fields[1] not in ("chars", "tokens"):
                    raise FormatError(lineno, "@mode must be chars or tokens")
                if pairs:
                    raise FormatError(lineno, "@mode must precede pair lines")
                mode = fields[1]
            elif directive in used:
                forced[directive] = tuple(fields[1:])
            else:
                raise FormatError(lineno, f"unknown directive {directive}")
            continue
        if len(fields) != 2:
            raise FormatError(lineno, "expected '<word> <output>'")
        raw_word, out = fields
        word = tuple(raw_word) if mode == "chars" else tuple(raw_word.split(","))
        if "" in word:
            raise FormatError(lineno, f"empty token in word {raw_word!r}")
        used["@inputs"].update(word)
        used["@outputs"].add(out)
        pairs.append((word, out))
    alphabets = []
    for directive, symbols in used.items():
        alphabet = forced.get(directive, tuple(sorted(symbols)))
        if not symbols <= set(alphabet):
            raise FstError(f"{directive} is missing used symbols: {sorted(symbols - set(alphabet))}")
        alphabets.append(alphabet)
    return TaskSpec(*alphabets, tuple(pairs))


def chars_mode(alphabet) -> bool:
    """True iff every symbol of the input alphabet is one character: then a
    word is written as its characters, else as comma-separated tokens."""
    return all(len(s) == 1 for s in alphabet)


def write_task(task: TaskSpec) -> str:
    """Serialize to IOPAIRS/1; parse(write(task)) == task. Raises FstError
    for a word starting with "#" or "@", or a tokens-mode word symbol
    containing ",", which would not read back."""
    chars_ok = chars_mode(task.input_alphabet)
    lines = []
    if not chars_ok:
        lines.append("@mode tokens")
    lines.append("@inputs " + " ".join(task.input_alphabet))
    lines.append("@outputs " + " ".join(task.output_alphabet))
    for word, out in task.pairs:
        for sym in () if chars_ok else word:
            if "," in sym:  # would read back as two or more symbols
                raise FstError(f"symbol {sym!r} cannot be written: tokens are split at ','")
        text = "".join(word) if chars_ok else ",".join(word)
        if text[0] in "#@":  # would read back as a comment or a directive
            raise FstError(f"word {text!r} cannot be written: it starts with {text[0]!r}")
        lines.append(f"{text} {out}")
    return "\n".join(lines) + "\n"
