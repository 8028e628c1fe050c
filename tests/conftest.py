from __future__ import annotations

import numpy as np
import pytest

from projcode.bitlin import BinaryLinearCode, iter_span_chunks
from projcode.decoder import DecoderContext
from projcode.projection import (NIBBLE_VALUE, ParityProfile, Variant,
                                 projection_checks)
from projcode.quaternary import QuaternaryCode, c4_9, c4_10

BINARY_IDS = ("o36", "e36", "o40", "e40")

# error shapes (column, nibble) that trigger each decoder branch, valid
# for any of the four codes (columns stay within 1..9)
BRANCH_ERRORS = [
    ("a.i", []),
    ("a.ii", [(3, 0b0110)]),
    ("a.ii", [(2, 0b1100)]),                 # with a first-row error
    ("b.i.1", [(2, 0b1000)]),
    ("b.i.2", [(2, 0b0111)]),
    ("b.ii", [(4, 0b0010)]),
    ("b.ii", [(4, 0b1110)]),                 # weight-3 form
    ("b.iii", [(2, 0b1000), (5, 0b0110)]),
    ("b.iv", [(3, 0b0010), (7, 0b0011)]),
    ("b.iv", [(3, 0b0010), (7, 0b1100)]),    # second column hits the first row
    ("c.i", [(2, 0b1000), (6, 0b1000)]),
    ("c.ii", [(4, 0b0100), (9, 0b1000)]),
    ("c.ii", [(4, 0b1000), (9, 0b0100)]),    # repaired column is the later one
    ("c.iii", [(1, 0b0001), (8, 0b0010)]),
    ("d.i", [(2, 0b1000), (5, 0b1000), (9, 0b1000)]),
    ("d.ii", [(2, 0b0100), (5, 0b1000), (9, 0b1000)]),
    ("d.iii", [(2, 0b0100), (5, 0b0010), (9, 0b1000)]),
    ("d.iv", [(2, 0b0100), (5, 0b0010), (9, 0b0001)]),
]

# one line per acceptance criterion, echoed after the run so the verdicts
# survive pytest's output capture
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.line(line)


def plant(ctx: DecoderContext, codeword: int,
          errors: list[tuple[int, int]]) -> int:
    """XOR the given (column, nibble) error shapes into a codeword."""
    word = codeword
    for col, nib in errors:
        word ^= nib << (4 * (ctx.m - col))
    return word


def make_context(code_id: str) -> DecoderContext:
    base = c4_9() if code_id.endswith("36") else c4_10()
    variant = Variant.O if code_id.startswith("o") else Variant.E
    return DecoderContext(base, variant)


def word_from_rows(rows: tuple[str, str, str, str]) -> int:
    """The packed word of a worked example given by its four row strings."""
    word = 0
    for column in zip(*(r.split() for r in rows)):
        word = word << 4 | int("".join(column), 2)
    return word


def columns(word: int, m: int) -> list[int]:
    """The m column nibbles of a length-4m word, column 1 first."""
    return [(word >> 4 * (m - i)) & 15 for i in range(1, m + 1)]


def reference_project(word: int, m: int) -> tuple[int, ...]:
    """``project`` nibble by nibble."""
    return tuple(NIBBLE_VALUE[nib] for nib in columns(word, m))


def reference_parity_profile(word: int, m: int) -> ParityProfile:
    """``parity_profile`` nibble by nibble: the parity of each column and
    the XOR of the columns' top bits."""
    nibbles = columns(word, m)
    pars = tuple(nib.bit_count() & 1 for nib in nibbles)
    first = 0
    for nib in nibbles:
        first ^= nib >> 3
    y_odd = sum(pars)
    return ParityProfile(column_parities=pars, first_row_parity=first,
                         y_odd=y_odd, y_even=m - y_odd,
                         p=min(y_odd, m - y_odd))


def minority_columns(profile: ParityProfile) -> tuple[int, ...]:
    """The 1-based columns whose parity differs from the majority's, for a
    profile without a parity tie."""
    majority = int(profile.y_odd > profile.y_even)
    return tuple(i for i, par in enumerate(profile.column_parities, 1)
                 if par != majority)


def enumerated_has_projection(code: BinaryLinearCode, c4: QuaternaryCode,
                              variant: Variant) -> bool:
    """``has_projection`` by brute force: every one of the 2^k codewords
    must project into C4, have columns of one parity and obey the
    variant's first-row rule."""
    m = c4.m
    if code.n != 4 * m:
        return False
    one = np.uint64(1)
    col_mask = np.uint64(int("0001" * m, 2))
    first_mask = np.uint64(int("1000" * m, 2))
    synd_masks = [np.uint64(mask)
                  for mask in projection_checks(c4, variant)[:8]]
    for chunk in iter_span_chunks(code.generator):
        t = chunk ^ (chunk >> np.uint64(2))
        colpar = (t ^ (t >> one)) & col_mask
        odd = colpar == col_mask
        if not np.all(odd | (colpar == 0)):
            return False
        first = (np.bitwise_count(chunk & first_mask) & one).astype(bool)
        if not np.array_equal(first, odd if variant is Variant.O
                              else np.zeros_like(odd)):
            return False
        for mask in synd_masks:
            if np.any(np.bitwise_count(chunk & mask) & one):
                return False
    return True


@pytest.fixture(scope="session")
def q9():
    return c4_9()


@pytest.fixture(scope="session")
def q10():
    return c4_10()


@pytest.fixture(scope="session")
def contexts() -> dict[str, DecoderContext]:
    """One decoder context per binary code, shared across the session so
    cached weight distributions and tables are computed once."""
    return {code_id: make_context(code_id) for code_id in BINARY_IDS}
