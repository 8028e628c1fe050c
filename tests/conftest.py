from __future__ import annotations

import functools
import itertools
import os
import subprocess
import sys
from collections.abc import Iterator, Sequence
from pathlib import Path

import numpy as np
import pytest

import projcode
from projcode import gf4
from projcode.bitlin import BinaryLinearCode, rank, xor_span
from projcode.decoder import DecoderContext, _column_repairs, _entries
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


def code_equal(a: BinaryLinearCode, b: BinaryLinearCode) -> bool:
    """True iff two codes have identical row spaces."""
    if a.n != b.n or a.k != b.k:
        return False
    return rank(list(a.generator) + list(b.generator), a.n) == a.k


def reference_rref(rows: Sequence[int], n: int) -> tuple[list[int], int]:
    """``rref`` by a sweep over the n columns: each column's first
    remaining row with its bit set is the next pivot row, and every other
    row, kept or remaining, loses that bit."""
    work = list(rows)
    reduced: list[int] = []
    for col in range(n):
        bit = 1 << (n - 1 - col)
        src = next((i for i, r in enumerate(work) if r & bit), None)
        if src is None:
            continue
        piv = work.pop(src)
        work = [r ^ piv if r & bit else r for r in work]
        reduced = [r ^ piv if r & bit else r for r in reduced]
        reduced.append(piv)
        if not work:
            break
    return reduced, len(reduced)


def check_parities(code: BinaryLinearCode, word: int) -> int:
    """The syndrome by definition: bit j is the parity of check row j
    over the word."""
    return sum(((word & h).bit_count() & 1) << j
               for j, h in enumerate(code.parity_rows))


def make_context(code_id: str) -> DecoderContext:
    base = c4_9() if code_id.endswith("36") else c4_10()
    variant = Variant.O if code_id.startswith("o") else Variant.E
    return DecoderContext(base, variant)


@functools.lru_cache(maxsize=None)
def cap_columns() -> tuple[tuple[int, ...], ...]:
    """c4-10's ten columns of H, extended greedily, in sorted order, by the
    points of PG(3, 4) that no two chosen columns span: a cap, any three
    of its columns independent, of 17 points."""
    points = [p for p in itertools.product(gf4.ELEMENTS, repeat=4)
              if any(p) and next(a for a in p if a) == 1]
    columns, multiples, spanned = [], {0}, {0}
    for col in [*zip(*c4_10().parity_check), *points]:
        if gf4.pack(col) not in spanned:
            new = {gf4.pack(gf4.scale(e, col)) for e in gf4.NONZERO}
            spanned |= {s ^ t for s in new for t in multiples}
            multiples |= new
            columns.append(col)
    assert len(columns) == 17
    return tuple(columns)


def coset_representatives(code: BinaryLinearCode) -> list[int]:
    """The 2^(n-k) words supported on the non-pivot coordinates: the pivots
    are an information set, so each coset holds exactly one of them."""
    pivots = set(code._pivots)
    reps = [0]
    for c in range(code.n):
        if c not in pivots:
            bit = 1 << (code.n - 1 - c)
            reps += [r | bit for r in reps]
    return reps


def entry_slot(m: int, minority: tuple[int, ...]) -> int:
    """The slot of a minority set's decoder entry: P ^ P >> 1, the parities
    of adjacent column pairs, for P the sum of 1 << c - 1 over its
    columns, taken on the m - 1 bits of the syndrome that hold them."""
    pattern = sum(1 << c - 1 for c in minority)
    return (pattern ^ pattern >> 1) & (1 << m - 1) - 1


def solve_table(c4: QuaternaryCode, minority: tuple[int, ...]) -> bytes:
    """The solve table of ``minority``, read from its entry's slot."""
    return _entries(c4, _column_repairs(c4.m))[entry_slot(c4.m, minority)][2]


def systematic_c4(name: str, columns) -> QuaternaryCode:
    """The GF(4) code whose H has the given columns, the first four I, and
    whose basis rows are [A^T | I] for A the other columns."""
    a = columns[4:]
    basis = [[*col, *(int(j == i) for j in range(len(a)))]
             for i, col in enumerate(a)]
    return QuaternaryCode(name, basis, list(zip(*columns)))


def run_cli(argv, **kwargs) -> subprocess.CompletedProcess:
    """``python -m projcode.cli *argv`` in a child that imports this
    tree's ``src/``."""
    src = str(Path(projcode.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-m", "projcode.cli", *argv],
                          env=env, timeout=120, **kwargs)


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


def span_chunks(rows: Sequence[int]) -> Iterator[np.ndarray]:
    """Every word of the span of ``rows``, once, in uint64 chunks: the
    span of the low 16 rows XORed with each word of the span of the rest."""
    base = xor_span(rows[:16])
    for high in xor_span(rows[16:]):
        yield base ^ high


def enumerated_distribution(code: BinaryLinearCode) -> tuple[int, ...]:
    """(A_0, ..., A_n) by counting the weights of all 2^k codewords."""
    counts = np.zeros(code.n + 1, dtype=np.int64)
    for chunk in span_chunks(code.generator):
        counts += np.bincount(np.bitwise_count(chunk), minlength=code.n + 1)
    return tuple(int(c) for c in counts)


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
    for chunk in span_chunks(code.generator):
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
