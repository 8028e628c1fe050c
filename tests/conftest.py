from __future__ import annotations

import pytest

from projcode.decoder import DecoderContext
from projcode.projection import CodewordArray, Variant
from projcode.quaternary import c4_9, c4_10

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


def array_from_rows(rows: tuple[str, str, str, str]) -> CodewordArray:
    """Build a column array from the four row strings of a worked example."""
    bits = [r.split() for r in rows]
    m = len(bits[0])
    return CodewordArray(tuple(
        int("".join(bits[r][i] for r in range(4)), 2) for i in range(m)))


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
