"""Projection between binary length-4m words and GF(4) length-m words.

A binary word v of length 4m is viewed as a 4 x m array: column i holds
coordinates 4(i-1)+1 .. 4i, and the four rows are labelled with the field
elements 0, 1, w, W.  The projection of column i is the inner product of
the column with its row labels, i.e. rows 2-4 contribute 1, w, W when set.
A word is a packed int whose column i is the nibble at bit 4(m-i), with
the row-0 entry in the nibble's top bit.  This module alone knows that
layout; ``quaternary`` works in GF(4) only.

Two binary codes are built on top of a quaternary code C4:

* construction O: phi(C4) + d,  where phi doubles weights
  (0 -> 0000, 1 -> 0011, w -> 0101, W -> 0110) and d is spanned by the
  adjacent column-pair sums q_i + q_{i+1} plus one extra row
  (10001000...1000 for odd m, else 1000...0111);
* construction E: the same with the extra row swapped.

Both yield [4m, m+r] codes.  Codewords of O have first-row parity equal
to the common column parity; codewords of E always have an even first
row.  The 16 binary columns split into four cosets of {0000, 1111, 1000,
0111}, one per projected value; within a coset a column is pinned down by
its parity and first bit (``select_candidate``), which is what the
decoder uses to repair columns.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from . import gf4
from .bitlin import BinaryLinearCode, orthogonal
from .quaternary import PHI_BLOCKS, QuaternaryCode


class Variant(enum.Enum):
    """Which extra generator the binary construction uses."""
    O = "O"
    E = "E"


# value of a nibble under the projection: rows 1, w, W contribute 1, w, W
NIBBLE_VALUE = tuple(
    (gf4.ONE if nib & 0b0100 else 0)
    ^ (gf4.OMEGA if nib & 0b0010 else 0)
    ^ (gf4.OMEGA_BAR if nib & 0b0001 else 0)
    for nib in range(16)
)

# the four columns projecting to each value: phi block + kernel of value map
COSETS = tuple(
    tuple(PHI_BLOCKS[v] ^ d for d in (0b0000, 0b1111, 0b1000, 0b0111))
    for v in range(4)
)

# [value][parity][first_bit] -> the unique matching column nibble
_CANDIDATE: list[list[list[int | None]]] = [
    [[None, None], [None, None]] for _ in range(4)]
for _v in range(4):
    for _nib in COSETS[_v]:
        _CANDIDATE[_v][_nib.bit_count() & 1][_nib >> 3] = _nib


def select_candidate(value: int, parity: int, first_bit: int) -> int:
    """The unique column with the given projected value, parity, first bit."""
    return _CANDIDATE[value][parity & 1][first_bit & 1]


def project(word: int, m: int) -> tuple[int, ...]:
    """Columnwise projection of a length-4m word onto GF(4)."""
    return tuple(NIBBLE_VALUE[(word >> 4 * (m - i)) & 15]
                 for i in range(1, m + 1))


@dataclass(frozen=True)
class ParityProfile:
    """Column parities of a word plus the derived decoding quantities."""
    column_parities: tuple[int, ...]
    first_row_parity: int
    y_odd: int
    y_even: int
    p: int


def parity_profile(word: int, m: int) -> ParityProfile:
    """The parity profile of a length-4m word.  Bit 4(m - i) of
    ``t ^ (t >> 1)``, t = word ^ (word >> 2), is the parity of column i."""
    t = word ^ (word >> 2)
    colbits = t ^ (t >> 1)
    pars = tuple((colbits >> 4 * (m - i)) & 1 for i in range(1, m + 1))
    y_odd = sum(pars)
    return ParityProfile(
        column_parities=pars,
        first_row_parity=(word & int("1000" * m, 2)).bit_count() & 1,
        y_odd=y_odd,
        y_even=m - y_odd,
        p=min(y_odd, m - y_odd),
    )


def phi(x: tuple[int, ...]) -> int:
    """The weight-doubling embedding of a GF(4) vector, as a packed word."""
    word = 0
    for a in x:
        word = (word << 4) | PHI_BLOCKS[a]
    return word


def d_code_generators(m: int, variant: Variant) -> list[int]:
    """The m generators completing phi(C4) to the full binary code.

    m-1 adjacent pair sums q_i + q_{i+1} (q_i = 1111 in column i) plus one
    extra row: construction O takes 1000...1000 for odd m and 1000...0111
    for even m; construction E takes the other one.
    """
    rows = []
    for i in range(1, m):
        word = (0xF << (4 * (m - i))) | (0xF << (4 * (m - i - 1)))
        rows.append(word)
    d1 = int("1000" * m, 2)
    d2 = int("1000" * (m - 1) + "0111", 2)
    if variant is Variant.O:
        rows.append(d1 if m % 2 else d2)
    else:
        rows.append(d2 if m % 2 else d1)
    return rows


def projection_checks(c4: QuaternaryCode, variant: Variant) -> list[int]:
    """The n - k parity checks of ``construct(c4, variant)``, in syndrome
    bit order: 8 rows, row j holding the word bits whose row label times
    their column of H (``c4.colmul``) has bit j set, so the low byte of the
    syndrome is the packed GF(4) syndrome of the projection; the m - 1 sums
    of columns i and i + 1; and the first row, plus column 1 for O.

    A word meets them iff it projects into C4, its columns share one parity
    and its first-row parity is that parity for O and 0 for E.  Each check
    is GF(2)-linear, so a code meets them iff its generator rows do.
    ValueError for a ``variant`` that is not a ``Variant``."""
    if not isinstance(variant, Variant):
        raise ValueError(f"not a Variant: {variant!r}")
    m = c4.m
    synd = [0] * 8
    for i in range(1, m + 1):
        for bit in range(3):            # rows W, w, 1; row 0 projects to 0
            s = c4.colmul[i][NIBBLE_VALUE[1 << bit]]
            while s:                    # one pass per set syndrome bit
                low = s & -s
                synd[low.bit_length() - 1] |= 1 << 4 * (m - i) + bit
                s ^= low
    first = int("1000" * m, 2)
    if variant is Variant.O:
        first ^= 0xF << 4 * (m - 1)
    return [*synd, *(0xFF << 4 * (m - i - 1) for i in range(1, m)), first]


def construct(c4: QuaternaryCode, variant: Variant) -> BinaryLinearCode:
    """The [4m, m+r] binary code phi(C4) + d for the chosen variant, with
    ``projection_checks`` as its parity-check basis."""
    rows = [phi(g) for g in c4.generators]
    rows += d_code_generators(c4.m, variant)
    return BinaryLinearCode(rows, 4 * c4.m, projection_checks(c4, variant))


def has_projection(code: BinaryLinearCode, c4: QuaternaryCode,
                   variant: Variant) -> bool:
    """True iff every codeword projects into C4, has columns of one parity
    and obeys the variant's first-row rule: every generator row meets
    every one of the ``projection_checks``."""
    checks = projection_checks(c4, variant)
    return code.n == 4 * c4.m and orthogonal(code.generator, checks)


def render_array(word: int, m: int, error: int = 0) -> str:
    """Labelled 4 x m table of a length-4m word: row labels 0/1/w/W, one
    column per symbol, and the projection underneath.  The bits set in
    ``error`` are marked with a trailing ``*``."""
    width = max(3, len(str(m)) + 1)
    header = "    |" + "".join(f"{i:>{width}}" for i in range(1, m + 1))
    rule = "    +" + "-" * (width * m)
    lines = [header, rule]
    for row, label in enumerate("01wW"):
        cells = []
        for i in range(1, m + 1):
            shift = 4 * (m - i) + 3 - row
            mark = "*" if (error >> shift) & 1 else " "
            cells.append(f"{(word >> shift) & 1}{mark}".rjust(width))
        lines.append(f"  {label} |" + "".join(cells))
    lines.append(rule)
    lines.append("    |" + "".join(f"{gf4.format_element(v):>{width}}"
                                   for v in project(word, m)))
    return "\n".join(lines)
