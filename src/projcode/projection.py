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
from math import comb
from typing import NamedTuple

from . import gf4
from .bitlin import BinaryLinearCode, orthogonal
from .quaternary import PHI_BLOCKS, PHI_DIGITS, QuaternaryCode


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

# (value, parity, first bit) -> the unique column nibble: the 16 nibbles
# fill the 16 keys, since a column's projected value, parity and first bit
# pin it down
_CANDIDATE = {(NIBBLE_VALUE[nib], nib.bit_count() & 1, nib >> 3): nib
              for nib in range(16)}


def select_candidate(value: int, parity: int, first_bit: int) -> int:
    """The unique column with the given projected value, parity, first bit."""
    return _CANDIDATE[value, parity & 1, first_bit & 1]


def _check_word(word: int, m: int) -> None:
    if word >> 4 * m:
        raise ValueError(f"word does not fit in {4 * m} bits")


def project(word: int, m: int) -> tuple[int, ...]:
    """Columnwise projection of a length-4m word onto GF(4); ValueError
    for a word outside 0..2^(4m) - 1."""
    _check_word(word, m)
    return tuple(NIBBLE_VALUE[(word >> 4 * (m - i)) & 15]
                 for i in range(1, m + 1))


class ParityProfile(NamedTuple):
    """Column parities of a word plus the derived decoding quantities."""
    column_parities: tuple[int, ...]
    first_row_parity: int
    y_odd: int
    y_even: int
    p: int


def parity_profile(word: int, m: int) -> ParityProfile:
    """The parity profile of a length-4m word.  Bit 4(m - i) of
    ``t ^ (t >> 1)``, t = word ^ (word >> 2), is the parity of column i.
    ValueError for a word outside 0..2^(4m) - 1."""
    _check_word(word, m)
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
    """x's weight-doubling image as a packed word, PHI_BLOCKS as hex digits
    with the first symbol highest; ValueError for an int outside 0..3."""
    return int(bytes(x).translate(PHI_DIGITS) or b"0", 16)


def d_code_generators(m: int, variant: Variant) -> list[int]:
    """The m generators completing phi(C4) to the full binary code.

    m-1 adjacent pair sums q_i + q_{i+1} (q_i = 1111 in column i) plus one
    extra row: d1 = 1000...1000 for O when m is odd and for E when m is
    even, and d1 + 1111 in column m = 1000...0111 otherwise.
    """
    d1 = int("1000" * m, 2)
    if _odd_tail(m, variant):
        d1 ^= 0b1111                    # 1000...0111
    return [*(0xFF << 4 * (m - i - 1) for i in range(1, m)), d1]


def _odd_tail(m: int, variant: Variant) -> bool:
    """True when d's extra row is 1000...0111 rather than 1000...1000."""
    return (variant is Variant.O) != (m % 2 == 1)


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
    # per row label, its column syndromes as 8 binary digits a column, read
    # as hex and shifted to the label's bit of the nibble; check j gathers
    # bit j of every column syndrome, which is every eighth hex digit
    spread = 0
    for bit in range(3):                # rows W, w, 1; row 0 projects to 0
        row = bytes([col[NIBBLE_VALUE[1 << bit]] for col in c4.colmul[1:]])
        spread |= int(f"{int.from_bytes(row, 'big'):0{8 * m}b}", 16) << bit
    digits = f"{spread:0{8 * m}x}"
    synd = [int(digits[7 - j::8], 16) for j in range(8)]
    first = int("1000" * m, 2)
    if variant is Variant.O:
        first ^= 0xF << 4 * (m - 1)
    return [*synd, *(0xFF << 4 * (m - i - 1) for i in range(1, m)), first]


class ProjectionCode(BinaryLinearCode):
    """The [4m, m+r] binary code phi(C4) + d for the chosen variant, with
    ``projection_checks`` as its parity-check basis; it keeps ``c4`` and
    ``variant``, from which its weight distribution follows."""

    def __init__(self, c4: QuaternaryCode, variant: Variant):
        if c4.r != 2 * (c4.m - 4):
            raise ValueError(f"{c4.name}: {c4.r // 2} basis rows, not "
                             f"m - 4 = {c4.m - 4}: they do not span ker H")
        rows = [phi(g) for g in c4.generators]
        rows += d_code_generators(c4.m, variant)
        super().__init__(rows, 4 * c4.m, projection_checks(c4, variant))
        self.c4, self.variant = c4, variant

    def weight_distribution(self) -> tuple[int, ...]:
        """(A_0, ..., A_4m) from C4's distribution alone.  Each codeword is
        phi(x) + Q_S + b R for one x in C4, Q_S the 1111 columns of a set
        S, R the first row and b in {0, 1}; |S| is even when b = 0 and,
        when b = 1, odd exactly if d's extra row is 1000...0111 (odd = 1,
        sigma = -1; else odd = 0, sigma = 1).  Let x weigh j and S hold t
        of its m - j zero columns and u of its j nonzero ones.  A nonzero
        symbol's column weighs 2 (b = 0) or 3, 1 in S (b = 1); a zero
        symbol's 0, 4 in S (b = 0) or 1, 3 in S (b = 1).  With b = 0 the
        word weighs 2j + 4t, for 2^(j - 1) sets of u columns (even t only
        at j = 0): sum_j A_j 2^(j - 1) z^2j (1 + z^4)^(m - j).  With b = 1
        it weighs m + 2t + 2u', u' = j - u, t + u' = odd + j (mod 2): that
        parity's part of z^m (1 + y)^m, y = z^2, which is z^m [(1 + y)^m
        + sigma (-1)^j (1 - y)^m] / 2.  Over C4 this is z^m [|C4| (1 + y)^m
        + sigma E (1 - y)^m] / 2, E = sum_j (-1)^j A_j: C(m, s) z^(m + 2s)
        for each x of weight s + odd (mod 2)."""
        m, a = self.c4.m, self.c4.weight_distribution()
        odd, dist = _odd_tail(m, self.variant), [0] * (4 * m + 1)
        words = (sum(a[::2]), sum(a[1::2]))     # x of even, odd weight
        for j, aj in enumerate(a):
            if aj:
                per_t = aj << j - 1 if j else aj
                for t in range(0, m - j + 1, 1 if j else 2):
                    dist[2 * j + 4 * t] += per_t * comb(m - j, t)
        for s in range(m + 1):
            dist[m + 2 * s] += comb(m, s) * words[(s + odd) % 2]
        return tuple(dist)


def construct(c4: QuaternaryCode, variant: Variant) -> ProjectionCode:
    """The [4m, m+r] binary code phi(C4) + d for the chosen variant."""
    return ProjectionCode(c4, variant)


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
    ``error`` are marked with a trailing ``*``.  ValueError for a word or
    an error outside 0..2^(4m) - 1."""
    _check_word(word, m)
    _check_word(error, m)
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
