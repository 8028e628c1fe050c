"""The two GF(4)-linear codes underlying the length-36/40 binary codes.

``c4_9()`` is a [9,5,4] and ``c4_10()`` a [10,6,4] code over GF(4), each
given by its k basis rows and a 4-row parity-check matrix H.  As binary
spaces they have the 2k ``generators`` b_1, w b_1, ..., b_k, w b_k; their
phi images span ``image``, a binary code of every weight doubled.

Syndromes are taken with the plain (unconjugated) product y H^T and
packed into 8 bits with ``gf4.pack``, check row 1 highest.  Any three
columns of H are linearly independent (H is a cap in PG(3,4)), which
``QuaternaryCode`` checks and which makes syndromes of up to three
column errors uniquely decomposable: the decoder's solve tables, built
from ``colmul``, read each decomposition from one byte.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import lru_cache
from itertools import combinations

from . import gf4
from .bitlin import BinaryLinearCode, matrix_rows, min_weight, rank

GF4Vector = tuple[int, ...]

# the weight-doubling map phi by field element (GF(2)-linear, weight 2 on
# every nonzero symbol); ``projection`` uses these as column nibbles
PHI_BLOCKS = (0b000, 0b011, 0b101, 0b110)
# symbol a -> hex/octal digit PHI_BLOCKS[a], any other byte -> "?", no digit
PHI_DIGITS = b"%d%d%d%d" % PHI_BLOCKS + b"?" * 252


def _check_symbols(rows: Iterable[Sequence[int]]) -> None:
    """ValueError naming the first symbol that is not an int in 0..3."""
    for row in rows:
        for a in row:
            if type(a) is not int or a not in gf4.ELEMENTS:
                raise ValueError(f"not a GF(4) symbol: {a!r}")


class QuaternaryCode:
    """A GF(4)-linear [m, k] code with a 4-row parity check, any three of
    whose columns are independent."""

    def __init__(self, name: str, basis: Sequence[GF4Vector],
                 parity_check: Sequence[GF4Vector]):
        if len(parity_check) != 4:
            raise ValueError("expected a 4-row parity check")
        _check_symbols((*basis, *parity_check))
        self.name = name
        self.generators = tuple(row for b in basis
                                for row in (tuple(b), gf4.scale(gf4.OMEGA, b)))
        self.parity_check = tuple(tuple(h) for h in parity_check)
        self.m = len(self.parity_check[0])
        self.r = len(self.generators)
        for h in self.parity_check:
            if len(h) != self.m:
                raise ValueError("ragged parity-check matrix")
        # packed syndrome of e * H_i for every column i (1-based) and scalar
        # e, symbolwise: w and W take a w + b to (a + b) w + a and b w + a + b
        self.colmul: list[tuple[int, int, int, int]] = [(0, 0, 0, 0)]
        for col in zip(*self.parity_check):
            p = gf4.pack(col)
            a, b = p >> 1 & 0x55, p & 0x55
            self.colmul.append((0, p, (a ^ b) << 1 | a, b << 1 | a ^ b))
        # the basis rows: w times a codeword is a codeword
        for g in self.generators[::2]:
            if len(g) != self.m:
                raise ValueError("ragged generator matrix")
            s = 0
            for multiples, a in zip(self.colmul[1:], g):
                s ^= multiples[a]
            if s:
                raise ValueError(
                    f"{name}: generator {gf4.format_vector(g)} fails "
                    f"the parity check (syndrome "
                    f"{gf4.format_vector(gf4.unpack(s, 4))})")
        self._distribution: tuple[int, ...] | None = None
        # phi of each generator, 3 bits a symbol, the first lowest: the
        # reversed row in octal; a dependent basis, which BinaryLinearCode
        # rejects, is named in this code's terms, other errors as they are
        rows = [int(bytes(g[::-1]).translate(PHI_DIGITS) or b"0", 8)
                for g in self.generators]
        try:
            self.image = BinaryLinearCode(rows, 3 * self.m)
        except ValueError:
            found = rank(rows, 3 * self.m)
            if found == self.r:
                raise
            raise ValueError(f"{name}: basis rows are dependent: rank "
                             f"{found // 2} < {len(basis)}") from None
        dependent = self._dependent_columns()
        if dependent:
            raise ValueError(f"{name}: columns "
                             f"{', '.join(map(str, dependent))} of H are "
                             "dependent")

    def _dependent_columns(self) -> tuple[int, ...]:
        """The first columns of H found dependent, () for a cap: column by
        column, a zero column alone or two proportional columns; then three
        columns with H_i + e H_j a multiple of H_k.  So a dependent pair
        is named as a pair, not as a triple that holds it."""
        colmul = self.colmul
        seen: dict[int, int] = {}       # each column's nonzero multiples
        for i in range(1, self.m + 1):
            if not colmul[i][1]:
                return (i,)
            for s in colmul[i][1:]:
                if seen.setdefault(s, i) != i:
                    return seen[s], i
        for i, j in combinations(range(1, self.m + 1), 2):
            for s in colmul[j][1:]:
                k = seen.get(colmul[i][1] ^ s)
                if k:
                    return tuple(sorted((i, j, k)))
        return ()

    # -- basic queries -----------------------------------------------------

    def syndrome(self, y: Sequence[int]) -> int:
        """y H^T with the plain product, packed: the independent reference
        for ``colmul`` and the tables built from it.  ValueError for a
        vector of another length or with a symbol that is not an int in
        0..3."""
        if len(y) != self.m:
            raise ValueError(f"expected length {self.m}, got {len(y)}")
        _check_symbols((y,))
        return gf4.pack([gf4.plain_inner(y, h) for h in self.parity_check])

    def __contains__(self, y: Sequence[int]) -> bool:
        return self.syndrome(y) == 0

    # -- weight distribution -----------------------------------------------

    def weight_distribution(self) -> tuple[int, ...]:
        """(A_0, ..., A_m): every other entry of the distribution of the
        phi image, whose words weigh at most 2m.  The image is enumerated
        on the first call only; the tuple is kept on the code."""
        if self._distribution is None:
            self._distribution = \
                self.image.weight_distribution()[:2 * self.m + 1:2]
        return self._distribution

    def min_distance(self) -> int:
        return min_weight(self.weight_distribution())

    def __repr__(self) -> str:
        return f"QuaternaryCode({self.name}, m={self.m}, r={self.r})"


_G9 = """
1 0 0 0 0 W 1 1 1
0 1 0 0 0 1 w W 0
0 0 1 0 0 0 1 w W
0 0 0 1 0 W W 0 1
0 0 0 0 1 1 w 1 1
"""

_H9 = """
1 0 0 0 1 1 W 0 1
0 1 0 0 1 0 w W 1
0 0 1 0 w W 1 w 1
0 0 0 1 1 W 0 1 W
"""

_G10 = """
1 0 0 0 0 0 w 0 w W
0 1 0 0 0 0 W 1 1 1
0 0 1 0 0 0 1 w W 0
0 0 0 1 0 0 0 1 w W
0 0 0 0 1 0 W W 0 1
0 0 0 0 0 1 1 w 1 1
"""

_H10 = """
1 0 0 0 1 1 W 0 1 W
0 1 0 0 1 0 w W 1 w
0 0 1 0 w W 1 w 1 0
0 0 0 1 1 W 0 1 W w
"""


@lru_cache(maxsize=None)
def c4_9() -> QuaternaryCode:
    """The [9,5,4] code over GF(4)."""
    return QuaternaryCode("c4-9", parse_gf4_matrix(_G9),
                          parse_gf4_matrix(_H9))


@lru_cache(maxsize=None)
def c4_10() -> QuaternaryCode:
    """The [10,6,4] code over GF(4)."""
    return QuaternaryCode("c4-10", parse_gf4_matrix(_G10),
                          parse_gf4_matrix(_H10))


def parse_gf4_matrix(text: str) -> list[GF4Vector]:
    """One row of 0/1/w/W symbols per line; blanks and # lines skipped."""
    return matrix_rows(text, lambda line: (
        row := gf4.parse_vector(line), len(row)))[0]


def format_gf4_matrix(rows: Iterable[GF4Vector]) -> str:
    return "\n".join(gf4.format_vector(r) for r in rows)
