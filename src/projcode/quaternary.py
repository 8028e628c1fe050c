"""The two GF(4)-linear codes underlying the length-36/40 binary codes.

``c4_9()`` is a [9,5,4] and ``c4_10()`` a [10,6,4] code over GF(4), each
given by its k basis rows and a 4-row parity-check matrix H.  As binary
spaces they have the 2k ``generators`` b_1, w b_1, ..., b_k, w b_k.

Syndromes are taken with the plain (unconjugated) product y H^T.  Any
three columns of H are linearly independent, which is what makes
syndromes of up to three column errors uniquely decomposable
(``single``/``pair_table``).  Syndromes are packed into 8 bits with
``gf4.pack``, check row 1 highest.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import lru_cache

import numpy as np

from . import gf4
from .bitlin import rank, xor_span

GF4Vector = tuple[int, ...]
Syndrome = tuple[int, int, int, int]

# the 16 coefficient pairs (a, b), shared as values by every pair table
_PAIRS = tuple((a, b) for a in gf4.ELEMENTS for b in gf4.ELEMENTS)


class QuaternaryCode:
    """A GF(4)-linear [m, k] code with a 4-row parity check."""

    def __init__(self, name: str, basis: Sequence[GF4Vector],
                 parity_check: Sequence[GF4Vector]):
        if len(parity_check) != 4:
            raise ValueError("expected a 4-row parity check")
        self.name = name
        self.generators = tuple(row for b in basis
                                for row in (tuple(b), gf4.scale(gf4.OMEGA, b)))
        self.parity_check = tuple(tuple(h) for h in parity_check)
        self.m = len(self.parity_check[0])
        self.r = len(self.generators)
        self._packed_gens = [gf4.pack(g) for g in self.generators]
        self._validate()
        # packed syndrome of e * H_i for every column i (1-based) and scalar e
        self.colmul: list[tuple[int, int, int, int]] = [(0, 0, 0, 0)]
        for col in zip(*self.parity_check):
            self.colmul.append(tuple(gf4.pack([gf4.mul(e, h) for h in col])
                                     for e in gf4.ELEMENTS))
        # syndrome -> (column, scalar) for all single-column multiples;
        # collision-free because any two columns are independent
        self.single: dict[int, tuple[int, int]] = {}
        for i in range(1, self.m + 1):
            for e in gf4.NONZERO:
                self.single[self.colmul[i][e]] = (i, e)
        self._pairs: dict[tuple[int, int], dict[int, tuple[int, int]]] = {}
        self._wdist: tuple[int, ...] | None = None

    def _validate(self) -> None:
        for h in self.parity_check:
            if len(h) != self.m:
                raise ValueError("ragged parity-check matrix")
        for g in self.generators:
            if len(g) != self.m:
                raise ValueError("ragged generator matrix")
            s = self.syndrome(g)
            if any(s):
                raise ValueError(
                    f"{self.name}: generator {gf4.format_vector(g)} fails "
                    f"the parity check (syndrome {gf4.format_vector(s)})")
        if rank(self._packed_gens, 2 * self.m) != self.r:
            raise ValueError(f"{self.name}: basis rows are dependent")

    # -- basic queries -----------------------------------------------------

    def syndrome(self, y: Sequence[int]) -> Syndrome:
        """y H^T with the plain product, as a 4-tuple."""
        if len(y) != self.m:
            raise ValueError(f"expected length {self.m}, got {len(y)}")
        return tuple(gf4.plain_inner(y, h) for h in self.parity_check)

    def __contains__(self, y: Sequence[int]) -> bool:
        return not any(self.syndrome(y))

    def pair_table(self, i: int, j: int) -> dict[int, tuple[int, int]]:
        """Packed syndrome of a H_i + b H_j -> (a, b), all 16 pairs; the
        pairs are distinct because any two columns are independent.  The
        (a, b) values are the tuples of ``_PAIRS``, shared by all tables."""
        key = (i, j)
        table = self._pairs.get(key)
        if table is None:
            ci, cj = self.colmul[i], self.colmul[j]
            table = {ci[ab[0]] ^ cj[ab[1]]: ab for ab in _PAIRS}
            self._pairs[key] = table
        return table

    # -- weight distribution -----------------------------------------------

    def weight_distribution(self) -> tuple[int, ...]:
        """(A_0, ..., A_m) over all 2^r codewords."""
        if self._wdist is None:
            words = xor_span(self._packed_gens)
            nonzero = ((words | words >> np.uint64(1))
                       & np.uint64(int("01" * self.m, 2)))
            counts = np.bincount(np.bitwise_count(nonzero),
                                 minlength=self.m + 1)
            self._wdist = tuple(int(c) for c in counts)
        return self._wdist

    def min_distance(self) -> int:
        dist = self.weight_distribution()
        return next(i for i in range(1, self.m + 1) if dist[i])

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
    rows = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        rows.append(gf4.parse_vector(stripped))
    if not rows:
        raise ValueError("no matrix rows found")
    if len({len(r) for r in rows}) != 1:
        raise ValueError("ragged matrix")
    return rows


def format_gf4_matrix(rows: Iterable[GF4Vector]) -> str:
    return "\n".join(gf4.format_vector(r) for r in rows)
