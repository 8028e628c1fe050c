"""GF(4) arithmetic on 2-bit encoded elements.

Elements are plain ints 0..3 with the encoding 0 -> 00, 1 -> 01, w -> 10,
W -> 11, where w is a primitive element and W = w^2 = w + 1 its conjugate.
Addition is then bitwise XOR.

Vectors are tuples of ints.  ``pack``/``unpack`` convert to a single int
(two bits per symbol, first symbol in the highest bits) so that vector
addition becomes integer XOR.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

ZERO = 0
ONE = 1
OMEGA = 2       # w
OMEGA_BAR = 3   # W = w^2 = w + 1

ELEMENTS = (ZERO, ONE, OMEGA, OMEGA_BAR)
NONZERO = (ONE, OMEGA, OMEGA_BAR)

# _MUL[a][b] = a*b.  w*w = W, w*W = 1, W*W = w.
_MUL = (
    (0, 0, 0, 0),
    (0, 1, 2, 3),
    (0, 2, 3, 1),
    (0, 3, 1, 2),
)

_SYMBOLS = "01wW"
_FROM_SYMBOL = {"0": 0, "1": 1, "w": 2, "W": 3}


def scale(c: int, x: Sequence[int]) -> tuple[int, ...]:
    """Scalar multiple c*x."""
    row = _MUL[c]
    return tuple(row[a] for a in x)


def plain_inner(x: Sequence[int], y: Sequence[int]) -> int:
    """Plain inner product sum_i x_i * y_i (no conjugation)."""
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    acc = 0
    for a, b in zip(x, y):
        acc ^= _MUL[a][b]
    return acc


def format_element(a: int) -> str:
    return _SYMBOLS[a]


def format_vector(x: Iterable[int], sep: str = " ") -> str:
    return sep.join(_SYMBOLS[a] for a in x)


def parse_vector(text: str) -> tuple[int, ...]:
    """Parse a vector of 0/1/w/W symbols, whitespace optional."""
    try:
        return tuple(map(_FROM_SYMBOL.__getitem__, "".join(text.split())))
    except KeyError as exc:
        raise ValueError(f"not a GF(4) symbol: {exc.args[0]!r}") from None


def pack(x: Sequence[int]) -> int:
    """Pack a vector into an int, two bits per symbol, leftmost highest."""
    v = 0
    for a in x:
        v = (v << 2) | a
    return v


def unpack(v: int, m: int) -> tuple[int, ...]:
    return tuple((v >> (2 * (m - j))) & 3 for j in range(1, m + 1))
