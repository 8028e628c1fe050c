from __future__ import annotations

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from projcode import gf4

elements = st.sampled_from(gf4.ELEMENTS)


def _mul(a: int, b: int) -> int:
    # the one table that every product in the package reads
    return gf4._MUL[a][b]


def test_addition_is_xor():
    assert gf4.OMEGA ^ gf4.OMEGA_BAR == gf4.ONE
    assert gf4.ONE ^ gf4.OMEGA == gf4.OMEGA_BAR


def test_multiplication_table():
    assert _mul(gf4.OMEGA, gf4.OMEGA) == gf4.OMEGA_BAR
    assert _mul(gf4.OMEGA, gf4.OMEGA_BAR) == gf4.ONE
    assert _mul(gf4.OMEGA_BAR, gf4.OMEGA_BAR) == gf4.OMEGA
    for a in gf4.ELEMENTS:
        assert _mul(a, 0) == 0
        assert _mul(a, 1) == a


def test_field_axioms_exhaustive():
    for a, b, c in itertools.product(gf4.ELEMENTS, repeat=3):
        assert _mul(a, b) == _mul(b, a)
        assert _mul(a, _mul(b, c)) == _mul(_mul(a, b), c)
        assert _mul(a, b ^ c) == _mul(a, b) ^ _mul(a, c)
    # nonzero elements form a group of order 3
    for a in gf4.NONZERO:
        assert _mul(a, _mul(a, a)) == 1


def _square(a: int) -> int:
    return _mul(a, a)


def test_conjugation_is_squaring_automorphism():
    # squaring fixes 0 and 1, swaps w and W, and is an involution
    assert [_square(a) for a in gf4.ELEMENTS] == [0, 1, gf4.OMEGA_BAR,
                                                  gf4.OMEGA]
    for a in gf4.ELEMENTS:
        assert _square(_square(a)) == a
    for a, b in itertools.product(gf4.ELEMENTS, repeat=2):
        assert _square(_mul(a, b)) == _mul(_square(a), _square(b))
        assert _square(a ^ b) == _square(a) ^ _square(b)


def test_omega_bar_identities():
    w, wb = gf4.OMEGA, gf4.OMEGA_BAR
    assert w ^ 1 == wb                  # W = w + 1
    assert _mul(w, w) == wb             # W = w^2
    assert _mul(w, wb) == 1


def _vsum(x, y) -> tuple[int, ...]:
    return tuple(a ^ b for a, b in zip(x, y))


@given(st.lists(elements, min_size=1, max_size=9), elements)
def test_scale_distributes_over_vadd(xs, c):
    x = tuple(xs)
    y = tuple(reversed(x))
    assert gf4.scale(c, _vsum(x, y)) == _vsum(gf4.scale(c, x),
                                              gf4.scale(c, y))


def test_vector_length_mismatch():
    with pytest.raises(ValueError):
        gf4.plain_inner((0, 1), (0, 1, 2))


def test_parse_format_round_trip():
    text = "1 0 w W"
    vec = gf4.parse_vector(text)
    assert vec == (1, 0, 2, 3)
    assert gf4.format_vector(vec) == text
    assert gf4.parse_vector("10wW") == vec
    for a in gf4.ELEMENTS:
        assert gf4.parse_vector(gf4.format_element(a)) == (a,)
    assert gf4.parse_vector(" \t\n") == ()


def test_parse_rejects_unknown_symbol():
    # the first symbol outside 0/1/w/W is named, whitespace skipped
    for text, bad in (("1 0 x", "'x'"), ("1\t0 q x", "'q'"), ("w2", "'2'"),
                      ("w,W", "','"), ("1 \u00e9", "'\u00e9'")):
        with pytest.raises(ValueError) as exc:
            gf4.parse_vector(text)
        assert str(exc.value) == f"not a GF(4) symbol: {bad}"


def test_pack_unpack_round_trip():
    vec = (1, 0, 2, 3, 3)
    assert gf4.unpack(gf4.pack(vec), 5) == vec
    # packed addition is XOR
    other = (2, 2, 0, 1, 3)
    assert gf4.pack(_vsum(vec, other)) == gf4.pack(vec) ^ gf4.pack(other)
