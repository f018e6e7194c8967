from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qdeform.rational import I, MINUS_I, ONE, ZERO, RationalComplex, format_scalar

fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)
scalars = st.builds(RationalComplex, fractions, fractions)


def test_basic_arithmetic():
    z = RationalComplex(Fraction(1, 2), Fraction(3, 4))
    w = RationalComplex(2, -1)
    assert z + w == RationalComplex(Fraction(5, 2), Fraction(-1, 4))
    assert z * w == RationalComplex(Fraction(7, 4), 1)
    assert I * I == RationalComplex(-1)
    assert I * MINUS_I == ONE


def test_mixing_with_ints_and_fractions():
    z = RationalComplex(1, 2)
    assert z + 1 == RationalComplex(2, 2)
    assert 2 * z == RationalComplex(2, 4)
    assert RationalComplex(3) == 3
    assert hash(RationalComplex(3)) == hash(3)


def test_conjugate_and_zero_flag():
    z = RationalComplex(1, -2)
    assert z * RationalComplex(1, 2) == 5
    assert ZERO.is_zero
    assert not ONE.is_zero


@given(fractions, fractions)
def test_product_with_reciprocal_is_one(re, im):
    # the reciprocal is built from its parts, so only * is under test
    norm = re * re + im * im
    if norm:
        z = RationalComplex(re, im)
        assert z * RationalComplex(re / norm, -im / norm) == ONE


@pytest.mark.parametrize(
    "other", [0.5, 1.0, 1j, complex(2, 0), "2/3", Decimal("0.5"), ONE]
)
def test_float_and_complex_operands_are_refused(other):
    # no floating point, text or decimal enters an exact coefficient, as an
    # operand or as a part; a part is an int or a Fraction, never a scalar
    for parts in ((other,), (1, other)):
        with pytest.raises(TypeError, match=type(other).__name__):
            RationalComplex(*parts)
    if other is ONE:
        return
    z = RationalComplex(1, 2)
    for combine in (
        lambda: z + other,
        lambda: other + z,
        lambda: z * other,
        lambda: other * z,
    ):
        with pytest.raises(TypeError):
            combine()
    assert z != other


@given(scalars, scalars, scalars)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@pytest.mark.parametrize(
    "value,expected",
    [
        (RationalComplex(3), "3"),
        (RationalComplex(Fraction(-1, 2)), "-1/2"),
        (I, "i"),
        (MINUS_I, "-i"),
        (RationalComplex(0, 3), "3*i"),
        (RationalComplex(0, Fraction(-2, 5)), "-2/5*i"),
        (RationalComplex(Fraction(1, 2), Fraction(3, 4)), "1/2 + 3/4*i"),
        (RationalComplex(Fraction(1, 2), Fraction(-3, 4)), "1/2 - 3/4*i"),
        (RationalComplex(-1, 1), "-1 + i"),
    ],
)
def test_canonical_format(value, expected):
    assert format_scalar(value) == expected


# ---------------------------------------------------------------------------
# the integer (a, b, d) form against the Fraction-pair oracle
# ---------------------------------------------------------------------------

from oracles import FractionPairComplex, format_fraction_pair  # noqa: E402

big_fractions = st.one_of(
    fractions,
    st.integers(-(2**130), 2**130),
    st.builds(
        Fraction, st.integers(-(2**130), 2**130), st.integers(1, 2**130)
    ),
)
parts = st.tuples(big_fractions, big_fractions)
operands = st.one_of(st.integers(-(2**70), 2**70), big_fractions)


def _same(z, oracle) -> bool:
    # the constructor always reduces, so == also checks the canonical form
    return (
        type(z) is RationalComplex
        and (z.re, z.im) == (oracle.re, oracle.im)
        and type(z.re) is Fraction
        and type(z.im) is Fraction
        and z == RationalComplex(oracle.re, oracle.im)
    )


@given(parts, parts)
def test_agrees_with_fraction_pair_oracle(zp, wp):
    z, w = RationalComplex(*zp), RationalComplex(*wp)
    oz, ow = FractionPairComplex(*zp), FractionPairComplex(*wp)
    assert _same(z, oz)
    assert _same(z + w, oz + ow)
    assert _same(z * w, oz * ow)
    assert (z == w) == (oz == ow)
    assert z == RationalComplex(*zp)
    assert hash(z) == hash(oz)
    assert z.is_zero == oz.is_zero
    assert format_scalar(z) == format_fraction_pair(oz)
    assert str(z) == format_fraction_pair(oz)


@given(parts, operands)
def test_mixed_operands_agree_with_oracle(zp, k):
    z, oz = RationalComplex(*zp), FractionPairComplex(*zp)
    assert _same(z + k, oz + k)
    assert _same(k + z, k + oz)
    assert _same(z * k, oz * k)
    assert _same(k * z, k * oz)
    assert (z == k) == (oz == k)
    assert (RationalComplex(k) == k) and hash(RationalComplex(k)) == hash(k)
