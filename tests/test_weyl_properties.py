"""Algebraic property tests: associativity, Jacobi, adjoints, truncation."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdeform.rational import RationalComplex
from qdeform.weyl import (
    WeylSeriesElement,
    _add_product,
    _add_terms,
    _from_accumulator,
    _terms,
    _times_central,
    commutator,
    cosh_element,
    normal_product,
    p_op,
    sqrt_defects,
    theta_text,
    x_op,
)

from oracles import (
    dagger,
    element_text,
    nested_element,
    normal_order_word,
    normal_product_by_terms,
    series_text,
)

DEGREE = 4

fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
scalars = st.builds(RationalComplex, fractions, fractions)
param_keys = st.tuples(st.integers(0, 2), st.integers(0, 2))
polys = st.dictionaries(param_keys, scalars, min_size=1, max_size=2)
monomials = st.tuples(st.integers(0, 3), st.integers(0, 3))
elements = st.dictionaries(monomials, polys, max_size=3).map(
    lambda terms: nested_element(DEGREE, terms)
)


# few distinct values, so that contributions often cancel to exactly zero
small_scalars = st.sampled_from(
    [RationalComplex(1), RationalComplex(-1), RationalComplex(0, 1),
     RationalComplex(0, -1), RationalComplex(Fraction(1, 2)),
     RationalComplex(Fraction(-1, 3), 2)]
)


@st.composite
def element_pairs(draw):
    """Two elements of one degree in 0..12, over both generators, with
    multi-term coefficients."""
    degree = draw(st.integers(0, 12))
    keys = st.tuples(st.integers(0, 4), st.integers(0, 4))
    poly = st.dictionaries(keys, small_scalars, min_size=1, max_size=3)
    words = st.tuples(st.integers(0, 3), st.integers(0, 3))

    def element():
        terms = draw(st.dictionaries(words, poly, max_size=4))
        return nested_element(degree, terms)

    return element(), element()


# (p + 1)(x + i) = xp + ip + x: the constant terms -i and i cancel
P_PLUS_ONE = WeylSeriesElement(2, {(0, 1, 0, 0): 1, (0, 0, 0, 0): 1})
X_PLUS_I = WeylSeriesElement(2, {(1, 0, 0, 0): 1, (0, 0, 0, 0): RationalComplex(0, 1)})
# (1 + mu nu) p + x and p + (nu^2 - 1) x: multi-term coefficients cut at degree 3
MIXED_A = WeylSeriesElement(3, {(0, 1, 0, 0): 1, (0, 1, 1, 1): 1, (1, 0, 0, 0): 1})
MIXED_B = WeylSeriesElement(3, {(0, 1, 0, 0): 1, (1, 0, 0, 0): -1, (1, 0, 0, 2): 1})


@given(element_pairs())
@settings(max_examples=150)
@example((P_PLUS_ONE, X_PLUS_I))
@example((MIXED_A, MIXED_B))
def test_product_matches_term_by_term_oracle(pair):
    a, b = pair
    assert normal_product(a, b) == normal_product_by_terms(a, b)
    assert normal_product(b, a) == normal_product_by_terms(b, a)


# x^2 p with lowest degree 2 times x with lowest degree 1, at cap 3: the
# pair's lowest total degree is the cap itself, the last one kept
AT_CAP_A = WeylSeriesElement(
    3, {(2, 1, 2, 0): Fraction(1, 2), (2, 1, 1, 2): 1, (0, 0, 0, 0): 1}
)
AT_CAP_B = WeylSeriesElement(3, {(1, 0, 0, 1): Fraction(-1, 3), (0, 1, 3, 0): 1})


@given(element_pairs())
@settings(max_examples=150)
@example((P_PLUS_ONE, X_PLUS_I))
@example((MIXED_A, MIXED_B))
@example((AT_CAP_A, AT_CAP_B))
def test_commutator_sums_both_products_like_the_oracle(pair):
    # one accumulator holds both products, reduced once; the oracle
    # reduces each product and then the difference
    a, b = pair
    ab, ba = normal_product_by_terms(a, b), normal_product_by_terms(b, a)
    assert commutator(a, b) == ab - ba


def _linear_oracle(*parts):
    """sum of scalar * element over (scalar, element), one RationalComplex
    sum per coefficient, with zero coefficients dropped."""
    out = {}
    for scalar, element in parts:
        for key, c in element.terms.items():
            out[key] = out.get(key, RationalComplex(0)) + scalar * c
    return {key: c for key, c in out.items() if not c.is_zero}


@given(element_pairs(), st.sampled_from([(0, -1), (2, -3)]))
@settings(max_examples=150)
@example((P_PLUS_ONE, X_PLUS_I), (0, -1))
@example((MIXED_A, MIXED_B), (2, -3))
@example((AT_CAP_A, AT_CAP_B), (0, -1))
def test_product_kernel_adds_the_weighted_oracle_product(pair, weight):
    # -i weights the right-hand side's products; 2 - 3i is no unit.  The
    # accumulator starts with every coefficient of a*b over 7, raw, a
    # denominator no contribution has, so each add into one of them takes
    # the unequal-denominator branch
    a, b = pair
    re, im = weight
    ab = normal_product_by_terms(a, b)
    seventh = RationalComplex(Fraction(1, 7))
    acc = {key: [c._a, c._b, 7 * c._d] for key, c in ab.terms.items()}
    _add_product(acc, a, b, re, im)
    got = _from_accumulator(acc, a.degree)
    assert got.degree == a.degree
    expected = _linear_oracle((seventh, ab), (RationalComplex(re, im), ab))
    assert got.terms == expected


# complex weights over several unequal denominators
split_scalars = st.builds(
    RationalComplex,
    st.builds(Fraction, st.integers(-5, 5), st.sampled_from([1, 2, 3, 5, 7, 8, 9])),
    st.builds(Fraction, st.integers(-5, 5), st.sampled_from([1, 2, 3, 5, 7, 8, 9])),
).filter(lambda c: not c.is_zero)


@st.composite
def split_series(draw):
    """A p-only f, an x-only g and a central (mu, nu) polynomial c, of one
    degree in 0..12, each nonzero."""
    degree = draw(st.integers(0, 12))
    keys = st.tuples(st.integers(0, 4), st.integers(0, 4))
    poly = st.dictionaries(keys, split_scalars, min_size=1, max_size=3)
    powers = st.integers(0, 5)

    def series(word):
        terms = draw(st.dictionaries(powers.map(word), poly, min_size=1, max_size=4))
        return nested_element(degree, terms)

    central = draw(st.dictionaries(keys, split_scalars, min_size=1, max_size=3))
    return series(lambda b: (0, b)), series(lambda a: (a, 0)), degree, central


# P and X at degree 4 with c = 1 + mu nu/3 - i mu^2 nu^2/5
P_AND_X = (
    WeylSeriesElement(4, {(0, 1, 0, 0): 1, (0, 3, 2, 0): Fraction(1, 6)}),
    WeylSeriesElement(4, {(1, 0, 0, 0): 1, (3, 0, 0, 2): Fraction(1, 6)}),
    4,
    {(0, 0): RationalComplex(1), (1, 1): RationalComplex(Fraction(1, 3)),
     (2, 2): RationalComplex(0, Fraction(-1, 5))},
)


@given(split_series())
@settings(max_examples=150)
@example(P_AND_X)
def test_reordering_terms_from_k_one_give_both_brackets(case):
    # the k = 0 term of reordering p^b x^a is x^a p^b, so for a p-only f
    # and an x-only g the k >= 1 terms of f*g are [f, g], and 2 g*f plus
    # them is {f, g}; a central c may ride on the left factor of each
    f, g, degree, central = case
    fg, gf = normal_product_by_terms(f, g), normal_product_by_terms(g, f)
    acc = {}
    _add_terms(acc, _terms(f.terms, 1, 0), _terms(g.terms, 1, 0), degree, 1)
    assert _from_accumulator(acc, degree) == fg - gf
    _add_terms(acc, _terms(g.terms, 2, 0), _terms(f.terms, 1, 0), degree)
    assert _from_accumulator(acc, degree) == fg + gf
    c = [(m, n, s._a, s._b, s._d) for (m, n), s in central.items()]
    acc = {}
    _add_terms(acc, _times_central(_terms(f.terms, 1, 0), c, degree),
               _terms(g.terms, 1, 0), degree, 1)
    _add_terms(acc, _times_central(_terms(g.terms, 2, 0), c, degree),
               _terms(f.terms, 1, 0), degree)
    expected = normal_product_by_terms(
        fg + gf, nested_element(degree, {(0, 0): central})
    )
    assert _from_accumulator(acc, degree) == expected


# words up to x^6 p^6 on both sides, so that term pairs reach every order
# k <= 6 of the expansion, over unequal denominators and at the cap
HIGH_WORDS = [
    (
        nested_element(0, {(6, 6): {(0, 0): 1}}),
        nested_element(0, {(6, 6): {(0, 0): 1}}),
    ),
    (
        nested_element(3, {
            (6, 6): {(0, 0): RationalComplex(Fraction(1, 3), -2)},
            (2, 5): {(1, 0): RationalComplex(0, Fraction(3, 7)), (0, 2): 5},
            (0, 6): {(2, 1): Fraction(-1, 8)},
            (4, 0): {(0, 0): 1},
        }),
        nested_element(3, {
            (5, 6): {(1, 1): Fraction(2, 9)},
            (6, 1): {(0, 0): RationalComplex(-1, 1), (3, 0): 1},
            (6, 0): {(0, 1): Fraction(-5, 3)},
            (0, 4): {(1, 0): 7},
        }),
    ),
    (
        nested_element(2, {(3, 6): {(0, 0): Fraction(1, 5), (1, 1): 1}}),
        nested_element(2, {(6, 2): {(0, 0): RationalComplex(0, -1)}, (4, 5): {(2, 0): 3}}),
    ),
]


def _plain_product(a, b):
    """a*b with the x powers of each term pair side by side on the left and
    the p powers on the right, with no reordering: the k = 0 order."""
    acc = {}
    for (x1, p1, m1, n1), c1 in a.terms.items():
        for (x2, p2, m2, n2), c2 in b.terms.items():
            if m1 + n1 + m2 + n2 <= a.degree:
                key = (x1 + x2, p1 + p2, m1 + m2, n1 + n2)
                acc[key] = acc.get(key, RationalComplex(0)) + c1 * c2
    return WeylSeriesElement(a.degree, acc)


def test_word_pairs_reach_order_six():
    # p^6 x^6 = sum_k C(6,k)^2 k! (-i)^k x^(6-k) p^(6-k): the k = 6 term of
    # x^6 p^6 * x^6 p^6 alone lands on x^6 p^6, with weight 6! (-i)^6
    a, b = HIGH_WORDS[0]
    assert normal_product(a, b).terms[(6, 6, 0, 0)] == RationalComplex(-720)


@pytest.mark.parametrize("pair", HIGH_WORDS, ids=["single-words", "mixed", "at-cap"])
def test_high_order_words_match_the_oracle_from_k_zero_and_one(pair):
    for a, b in (pair, pair[::-1]):
        full = normal_product_by_terms(a, b)
        acc = {}
        _add_terms(acc, _terms(a.terms, 1, 0), _terms(b.terms, 1, 0), a.degree)
        assert _from_accumulator(acc, a.degree) == full
        acc = {}
        _add_terms(acc, _terms(a.terms, 1, 0), _terms(b.terms, 1, 0), a.degree, 1)
        assert _from_accumulator(acc, a.degree) == full - _plain_product(a, b)


@st.composite
def at_cap_pairs(draw):
    """Two elements of one degree in 0..12 that hold a term pair whose
    (mu, nu) degrees sum to exactly the cap, x^a p^i mu^m1 nu^n1 on the
    left and x^j p^b mu^m2 nu^n2 on the right.  The pair's last order is
    min(i, j) >= 1, reached by the left term or by the right one, and
    every other right term has at least the pair's right degree, so at
    that order the lowest right degree still meets the left term at the
    cap.  The other left terms have any degree."""
    cap = draw(st.integers(0, 12))
    d1 = draw(st.integers(0, cap))
    d2 = cap - d1
    last = draw(st.integers(1, 4))
    i, j = draw(st.permutations([last, draw(st.integers(last, 5))]))
    m1, m2 = draw(st.integers(0, d1)), draw(st.integers(0, d2))
    words = st.tuples(st.integers(0, 5), st.integers(0, 5))

    def others(lowest):
        degrees = st.integers(lowest, cap).flatmap(
            lambda t: st.tuples(st.integers(0, t), st.just(t))
        )
        keys = st.tuples(words, degrees).map(
            lambda k: (*k[0], k[1][0], k[1][1] - k[1][0])
        )
        return draw(st.dictionaries(keys, small_scalars, max_size=4))

    left = others(0)
    left[(draw(st.integers(0, 3)), i, m1, d1 - m1)] = draw(small_scalars)
    right = others(d2)
    right[(j, draw(st.integers(0, 3)), m2, d2 - m2)] = draw(small_scalars)
    return WeylSeriesElement(cap, left), WeylSeriesElement(cap, right)


# at cap 3, p^2 mu against x^2 nu^2 (last order 2 on both sides), p^3 mu
# against x^2 nu^2 (reached by the right term) and p mu nu against x^3 nu
# (by the left term)
AT_CAP_LAST_ORDER = [
    (
        WeylSeriesElement(3, {(0, i, 1, d1 - 1): 1}),
        WeylSeriesElement(3, {(j, 0, 0, 3 - d1): 1}),
    )
    for i, j, d1 in ((2, 2, 1), (3, 2, 1), (1, 3, 2))
]


@given(at_cap_pairs())
@settings(max_examples=200)
@example(AT_CAP_LAST_ORDER[0])
@example(AT_CAP_LAST_ORDER[1])
@example(AT_CAP_LAST_ORDER[2])
def test_product_at_the_cap_on_its_last_order_matches_the_oracle(pair):
    # the kernel drops a left term once its degree plus the lowest right
    # degree passes the cap, and stops when no term is left on a side: a
    # pair that meets the cap exactly must still count, up to its last order
    a, b = pair
    assert normal_product(a, b) == normal_product_by_terms(a, b)


# p + 2 and -p - 1: each word of P_PLUS_ONE cancels against one of them
P_PLUS_TWO = WeylSeriesElement(2, {(0, 1, 0, 0): 1, (0, 0, 0, 0): 2})
MINUS_P_MINUS_ONE = WeylSeriesElement(2, {(0, 1, 0, 0): -1, (0, 0, 0, 0): -1})


@given(element_pairs(), small_scalars | scalars)
@settings(max_examples=150)
@example((P_PLUS_ONE, P_PLUS_TWO), RationalComplex(0))
@example((P_PLUS_ONE, MINUS_P_MINUS_ONE), RationalComplex(1))
@example((MIXED_A, MIXED_B), RationalComplex(Fraction(1, 3), Fraction(-2, 3)))
def test_linear_operations_match_coefficientwise_oracle(pair, scalar):
    a, b = pair
    one, minus_one = RationalComplex(1), RationalComplex(-1)
    for got, parts in (
        (a + b, ((one, a), (one, b))),
        (a - b, ((one, a), (minus_one, b))),
        (-a, ((minus_one, a),)),
        (a.scaled(scalar), ((scalar, a),)),
    ):
        assert got.degree == a.degree
        assert got.terms == _linear_oracle(*parts)


# canonical text: pure real and pure imaginary parts, units, mixed values
# with either sign of the imaginary part, and 80-bit numerators and
# denominators
text_parts = st.one_of(
    st.sampled_from([0, 1, -1]),
    fractions,
    st.builds(Fraction, st.integers(-(2**80), 2**80), st.integers(1, 2**80)),
)
text_scalars = st.builds(RationalComplex, text_parts, text_parts)
text_elements = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)), text_scalars, max_size=3
    ),
    max_size=4,
).map(lambda terms: nested_element(6, terms))

BIG = RationalComplex(Fraction(2**70 + 1, 3**40), Fraction(-(5**30), 2**61 - 1))
# -3/4, -5/2*i, +-1, +-i, a mixed value with a negative imaginary part
# whose parts need their own gcd ((2 - i)/2 = 1 - 1/2*i), and parts of
# about 70 bits
TEXT_CASES = [
    RationalComplex(Fraction(-3, 4)),
    RationalComplex(0, Fraction(-5, 2)),
    RationalComplex(1),
    RationalComplex(-1),
    RationalComplex(0, 1),
    RationalComplex(0, -1),
    RationalComplex(1, Fraction(-1, 2)),
    BIG,
]


def _with_text_cases(to_example):
    """Add one example per TEXT_CASES entry, built by to_example."""

    def decorate(test):
        for case in TEXT_CASES:
            test = example(to_example(case))(test)
        return test

    return decorate


def _alone_and_with_factors(c):
    """The scalar alone, plus the scalar times mu*x*p^2."""
    return WeylSeriesElement(6, {(0, 0, 0, 0): c, (1, 2, 1, 0): c})


@given(text_elements)
@settings(max_examples=200)
@_with_text_cases(_alone_and_with_factors)
def test_to_text_matches_fraction_pair_oracle(element):
    assert element.to_text() == element_text(element)


@given(st.lists(text_scalars, max_size=8))
@settings(max_examples=200)
# each case alone, then times theta^2
@_with_text_cases(lambda c: [c, RationalComplex(0), c])
def test_theta_text_matches_fraction_pair_oracle(coeffs):
    assert theta_text(coeffs) == series_text(coeffs)


@st.composite
def perturbed_roots(draw):
    """(side, cosh of that side plus a nonzero element) at one degree in
    0..32, the added element over both generators: never the principal
    root of 1 + mu^2 P^2 (1 + nu^2 X^2)."""
    side = draw(st.sampled_from(["momentum", "position"]))
    degree = draw(st.integers(0, 32))
    mu_pow = st.integers(0, min(degree, 3))
    keys = mu_pow.flatmap(
        lambda m: st.tuples(st.just(m), st.integers(0, min(degree - m, 3)))
    )
    poly = st.dictionaries(keys, small_scalars, min_size=1, max_size=2)
    words = st.tuples(st.integers(0, 3), st.integers(0, 3))
    terms = draw(st.dictionaries(words, poly, min_size=1, max_size=3))
    return side, cosh_element(side, degree) + nested_element(degree, terms)


@given(perturbed_roots())
@settings(max_examples=60)
# -cosh(mu p) at degree 32: it squares back, so only the branch element sees it
@example(("momentum", cosh_element("momentum", 32).scaled(-1)))
def test_sqrt_defects_vanish_only_at_the_principal_root(case):
    side, root = case
    assert any(not d.is_zero for d in sqrt_defects(side, root))


@given(elements, elements, elements)
@settings(max_examples=40)
def test_associativity(a, b, c):
    assert normal_product(normal_product(a, b), c) == normal_product(
        a, normal_product(b, c)
    )


@given(elements, elements, elements)
@settings(max_examples=30)
def test_jacobi_identity(a, b, c):
    total = (
        commutator(commutator(a, b), c)
        + commutator(commutator(b, c), a)
        + commutator(commutator(c, a), b)
    )
    assert total.is_zero


@given(elements, elements, elements)
@settings(max_examples=40)
def test_distributivity(a, b, c):
    assert normal_product(a, b + c) == normal_product(a, b) + normal_product(a, c)


@given(elements, elements)
@settings(max_examples=40)
def test_dagger_is_antiautomorphism(a, b):
    assert dagger(normal_product(a, b)) == normal_product(dagger(b), dagger(a))


@given(elements)
@settings(max_examples=40)
def test_dagger_is_involutive(a):
    assert dagger(dagger(a)) == a


@given(elements, elements)
@settings(max_examples=40)
def test_truncation_is_an_algebra_map(a, b):
    full = normal_product(a, b).truncated(2)
    short = normal_product(a.truncated(2), b.truncated(2))
    assert full == short


def test_product_matches_rewriting_oracle_exhaustively():
    # every word pair with powers up to 4, parameter-free coefficients
    for a in range(5):
        for b in range(5):
            left = WeylSeriesElement(0, {(a, b, 0, 0): 1})
            for c in range(5):
                for d in range(5):
                    right = WeylSeriesElement(0, {(c, d, 0, 0): 1})
                    got = normal_product(left, right)
                    word = "x" * a + "p" * b + "x" * c + "p" * d
                    expected = WeylSeriesElement(
                        0,
                        {k + (0, 0): v for k, v in normal_order_word(word).items()},
                    )
                    assert got == expected, (a, b, c, d)


def _randomWeylSeriesElement(rng, degree=6, n_terms=4):
    terms = {}
    for _ in range(n_terms):
        mono = (rng.randint(0, 4), rng.randint(0, 4))
        poly = {}
        for _ in range(3):
            m, n = rng.randint(0, degree), rng.randint(0, degree)
            if m + n > degree:
                continue
            poly[(m, n)] = RationalComplex(
                Fraction(rng.randint(-6, 6), rng.randint(1, 6)),
                Fraction(rng.randint(-6, 6), rng.randint(1, 6)),
            )
        if poly:
            terms[mono] = poly
    return nested_element(degree, terms)


def test_associativity_at_degree_six_randomized():
    rng = random.Random(20260808)
    for _ in range(8):
        a = _randomWeylSeriesElement(rng)
        b = _randomWeylSeriesElement(rng)
        c = _randomWeylSeriesElement(rng)
        assert normal_product(normal_product(a, b), c) == normal_product(
            a, normal_product(b, c)
        )


def test_jacobi_at_degree_six_randomized():
    rng = random.Random(8)
    for _ in range(5):
        a, b, c = (_randomWeylSeriesElement(rng) for _ in range(3))
        total = (
            commutator(commutator(a, b), c)
            + commutator(commutator(b, c), a)
            + commutator(commutator(c, a), b)
        )
        assert total.is_zero


def test_canonical_generators_commutation():
    # [p, x^n] = -i n x^(n-1) for a run of n
    for n in range(1, 8):
        xn = WeylSeriesElement(0, {(n, 0, 0, 0): 1})
        got = commutator(p_op(0), xn)
        expected = WeylSeriesElement(
            0, {(n - 1, 0, 0, 0): RationalComplex(0, -n)}
        )
        assert got == expected
        # and [p^n, x] = -i n p^(n-1)
        pn = WeylSeriesElement(0, {(0, n, 0, 0): 1})
        got2 = commutator(pn, x_op(0))
        expected2 = WeylSeriesElement(
            0, {(0, n - 1, 0, 0): RationalComplex(0, -n)}
        )
        assert got2 == expected2
