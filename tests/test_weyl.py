import re
from fractions import Fraction

import pytest

from qdeform.rational import I, MINUS_I, RationalComplex
from qdeform.weyl import (
    WeylSeriesElement,
    commutator,
    cosh_element,
    deformed_momentum,
    deformed_position,
    exchange_residual,
    free_particle_rule,
    identity_checks,
    identity_rhs,
    leading_order_target,
    normal_product,
    p_op,
    prefactor_series,
    sqrt_defects,
    x_op,
    _exp_element,
)

from oracles import (
    binomial_series_sqrt,
    dagger,
    nested_element as element,
    normal_order_word,
    normal_product_by_terms,
    one_plus_square,
    prefactor_coefficients,
    substituted_zero,
    tan_coefficients,
)


# ---------------------------------------------------------------------------
# normal product
# ---------------------------------------------------------------------------


def test_defining_relation():
    result = normal_product(p_op(2), x_op(2))
    assert result == element(2, {(1, 1): {(0, 0): 1}, (0, 0): {(0, 0): MINUS_I}})


def test_p2_x2_reordering():
    p2 = normal_product(p_op(4), p_op(4))
    x2 = normal_product(x_op(4), x_op(4))
    got = normal_product(p2, x2)
    expected_terms = normal_order_word("ppxx")
    expected = element(4, {k: {(0, 0): v} for k, v in expected_terms.items()})
    assert got == expected
    # frozen form: x^2 p^2 - 4i x p - 2
    assert got == element(
        4,
        {
            (2, 2): {(0, 0): 1},
            (1, 1): {(0, 0): RationalComplex(0, -4)},
            (0, 0): {(0, 0): -2},
        },
    )


def test_multiplicative_identity():
    e = element(4, {(2, 1): {(1, 1): Fraction(3, 7)}, (0, 3): {(0, 0): 5}})
    one = WeylSeriesElement.scalar(1, 4)
    assert normal_product(one, e) == e
    assert normal_product(e, one) == e


def test_degree_mismatch_raises():
    with pytest.raises(ValueError, match="mismatched truncation"):
        normal_product(p_op(2), x_op(4))
    with pytest.raises(ValueError, match="mismatched truncation"):
        p_op(2) + x_op(4)


# ---------------------------------------------------------------------------
# brackets
# ---------------------------------------------------------------------------


def test_commutator_p_x():
    got = commutator(p_op(2), x_op(2))
    assert got == element(2, {(0, 0): {(0, 0): MINUS_I}})


def test_commutator_p_xsquared():
    x2 = normal_product(x_op(4), x_op(4))
    got = commutator(p_op(4), x2)
    assert got == element(4, {(1, 0): {(0, 0): RationalComplex(0, -2)}})


# ---------------------------------------------------------------------------
# deformed operators
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("degree", [0, 1])
def test_deformed_position_low_degree_is_x(degree):
    assert deformed_position(degree) == x_op(degree)


def test_deformed_position_taylor_terms():
    assert deformed_position(2) == element(
        2, {(1, 0): {(0, 0): 1}, (3, 0): {(0, 2): Fraction(1, 6)}}
    )
    assert deformed_position(4) == element(
        4,
        {
            (1, 0): {(0, 0): 1},
            (3, 0): {(0, 2): Fraction(1, 6)},
            (5, 0): {(0, 4): Fraction(1, 120)},
        },
    )


def test_deformed_momentum_taylor_terms():
    assert deformed_momentum(0) == p_op(0)
    assert deformed_momentum(2) == element(
        2, {(0, 1): {(0, 0): 1}, (0, 3): {(2, 0): Fraction(1, 6)}}
    )
    assert deformed_momentum(4) == element(
        4,
        {
            (0, 1): {(0, 0): 1},
            (0, 3): {(2, 0): Fraction(1, 6)},
            (0, 5): {(4, 0): Fraction(1, 120)},
        },
    )


# ---------------------------------------------------------------------------
# prefactor series
# ---------------------------------------------------------------------------


def test_prefactor_frozen_values():
    series = prefactor_series(4)
    assert series[0] == RationalComplex(Fraction(1, 2))
    assert series[2] == RationalComplex(Fraction(1, 24))
    assert series[4] == RationalComplex(Fraction(1, 240))
    assert series[1].is_zero
    assert series[3].is_zero


def test_prefactor_matches_tan_half_oracle():
    # every --degree the CLI accepts, up to 64: the odd powers and the
    # first even ones are the recurrence's edges
    expected = [RationalComplex(c) for c in prefactor_coefficients(64)]
    for degree in range(65):
        assert prefactor_series(degree) == expected[: degree + 1]


# ---------------------------------------------------------------------------
# square root vs cosh
# ---------------------------------------------------------------------------


def test_sqrt_momentum_degree2():
    assert binomial_series_sqrt(one_plus_square("momentum", 2)) == element(
        2, {(0, 0): {(0, 0): 1}, (0, 2): {(2, 0): Fraction(1, 2)}}
    )


def test_sqrt_position_degree4():
    assert binomial_series_sqrt(one_plus_square("position", 4)) == element(
        4,
        {
            (0, 0): {(0, 0): 1},
            (2, 0): {(0, 2): Fraction(1, 2)},
            (4, 0): {(0, 4): Fraction(1, 24)},
        },
    )


@pytest.mark.parametrize("degree", range(0, 13))
@pytest.mark.parametrize("side", ["momentum", "position"])
def test_sqrt_equals_cosh_series(side, degree):
    assert binomial_series_sqrt(one_plus_square(side, degree)) == cosh_element(
        side, degree
    )


SIDES = ("momentum", "position")


@pytest.mark.parametrize("degree", range(0, 33))
@pytest.mark.parametrize("side", SIDES)
def test_cosh_is_the_principal_root(side, degree):
    assert all(d.is_zero for d in sqrt_defects(side, cosh_element(side, degree)))


def _changed_coefficient(e, key):
    terms = dict(e.terms)
    terms[key] = terms.get(key, RationalComplex(0)) + 1
    return WeylSeriesElement(e.degree, terms)


@pytest.mark.parametrize("degree", [0, 1, 2, 5, 12])
@pytest.mark.parametrize("side", SIDES)
def test_sqrt_defects_refuse_every_other_root(side, degree):
    cosh = cosh_element(side, degree)
    square, branch = sqrt_defects(side, -cosh)
    # -cosh squares back: only the degree-0 element tells the branch
    assert square.is_zero and not branch.is_zero
    t = degree - degree % 2
    top = (0, t, t, 0) if side == "momentum" else (t, 0, 0, t)
    for changed in (
        _changed_coefficient(cosh, top),  # the top coefficient
        _changed_coefficient(cosh, (0, 0, 0, 0)),  # the constant
        _changed_coefficient(cosh, (1, 1, degree, 0)),  # a word cosh lacks
    ):
        assert any(not d.is_zero for d in sqrt_defects(side, changed))
    if degree >= 2:
        other = cosh_element(SIDES[side == "momentum"], degree)
        assert any(not d.is_zero for d in sqrt_defects(side, other))


def test_unknown_side_raises():
    with pytest.raises(ValueError, match="unknown side"):
        sqrt_defects("sideways", cosh_element("momentum", 4))


# ---------------------------------------------------------------------------
# the commutator identity
# ---------------------------------------------------------------------------


def test_identity_residual_heisenberg_corner():
    # degree 0: everything collapses to [p, x] + i = 0
    assert identity_checks(0).identity.is_zero
    assert commutator(p_op(0), x_op(0)) == WeylSeriesElement.scalar(MINUS_I, 0)


@pytest.mark.parametrize("degree", range(0, 13))
def test_identity_residual_is_exactly_zero(degree):
    assert identity_checks(degree).identity.is_zero


def _lowest_param_degree(element):
    """Lowest total (mu, nu) degree of a term, None for the zero element."""
    return min((m + n for _, _, m, n in element.terms), default=None)


def test_leading_order_residual_starts_at_degree_four():
    residual = identity_checks(4).leading_order
    assert _lowest_param_degree(residual) == 4
    # hand-expanded degree-4 residual:
    # -i mu^4 p^4/24 - i nu^4 x^4/24 + mu^2 nu^2 (i/6 - x p/2 - i x^2 p^2/4)
    assert residual == element(
        4,
        {
            (0, 4): {(4, 0): RationalComplex(0, Fraction(-1, 24))},
            (4, 0): {(0, 4): RationalComplex(0, Fraction(-1, 24))},
            (0, 0): {(2, 2): RationalComplex(0, Fraction(1, 6))},
            (1, 1): {(2, 2): Fraction(-1, 2)},
            (2, 2): {(2, 2): RationalComplex(0, Fraction(-1, 4))},
        },
    )


def test_leading_order_residual_below_degree_four_is_zero():
    residual = identity_checks(2).leading_order
    assert residual.is_zero
    assert _lowest_param_degree(residual) is None


def test_leading_order_residual_mu_slice():
    # nu = 0 leaves only the cosh correction -i mu^4 p^4 / 24 at degree 4
    residual = identity_checks(4).leading_order
    sliced = substituted_zero(residual, "nu")
    assert sliced == element(
        4, {(0, 4): {(4, 0): RationalComplex(0, Fraction(-1, 24))}}
    )


@pytest.mark.parametrize("degree", [0, 3, 4, 7, 10])
def test_identity_checks_match_the_separate_builds(degree):
    checks = identity_checks(degree)
    lhs = commutator(deformed_momentum(degree), deformed_position(degree))
    assert checks.identity == lhs - identity_rhs(degree)
    assert checks.exchange == exchange_residual(degree)
    assert checks.sqrt_cosh == sqrt_defects(
        "momentum", cosh_element("momentum", degree)
    ) + sqrt_defects("position", cosh_element("position", degree))
    assert len(checks.sqrt_cosh) == 4
    assert checks.leading_order == identity_rhs(degree) - leading_order_target(degree)


def _oracle_checks(degree):
    """The four residuals the old way: every product reduced by the
    term-by-term oracle kernel, then reduced subtractions."""
    cosh_p, cosh_x = cosh_element("momentum", degree), cosh_element("position", degree)
    anti = normal_product_by_terms(cosh_p, cosh_x) + normal_product_by_terms(
        cosh_x, cosh_p
    )
    prefactor = {(j, j): c for j, c in enumerate(prefactor_coefficients(degree // 2))}
    scaled = normal_product_by_terms(anti, element(degree, {(0, 0): prefactor}))
    rhs = scaled.scaled(MINUS_I)
    p, x = deformed_momentum(degree), deformed_position(degree)
    lhs = normal_product_by_terms(p, x) - normal_product_by_terms(x, p)
    exp_p, exp_x = _exp_test_element("p", degree), _exp_test_element("x", degree)
    phase, unit = {}, RationalComplex(1)
    for j in range(degree + 1):
        phase[(j, j)], unit = unit * Fraction(1, _fact(j)), unit * MINUS_I
    swapped = normal_product_by_terms(exp_x, exp_p)
    exchange = normal_product_by_terms(exp_p, exp_x) - normal_product_by_terms(
        swapped, element(degree, {(0, 0): phase})
    )
    one = WeylSeriesElement.scalar(1, degree)
    sqrt_cosh = ()
    for side, root in (("momentum", cosh_p), ("position", cosh_x)):
        square = normal_product_by_terms(root, root) - one_plus_square(side, degree)
        constant = substituted_zero(substituted_zero(root, "mu"), "nu")
        sqrt_cosh += (square, constant - one)
    return lhs - rhs, exchange, sqrt_cosh, rhs - leading_order_target(degree)


@pytest.mark.parametrize("degree", range(17))
def test_fused_residuals_match_reduced_oracle_products(degree):
    assert tuple(identity_checks(degree)) == _oracle_checks(degree)


# ---------------------------------------------------------------------------
# exponential exchange identity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("degree", [0, 1, 6, 12])
def test_exchange_residual_zero(degree):
    assert exchange_residual(degree).is_zero


def _exp_test_element(side, degree):
    # built from factorials here, independent of the engine's internals
    terms = {}
    for k in range(degree + 1):
        if side == "p":
            terms[(0, k)] = {(k, 0): Fraction(1, _fact(k))}
        else:
            terms[(k, 0)] = {(0, k): Fraction(1, _fact(k))}
    return element(degree, terms)


def _fact(k):
    out = 1
    for j in range(2, k + 1):
        out *= j
    return out


def test_exchange_mu_nu_coefficient_audit():
    # coefficient of mu^1 nu^1 in e^(mu p) e^(nu x) - e^(nu x) e^(mu p) is -i
    ep = _exp_test_element("p", 4)
    ex = _exp_test_element("x", 4)
    diff = normal_product(ep, ex) - normal_product(ex, ep)
    coeff = diff.terms.get((0, 0, 1, 1))
    assert coeff == MINUS_I


# ---------------------------------------------------------------------------
# free-particle rule
# ---------------------------------------------------------------------------


def test_free_particle_rule_heisenberg():
    f = WeylSeriesElement(1, {(0, 1, 0, 0): 1})
    lhs, rhs = free_particle_rule(f, 1)
    target = WeylSeriesElement.scalar(MINUS_I, 1)
    assert lhs == target
    assert rhs == target


def test_free_particle_rule_tan_reproduces_relativistic_form():
    # f = p + p^3/3 + 2 p^5/15; [f, x] = -i f' = -i (1 + f^2) + O(p^6)
    tan = tan_coefficients(5)
    f = WeylSeriesElement(5, {(0, k, 0, 0): tan[k] for k in range(6)})
    lhs, rhs = free_particle_rule(f, 4)
    assert lhs == rhs
    expected = element(
        4,
        {
            (0, 0): {(0, 0): MINUS_I},
            (0, 2): {(0, 0): MINUS_I},
            (0, 4): {(0, 0): RationalComplex(0, Fraction(-2, 3))},
        },
    )
    assert rhs == expected
    # cross-check the 1 + f^2 form by independent squaring
    sq = [Fraction(1)] + [Fraction(0)] * 4
    from oracles import square_coefficients

    for k, v in enumerate(square_coefficients(tan, 4)):
        sq[k] += v
    one_plus_f2 = element(
        4, {(0, k): {(0, 0): RationalComplex(0, -sq[k])} for k in range(5) if sq[k]}
    )
    assert rhs == one_plus_f2


def test_free_particle_rule_sinh_variant_gives_cosh():
    lhs, rhs = free_particle_rule(deformed_momentum(10), 10)
    assert lhs == rhs
    assert rhs == cosh_element("momentum", 10).scaled(MINUS_I)
    assert rhs == binomial_series_sqrt(one_plus_square("momentum", 10)).scaled(
        MINUS_I
    )


def test_free_particle_rule_rejects_x_dependence():
    with pytest.raises(ValueError, match="series in p alone"):
        free_particle_rule(x_op(4), 4)


# ---------------------------------------------------------------------------
# formal Hermiticity
# ---------------------------------------------------------------------------


def test_generators_are_self_adjoint():
    assert dagger(x_op(4)) == x_op(4)
    assert dagger(p_op(4)) == p_op(4)


def test_dagger_conjugates_scalars():
    e = WeylSeriesElement.scalar(I, 3)
    assert dagger(e) == WeylSeriesElement.scalar(MINUS_I, 3)


def test_deformed_operators_are_fixed_points():
    assert dagger(deformed_position(10)) == deformed_position(10)
    assert dagger(deformed_momentum(10)) == deformed_momentum(10)


def test_commutator_is_antihermitian_anticommutator_hermitian():
    degree = 8
    comm = commutator(deformed_momentum(degree), deformed_position(degree))
    assert dagger(comm) == -comm
    cosh_p, cosh_x = cosh_element("momentum", degree), cosh_element("position", degree)
    anti = normal_product(cosh_p, cosh_x) + normal_product(cosh_x, cosh_p)
    assert dagger(anti) == anti


# ---------------------------------------------------------------------------
# truncation consistency
# ---------------------------------------------------------------------------


def test_truncation_consistency_of_constructors():
    assert deformed_momentum(10).truncated(6) == deformed_momentum(6)
    assert deformed_position(10).truncated(6) == deformed_position(6)
    assert prefactor_series(10)[:7] == prefactor_series(6)
    assert identity_rhs(10).truncated(6) == identity_rhs(6)
    for side in ("momentum", "position"):
        assert cosh_element(side, 10).truncated(6) == cosh_element(side, 6)


def test_leading_order_target_form():
    assert leading_order_target(2) == element(
        2,
        {
            (0, 0): {(0, 0): MINUS_I},
            (0, 2): {(2, 0): RationalComplex(0, Fraction(-1, 2))},
            (2, 0): {(0, 2): RationalComplex(0, Fraction(-1, 2))},
        },
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_canonical_text_examples():
    assert WeylSeriesElement(3).to_text() == "0"
    assert deformed_momentum(2).to_text() == "p + (1/6)*mu^2*p^3"
    assert deformed_position(4).to_text() == (
        "x + (1/6)*nu^2*x^3 + (1/120)*nu^4*x^5"
    )
    assert commutator(p_op(2), x_op(2)).to_text() == "-i"
    p2 = normal_product(p_op(4), p_op(4))
    x2 = normal_product(x_op(4), x_op(4))
    assert normal_product(p2, x2).to_text() == "-2 - (4*i)*x*p + x^2*p^2"


def test_text_orders_terms_by_word_then_parameters():
    e = element(
        4,
        {
            (2, 0): {(0, 2): Fraction(1, 2)},
            (0, 0): {(0, 0): 1, (2, 2): Fraction(1, 3)},
            (0, 2): {(2, 0): Fraction(1, 2)},
        },
    )
    assert e.to_text() == (
        "1 + (1/3)*mu^2*nu^2 + (1/2)*mu^2*p^2 + (1/2)*nu^2*x^2"
    )


def test_constructor_drops_zeros_and_terms_past_the_degree():
    e = WeylSeriesElement(2, {(0, 0, 1, 0): 0, (0, 0, 0, 1): 1, (1, 0, 2, 1): 5})
    assert e.terms == {(0, 0, 0, 1): RationalComplex(1)}
    assert WeylSeriesElement(2, {}).is_zero


@pytest.mark.parametrize(
    "key",
    [
        (1, 0, 7),  # three powers
        (1.9, 0, 0.5, 1.2),  # fractional powers
        (1, 0, -1, 0),  # a negative power
        (1, 0),  # a word without its parameter powers
        (1, 0, 0, 0, 0),  # five powers
        (True, 0, 0, 0),  # a bool is no power
    ],
)
def test_constructor_refuses_malformed_keys(key):
    with pytest.raises(ValueError, match=re.escape(repr(key))):
        WeylSeriesElement(4, {key: 1})


def scaling_weights(e):
    """The weights m - n + a - b of the terms mu^m nu^n x^a p^b of an element."""
    return {m - n + a - b for a, b, m, n in e.terms}


@pytest.mark.parametrize("degree", range(17))
def test_elements_are_homogeneous_under_the_scaling_grading(degree):
    # x -> lam x, p -> p/lam, mu -> lam mu, nu -> nu/lam leaves mu p, nu x
    # and theta = mu nu unchanged, so every term of an element carries the
    # same power of lam: P scales as p, X as x, and the rest not at all
    assert scaling_weights(deformed_momentum(degree)) == {-1}
    assert scaling_weights(deformed_position(degree)) == {1}
    invariant = [
        commutator(deformed_momentum(degree), deformed_position(degree)),
        identity_rhs(degree),
        leading_order_target(degree),
    ]
    for side in ("momentum", "position"):
        invariant += [
            one_plus_square(side, degree),
            cosh_element(side, degree),
            _exp_element(side, degree),
        ]
    for e in invariant:
        assert scaling_weights(e) == {0}
