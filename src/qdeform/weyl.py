"""Exact normal-ordered algebra of x and p with [p, x] = -i.

Elements are polynomials in the generators x, p (kept in normal order:
all x to the left of all p) whose coefficients are exact polynomials in
the two deformation parameters mu and nu, truncated by total (mu, nu)
degree.  Natural units hbar = m = c = 1 throughout; all dimensional
bookkeeping lives in :mod:`qdeform.params`.

The engine exists to verify, with zero residual, the commutator identity
of the sinh-deformed pair

    P = sinh(mu*p)/mu,   X = sinh(nu*x)/nu,
    [P, X] = -i * c(mu*nu) * {sqrt(1 + mu^2 P^2), sqrt(1 + nu^2 X^2)},

with the scalar prefactor c(t) = sin(t) / (t*(1 + cos t)), together with
its leading-order (q-oscillator) form, the exponential exchange identity
behind the quantum-plane limit, and the free-particle commutator rule
[f(p), x] = -i f'(p).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import NamedTuple, Optional, Union

from .rational import I, MINUS_I, ONE, RationalComplex
from .series import (
    ScalarSeries,
    cos_series,
    join_terms,
    sin_series,
    term_text,
)

# (-i)^k for k mod 4; the central scalar in the reordering rule.
_MINUS_I_POW = (ONE, MINUS_I, RationalComplex(-1), I)


class WeylMonomial(NamedTuple):
    """Normal-ordered word x^x_pow * p^p_pow."""

    x_pow: int
    p_pow: int


class ParamPolynomial:
    """Polynomial in (mu, nu) over RationalComplex; zero terms never stored."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean: dict[tuple[int, int], RationalComplex] = {}
        for key, value in (terms or {}).items():
            m, n = int(key[0]), int(key[1])
            if m < 0 or n < 0:
                raise ValueError("parameter powers must be >= 0")
            if not isinstance(value, RationalComplex):
                value = RationalComplex(value)
            if not value.is_zero:
                clean[(m, n)] = value
        self.terms = clean

    @classmethod
    def constant(cls, value) -> "ParamPolynomial":
        return cls({(0, 0): value})

    @classmethod
    def monomial(cls, value, mu_pow: int = 0, nu_pow: int = 0) -> "ParamPolynomial":
        return cls({(mu_pow, nu_pow): value})

    @classmethod
    def from_theta_series(cls, series: ScalarSeries, cap: int) -> "ParamPolynomial":
        """Substitute theta -> mu*nu, keeping total degree <= cap."""
        return cls(
            {(j, j): c for j, c in series.coeffs.items() if 2 * j <= cap}
        )

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: "ParamPolynomial") -> "ParamPolynomial":
        out = dict(self.terms)
        for key, value in other.terms.items():
            if key in out:
                value = out[key] + value
                if value.is_zero:
                    del out[key]
                    continue
            out[key] = value
        return _poly(out)

    def __sub__(self, other: "ParamPolynomial") -> "ParamPolynomial":
        return self + (-other)

    def __neg__(self) -> "ParamPolynomial":
        return _poly({k: -v for k, v in self.terms.items()})

    def mul(self, other: "ParamPolynomial", cap: int) -> "ParamPolynomial":
        out: dict[tuple[int, int], RationalComplex] = {}
        for (m1, n1), c1 in self.terms.items():
            for (m2, n2), c2 in other.terms.items():
                m, n = m1 + m2, n1 + n2
                if m + n > cap:
                    continue
                key = (m, n)
                value = c1 * c2
                out[key] = out[key] + value if key in out else value
        return _poly({k: v for k, v in out.items() if not v.is_zero})

    def scaled(self, scalar) -> "ParamPolynomial":
        scalar = _as_scalar(scalar)
        if scalar.is_zero:
            return _poly({})
        # Q(i) is a field: nonzero times nonzero stays nonzero
        return _poly({k: v * scalar for k, v in self.terms.items()})

    def conjugated(self) -> "ParamPolynomial":
        # mu, nu are real parameters; conjugation touches coefficients only.
        return _poly({k: v.conjugate() for k, v in self.terms.items()})

    def truncated(self, cap: int) -> "ParamPolynomial":
        return _poly({k: v for k, v in self.terms.items() if k[0] + k[1] <= cap})

    def min_degree(self) -> Optional[int]:
        if not self.terms:
            return None
        return min(m + n for m, n in self.terms)

    def __eq__(self, other):
        if not isinstance(other, ParamPolynomial):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def __repr__(self):
        return f"ParamPolynomial({self.terms!r})"


def _poly(terms: dict) -> ParamPolynomial:
    """Wrap a dict of (mu, nu) powers to nonzero scalars without re-checking it."""
    poly = object.__new__(ParamPolynomial)
    poly.terms = terms
    return poly


def _as_scalar(value) -> RationalComplex:
    return value if isinstance(value, RationalComplex) else RationalComplex(value)


class WeylSeriesElement:
    """Normal-ordered operator polynomial with truncated parameter coefficients.

    ``degree`` is the truncation bound on the total (mu, nu) power of every
    coefficient; operator powers are not independently capped.  Elements are
    immutable values: every operation returns a new element.
    """

    __slots__ = ("degree", "terms")

    def __init__(self, degree: int, terms=None):
        if degree < 0:
            raise ValueError("truncation degree must be >= 0")
        self.degree = int(degree)
        clean: dict[WeylMonomial, ParamPolynomial] = {}
        for mono, poly in (terms or {}).items():
            mono = WeylMonomial(int(mono[0]), int(mono[1]))
            if mono.x_pow < 0 or mono.p_pow < 0:
                raise ValueError("operator powers must be >= 0")
            if not isinstance(poly, ParamPolynomial):
                poly = ParamPolynomial(poly)
            poly = poly.truncated(self.degree)
            if poly:
                clean[mono] = poly
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, degree: int) -> "WeylSeriesElement":
        return cls(degree)

    @classmethod
    def scalar(cls, value, degree: int) -> "WeylSeriesElement":
        return cls(degree, {(0, 0): ParamPolynomial.constant(value)})

    @classmethod
    def one(cls, degree: int) -> "WeylSeriesElement":
        return cls.scalar(1, degree)

    @classmethod
    def from_poly(cls, poly: ParamPolynomial, degree: int) -> "WeylSeriesElement":
        return cls(degree, {(0, 0): poly})

    # -- structure ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, x_pow: int, p_pow: int) -> ParamPolynomial:
        return self.terms.get(WeylMonomial(x_pow, p_pow), ParamPolynomial())

    def min_param_degree(self) -> Optional[int]:
        degrees = [p.min_degree() for p in self.terms.values()]
        degrees = [d for d in degrees if d is not None]
        return min(degrees) if degrees else None

    def truncated(self, degree: int) -> "WeylSeriesElement":
        return WeylSeriesElement(degree, self.terms)

    def generators_used(self) -> set[str]:
        used = set()
        for mono in self.terms:
            if mono.x_pow:
                used.add("x")
            if mono.p_pow:
                used.add("p")
        return used

    def __eq__(self, other):
        if not isinstance(other, WeylSeriesElement):
            return NotImplemented
        return self.degree == other.degree and self.terms == other.terms

    __hash__ = None

    # -- linear operations ---------------------------------------------

    def __add__(self, other: "WeylSeriesElement") -> "WeylSeriesElement":
        _check_degree(self, other)
        out = dict(self.terms)
        for mono, poly in other.terms.items():
            if mono in out:
                poly = out[mono] + poly
                if not poly:
                    del out[mono]
                    continue
            out[mono] = poly
        return _element(self.degree, out)

    def __sub__(self, other: "WeylSeriesElement") -> "WeylSeriesElement":
        return self + (-other)

    def __neg__(self) -> "WeylSeriesElement":
        return _element(self.degree, {m: -p for m, p in self.terms.items()})

    def __mul__(self, other: "WeylSeriesElement") -> "WeylSeriesElement":
        return normal_product(self, other)

    def scaled(self, scalar) -> "WeylSeriesElement":
        scalar = _as_scalar(scalar)
        if scalar.is_zero:
            return _element(self.degree, {})
        return _element(
            self.degree, {m: p.scaled(scalar) for m, p in self.terms.items()}
        )

    def scaled_by_poly(self, poly: ParamPolynomial) -> "WeylSeriesElement":
        out = {}
        for mono, p in self.terms.items():
            p = p.mul(poly, self.degree)
            if p:
                out[mono] = p
        return _element(self.degree, out)

    def scaled_by_theta(self, series: ScalarSeries) -> "WeylSeriesElement":
        """Multiply by a central series in theta = mu*nu."""
        return self.scaled_by_poly(
            ParamPolynomial.from_theta_series(series, self.degree)
        )

    # -- involution -----------------------------------------------------

    def dagger(self) -> "WeylSeriesElement":
        """Formal adjoint: x -> x, p -> p, i -> -i, (ab)* = b*a*.

        On a normal-ordered term c * x^a p^b this gives conj(c) * p^b x^a,
        which is reordered back to normal form.
        """
        acc: dict[WeylMonomial, dict[tuple[int, int], RationalComplex]] = {}
        for mono, poly in self.terms.items():
            conj = poly.conjugated()
            for rmono, scalar in _reorder(mono.p_pow, mono.x_pow):
                _accumulate(acc, rmono, conj, scalar)
        return _from_accumulator(acc, self.degree)

    # -- derivative -----------------------------------------------------

    def p_derivative(self) -> "WeylSeriesElement":
        """Termwise d/dp; only meaningful for elements free of x."""
        out: dict[WeylMonomial, ParamPolynomial] = {}
        for mono, poly in self.terms.items():
            if mono.p_pow == 0:
                continue
            # distinct words stay distinct after lowering the p power
            out[WeylMonomial(mono.x_pow, mono.p_pow - 1)] = poly.scaled(mono.p_pow)
        return _element(self.degree, out)

    # -- serialization ----------------------------------------------------

    def to_text(self) -> str:
        """Canonical text form: one chunk per (parameter monomial, word) pair,
        sorted by word then parameter powers."""
        if not self.terms:
            return "0"
        chunks = []
        for mono in sorted(self.terms):
            poly = self.terms[mono]
            word = _word_factors(mono)
            for key in sorted(poly.terms):
                chunks.append(term_text(poly.terms[key], _param_factors(key) + word))
        return join_terms(chunks)

    def __repr__(self):
        return f"WeylSeriesElement(degree={self.degree}, {self.to_text()!r})"


def _element(degree: int, terms: dict) -> WeylSeriesElement:
    """Wrap a dict of words to nonzero, truncated polynomials without re-checking it."""
    element = object.__new__(WeylSeriesElement)
    element.degree = degree
    element.terms = terms
    return element


def _check_degree(a: WeylSeriesElement, b: WeylSeriesElement) -> None:
    if a.degree != b.degree:
        raise ValueError(
            f"mismatched truncation degrees: {a.degree} != {b.degree}"
        )


def _word_factors(mono: WeylMonomial) -> list[str]:
    out = []
    if mono.x_pow:
        out.append("x" if mono.x_pow == 1 else f"x^{mono.x_pow}")
    if mono.p_pow:
        out.append("p" if mono.p_pow == 1 else f"p^{mono.p_pow}")
    return out


def _param_factors(key: tuple[int, int]) -> list[str]:
    m, n = key
    out = []
    if m:
        out.append("mu" if m == 1 else f"mu^{m}")
    if n:
        out.append("nu" if n == 1 else f"nu^{n}")
    return out


def _reorder(p_pow: int, x_pow: int):
    """Normal-order the word p^b x^a.

    Repeated use of px = xp - i gives the closed form

        p^b x^a = sum_k C(b,k) C(a,k) k! (-i)^k  x^(a-k) p^(b-k),

    which is also the engine's product rule; yields (monomial, scalar) pairs.
    """
    yield WeylMonomial(x_pow, p_pow), ONE
    for k in range(1, min(p_pow, x_pow) + 1):
        weight = comb(p_pow, k) * comb(x_pow, k) * factorial(k)
        yield WeylMonomial(x_pow - k, p_pow - k), _MINUS_I_POW[k % 4] * weight


def _accumulate(acc, mono, poly: ParamPolynomial, scalar: RationalComplex) -> None:
    """acc[mono] += scalar * poly, on raw coefficient dicts."""
    dst = acc.setdefault(mono, {})
    if scalar is ONE:
        for key, value in poly.terms.items():
            dst[key] = dst[key] + value if key in dst else value
    else:
        for key, value in poly.terms.items():
            value = value * scalar
            dst[key] = dst[key] + value if key in dst else value


def _from_accumulator(acc, degree: int) -> WeylSeriesElement:
    out = {}
    for mono, d in acc.items():
        d = {k: v for k, v in d.items() if not v.is_zero}
        if d:
            out[mono] = _poly(d)
    return _element(degree, out)


# ---------------------------------------------------------------------------
# products and brackets
# ---------------------------------------------------------------------------


def normal_product(a: WeylSeriesElement, b: WeylSeriesElement) -> WeylSeriesElement:
    """Exact product, normal-ordered, coefficients truncated by total degree.

    For each pair of words, x^a1 p^b1 * x^a2 p^b2 reorders the inner
    p^b1 x^a2 with the closed-form rule in :func:`_reorder`.
    """
    _check_degree(a, b)
    cap = a.degree
    acc: dict[WeylMonomial, dict[tuple[int, int], RationalComplex]] = {}
    for ma, pa in a.terms.items():
        for mb, pb in b.terms.items():
            pab = pa.mul(pb, cap)
            if not pab:
                continue
            for inner, scalar in _reorder(ma.p_pow, mb.x_pow):
                mono = WeylMonomial(
                    ma.x_pow + inner.x_pow, inner.p_pow + mb.p_pow
                )
                _accumulate(acc, mono, pab, scalar)
    return _from_accumulator(acc, cap)


def bracket(
    a: WeylSeriesElement, b: WeylSeriesElement, sign: str
) -> WeylSeriesElement:
    """ab - ba (``sign="commutator"``) or ab + ba (``sign="anticommutator"``)."""
    if sign == "commutator":
        return normal_product(a, b) - normal_product(b, a)
    if sign == "anticommutator":
        return normal_product(a, b) + normal_product(b, a)
    raise ValueError(f"unknown bracket sign: {sign!r}")


def commutator(a: WeylSeriesElement, b: WeylSeriesElement) -> WeylSeriesElement:
    return bracket(a, b, "commutator")


def anticommutator(a: WeylSeriesElement, b: WeylSeriesElement) -> WeylSeriesElement:
    return bracket(a, b, "anticommutator")


# ---------------------------------------------------------------------------
# generators and deformed operators
# ---------------------------------------------------------------------------


def x_op(degree: int) -> WeylSeriesElement:
    return WeylSeriesElement(degree, {(1, 0): ParamPolynomial.constant(1)})


def p_op(degree: int) -> WeylSeriesElement:
    return WeylSeriesElement(degree, {(0, 1): ParamPolynomial.constant(1)})


def deformed_position(degree: int) -> WeylSeriesElement:
    """X = sinh(nu*x)/nu = sum_m nu^(2m) x^(2m+1) / (2m+1)!."""
    terms = {}
    m = 0
    while 2 * m <= degree:
        terms[(2 * m + 1, 0)] = ParamPolynomial.monomial(
            Fraction(1, factorial(2 * m + 1)), nu_pow=2 * m
        )
        m += 1
    return WeylSeriesElement(degree, terms)


def deformed_momentum(degree: int) -> WeylSeriesElement:
    """P = sinh(mu*p)/mu = sum_m mu^(2m) p^(2m+1) / (2m+1)!."""
    terms = {}
    m = 0
    while 2 * m <= degree:
        terms[(0, 2 * m + 1)] = ParamPolynomial.monomial(
            Fraction(1, factorial(2 * m + 1)), mu_pow=2 * m
        )
        m += 1
    return WeylSeriesElement(degree, terms)


def prefactor_series(degree: int) -> ScalarSeries:
    """Taylor series of sin(t) / (t*(1 + cos t)) about t = 0.

    Computed by exact division of sin(t)/t by 1 + cos(t); the value at
    t = 0 is 1/2.
    """
    numer = sin_series(degree + 1)
    sinc = ScalarSeries(
        degree, {k - 1: v for k, v in numer.coeffs.items()}
    )
    denom = cos_series(degree) + ScalarSeries.constant(1, degree)
    return sinc.divide(denom)


def binomial_sqrt(element: WeylSeriesElement) -> WeylSeriesElement:
    """Principal square root as a binomial series sum_k C(1/2,k) (e-1)^k.

    Requires the argument to involve a single generator (so all of its
    terms commute and the square root is an unambiguous formal series)
    and to be 1 plus terms of parameter degree >= 1 (so the series
    terminates under truncation).
    """
    if len(element.generators_used()) > 1:
        raise ValueError("square-root argument must involve a single generator")
    u = element - WeylSeriesElement.one(element.degree)
    low = u.min_param_degree()
    if not u.is_zero and (low is None or low < 1):
        raise ValueError(
            "square-root argument must be 1 + terms of parameter degree >= 1"
        )
    result = WeylSeriesElement.one(element.degree)
    if u.is_zero:
        return result
    power = WeylSeriesElement.one(element.degree)
    binom = Fraction(1)
    for k in range(1, element.degree // low + 1):
        power = normal_product(power, u)
        if power.is_zero:
            break
        binom = binom * Fraction(2 * (1 - k) + 1, 2 * k)  # C(1/2,k)/C(1/2,k-1)
        result = result + power.scaled(binom)
    return result


def sqrt_one_plus_square(side: str, degree: int) -> WeylSeriesElement:
    """sqrt(1 + mu^2 P^2) (side="momentum") or sqrt(1 + nu^2 X^2) (side="position").

    Since 1 + sinh^2 = cosh^2, the result must equal the cosh Taylor
    series of the corresponding generator, term by term.
    """
    if side == "momentum":
        base = deformed_momentum(degree)
        par = ParamPolynomial.monomial(1, mu_pow=2)
    elif side == "position":
        base = deformed_position(degree)
        par = ParamPolynomial.monomial(1, nu_pow=2)
    else:
        raise ValueError(f"unknown side: {side!r}")
    square = normal_product(base, base).scaled_by_poly(par)
    return binomial_sqrt(WeylSeriesElement.one(degree) + square)


def cosh_element(side: str, degree: int) -> WeylSeriesElement:
    """cosh(mu*p) or cosh(nu*x) as a truncated element."""
    if side not in ("momentum", "position"):
        raise ValueError(f"unknown side: {side!r}")
    terms = {}
    m = 0
    while 2 * m <= degree:
        coeff = Fraction(1, factorial(2 * m))
        if side == "momentum":
            terms[(0, 2 * m)] = ParamPolynomial.monomial(coeff, mu_pow=2 * m)
        else:
            terms[(2 * m, 0)] = ParamPolynomial.monomial(coeff, nu_pow=2 * m)
        m += 1
    return WeylSeriesElement(degree, terms)


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------


def identity_rhs(degree: int) -> WeylSeriesElement:
    """-i * c(mu*nu) * {sqrt(1 + mu^2 P^2), sqrt(1 + nu^2 X^2)}."""
    return _rhs_from_roots(
        sqrt_one_plus_square("momentum", degree),
        sqrt_one_plus_square("position", degree),
    )


def _rhs_from_roots(
    sqrt_p: WeylSeriesElement, sqrt_x: WeylSeriesElement
) -> WeylSeriesElement:
    anti = anticommutator(sqrt_p, sqrt_x)
    return anti.scaled_by_theta(prefactor_series(sqrt_p.degree)).scaled(MINUS_I)


def identity_residual(degree: int) -> WeylSeriesElement:
    """[P, X] minus the anticommutator form; exactly zero at every degree."""
    lhs = commutator(deformed_momentum(degree), deformed_position(degree))
    return lhs - identity_rhs(degree)


def leading_order_target(degree: int) -> WeylSeriesElement:
    """-i * (1 + mu^2 p^2 / 2 + nu^2 x^2 / 2), the q-oscillator form."""
    half = Fraction(1, 2)
    terms = {
        (0, 0): ParamPolynomial.constant(1),
        (0, 2): ParamPolynomial.monomial(half, mu_pow=2),
        (2, 0): ParamPolynomial.monomial(half, nu_pow=2),
    }
    return WeylSeriesElement(degree, terms).scaled(MINUS_I)


def leading_order_residual(
    degree: int,
) -> tuple[WeylSeriesElement, Optional[int]]:
    """Full identity right-hand side minus the q-oscillator form.

    Returns the residual and the lowest total (mu, nu) degree appearing
    in it (None when the residual vanishes, e.g. below degree 4).  Every
    surviving term must have degree >= 4: the quadratic form is exact
    through degree 3.
    """
    residual = identity_rhs(degree) - leading_order_target(degree)
    return residual, residual.min_param_degree()


def exchange_residual(degree: int) -> WeylSeriesElement:
    """Residual of e^(mu p) e^(nu x) = e^(-i mu nu) e^(nu x) e^(mu p).

    Exact at every order because [mu p, nu x] = -i mu nu is central; this
    is the algebraic bridge to the quantum-plane relation PX = qXP.
    """
    exp_p = _exp_element("momentum", degree)
    exp_x = _exp_element("position", degree)
    phase = ParamPolynomial(
        {
            (j, j): _MINUS_I_POW[j % 4] * Fraction(1, factorial(j))
            for j in range(degree // 2 + 1)
        }
    )
    lhs = normal_product(exp_p, exp_x)
    rhs = normal_product(exp_x, exp_p).scaled_by_poly(phase)
    return lhs - rhs


class IdentityChecks(NamedTuple):
    """Residuals of the exact checks behind ``verify``; each is zero when it holds."""

    identity: WeylSeriesElement  # as identity_residual
    exchange: WeylSeriesElement  # as exchange_residual
    sqrt_cosh: tuple[WeylSeriesElement, WeylSeriesElement]  # momentum, position
    leading_order: WeylSeriesElement  # as leading_order_residual's element


def identity_checks(degree: int) -> IdentityChecks:
    """All four checks, with [P, X], both square roots and the right-hand
    side each built once and shared between the checks that need them."""
    sides = ("momentum", "position")
    roots = [sqrt_one_plus_square(side, degree) for side in sides]
    rhs = _rhs_from_roots(*roots)
    lhs = commutator(deformed_momentum(degree), deformed_position(degree))
    return IdentityChecks(
        identity=lhs - rhs,
        exchange=exchange_residual(degree),
        sqrt_cosh=tuple(
            root - cosh_element(side, degree) for root, side in zip(roots, sides)
        ),
        leading_order=rhs - leading_order_target(degree),
    )


def _exp_element(side: str, degree: int) -> WeylSeriesElement:
    terms = {}
    for k in range(degree + 1):
        coeff = Fraction(1, factorial(k))
        if side == "momentum":
            terms[(0, k)] = ParamPolynomial.monomial(coeff, mu_pow=k)
        else:
            terms[(k, 0)] = ParamPolynomial.monomial(coeff, nu_pow=k)
    return WeylSeriesElement(degree, terms)


def free_particle_rule(
    f: Union[ScalarSeries, WeylSeriesElement], degree: int
) -> tuple[WeylSeriesElement, WeylSeriesElement]:
    """[f(p), x] = -i f'(p), for f a series in p alone.

    Accepts either a ScalarSeries (interpreted in powers of p) or an
    element that is free of x.  Returns (lhs, rhs); the two are equal
    exactly, term by term.  With f = tan this reproduces the free
    relativistic commutator -i(1 + f^2); with f = sinh(mu*p)/mu it gives
    -i cosh(mu*p), the square-root variant.
    """
    if isinstance(f, ScalarSeries):
        element = WeylSeriesElement(
            degree,
            {(0, k): ParamPolynomial.constant(c) for k, c in f.coeffs.items()},
        )
    else:
        if "x" in f.generators_used():
            raise ValueError("f must be a series in p alone (no x powers)")
        element = f.truncated(degree) if f.degree != degree else f
    lhs = commutator(element, x_op(degree))
    rhs = element.p_derivative().scaled(MINUS_I)
    return lhs, rhs
