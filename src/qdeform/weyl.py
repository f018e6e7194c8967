"""Exact normal-ordered algebra of x and p with [p, x] = -i.

An element is a sum of terms c mu^m nu^n x^x p^p: normal-ordered words
(all x to the left of all p) with exact Q(i) coefficients c, truncated
by total (mu, nu) degree m + n.  Natural units hbar = m = c = 1
throughout; all dimensional bookkeeping lives in :mod:`qdeform.params`.

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

from math import comb, factorial, inf
from typing import NamedTuple

from .rational import MINUS_I, ZERO, RationalComplex, _raw, _reduced, format_triple

# (-i)^j for j mod 4 as (re, im): the powers of the exchange phase.
_MINUS_I_POW = ((1, 0), (0, -1), (-1, 0), (0, 1))
_SIDES = ("momentum", "position")


def _as_scalar(value) -> RationalComplex:
    return value if isinstance(value, RationalComplex) else RationalComplex(value)


class WeylSeriesElement:
    """Normal-ordered operator polynomial with truncated parameter coefficients.

    ``terms`` maps (x, p, m, n), four ints >= 0, to the nonzero
    RationalComplex coefficient of mu^m nu^n x^x p^p.  ``degree`` is the
    truncation bound on m + n; operator powers are not independently
    capped.  Elements are immutable values: every operation returns a new
    element.
    """

    __slots__ = ("degree", "terms")

    def __init__(self, degree: int, terms=None):
        if degree < 0:
            raise ValueError("truncation degree must be >= 0")
        self.degree = int(degree)
        clean: dict[tuple[int, int, int, int], RationalComplex] = {}
        for key, value in (terms or {}).items():
            if not (
                type(key) is tuple
                and len(key) == 4
                and all(type(k) is int and k >= 0 for k in key)
            ):
                raise ValueError(
                    "term key must be four ints >= 0 (x, p, mu, nu powers), "
                    f"got {key!r}"
                )
            value = _as_scalar(value)
            if key[2] + key[3] <= self.degree and not value.is_zero:
                clean[key] = value
        self.terms = clean

    @classmethod
    def scalar(cls, value, degree: int) -> "WeylSeriesElement":
        return cls(degree, {(0, 0, 0, 0): value})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def truncated(self, degree: int) -> "WeylSeriesElement":
        return WeylSeriesElement(degree, self.terms)

    def __eq__(self, other):
        if not isinstance(other, WeylSeriesElement):
            return NotImplemented
        return self.degree == other.degree and self.terms == other.terms

    __hash__ = None

    # -- linear operations ---------------------------------------------
    # each sums raw coefficients in one accumulator and reduces once

    def __add__(self, other: "WeylSeriesElement") -> "WeylSeriesElement":
        _check_degree(self, other)
        acc = _add_scaled({}, self.terms, 1)
        return _from_accumulator(_add_scaled(acc, other.terms, 1), self.degree)

    def __sub__(self, other: "WeylSeriesElement") -> "WeylSeriesElement":
        _check_degree(self, other)
        acc = _add_scaled({}, self.terms, 1)
        return _from_accumulator(_add_scaled(acc, other.terms, -1), self.degree)

    def __neg__(self) -> "WeylSeriesElement":
        return self.scaled(-1)

    def scaled(self, scalar) -> "WeylSeriesElement":
        s = _as_scalar(scalar)
        return _from_accumulator(
            _add_scaled({}, self.terms, s._a, s._b, s._d), self.degree
        )

    def p_derivative(self) -> "WeylSeriesElement":
        """Termwise d/dp; only meaningful for elements free of x."""
        acc = {
            (x, p - 1, m, n): [c._a * p, c._b * p, c._d]
            for (x, p, m, n), c in self.terms.items()
            if p
        }
        return _from_accumulator(acc, self.degree)

    # -- serialization ----------------------------------------------------

    def to_text(self) -> str:
        """Canonical text form: one chunk per term, sorted by word then
        parameter powers, which is the order of the (x, p, m, n) keys."""
        return _join_terms(
            _term_text(
                self.terms[(x, p, m, n)],
                _power("mu", m) + _power("nu", n) + _power("x", x) + _power("p", p),
            )
            for x, p, m, n in sorted(self.terms)
        )

    def __repr__(self):
        return f"WeylSeriesElement(degree={self.degree}, {self.to_text()!r})"


def _element(degree: int, terms: dict) -> WeylSeriesElement:
    """Wrap a dict of (x, p, m, n) keys to nonzero scalars with m + n <= degree
    without re-checking it."""
    element = object.__new__(WeylSeriesElement)
    element.degree = degree
    element.terms = terms
    return element


def _check_degree(a: WeylSeriesElement, b: WeylSeriesElement) -> None:
    if a.degree != b.degree:
        raise ValueError(f"mismatched truncation degrees: {a.degree} != {b.degree}")


def _power(name: str, k: int) -> list[str]:
    """The text factor name^k as a list: empty for k = 0, bare for k = 1."""
    if not k:
        return []
    return [name if k == 1 else f"{name}^{k}"]


def _term_text(scalar: RationalComplex, factors: list[str]) -> tuple[int, str]:
    """Render one product term from the scalar's ints; returns (sign, body)
    with sign pulled out when the scalar is pure real or pure imaginary."""
    a, b, d = scalar._a, scalar._b, scalar._d
    sign = 1
    if (a < 0 and not b) or (b < 0 and not a):
        sign, a, b = -1, -a, -b
    if not factors:
        return sign, format_triple(a, b, d)
    if a == d == 1 and not b:
        return sign, "*".join(factors)
    return sign, f"({format_triple(a, b, d)})*" + "*".join(factors)


def _join_terms(chunks) -> str:
    """The (sign, body) chunks of a sum as one text; "0" for no chunk."""
    text = "".join((" - " if sign < 0 else " + ") + body for sign, body in chunks)
    if not text:
        return "0"
    return text[3:] if text[1] == "+" else "-" + text[3:]


# Every sum, scaling and product works on one flat raw accumulator: it
# maps (x power, p power, mu power, nu power) to a list [a, b, d], which
# stands for (a + b*i)/d with d > 0 but is not reduced.  Contributions
# are summed in these lists with integer arithmetic only, and each output
# coefficient is brought to canonical form by one gcd when the result is
# built.  A product is normal-ordered as a derivative expansion: with
# [p, x] = -i,
#
#     f(p) g(x) = sum_k ((-i)^k / k!) g^(k)(x) f^(k)(p),
#
# so it is one plain product per order k, of the k-th x-derivative of the
# right factor's terms and the k-th p-derivative of the left factor's,
# each derivative taken on the integer triples.


def _terms(terms: dict, re: int, im: int) -> list:
    """(total degree, x, p, m, n, a, b, d) for each coefficient (a + b*i)/d
    of x^x p^p mu^m nu^n in (re + i*im) * e, for the element e with these
    terms, lowest total degree first."""
    return sorted(
        (m + n, x, p, m, n, c._a * re - c._b * im, c._a * im + c._b * re, c._d)
        for (x, p, m, n), c in terms.items()
    )


def _add_terms(acc: dict, left: list, right: list, cap, start: int = 0) -> None:
    """acc += left * right for two factors given as _terms, normal-ordered,
    keeping total (mu, nu) degree <= cap and only the orders k >= start.

    At order k the lists hold ((-i)^k / k!) d^k/dp^k of the left factor
    and d^k/dx^k of the right, and their plain product puts x powers side
    by side on the left and p powers on the right.  A step takes a left
    term (a + b*i)/d x^x p^p to (b*p - a*p*i)/(d*k) x^x p^(p-1) and a
    right one to (a*x + b*x*i)/d x^(x-1) p^p; terms that reach zero drop
    out.  The k = 0 order of a p-only left times an x-only right is
    right*left, so start=1 gives left*right - right*left.

    A derivative keeps each term's (mu, nu) degree, and right terms come
    lowest degree first and keep that order: the first one past the cap
    ends the inner loop, and the lowest right degree never falls.  So a
    left term whose degree plus that lowest one exceeds the cap meets no
    right term at this order or any later one: each step drops it, and
    the expansion stops at the first order with no left or no right term
    left.  Left terms may come in any order.
    """
    k = 0
    while left:
        if k >= start:
            for deg1, x1, p1, m1, n1, a1, b1, d1 in left:
                room = cap - deg1
                for deg2, x2, p2, m2, n2, a2, b2, d2 in right:
                    if deg2 > room:
                        break
                    key = (x1 + x2, p1 + p2, m1 + m2, n1 + n2)
                    a, b, d = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2
                    cur = acc.get(key)
                    if cur is None:
                        acc[key] = [a, b, d]
                    elif cur[2] == d:
                        cur[0] += a
                        cur[1] += b
                    else:
                        e = cur[2]
                        cur[0] = cur[0] * d + a * e
                        cur[1] = cur[1] * d + b * e
                        cur[2] = e * d
        k += 1
        right = [
            (deg, x - 1, p, m, n, a * x, b * x, d)
            for deg, x, p, m, n, a, b, d in right
            if x
        ]
        if not right:
            return
        top = cap - right[0][0]  # the most degree a left term can still use
        left = [
            (deg, x, p - 1, m, n, b * p, -a * p, d * k)
            for deg, x, p, m, n, a, b, d in left
            if p and deg <= top
        ]


def _times_central(terms: list, central: list, cap: int) -> list:
    """A _terms list times the central factor, the sum of ((a + b*i)/d)
    mu^m nu^n over central's (m, n, a, b, d), keeping total degree <= cap.
    A central factor needs no reordering, so this is one product per pair
    of terms; the result is not sorted by degree, so it serves only as the
    left factor of :func:`_add_terms`."""
    return [
        (deg + m + n, x, p, m1 + m, n1 + n, a1 * a - b1 * b, a1 * b + b1 * a, d1 * d)
        for deg, x, p, m1, n1, a1, b1, d1 in terms
        for m, n, a, b, d in central
        if deg + m + n <= cap
    ]


def _add_scaled(acc: dict, terms: dict, re: int, im: int = 0, d: int = 1) -> dict:
    """acc += ((re + i*im)/d) * e for the element e with these terms, as
    its product with the scalar 1/d in the product loop; the terms are
    truncated already and 1/d has degree 0, so no cap applies.  Returns
    acc."""
    _add_terms(acc, _terms(terms, re, im), [(0, 0, 0, 0, 0, 1, 0, d)], inf)
    return acc


def _from_accumulator(acc: dict, degree: int) -> WeylSeriesElement:
    """Raw coefficients to canonical scalars, one gcd each; zeros, which
    take no gcd, are dropped."""
    return _element(
        degree, {key: _reduced(a, b, d) for key, (a, b, d) in acc.items() if a or b}
    )


# ---------------------------------------------------------------------------
# products and brackets
# ---------------------------------------------------------------------------


def _add_product(
    acc: dict, a: WeylSeriesElement, b: WeylSeriesElement, re: int, im: int
) -> None:
    """acc += (re + i*im) * a*b into the flat raw accumulator acc,
    normal-ordered, truncated by total degree."""
    _check_degree(a, b)
    _add_terms(acc, _terms(a.terms, re, im), _terms(b.terms, 1, 0), a.degree)


def _sum(degree: int, *products) -> WeylSeriesElement:
    """The sum of (re + i*im) * a*b over each (a, b, re, im), reduced once:
    an exact sum of products never reduces a partial result."""
    acc: dict = {}
    for a, b, re, im in products:
        _add_product(acc, a, b, re, im)
    return _from_accumulator(acc, degree)


def normal_product(a: WeylSeriesElement, b: WeylSeriesElement) -> WeylSeriesElement:
    """Exact product, normal-ordered, coefficients truncated by total degree."""
    return _sum(a.degree, (a, b, 1, 0))


def commutator(a: WeylSeriesElement, b: WeylSeriesElement) -> WeylSeriesElement:
    return _sum(a.degree, (a, b, 1, 0), (b, a, -1, 0))


# ---------------------------------------------------------------------------
# generators and deformed operators
# ---------------------------------------------------------------------------


def x_op(degree: int) -> WeylSeriesElement:
    return WeylSeriesElement(degree, {(1, 0, 0, 0): 1})


def p_op(degree: int) -> WeylSeriesElement:
    return WeylSeriesElement(degree, {(0, 1, 0, 0): 1})


def _generator_series(
    side: str, degree: int, start: int, step: int
) -> WeylSeriesElement:
    """sum_k t^(k - start) g^k / k! over k = start, start + step, ... while
    k - start <= degree, with (t, g) = (mu, p) on side="momentum" and
    (nu, x) on side="position"."""
    if side not in _SIDES:
        raise ValueError(f"unknown side: {side!r}")
    if degree < 0:
        raise ValueError("truncation degree must be >= 0")
    terms = {}
    for k in range(start, start + degree + 1, step):
        t = k - start
        key = (0, k, t, 0) if side == "momentum" else (k, 0, 0, t)
        # 1/k! is in lowest terms, and its degree t is within the cap
        terms[key] = _raw(1, 0, factorial(k))
    return _element(degree, terms)


def deformed_position(degree: int) -> WeylSeriesElement:
    """X = sinh(nu*x)/nu = sum_m nu^(2m) x^(2m+1) / (2m+1)!."""
    return _generator_series("position", degree, 1, 2)


def deformed_momentum(degree: int) -> WeylSeriesElement:
    """P = sinh(mu*p)/mu = sum_m mu^(2m) p^(2m+1) / (2m+1)!."""
    return _generator_series("momentum", degree, 1, 2)


def prefactor_series(degree: int) -> list[RationalComplex]:
    """Taylor coefficients c_0..c_degree of c(t) = sin(t) / (t*(1 + cos t)).

    From c(t) (1 + cos t) = sin(t)/t, with d_j and s_k the coefficients
    of cos t and sin(t)/t, 2 c_k = s_k - sum_{0<j<=k} d_j c_(k-j); c is
    even, so only even k are computed.  The value at t = 0 is 1/2.  The
    recurrence runs on integers: with c_k = C_k / ((k+1)! 2^(k/2+1)),

        C_k = (-1)^(k/2) 2^(k/2)
              - sum_{j=2,4..k} (-1)^(j/2) C(k+1, j) 2^(j/2-1) C_(k-j),

    and each c_k is reduced once.
    """
    if degree < 0:
        raise ValueError("truncation degree must be >= 0")
    numerators = [0] * (degree + 1)
    coeffs = [ZERO] * (degree + 1)
    for k in range(0, degree + 1, 2):
        acc = (-1) ** (k // 2) << (k // 2)
        for j in range(2, k + 1, 2):
            acc -= (-1) ** (j // 2) * comb(k + 1, j) * numerators[k - j] << (j // 2 - 1)
        numerators[k] = acc
        coeffs[k] = _reduced(acc, 0, factorial(k + 1) << (k // 2 + 1))
    return coeffs


def theta_text(coeffs: list[RationalComplex]) -> str:
    """Canonical text of sum_k coeffs[k] * theta^k, zero terms left out,
    e.g. ``1/2 + (1/24)*theta^2``."""
    return _join_terms(
        _term_text(c, _power("theta", k)) for k, c in enumerate(coeffs) if not c.is_zero
    )


def cosh_element(side: str, degree: int) -> WeylSeriesElement:
    """cosh(mu*p) or cosh(nu*x) as a truncated element."""
    return _generator_series(side, degree, 0, 2)


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------


def _rhs_sum(degree: int, cosh_p: list, cosh_x: list) -> dict:
    """identity_rhs as a raw accumulator, from cosh(mu*p), cosh(nu*x) as _terms.

    The k = 0 order of a p-series times an x-series is the x-series
    times the p-series, so for C = -i c(mu*nu) cosh(mu*p) and cosh(nu*x),

        {C, cosh(nu*x)} = 2 cosh(nu*x) C + (the k >= 1 terms of C cosh(nu*x)).

    The central factor -i c(mu*nu) rides on the left factor of each
    product, which is exact because truncation by total degree is
    multiplicative.  Its c_j is real and multiplies mu^j nu^j, of degree
    2j, so j <= degree/2.
    """
    c = [
        (j, j, 0, -c_j._a, c_j._d)
        for j, c_j in enumerate(prefactor_series(degree // 2))
        if not c_j.is_zero
    ]
    acc: dict = {}
    _add_terms(acc, _times_central(cosh_p, c, degree), cosh_x, degree, 1)
    twice = [(m, n, 0, 2 * b, d) for m, n, _, b, d in c]
    _add_terms(acc, _times_central(cosh_x, twice, degree), cosh_p, degree)
    return acc


def identity_rhs(degree: int) -> WeylSeriesElement:
    """-i * c(mu*nu) * {sqrt(1 + mu^2 P^2), sqrt(1 + nu^2 X^2)}.

    Since 1 + sinh^2 = cosh^2, the roots are cosh(mu*p) and cosh(nu*x);
    :func:`sqrt_defects` checks that each is the principal root.
    """
    cosh_p, cosh_x = (_terms(cosh_element(s, degree).terms, 1, 0) for s in _SIDES)
    return _from_accumulator(_rhs_sum(degree, cosh_p, cosh_x), degree)


def sqrt_defects(
    side: str, root: WeylSeriesElement
) -> tuple[WeylSeriesElement, WeylSeriesElement]:
    """root^2 - (1 + mu^2 P^2) (side="momentum") or root^2 - (1 + nu^2 X^2)
    (side="position"), and the part of root of total (mu, nu) degree 0
    minus 1.

    Both vanish exactly when root is the principal square root.  With
    g_0 = 1, the degree-t part of g^2 = 1 + u reads 2 g_t + sum_{0<s<t}
    g_s g_(t-s) = u_t, which fixes each graded piece g_t in turn; the
    second element tells the root from its negative.
    """
    base = _generator_series(side, root.degree, 1, 2)  # P or X
    return _sqrt_defects(side, root, _terms(root.terms, 1, 0), _terms(base.terms, 1, 0))


def _sqrt_defects(side: str, root, root_terms: list, base: list) -> tuple:
    """sqrt_defects from root, its _terms and those of P or X: root*root +
    (-mu^2 P)*P - 1, the central mu^2 (nu^2) riding on the left factor,
    and the (mu, nu)-free coefficients of root minus 1."""
    degree = root.degree
    m, n = (2, 0) if side == "momentum" else (0, 2)
    square = {(0, 0, 0, 0): [-1, 0, 1]}  # the constant -1
    _add_terms(square, root_terms, root_terms, degree)
    _add_terms(square, _times_central(base, [(m, n, -1, 0, 1)], degree), base, degree)
    branch = {
        key: [c._a, c._b, c._d] for key, c in root.terms.items() if key[2:] == (0, 0)
    }
    constant = branch.setdefault((0, 0, 0, 0), [0, 0, 1])
    constant[0] -= constant[2]  # minus 1
    return _from_accumulator(square, degree), _from_accumulator(branch, degree)


def leading_order_target(degree: int) -> WeylSeriesElement:
    """-i * (1 + mu^2 p^2 / 2 + nu^2 x^2 / 2), the q-oscillator form."""
    half = _raw(0, -1, 2)  # -i/2
    terms = {(0, 0, 0, 0): MINUS_I, (0, 2, 2, 0): half, (2, 0, 0, 2): half}
    return WeylSeriesElement(degree, terms)


def exchange_residual(degree: int) -> WeylSeriesElement:
    """Residual of e^(mu p) e^(nu x) = e^(-i mu nu) e^(nu x) e^(mu p).

    Exact at every order because [mu p, nu x] = -i mu nu is central; this
    is the algebraic bridge to the quantum-plane relation PX = qXP.  The
    k = 0 order of e^(mu p) e^(nu x) is e^(nu x) e^(mu p), so the
    residual is

        (the k >= 1 terms of e^(mu p) e^(nu x))
            - (e^(-i mu nu) - 1) e^(nu x) e^(mu p),

    the central phase minus its j = 0 term riding on e^(nu x).
    """
    exp_p = _terms(_exp_element("momentum", degree).terms, 1, 0)
    exp_x = _exp_element("position", degree).terms
    phase = []  # (-i mu nu)^j / j! for 1 <= j <= degree/2
    for j in range(1, degree // 2 + 1):
        re, im = _MINUS_I_POW[j % 4]
        phase.append((j, j, re, im, factorial(j)))
    acc: dict = {}
    _add_terms(acc, exp_p, _terms(exp_x, 1, 0), degree, 1)
    _add_terms(acc, _times_central(_terms(exp_x, -1, 0), phase, degree), exp_p, degree)
    return _from_accumulator(acc, degree)


class IdentityChecks(NamedTuple):
    """Residuals of the exact checks behind ``verify``; each is zero when it holds."""

    identity: WeylSeriesElement  # [P, X] minus identity_rhs: zero at every degree
    exchange: WeylSeriesElement  # as exchange_residual
    # sqrt_defects of cosh(mu*p), then of cosh(nu*x)
    sqrt_cosh: tuple[WeylSeriesElement, ...]
    # identity_rhs minus the q-oscillator form: every term of total (mu, nu)
    # degree >= 4, since the quadratic form is exact through degree 3
    leading_order: WeylSeriesElement


def identity_checks(degree: int) -> IdentityChecks:
    """All four checks, each residual summed raw in one accumulator and
    reduced once; P, X, cosh(mu*p), cosh(nu*x), their _terms and the
    right-hand side are built once and shared.  X*P is the k = 0 order of
    P*X, so [P, X] is the k >= 1 terms of P*X alone."""
    series = [_generator_series(s, degree, k, 2) for k in (1, 0) for s in _SIDES]
    p, x, cosh_p, cosh_x = [_terms(element.terms, 1, 0) for element in series]
    rhs = _rhs_sum(degree, cosh_p, cosh_x)
    identity = {key: [-a, -b, d] for key, (a, b, d) in rhs.items()}
    # identity holds its own lists, so rhs becomes the leading order here
    _add_scaled(rhs, leading_order_target(degree).terms, -1)
    _add_terms(identity, p, x, degree, 1)
    return IdentityChecks(
        identity=_from_accumulator(identity, degree),
        exchange=exchange_residual(degree),
        sqrt_cosh=_sqrt_defects("momentum", series[2], cosh_p, p)
        + _sqrt_defects("position", series[3], cosh_x, x),
        leading_order=_from_accumulator(rhs, degree),
    )


def _exp_element(side: str, degree: int) -> WeylSeriesElement:
    """exp(mu*p) or exp(nu*x) as a truncated element."""
    return _generator_series(side, degree, 0, 1)


def free_particle_rule(
    f: WeylSeriesElement, degree: int
) -> tuple[WeylSeriesElement, WeylSeriesElement]:
    """[f(p), x] = -i f'(p), for f an element that is free of x.

    Returns (lhs, rhs); the two are equal exactly, term by term.  With
    f = tan this reproduces the free relativistic commutator -i(1 + f^2);
    with f = sinh(mu*p)/mu it gives -i cosh(mu*p), the square-root variant.
    """
    if any(key[0] for key in f.terms):
        raise ValueError("f must be a series in p alone (no x powers)")
    element = f.truncated(degree) if f.degree != degree else f
    lhs = commutator(element, x_op(degree))
    rhs = element.p_derivative().scaled(MINUS_I)
    return lhs, rhs
