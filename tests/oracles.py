"""Independent oracles for freezing expected values.

Deliberately avoid the library's computation paths: the reordering
oracle applies the single rewrite px -> xp - i one occurrence at a time;
the term-by-term product does one reduced RationalComplex operation per
contribution, and its square root sums the binomial series power by
power, where the library delays reduction to the end of a product and
takes the roots to be cosh, checking only that they square back; the
series helpers work on plain
Fraction lists; the Q(i) scalar oracle keeps a pair of Fractions instead
of the library's integer triple, and the canonical text renders each
scalar from that pair where the library prints the triple's ints; the
matrix residual is built densely, one complex eigensolve per operator,
with the square roots taken of 1 + mu^2 P^2 itself rather than of the
spectrum of p, and the engine's parity basis is judged against one dense
SVD of the even-odd block of x, where the engine takes an eigensolve of
B B^T; the clock-shift pair is built as dense matrices, one cmath root
of unity per phase, and checked by matrix products, and its defects are
also multiplied out as complex products into a fresh array each; scan
tables are built point by point, one tuple per row, with tan evaluated
once per n, one identity_residual per N and the contraction paths'
formulas written out per step; reports render through
json.dumps(indent=2) and cell by cell.

The library surface that only tests reach lives here too: the formal
adjoint of a symbolic element, built on the term-by-term reordering
kernel, and, at the end, the dense ladder operators, symbolic elements
evaluated on matrices, the physical parameter set and its config form,
and the mu = 0 / nu = 0 slice of a symbolic element.
"""

import cmath
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from qdeform import cli, config
from qdeform.matrixrep import identity_residual
from qdeform.params import UNIT_TAGS, parse_quantity
from qdeform.rational import MINUS_I, RationalComplex
from qdeform.report import SCHEMA_VERSION, Metric, Table, VerificationReport
from qdeform.weyl import WeylSeriesElement


class FractionPairComplex:
    """Q(i) scalar as a pair of Fractions: the judge for RationalComplex."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @property
    def is_zero(self) -> bool:
        return not self.re and not self.im

    def conjugate(self) -> "FractionPairComplex":
        return FractionPairComplex(self.re, -self.im)

    def __add__(self, other):
        other = _coerce_pair(other)
        if other is None:
            return NotImplemented
        return FractionPairComplex(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce_pair(other)
        if other is None:
            return NotImplemented
        return FractionPairComplex(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce_pair(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce_pair(other)
        if other is None:
            return NotImplemented
        return FractionPairComplex(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce_pair(other)
        if other is None:
            return NotImplemented
        den = other.re * other.re + other.im * other.im
        if not den:
            raise ZeroDivisionError("division by zero FractionPairComplex")
        return FractionPairComplex(
            (self.re * other.re + self.im * other.im) / den,
            (self.im * other.re - self.re * other.im) / den,
        )

    def __rtruediv__(self, other):
        other = _coerce_pair(other)
        if other is None:
            return NotImplemented
        return other / self

    def __neg__(self):
        return FractionPairComplex(-self.re, -self.im)

    def __eq__(self, other):
        other = _coerce_pair(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))


def _coerce_pair(value):
    if isinstance(value, FractionPairComplex):
        return value
    if isinstance(value, (int, Fraction)):
        return FractionPairComplex(value)
    return None


def format_fraction_pair(z: FractionPairComplex) -> str:
    """Canonical text: ``a/b``, ``c/d*i`` or ``a/b + c/d*i``, lowest terms."""
    if not z.im:
        return str(z.re)
    if not z.re:
        if z.im == 1:
            return "i"
        if z.im == -1:
            return "-i"
        return f"{z.im}*i"
    mag = abs(z.im)
    imtxt = "i" if mag == 1 else f"{mag}*i"
    sign = "+" if z.im > 0 else "-"
    return f"{z.re} {sign} {imtxt}"


def _power_text(name: str, k: int) -> list[str]:
    if not k:
        return []
    return [name if k == 1 else f"{name}^{k}"]


def fraction_term_text(z: FractionPairComplex, factors: list[str]) -> tuple[int, str]:
    """One product term as (sign, body), rendered from the Fraction pair:
    the sign is pulled out of a pure real or pure imaginary scalar."""
    sign = 1
    if (not z.im and z.re < 0) or (not z.re and z.im < 0):
        sign, z = -1, -z
    if not factors:
        return sign, format_fraction_pair(z)
    if z == 1:
        return sign, "*".join(factors)
    return sign, f"({format_fraction_pair(z)})*" + "*".join(factors)


def _joined_text(chunks: list[tuple[int, str]]) -> str:
    if not chunks:
        return "0"
    (sign, body), rest = chunks[0], chunks[1:]
    return ("-" if sign < 0 else "") + body + "".join(
        (" - " if s < 0 else " + ") + b for s, b in rest
    )


def nested_element(degree: int, words: dict) -> WeylSeriesElement:
    """The element with the terms {(x, p): {(m, n): c}}, spelled word by word."""
    return WeylSeriesElement(
        degree,
        {
            (x, p, m, n): c
            for (x, p), coeffs in words.items()
            for (m, n), c in coeffs.items()
        },
    )


def element_text(element: WeylSeriesElement) -> str:
    """The judge for WeylSeriesElement.to_text: one term per (word,
    parameter monomial), sorted by word then powers, each scalar read as
    a pair of Fractions."""
    chunks = []
    for x, p, m, n in sorted(element.terms):
        c = element.terms[(x, p, m, n)]
        factors = (
            _power_text("mu", m) + _power_text("nu", n)
            + _power_text("x", x) + _power_text("p", p)
        )
        chunks.append(fraction_term_text(FractionPairComplex(c.re, c.im), factors))
    return _joined_text(chunks)


def series_text(coeffs: list[RationalComplex]) -> str:
    """The judge for weyl.theta_text: sum_k coeffs[k] theta^k, zeros left out."""
    return _joined_text(
        [
            fraction_term_text(FractionPairComplex(c.re, c.im), _power_text("theta", k))
            for k, c in enumerate(coeffs)
            if not c.is_zero
        ]
    )


def normal_order_word(word: str) -> dict[tuple[int, int], RationalComplex]:
    """Normal-order a word over {'x', 'p'} by single-swap rewriting.

    Returns {(x_pow, p_pow): coefficient}; a word is normal-ordered once
    it has no adjacent "px".
    """
    states: dict[str, RationalComplex] = {word: RationalComplex(1)}
    done: dict[tuple[int, int], RationalComplex] = {}
    while states:
        new: dict[str, RationalComplex] = {}
        for w, coeff in states.items():
            pos = w.find("px")
            if pos < 0:
                key = (w.count("x"), w.count("p"))
                done[key] = done.get(key, RationalComplex(0)) + coeff
                continue
            swapped = w[:pos] + "xp" + w[pos + 2 :]
            dropped = w[:pos] + w[pos + 2 :]
            new[swapped] = new.get(swapped, RationalComplex(0)) + coeff
            new[dropped] = new.get(dropped, RationalComplex(0)) + coeff * MINUS_I
        states = {w: c for w, c in new.items() if not c.is_zero}
    return {k: v for k, v in done.items() if not v.is_zero}


# (-i)^k for k mod 4
_MINUS_I_POWERS = (
    RationalComplex(1), MINUS_I, RationalComplex(-1), RationalComplex(0, 1)
)


def _reorder(p_pow: int, x_pow: int):
    """p^b x^a = sum_k C(b,k) C(a,k) k! (-i)^k x^(a-k) p^(b-k), as
    ((x_pow, p_pow), scalar) pairs."""
    for k in range(min(p_pow, x_pow) + 1):
        weight = math.comb(p_pow, k) * math.comb(x_pow, k) * math.factorial(k)
        yield (x_pow - k, p_pow - k), _MINUS_I_POWERS[k % 4] * weight


def _accumulate(acc: dict, key, value: RationalComplex) -> None:
    acc[key] = acc.get(key, RationalComplex(0)) + value


def normal_product_by_terms(
    a: WeylSeriesElement, b: WeylSeriesElement
) -> WeylSeriesElement:
    """a*b in normal order, truncated by total (mu, nu) degree, with every
    contribution a reduced RationalComplex product added into a reduced sum."""
    assert a.degree == b.degree
    acc: dict = {}
    for (x1, p1, m1, n1), c1 in a.terms.items():
        for (x2, p2, m2, n2), c2 in b.terms.items():
            if m1 + n1 + m2 + n2 > a.degree:
                continue
            c = c1 * c2
            for (x, p), scalar in _reorder(p1, x2):
                _accumulate(acc, (x1 + x, p + p2, m1 + m2, n1 + n2), c * scalar)
    # the constructor drops zero coefficients
    return WeylSeriesElement(a.degree, acc)


def dagger(element: WeylSeriesElement) -> WeylSeriesElement:
    """Formal adjoint: x -> x, p -> p, i -> -i, (ab)* = b*a*.

    A normal-ordered term c * x^a p^b goes to conj(c) * p^b x^a, which
    the closed-form rule puts back in normal order; mu and nu are real, so
    conjugation touches the scalars only.
    """
    acc: dict = {}
    for (x_pow, p_pow, m, n), c in element.terms.items():
        conj = RationalComplex(c.re, -c.im)
        for (x, p), scalar in _reorder(p_pow, x_pow):
            _accumulate(acc, (x, p, m, n), conj * scalar)
    return WeylSeriesElement(element.degree, acc)


def binomial_series_sqrt(element: WeylSeriesElement) -> WeylSeriesElement:
    """sum_k C(1/2,k) u^k with u = element - 1, one full product per power.

    The caller passes one generator, so that the root is an unambiguous
    formal series, and u of parameter degree >= 1, so that u^k vanishes
    past k = degree.
    """
    one = WeylSeriesElement.scalar(1, element.degree)
    u = element + one.scaled(-1)
    result = power = one
    binom = Fraction(1)
    for k in range(1, element.degree + 1):
        power = normal_product_by_terms(power, u)
        if power.is_zero:
            break
        binom *= Fraction(3 - 2 * k, 2 * k)  # C(1/2,k)/C(1/2,k-1)
        result = result + power.scaled(binom)
    return result


def one_plus_square(side: str, degree: int) -> WeylSeriesElement:
    """1 + mu^2 P^2 (side="momentum") or 1 + nu^2 X^2 (side="position"):
    sinh(mu p) summed from factorials and squared term by term."""
    assert side in ("momentum", "position")
    terms = {}
    for k in range(1, degree + 1, 2):
        key = (0, k, k, 0) if side == "momentum" else (k, 0, 0, k)
        terms[key] = Fraction(1, math.factorial(k))
    sinh = WeylSeriesElement(degree, terms)
    return WeylSeriesElement.scalar(1, degree) + normal_product_by_terms(sinh, sinh)


def tan_coefficients(max_power: int) -> list[Fraction]:
    """Maclaurin coefficients of tan via the recurrence from tan' = 1 + tan^2."""
    coeffs = [Fraction(0)] * (max_power + 1)
    if max_power >= 1:
        coeffs[1] = Fraction(1)
    for n in range(1, max_power):
        acc = Fraction(0)
        for i in range(n + 1):
            acc += coeffs[i] * coeffs[n - i]
        coeffs[n + 1] = acc / (n + 1)
    return coeffs


def square_coefficients(coeffs: list[Fraction], max_power: int) -> list[Fraction]:
    """Coefficients of f^2 from those of f, up to max_power."""
    out = [Fraction(0)] * (max_power + 1)
    for i, ci in enumerate(coeffs):
        if ci == 0:
            continue
        for j, cj in enumerate(coeffs):
            if cj == 0 or i + j > max_power:
                continue
            out[i + j] += ci * cj
    return out


def prefactor_coefficients(max_power: int) -> list[Fraction]:
    """Coefficients of sin(t)/(t(1+cos t)) via tan(t/2)/t.

    tan(t/2) = sum_k c_k t^k / 2^k, so the coefficient of t^m here is
    c_(m+1) / 2^(m+1); independent of the engine's sin/cos division.
    """
    tan = tan_coefficients(max_power + 1)
    return [tan[m + 1] / Fraction(2 ** (m + 1)) for m in range(max_power + 1)]


def hermitian_function(
    h: np.ndarray, kind: str, sqrt_floor: float = 1e-12
) -> np.ndarray:
    """Apply sinh or the principal square root by dense spectral calculus.

    ``principal-sqrt`` requires a positive definite input: smallest
    eigenvalue above ``sqrt_floor`` (absolute -- arguments of the form
    1 + (PSD) keep their unit lower bound however large the top of the
    spectrum grows, so a norm-relative floor would wrongly reject them).
    """
    h = np.asarray(h, dtype=complex)
    if np.max(np.abs(h - h.conj().T)) > 1e-12 * np.max(np.abs(h)):
        raise ValueError("input must be Hermitian")
    w, v = np.linalg.eigh(h)
    if kind == "sinh":
        fw = np.sinh(w)
    elif kind == "principal-sqrt":
        if float(w[0]) <= sqrt_floor:
            raise ValueError(
                f"principal-sqrt needs a positive definite input "
                f"(smallest eigenvalue {w[0]:.3e})"
            )
        fw = np.sqrt(w)
    else:
        raise ValueError(f"unknown matrix function: {kind!r}")
    out = (v * fw) @ v.conj().T
    return (out + out.conj().T) / 2.0  # symmetrize round-off


def dense_identity_residual(dim: int, interior: int, mu: float, nu: float) -> dict:
    """The commutator identity on dense complex ladder matrices.

    Four eigensolves: p and x for the deformed pair, and one per square
    root of 1 + mu^2 P^2 and 1 + nu^2 X^2.  The prefactor is taken in its
    tan(theta/2)/theta form.  Returns the interior block of [P, X] - R and
    the full square root of 1 + mu^2 P^2.
    """
    a = np.diag(np.sqrt(np.arange(1, dim)), 1).astype(complex)
    x = (a + a.conj().T) / math.sqrt(2)
    p = 1j * (a.conj().T - a) / math.sqrt(2)
    pd = hermitian_function(mu * p, "sinh") / mu if mu > 0 else p
    xd = hermitian_function(nu * x, "sinh") / nu if nu > 0 else x
    eye = np.eye(dim)
    sqrt_p = hermitian_function(eye + mu**2 * (pd @ pd), "principal-sqrt")
    sqrt_x = hermitian_function(eye + nu**2 * (xd @ xd), "principal-sqrt")
    theta = mu * nu
    c = math.tan(theta / 2) / theta if theta else 0.5
    lhs = pd @ xd - xd @ pd
    rhs = -1j * c * (sqrt_p @ sqrt_x + sqrt_x @ sqrt_p)
    return {"block": (lhs - rhs)[:interior, :interior], "sqrt_p": sqrt_p}


def even_odd_block(dim: int) -> np.ndarray:
    """B = x[0::2, 1::2], cut from the dense real x: ceil(N/2) x floor(N/2)
    and lower bidiagonal."""
    x = np.diag(np.sqrt(np.arange(1, dim)) / math.sqrt(2), 1)
    x += x.T
    return x[0::2, 1::2].copy()


def svd_parity_basis(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The engine's parity basis (u, spectrum, w) from one dense SVD of B.

    u is the full left factor, so for odd N its last column is the zero
    mode, and the spectrum is the singular values with a 0 for it.
    """
    u, s, wt = np.linalg.svd(even_odd_block(dim))
    return u, np.concatenate((s, np.zeros(u.shape[1] - s.size))), wt.T


def root_of_unity(exponent: int, order: int) -> complex:
    """exp(2*pi*i*exponent/order) by cmath, one root at a time, exact at the
    quadrant angles; the library's vectorised roots must equal it bit for
    bit."""
    exponent %= order
    if 4 * exponent % order == 0:
        return (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)[4 * exponent // order]
    return cmath.exp(2j * math.pi * exponent / order)


def dense_pair(dim: int, level: int) -> tuple[np.ndarray, np.ndarray]:
    """The Weyl pair as dense N x N matrices: the shift U (basis state j to
    j+1 mod N) and the clock V = diag(omega^(j*level)), with the phases of
    root_of_unity, which equal the library's bit for bit, so that the
    arithmetic, not the phases, is what is judged.
    """
    idx = np.arange(dim)
    shift = np.zeros((dim, dim), dtype=complex)
    shift[(idx + 1) % dim, idx] = 1.0
    clock = np.diag([root_of_unity(j * level, dim) for j in range(dim)])
    return shift, clock


def dense_qplane_residual(dim: int, level: int) -> float:
    """Max entrywise |UV - q VU| by dense matrix products."""
    u, v = dense_pair(dim, level)
    q = root_of_unity(-level, dim)
    return float(np.max(np.abs(u @ v - q * (v @ u))))


def dense_unitary_defects(dim: int, level: int) -> tuple[float, float]:
    """Max entrywise |U U^dag - 1| and |V V^dag - 1|."""
    u, v = dense_pair(dim, level)
    eye = np.eye(dim)
    return (
        float(np.max(np.abs(u @ u.conj().T - eye))),
        float(np.max(np.abs(v @ v.conj().T - eye))),
    )


def dense_eq8_residual(dim: int, level: int) -> float:
    """Max entrywise |(q + 1)[S_U, S_V] + (q - 1){C_U, C_V}| by dense
    matrix products, with S_W = (W - W^dag)/2i, C_W = (W + W^dag)/2 (W^dag
    being W^-1 for the unitary U and V) and q = e^(-i*alpha)."""
    u, v = dense_pair(dim, level)
    s_u, c_u = (u - u.conj().T) / 2j, (u + u.conj().T) / 2
    s_v, c_v = (v - v.conj().T) / 2j, (v + v.conj().T) / 2
    q = cmath.exp(-1j * (2 * math.pi * level / dim))
    residual = (q + 1) * (s_u @ s_v - s_v @ s_u) + (q - 1) * (c_u @ c_v + c_v @ c_u)
    return float(np.max(np.abs(residual)))


@dataclass(frozen=True)
class ScalingPoint:
    """One step of the large-n limit; mu, nu derived lazily from (alpha, beta, n).

    The judge of clockshift.scaling_columns, one object and one set of
    float operations per n.
    """

    alpha: float
    beta: float
    n: int

    def __post_init__(self):
        if not (self.beta > 0 and math.isfinite(self.beta)):
            raise ValueError(f"beta must be > 0 and finite, got beta={self.beta}")
        if self.n < 0:
            raise ValueError("n must be >= 0")

    @property
    def theta(self) -> float:
        return self.alpha + 2.0 * math.pi * self.n

    @property
    def mu(self) -> float:
        return math.sqrt(self.theta) / self.beta

    @property
    def nu(self) -> float:
        return self.beta * math.sqrt(self.theta)

    def exchange_phase(self) -> complex:
        """e^(-i*theta) with the 2*pi*n part of theta removed exactly."""
        return cmath.exp(-1j * self.alpha)


def scaling_points(alpha: float, beta: float, ns) -> list[ScalingPoint]:
    """The scaling path's points at each requested n, one object per n.

    alpha must lie in (-pi, pi], and no requested n may make
    theta = alpha + 2*pi*n negative.
    """
    if not -math.pi < alpha <= math.pi:
        raise ValueError(f"alpha must lie in (-pi, pi], got alpha={alpha}")
    points = [ScalingPoint(alpha=alpha, beta=beta, n=n) for n in ns]
    for pt in points:
        if pt.theta < 0:
            raise ValueError(
                f"alpha + 2*pi*n must be >= 0, got alpha={alpha} at n={pt.n}"
            )
    return points


def scaling_path(alpha: float, beta: float, n_max: int) -> list[ScalingPoint]:
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    return scaling_points(alpha, beta, range(n_max + 1))


def per_n_tan_half_deviations(alpha: float, ns, reduced: bool = True) -> list[float]:
    """|tan((alpha + 2*pi*n)/2) - tan(alpha/2)|, evaluating tan once per n.

    With ``reduced=True`` the half-angle is reduced by its exact period
    before evaluation; the naive evaluation (``reduced=False``) forms the
    large argument first and loses one digit per decade of n.
    """
    if abs(1.0 + math.cos(alpha)) <= 1e-9:  # the CLI's pole band
        raise ValueError("tan(alpha/2) pole at alpha = pi (mod 2*pi)")
    ref = math.tan(alpha / 2.0)
    out = []
    for n in ns:
        if n < 0:
            raise ValueError("n must be >= 0")
        if reduced:
            value = math.tan(alpha / 2.0)
        else:
            value = math.tan((alpha + 2.0 * math.pi * n) / 2.0)
        out.append(abs(value - ref))
    return out


def prefactor_periodicity(alpha: float, ns, reduced: bool = True) -> float:
    """Max deviation of the periodic prefactor factor along the scaling path."""
    devs = per_n_tan_half_deviations(alpha, ns, reduced=reduced)
    return max(devs) if devs else 0.0


def int_list(text: str):
    """An --n or --dims value: 'a..b' as the inclusive range, else the
    comma-separated integers."""
    if ".." in text:
        first, last = text.split("..")
        return range(int(first), int(last) + 1)
    return [int(tok) for tok in text.split(",") if tok.strip()]


def rows_table(columns, rows) -> Table:
    """A report table from its cells given row by row."""
    return Table(columns, [[row[i] for row in rows] for i in range(len(columns))])


# The gate values of the scans, stated here rather than read from
# qdeform.cli, so that the byte tests judge cli's constants from outside.
MATRIX_RESIDUAL_GATE = 1e-8
MATRIX_NOISE_FLOOR = 1e-12
PAIR_RESIDUAL_GATE = 1e-12


def _reference_matrix_scan(args, cfg) -> VerificationReport:
    """scan --engine matrix, one identity_residual row per N."""
    mu = args.mu if args.mu is not None else config.get_float(cfg, "matrix.mu")
    nu = args.nu if args.nu is not None else config.get_float(cfg, "matrix.nu")
    interior = args.interior if args.interior is not None else 8
    dims = list(int_list(args.dims))
    rows = [(n, interior, mu, nu, identity_residual(n, interior, mu, nu))
            for n in dims]
    first, last = rows[0][4], rows[-1][4]
    # how far the last residual rises above the first or the floor, the higher
    floor = max(first, MATRIX_NOISE_FLOOR)
    excess = last - floor if last > floor else 0.0
    return VerificationReport.build(
        "matrix",
        f"scan --engine matrix --mu {mu} --nu {nu} --interior {interior} "
        f"--dims {args.dims}",
        {"mu": mu, "nu": nu, "interior": interior, "dims": dims,
         "noise_floor": MATRIX_NOISE_FLOOR},
        [Metric("residual_at_largest_dim", last, MATRIX_RESIDUAL_GATE),
         Metric("residual_at_smallest_dim", first, None),
         Metric("residual_excess", excess, 0.0)],
        rows_table(("N", "M", "mu", "nu", "res_fro"), rows),
    )


def _reference_grid_scan(args) -> VerificationReport:
    """scan --engine clock-shift --dims, one dense residual per pair (N, k)."""
    dims = list(int_list(args.dims))
    rows = [
        (dim, level, dense_qplane_residual(dim, level))
        for dim in dims
        for level in range(1, dim)
    ]
    return VerificationReport.build(
        "clock-shift",
        f"scan --engine clock-shift --dims {args.dims}",
        {"dims": dims, "pairs": len(rows)},
        [Metric("max_residual", max(row[2] for row in rows), PAIR_RESIDUAL_GATE)],
        rows_table(("N", "k", "residual"), rows),
    )


def reference_scan(argv) -> VerificationReport:
    """The report of a matrix, grid, periodicity or path scan (``scan
    --engine matrix``, ``scan --engine clock-shift --dims`` or ``--alpha``,
    ``scan --path ...``) with default config, built point by point: one
    identity_residual per N, one dense residual per pair (N, k), one
    ScalingPoint per n, or the contraction path's formulas written out
    per step (not params.ContractionPath, which the CLI runs), and one
    tuple per row."""
    args = cli.parse_args(argv)
    cfg = config.load_config(None)
    if args.engine == "matrix":
        return _reference_matrix_scan(args, cfg)
    if args.engine == "clock-shift" and args.dims is not None:
        return _reference_grid_scan(args)
    alpha = args.alpha if args.alpha is not None else config.get_float(
        cfg, "params.alpha"
    )
    if args.engine == "clock-shift":
        ntext = args.n or "0..100"
        ns = int_list(ntext)
        return VerificationReport.build(
            "clock-shift",
            f"scan --engine clock-shift --alpha {alpha} --n {ntext}",
            {"alpha": alpha, "n_count": len(ns)},
            [],
            rows_table(("alpha", "n"), [(alpha, n) for n in ns]),
        )
    beta = args.beta if args.beta is not None else config.get_float(cfg, "params.beta")
    if args.path == "hbar-to-0":
        ntext = args.n if args.n is not None else "0..5"
        ns = int_list(ntext)
        rows = []
        for pt in scaling_points(alpha, beta, ns):
            phase = pt.exchange_phase()
            rows.append((pt.n, pt.mu, pt.nu, alpha, phase.real, phase.imag))
        return VerificationReport.build(
            "params",
            f"scan --path hbar-to-0 --alpha {alpha} --beta {beta} --n {ntext}",
            {"alpha": alpha, "beta": beta, "n_count": len(ns)},
            [],
            rows_table(
                ("n", "mu", "nu", "theta_mod_2pi", "phase_re", "phase_im"), rows
            ),
        )
    mu0 = config.get_float(cfg, "params.mu0")
    nu0 = config.get_float(cfg, "params.nu0")
    ntext = args.n if args.n is not None else "0..10"
    steps = int_list(ntext)
    rows = [(k, *contraction_row(args.path, mu0, nu0, k)) for k in steps]
    return VerificationReport.build(
        "params",
        f"scan --path {args.path} --n {ntext}",
        {"path": args.path, "mu0": mu0, "nu0": nu0, "steps": len(steps)},
        [],
        rows_table(("step",) + CONTRACTION_COLUMNS[args.path], rows),
    )


CONTRACTION_COLUMNS = {
    "q-to-1": ("t", "mu", "nu", "q"),
    "omega-to-0": ("t", "mu", "nu", "omega_ratio", "q"),
}


def contraction_row(path: str, mu0: float, nu0: float, step: int) -> tuple:
    """The cells of a q-to-1 or omega-to-0 path at t = 2^-step, in the
    order of CONTRACTION_COLUMNS, from the path formulas written out for
    the one point."""
    t = 2.0 ** (-step)
    if path == "q-to-1":
        mu, nu = t * mu0, t * nu0
        return (t, mu, nu, 1.0 + mu * nu / 2.0)
    mu, nu = mu0, t * nu0
    return (t, mu, nu, nu / mu, 1.0 + mu * nu / 2.0)


def reference_json(report) -> str:
    """A report as JSON, the whole payload through json.dumps(indent=2)."""
    payload = {
        "schemaVersion": SCHEMA_VERSION,
        "engine": report.engine,
        "command": report.command,
        "parameters": {
            k: report.parameters[k] for k in sorted(report.parameters)
        },
        "verdict": report.verdict,
        "metrics": [
            {
                "name": m.name,
                "value": m.value,
                "threshold": m.threshold,
            }
            for m in report.metrics
        ],
        "table": (
            {
                "columns": list(report.table.columns),
                "rows": [list(row) for row in report.table.rows],
            }
            if report.table is not None
            else None
        ),
        "toolVersion": report.tool_version,
        "timestamp": report.timestamp,
    }
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _reference_cell(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def reference_csv(report) -> str:
    """A report's table as CSV, cell by cell."""
    if report.table is None:
        raise ValueError("report has no table; csv format needs one")
    lines = [",".join(report.table.columns)]
    for row in report.table.rows:
        lines.append(",".join(_reference_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def reference_text(report) -> str:
    """A report as text, cell by cell."""
    lines = [
        f"engine: {report.engine}",
        f"command: {report.command}",
        f"verdict: {report.verdict}",
    ]
    for key in sorted(report.parameters):
        lines.append(f"param {key} = {report.parameters[key]}")
    for m in report.metrics:
        status = "PASS" if m.passed else "FAIL"
        if m.threshold is None:
            lines.append(f"metric {m.name} = {m.value}")
        else:
            lines.append(
                f"metric {m.name} = {m.value} "
                f"(threshold {m.threshold}) {status}"
            )
    if report.table is not None:
        lines.append("table:")
        lines.append("  " + ",".join(report.table.columns))
        for row in report.table.rows:
            lines.append("  " + ",".join(_reference_cell(v) for v in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# library surface that only tests reach
# ---------------------------------------------------------------------------

HERMITICITY_TOL = 1e-12


class OperatorMatrix:
    """Dense complex matrix with Hermiticity bookkeeping.

    ``hermitian`` is true when max|M - M*| <= tol * max|entry| (entrywise);
    the measured defect is kept alongside the flag.
    """

    __slots__ = ("mat", "hermitian", "hermiticity_defect")

    def __init__(self, mat, tol: float = HERMITICITY_TOL):
        mat = np.asarray(mat, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("operator matrix must be square")
        self.mat = mat
        defect = float(np.max(np.abs(mat - mat.conj().T))) if mat.size else 0.0
        scale = float(np.max(np.abs(mat))) if mat.size else 0.0
        self.hermitian = defect <= tol * scale
        self.hermiticity_defect = defect

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def __repr__(self):
        return f"OperatorMatrix(dim={self.dim}, hermitian={self.hermitian})"


def oscillator_xp(dim: int) -> tuple[OperatorMatrix, OperatorMatrix]:
    """Ladder construction x = (a + a*)/sqrt(2), p = i(a* - a)/sqrt(2).

    [p, x] = -i on all but the top basis state; the defect sits at the
    (dim-1, dim-1) entry only.
    """
    if dim < 2:
        raise ValueError("dimension must be >= 2")
    a = np.diag(np.sqrt(np.arange(1, dim)), 1).astype(complex)
    ad = a.conj().T
    x = (a + ad) / math.sqrt(2)
    p = 1j * (ad - a) / math.sqrt(2)
    return OperatorMatrix(x), OperatorMatrix(p)


def evaluate_element(
    element: WeylSeriesElement, mu: float, nu: float, x: np.ndarray, p: np.ndarray
) -> np.ndarray:
    """Numerically evaluate a symbolic element on given x, p matrices.

    Bridges the exact engine and the matrix one: coefficients are evaluated
    at numeric (mu, nu) and each normal-ordered word becomes x^a @ p^b.
    """
    dim = x.shape[0]
    out = np.zeros((dim, dim), dtype=complex)
    max_x = max((key[0] for key in element.terms), default=0)
    max_p = max((key[1] for key in element.terms), default=0)
    x_pows = _power_table(x, max_x)
    p_pows = _power_table(p, max_p)
    coeffs: dict = {}
    for (a, b, mp, np_), value in element.terms.items():
        term = complex(float(value.re), float(value.im)) * (mu**mp) * (nu**np_)
        coeffs[(a, b)] = coeffs.get((a, b), 0j) + term
    for (a, b), coeff in coeffs.items():
        if coeff != 0j:
            out += coeff * (x_pows[a] @ p_pows[b])
    return out


def _power_table(mat: np.ndarray, max_pow: int) -> list[np.ndarray]:
    table = [np.eye(mat.shape[0], dtype=complex)]
    for _ in range(max_pow):
        table.append(table[-1] @ mat)
    return table


def substituted_zero(element: WeylSeriesElement, param: str) -> WeylSeriesElement:
    """Set mu = 0 or nu = 0 in an element, keeping only coefficients free of it."""
    if param not in ("mu", "nu"):
        raise ValueError("param must be 'mu' or 'nu'")
    idx = 2 if param == "mu" else 3
    return WeylSeriesElement(
        element.degree, {k: v for k, v in element.terms.items() if k[idx] == 0}
    )


@dataclass(frozen=True)
class ParameterSet:
    """Physical constants plus deformation parameters with derived scales.

    delta = mu * hbar / (m c) carries the length scale of the momentum
    deformation; tau = nu * m * c the momentum scale of the position
    deformation; theta = mu * nu is the central exchange parameter.
    """

    hbar: float
    m: float
    c: float
    mu: float
    nu: float
    omega: Optional[float] = None

    def __post_init__(self):
        for name in ("hbar", "m", "c"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite")
        if self.mu < 0 or self.nu < 0:
            raise ValueError("mu and nu must be >= 0")
        if self.omega is not None and self.omega < 0:
            raise ValueError("omega must be >= 0")

    @property
    def delta(self) -> float:
        return self.mu * self.hbar / (self.m * self.c)

    @property
    def tau(self) -> float:
        return self.nu * self.m * self.c

    @property
    def theta(self) -> float:
        return self.mu * self.nu


def derive_scales(
    mu: float, nu: float, hbar: float, m: float, c: float
) -> tuple[float, float]:
    """(delta, tau) from the dimensionless parameters and physical constants."""
    ps = ParameterSet(hbar=hbar, m=m, c=c, mu=mu, nu=nu)
    return ps.delta, ps.tau


def correspondence(mu: float, nu: float) -> tuple[float, float]:
    """(nu/mu, 1 + mu*nu/2): the frequency ratio hbar*omega/(m c^2) and the
    leading-order q of the q-oscillator match, to lowest order only."""
    if mu <= 0:
        raise ValueError("mu must be > 0 for the frequency ratio")
    if nu < 0:
        raise ValueError("nu must be >= 0")
    return nu / mu, 1.0 + mu * nu / 2.0


def q_of_omega(hbar: float, omega: float, m: float, c: float) -> float:
    """Leading-order q = 1 + hbar*omega/(m c^2), first order only."""
    for name, value in (("hbar", hbar), ("m", m), ("c", c)):
        if not (value > 0 and math.isfinite(value)):
            raise ValueError(f"{name} must be positive and finite")
    if omega < 0:
        raise ValueError("omega must be >= 0")
    return 1.0 + hbar * omega / (m * c * c)


def to_config_text(ps: ParameterSet) -> str:
    """Config-file form of a parameter set, with SI unit tags."""
    lines = [
        f"params.hbar = {ps.hbar!r} {UNIT_TAGS['hbar']}",
        f"params.m = {ps.m!r} {UNIT_TAGS['m']}",
        f"params.c = {ps.c!r} {UNIT_TAGS['c']}",
        f"params.mu = {ps.mu!r}",
        f"params.nu = {ps.nu!r}",
    ]
    if ps.omega is not None:
        lines.append(f"params.omega = {ps.omega!r} {UNIT_TAGS['omega']}")
    return "\n".join(lines) + "\n"


def parameter_set_from_config(cfg: dict) -> ParameterSet:
    """Rebuild a ParameterSet from config entries; absent keys mean natural units."""

    def _get(key: str, unit: Optional[str], default: Optional[float]):
        raw = cfg.get(f"params.{key}")
        return parse_quantity(raw, unit) if raw is not None else default

    return ParameterSet(
        hbar=_get("hbar", UNIT_TAGS["hbar"], 1.0),
        m=_get("m", UNIT_TAGS["m"], 1.0),
        c=_get("c", UNIT_TAGS["c"], 1.0),
        mu=_get("mu", None, 0.0),
        nu=_get("nu", None, 0.0),
        omega=_get("omega", UNIT_TAGS["omega"], None),
    )
