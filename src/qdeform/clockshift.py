"""Exact finite realization of the quantum-plane relation PX = qXP.

A Weyl pair at level k in dimension N -- the cyclic shift U and the
clock V = diag(omega^(j*k)) with omega = exp(2*pi*i/N) -- satisfies
V U = e^(i*alpha) U V with alpha = 2*pi*k/N, hence U V = q V U with
q = e^(-i*alpha) = (1 + e^(-i*alpha)) / (1 + e^(i*alpha)).

The scaling path nu = beta*sqrt(alpha + 2*pi*n), mu = sqrt(alpha +
2*pi*n)/beta keeps theta = mu*nu equal to alpha + 2*pi*n by construction
(stored as the pair (alpha, n), never as a rounded product), so the
exchange phase e^(-i*theta) and the tan(theta/2) factor of the identity
prefactor depend on alpha alone.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .params import Q_POLE_TOL


@dataclass(frozen=True)
class ClockShiftPair:
    """Weyl pair (U, V) of size dim at level 1 <= level < dim.

    U is the cyclic shift, kept implicit: it sends basis state j to
    j+1 (mod dim).  V is diagonal and kept as its diagonal, the clock
    phases c_j = omega^(j*level).
    """

    dim: int
    level: int
    phases: np.ndarray

    @property
    def alpha(self) -> float:
        return 2.0 * math.pi * self.level / self.dim


# exp(2*pi*i*e/N) at the quadrant angles e/N = 0, 1/4, 1/2, 3/4
_QUADRANTS = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)
_QUADRANT_ROOTS = np.array(_QUADRANTS)


def _roots_of_unity(order: int, exponents) -> np.ndarray:
    """exp(2*pi*i*e/order) for each integer exponent e, exact at the quadrant
    angles.

    The angle is (2*pi*e)/order with e reduced mod order, rounded step by
    step as cmath.exp(2j*pi*e/order) rounds it, so each root equals that
    per-root formula bit for bit.
    """
    e = np.asarray(exponents) % order
    roots = np.exp(1j * (2 * math.pi * e / order))
    quarters = 4 * e
    quadrant = quarters % order == 0
    roots[quadrant] = _QUADRANT_ROOTS[quarters[quadrant] // order]
    return roots


def _root_of_unity(order: int, e: int) -> complex:
    """_roots_of_unity(order, [e])[0] in plain Python, bit for bit."""
    e %= order
    if 4 * e % order == 0:
        return _QUADRANTS[4 * e // order]
    return cmath.exp(1j * (2 * math.pi * e / order))


def _check_dim(dim: int) -> None:
    if dim < 2:
        raise ValueError(f"dimension must be >= 2, got N={dim}")


def build_pair(dim: int, level: int) -> ClockShiftPair:
    """Construct the pair; clock phases use exponents reduced mod dim so
    no accuracy is lost at large j*k, and quadrant phases are exact."""
    _check_dim(dim)
    if not 1 <= level < dim:
        raise ValueError(f"level must satisfy 1 <= k < N, got k={level}")
    phases = _roots_of_unity(dim, np.arange(dim) * level)
    return ClockShiftPair(dim=dim, level=level, phases=phases)


def q_from_alpha(alpha: float) -> complex:
    """q = (1 + e^(-i*alpha)) / (1 + e^(i*alpha)); equals e^(-i*alpha), |q| = 1.

    Undefined at alpha = pi (mod 2*pi) where the denominator vanishes.
    """
    den = 1.0 + cmath.exp(1j * alpha)
    if abs(den) <= Q_POLE_TOL:
        raise ValueError(f"q undefined at alpha = pi (mod 2*pi); got alpha={alpha}")
    return (1.0 + cmath.exp(-1j * alpha)) / den


def _next(values: np.ndarray) -> np.ndarray:
    """values[j+1 mod N] at each j along the last axis."""
    return np.concatenate((values[..., 1:], values[..., :1]), axis=-1)


def _qplane_max(phases: np.ndarray, q) -> np.ndarray:
    """max_j |c_j - q*c_(j+1)| along the last axis of the clock phases."""
    return np.max(np.abs(phases - q * _next(phases)), axis=-1)


def verify_qplane(pair: ClockShiftPair) -> float:
    """Max entrywise |PX - qXP| with P = U, X = V.

    UV and VU are both the shift times a diagonal, so PX - qXP has one
    nonzero per column: c_j - q*c_(j+1), at row j+1 (mod N).

    q is the exchange phase e^(-i*alpha): the value of the quotient
    formula wherever that is defined, and its removable-singularity
    continuation at alpha = pi (even N with k = N/2), where the quotient
    itself is 0/0.  It is the root omega^(-k) of the pair's level, not a
    phase of the pair, so phases built at another level fail the check.
    """
    # a numpy scalar: numpy multiplies by a Python complex in another loop,
    # which rounds otherwise on long arrays
    q = np.complex128(_root_of_unity(pair.dim, -pair.level))
    return float(_qplane_max(pair.phases, q))


def qplane_residuals(dim: int) -> np.ndarray:
    """verify_qplane of the pair at every level 1..dim-1, in one pass.

    Row k-1 of the phase table is the clock of level k, taken from the
    same roots of unity as build_pair, so each residual equals the
    per-pair one bit for bit.  Costs O(dim^2) time and memory.
    """
    _check_dim(dim)
    roots = _roots_of_unity(dim, np.arange(dim))
    levels = np.arange(1, dim)
    phases = roots[np.outer(levels, np.arange(dim)) % dim]
    return _qplane_max(phases, roots[-levels % dim, np.newaxis])


def v_unitary_defect(pair: ClockShiftPair) -> float:
    """Max entrywise |V V^dag - 1|, read off V's diagonal: an entry is
    re*re + im*im, with an imaginary part of exactly 0.  U has no such
    defect: it is a permutation, so U U^dag is exactly the identity.
    """
    c = pair.phases
    return float(np.max(np.abs(c.real * c.real + c.imag * c.imag - 1.0)))


def eq8_residual(pair: ClockShiftPair) -> float:
    """Max entrywise |(q + 1)[S_U, S_V] + (q - 1){C_U, C_V}|: eq. 8 in its
    trigonometric form, with S_W = (W - W^-1)/2i and C_W = (W + W^-1)/2
    for W = U, V, and q = e^(-i*alpha) of the pair's own alpha.

    S_V and C_V are the diagonals s = Im c and k = Re c, and S_U, C_U send
    basis state j to j+1 and j-1, so column j of the residual holds
    r_j = (q + 1)(s_j - s_(j+1))/2i + (q - 1)(k_j + k_(j+1))/2 at row j+1
    and r_(j-1) at row j-1, and nothing else (at N = 2 those rows
    coincide, and the pair (1, -1) has every r_j = 0).  At the pole
    alpha = pi it checks {C_U, C_V} = 0.
    """
    c = pair.phases
    s, k = c.imag, c.real
    q = cmath.exp(-1j * pair.alpha)
    # the scalars combine first, so each term is one complex product of a
    # real array, with no complex temporaries in between
    r = (q + 1) / 2j * (s - _next(s)) + (q - 1) / 2 * (k + _next(k))
    return float(np.max(np.abs(r)))


def _smallest(ns: Sequence[int]) -> int:
    """The least of a non-empty sequence of ints; a range's is one of its
    ends, read without a pass over it."""
    if isinstance(ns, range):
        return min(ns[0], ns[-1])
    return min(ns)


def scaling_columns(
    alpha: float, beta: float, ns: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """mu = sqrt(theta)/beta and nu = beta*sqrt(theta) of the path at each
    requested n, as arrays, with theta = alpha + 2*pi*n.

    Each entry is the IEEE result of those operations on one n, as a
    per-point computation gives it: n is held as int64, so each n must
    lie below 2^63, and cast to float with rounding to nearest-even, as
    float(n) rounds.  alpha is theta mod 2*pi, so it must lie in
    (-pi, pi]; mu and nu are square roots of theta, so no requested n may
    make theta negative.
    """
    if not -math.pi < alpha <= math.pi:
        raise ValueError(f"alpha must lie in (-pi, pi], got alpha={alpha}")
    if not (beta > 0 and math.isfinite(beta)):
        raise ValueError(f"beta must be > 0 and finite, got beta={beta}")
    if _smallest(ns) < 0:
        raise ValueError("n must be >= 0")
    if isinstance(ns, range):
        n = np.arange(ns.start, ns.stop, ns.step, dtype=np.int64)
    else:
        n = np.array(ns, dtype=np.int64)
    theta = alpha + (2.0 * math.pi) * n.astype(float)
    negative = np.flatnonzero(theta < 0)
    if negative.size:
        raise ValueError(
            f"alpha + 2*pi*n must be >= 0, got alpha={alpha} at n={ns[negative[0]]}"
        )
    root = np.sqrt(theta)
    with np.errstate(over="ignore"):  # inf, as float arithmetic gives it
        return root / beta, beta * root
