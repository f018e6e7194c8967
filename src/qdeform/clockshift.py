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
_QUADRANT_ROOTS = np.array([1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j])


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


def _qplane_max(phases: np.ndarray, q) -> np.ndarray:
    """max_j |c_j - q*c_(j+1)| along the last axis of the clock phases."""
    shifted = np.concatenate((phases[..., 1:], phases[..., :1]), axis=-1)
    return np.max(np.abs(phases - q * shifted), axis=-1)


def verify_qplane(pair: ClockShiftPair) -> float:
    """Max entrywise |PX - qXP| with P = U, X = V.

    UV and VU are both the shift times a diagonal, so PX - qXP has one
    nonzero per column: c_j - q*c_(j+1), at row j+1 (mod N).

    q is the exchange phase e^(-i*alpha): the value of the quotient
    formula wherever that is defined, and its removable-singularity
    continuation at alpha = pi (even N with k = N/2), where the quotient
    itself is 0/0.
    """
    # q = omega^(-k) is the last clock phase omega^((N-1)k), as -k = (N-1)k mod N
    return float(_qplane_max(pair.phases, pair.phases[-1]))


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


def _power_by_squaring(values: np.ndarray, exponent: int) -> np.ndarray:
    """values**exponent elementwise, exponent >= 1, multiplied in the order
    np.linalg.matrix_power uses (squares taken from the lowest bit up), so
    the rounding follows that of the dense power of diag(values).

    The chain runs in place on real and imaginary buffers allocated once.
    Every real product is rounded on its own, as in a dense matrix
    product (numpy's complex multiply may fuse one product into the sum,
    which rounds differently).
    """
    re, im = values.real.copy(), values.imag.copy()
    cross, skew = np.empty_like(re), np.empty_like(re)
    result = None
    while True:
        exponent, bit = divmod(exponent, 2)
        if bit and result is None:
            result = res_re, res_im = re.copy(), im.copy()
        elif bit:
            # (res_re + i*res_im) *= (re + i*im): res_re*re - res_im*im
            # and res_re*im + res_im*re
            np.multiply(res_re, im, out=cross)
            np.multiply(res_re, re, out=res_re)
            np.multiply(res_im, im, out=skew)
            np.subtract(res_re, skew, out=res_re)
            np.multiply(res_im, re, out=res_im)
            np.add(cross, res_im, out=res_im)
        if not exponent:
            break
        # (re + i*im)**2: re*re - im*im and (re*im) + (re*im)
        np.multiply(re, im, out=cross)
        np.multiply(re, re, out=re)
        np.multiply(im, im, out=im)
        np.subtract(re, im, out=re)
        np.add(cross, cross, out=im)
    del re, im, cross, skew  # freed before the complex result
    power = np.empty_like(values)
    power.real, power.imag = result
    return power


def pair_defects(pair: ClockShiftPair) -> tuple[float, float]:
    """Max entrywise |V V^dag - 1| and |V^N - 1|.

    They are read off V's diagonal, with V^N multiplied out rather than
    reduced to exponents mod N, so that its defect measures the
    accumulated rounding of the clock phases.  A diagonal entry of
    V V^dag is re*re + im*im, with an imaginary part of exactly 0.  U has
    no such defects: U^dag is U^(N-1), so U U^dag and U^N are both the
    shift by N, the identity permutation.
    """
    c = pair.phases
    return (
        float(np.max(np.abs(c.real * c.real + c.imag * c.imag - 1.0))),
        float(np.max(np.abs(_power_by_squaring(c, pair.dim) - 1.0))),
    )


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
