"""Contraction paths and quantities with unit tags.

The engines work in natural units (hbar = m = c = 1).  This module owns
the parsing of SI quantities with their unit tags, the one rule for the
pole at theta = pi (mod 2*pi), and the tables of the three contraction
paths between the deformation regimes:

* ``q-to-1``     mu, nu -> 0 together: back to the Heisenberg algebra.
* ``omega-to-0`` nu -> 0 at fixed mu: the oscillator interaction is
  switched off, leaving the free-particle deformation of p alone.
* ``hbar-to-0``  mu, nu -> infinity along the scaling path: the
  quantum-plane regime, from which hbar has dropped out.

The first two are walked in t = 2^-step by :meth:`ContractionPath.columns`,
which computes each column of a path table over all its steps in one
pass; :meth:`ContractionPath.point` is its one-row view at any t in
(0, 1].  hbar-to-0 is walked in n by :func:`scaling_columns`.  Both
builders refuse a table with a cell that overflows.
"""

from __future__ import annotations

import cmath
import math
import re
from typing import NamedTuple, Optional, Sequence

# the paths walked in t; hbar-to-0 is walked in n, by scaling_columns
PATH_NAMES = ("q-to-1", "omega-to-0")

# the pole band |1 + cos(theta)| <= POLE_TOL around theta = pi (mod 2*pi):
# pi +- 4e-5 lies inside it, pi +- 5e-5 outside
POLE_TOL = 1e-9

# expected unit tags for SI-quantity inputs
UNIT_TAGS = {"hbar": "J.s", "m": "kg", "c": "m/s", "omega": "1/s"}

_QUANTITY_RE = re.compile(r"^\s*([^\s]+)(?:\s+([^\s]+))?\s*$")


def near_pole(theta: float) -> bool:
    """Whether theta lies in the pole band, where c(theta), tan(theta/2) and
    q's quotient form are refused.  Numpy-free, so that the periodicity
    scan refuses the pole without loading an engine."""
    return abs(1.0 + math.cos(theta)) <= POLE_TOL


class _PathFields(NamedTuple):
    name: str
    mu0: float = 1.0
    nu0: float = 1.0


class ContractionPath(_PathFields):
    """Executable path t in (0, 1] -> parameter values toward a limit regime."""

    __slots__ = ()

    def __new__(cls, name: str, mu0: float = 1.0, nu0: float = 1.0):
        if name not in PATH_NAMES:
            raise ValueError(
                f"unknown contraction path {name!r}; expected one of {PATH_NAMES}"
            )
        for key, value in (("mu0", mu0), ("nu0", nu0)):
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"params.{key} must be finite and >= 0, got {value}")
        if name == "omega-to-0" and mu0 == 0:
            raise ValueError(
                f"params.mu0 must be > 0 on omega-to-0 (omega_ratio = nu / mu0), "
                f"got {mu0}"
            )
        return super().__new__(cls, name, mu0, nu0)

    @classmethod
    def _make(cls, iterable) -> "ContractionPath":
        # _replace builds through _make, which would skip the checks above
        return cls(*iterable)

    def columns(self, steps: Sequence[int]) -> dict:
        """The path's table at t = 2^-step for each step in 0..1074, one
        column per name: ``t``, ``mu``, ``nu``, on omega-to-0
        ``omega_ratio``, and ``q``.  Each is a list of floats with one
        cell per step, except omega-to-0's ``mu``, which is mu0 alone.
        A cell that overflows is refused."""
        columns = self._at([2.0 ** -k for k in steps])
        inputs = f"params.mu0={self.mu0}, params.nu0={self.nu0}"
        _refuse_overflow(columns, "step", steps, inputs)
        return columns

    def point(self, t: float) -> dict:
        """The path's row at one t in (0, 1]: each column's cell."""
        if not 0.0 < t <= 1.0:
            raise ValueError("path variable t must lie in (0, 1]")
        return {
            name: cells[0] if isinstance(cells, list) else cells
            for name, cells in self._at([t]).items()
        }

    def _at(self, t: list) -> dict:
        # mu = t * mu0, nu = t * nu0, omega_ratio = nu / mu0 and
        # q = 1 + mu * nu / 2, one column at a time
        mu0, nu0 = self.mu0, self.nu0
        nu = [x * nu0 for x in t]
        if self.name == "omega-to-0":
            return {
                "t": t,
                "mu": mu0,
                "nu": nu,
                "omega_ratio": [x / mu0 for x in nu],
                "q": [1.0 + mu0 * x / 2.0 for x in nu],
            }
        mu = [x * mu0 for x in t]
        q = [1.0 + m * n / 2.0 for m, n in zip(mu, nu)]
        return {"t": t, "mu": mu, "nu": nu, "q": q}


def scaling_columns(alpha: float, beta: float, ns: Sequence[int]) -> dict:
    """The hbar-to-0 table at each n: lists ``mu`` = sqrt(theta)/beta and
    ``nu`` = beta*sqrt(theta), theta = alpha + 2*pi*n, and the repeated
    cells ``theta_mod_2pi`` = alpha, ``phase_re`` and ``phase_im``.
    theta is kept as the pair (alpha, n), so the exchange phase
    e^(-i*theta) is e^(-i*alpha) at every n.  n is held as int64 (below
    2^63) and cast to float as float(n) rounds."""
    import numpy as np

    if not -math.pi < alpha <= math.pi:
        raise ValueError(f"alpha must lie in (-pi, pi], got alpha={alpha}")
    if not (beta > 0 and math.isfinite(beta)):
        raise ValueError(f"beta must be > 0 and finite, got beta={beta}")
    if isinstance(ns, range):
        n = np.arange(ns.start, ns.stop, ns.step, dtype=np.int64)
    else:
        n = np.array(ns, dtype=np.int64)
    if n.min() < 0:
        raise ValueError("n must be >= 0")
    theta = alpha + (2.0 * math.pi) * n.astype(float)
    negative = np.flatnonzero(theta < 0)
    if negative.size:
        raise ValueError(
            f"alpha + 2*pi*n must be >= 0, got alpha={alpha} at n={ns[negative[0]]}"
        )
    root = np.sqrt(theta)
    with np.errstate(over="ignore"):  # inf, refused below by name
        mu, nu = root / beta, beta * root
    phase = cmath.exp(-1j * alpha)
    columns = {"mu": mu.tolist(), "nu": nu.tolist(), "theta_mod_2pi": alpha,
               "phase_re": phase.real, "phase_im": phase.imag}
    _refuse_overflow(columns, "n", ns, f"alpha={alpha}, beta={beta}")
    return columns


def _refuse_overflow(columns: dict, index: str, values: Sequence, inputs: str) -> None:
    """Refuse a path table with a cell that overflowed, naming the column,
    the row and the inputs that made it.  A column that is one repeated
    cell is an input the path has checked, and is passed over."""
    for name, cells in columns.items():
        if not isinstance(cells, list):
            continue
        finite = list(map(math.isfinite, cells))
        if not all(finite):
            row = finite.index(False)
            raise ValueError(
                f"path cell {name} overflows at {index} = {values[row]} ({inputs})"
            )


def parse_quantity(text: str, unit: Optional[str] = None) -> float:
    """Parse ``"1.05e-34 J.s"`` or plain ``"1.0"``; checks the unit tag if given.

    Natural-unit (bare number) inputs are always accepted.
    """
    match = _QUANTITY_RE.match(str(text))
    if not match:
        raise ValueError(f"cannot parse quantity: {text!r}")
    value_txt, tag = match.groups()
    try:
        value = float(value_txt)
    except ValueError:
        raise ValueError(f"cannot parse quantity: {text!r}") from None
    if tag is not None and unit is not None and tag != unit:
        raise ValueError(f"expected unit {unit!r}, got {tag!r}")
    if tag is not None and unit is None:
        raise ValueError(f"unexpected unit tag {tag!r} on dimensionless value")
    return value
