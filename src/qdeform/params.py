"""Contraction paths and quantities with unit tags.

The engines work in natural units (hbar = m = c = 1).  This module owns
the parsing of SI quantities with their unit tags, the one rule for the
pole at theta = pi (mod 2*pi), and the executable contraction paths
between the deformation regimes:

* ``q-to-1``     mu, nu -> 0 together: back to the Heisenberg algebra.
* ``omega-to-0`` nu -> 0 at fixed mu: the oscillator interaction is
  switched off, leaving the free-particle deformation of p alone.
* ``hbar-to-0``  mu, nu -> infinity along the scaling path: the
  quantum-plane regime, from which hbar has dropped out.  It is walked
  in n, not t, by :func:`qdeform.clockshift.scaling_columns`.
"""

from __future__ import annotations

import math
import re
from typing import NamedTuple, Optional

PATH_NAMES = ("q-to-1", "hbar-to-0", "omega-to-0")

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

    def point(self, t: float) -> dict:
        if not 0.0 < t <= 1.0:
            raise ValueError("path variable t must lie in (0, 1]")
        if self.name == "q-to-1":
            mu, nu = t * self.mu0, t * self.nu0
            return {"t": t, "mu": mu, "nu": nu, "q": 1.0 + mu * nu / 2.0}
        if self.name == "omega-to-0":
            mu, nu = self.mu0, t * self.nu0
            return {
                "t": t,
                "mu": mu,
                "nu": nu,
                "omega_ratio": nu / mu,
                "q": 1.0 + mu * nu / 2.0,
            }
        raise ValueError(f"{self.name} is walked in n, not in t")


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
