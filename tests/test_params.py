import cmath
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qdeform import weyl
from qdeform.clockshift import scaling_columns
from qdeform.params import PATH_NAMES, ContractionPath, parse_quantity
from qdeform.rational import MINUS_I

from oracles import (
    ParameterSet,
    ScalingPoint,
    correspondence,
    derive_scales,
    parameter_set_from_config,
    q_of_omega,
    to_config_text,
)


# ---------------------------------------------------------------------------
# scales
# ---------------------------------------------------------------------------


def test_natural_units_give_unit_delta():
    delta, tau = derive_scales(1.0, 1.0, 1.0, 1.0, 1.0)
    assert delta == 1.0 and tau == 1.0


def test_zero_deformation_gives_zero_scales():
    assert derive_scales(0.0, 0.0, 1.0, 1.0, 1.0) == (0.0, 0.0)


def test_tau_example():
    _, tau = derive_scales(1.0, 7.0, 2.0, 3.0, 5.0)
    assert tau == 105.0


def test_scales_are_linear_in_parameters():
    d1, t1 = derive_scales(0.4, 0.8, 1.0, 2.0, 3.0)
    d2, t2 = derive_scales(0.8, 1.6, 1.0, 2.0, 3.0)
    assert abs(d2 - 2.0 * d1) <= 1e-15
    assert abs(t2 - 2.0 * t1) <= 1e-15


def test_parameter_set_validation():
    with pytest.raises(ValueError, match="hbar"):
        ParameterSet(hbar=0.0, m=1.0, c=1.0, mu=0.1, nu=0.1)
    with pytest.raises(ValueError, match="mu and nu"):
        ParameterSet(hbar=1.0, m=1.0, c=1.0, mu=-0.1, nu=0.1)
    with pytest.raises(ValueError, match="omega"):
        ParameterSet(hbar=1.0, m=1.0, c=1.0, mu=0.1, nu=0.1, omega=-1.0)
    ps = ParameterSet(hbar=2.0, m=3.0, c=5.0, mu=1.0, nu=7.0)
    assert ps.delta == 2.0 / 15.0
    assert ps.tau == 105.0
    assert ps.theta == 7.0


# ---------------------------------------------------------------------------
# q parameterizations
# ---------------------------------------------------------------------------


def test_correspondence_symmetric_point():
    ratio, q = correspondence(0.5, 0.5)
    assert ratio == 1.0
    assert q == 1.0 + 0.125


def test_correspondence_example():
    ratio, q = correspondence(0.2, 0.01)
    assert abs(ratio - 0.05) <= 1e-15
    assert abs(q - 1.001) <= 1e-15


def test_correspondence_free_particle_limit():
    ratio, q = correspondence(0.3, 0.0)
    assert ratio == 0.0 and q == 1.0


def test_correspondence_needs_positive_mu():
    with pytest.raises(ValueError, match="mu"):
        correspondence(0.0, 0.1)


def test_q_of_omega_values():
    assert q_of_omega(1.0, 0.0, 1.0, 1.0) == 1.0
    assert q_of_omega(1.0, 1.0, 1.0, 1.0) == 2.0  # far outside the regime
    assert abs(q_of_omega(1.0, 0.01, 1.0, 1.0) - 1.01) <= 1e-15
    with pytest.raises(ValueError, match="m "):
        q_of_omega(1.0, 0.1, 0.0, 1.0)
    with pytest.raises(ValueError, match="omega"):
        q_of_omega(1.0, -0.1, 1.0, 1.0)


def test_both_parameterizations_contract_to_one():
    assert q_of_omega(1.0, 0.0, 2.0, 3.0) == 1.0
    assert correspondence(0.7, 0.0)[1] == 1.0


# ---------------------------------------------------------------------------
# quantities with unit tags
# ---------------------------------------------------------------------------


def test_parse_quantity_with_unit():
    assert parse_quantity("1.054571817e-34 J.s", "J.s") == 1.054571817e-34
    assert parse_quantity("3e8 m/s", "m/s") == 3e8
    assert parse_quantity("0.25") == 0.25
    assert parse_quantity("2.5", "kg") == 2.5  # natural-unit input accepted


def test_parse_quantity_errors():
    with pytest.raises(ValueError, match="expected unit"):
        parse_quantity("1.0 kg", "J.s")
    with pytest.raises(ValueError, match="dimensionless"):
        parse_quantity("1.0 kg")
    with pytest.raises(ValueError, match="cannot parse"):
        parse_quantity("not-a-number kg", "kg")


def test_parameter_set_roundtrips_through_config(tmp_path):
    from qdeform.config import load_config

    original = ParameterSet(
        hbar=1.054571817e-34, m=9.109e-31, c=2.99792458e8,
        mu=0.25, nu=0.125, omega=1.5e9,
    )
    path = tmp_path / "physical.cfg"
    path.write_text(to_config_text(original))
    rebuilt = parameter_set_from_config(load_config(str(path)))
    assert rebuilt == original
    assert rebuilt.delta == original.delta
    assert rebuilt.tau == original.tau


def test_parameter_set_from_config_defaults_to_natural_units():
    ps = parameter_set_from_config({})
    assert (ps.hbar, ps.m, ps.c, ps.mu, ps.nu, ps.omega) == (
        1.0, 1.0, 1.0, 0.0, 0.0, None,
    )


# ---------------------------------------------------------------------------
# contraction paths
# ---------------------------------------------------------------------------


def test_path_names_are_validated():
    for name in PATH_NAMES:
        assert ContractionPath(name).name == name
    with pytest.raises(ValueError, match="unknown contraction path"):
        ContractionPath("c-to-infinity")


def test_q_to_one_path():
    path = ContractionPath("q-to-1", mu0=0.8, nu0=0.4)
    start = path.point(1.0)
    assert (start["mu"], start["nu"]) == (0.8, 0.4)
    end = path.point(2.0**-20)
    assert end["mu"] <= 1e-6
    assert abs(end["q"] - 1.0) <= 1e-12


def test_omega_to_zero_path_keeps_mu():
    path = ContractionPath("omega-to-0", mu0=0.5, nu0=0.3)
    for t in (1.0, 0.25, 2.0**-16):
        pt = path.point(t)
        assert pt["mu"] == 0.5
        assert pt["omega_ratio"] == pt["nu"] / 0.5
    assert path.point(2.0**-16)["omega_ratio"] <= 1e-4


def test_hbar_to_zero_path_walks_the_scaling_ladder():
    # the ladder is walked in n, by clockshift.scaling_columns alone
    with pytest.raises(ValueError, match="hbar-to-0 is walked in n, not in t"):
        ContractionPath("hbar-to-0").point(1.0)
    ns = [0, 2, 99]
    mu, nu = scaling_columns(1.0, 1.0, ns)
    for n, mu_n, nu_n in zip(ns, mu, nu):
        sp = ScalingPoint(alpha=1.0, beta=1.0, n=n)
        assert (mu_n, nu_n) == (sp.mu, sp.nu)
    assert mu[-1] > 20.0  # diverging parameters


def test_path_variable_range():
    path = ContractionPath("q-to-1")
    with pytest.raises(ValueError, match="t must lie"):
        path.point(0.0)
    with pytest.raises(ValueError, match="t must lie"):
        path.point(1.5)
    assert isinstance(path, ContractionPath)


def test_contraction_path_is_immutable():
    path = ContractionPath("omega-to-0", mu0=0.5)
    assert (path.name, path.mu0, path.nu0) == ("omega-to-0", 0.5, 1.0)
    with pytest.raises(AttributeError):
        path.mu0 = 0.0
    assert path == ContractionPath("omega-to-0", 0.5, 1.0)
    assert path._replace(nu0=0.25) == ContractionPath("omega-to-0", 0.5, 0.25)
    with pytest.raises(ValueError, match="params.mu0 must be > 0"):
        path._replace(mu0=0.0)


# ---------------------------------------------------------------------------
# endpoints against the other engines
# ---------------------------------------------------------------------------


def test_q_to_one_endpoint_is_heisenberg():
    # at mu = nu = 0 the symbolic engine reduces to [p, x] = -i exactly
    assert weyl.identity_checks(0).identity.is_zero
    comm = weyl.commutator(weyl.p_op(0), weyl.x_op(0))
    assert comm == weyl.WeylSeriesElement.scalar(MINUS_I, 0)


def test_omega_to_zero_endpoint_is_cosh_commutator():
    # nu = 0: [P, x] = -i cosh(mu p), the square-root free-particle variant
    lhs, rhs = weyl.free_particle_rule(weyl.deformed_momentum(10), 10)
    assert lhs == rhs
    assert rhs == weyl.cosh_element("momentum", 10).scaled(MINUS_I)


def test_hbar_to_zero_endpoint_has_constant_phase():
    phases = [
        ScalingPoint(alpha=0.9, beta=2.0, n=n).exchange_phase() for n in (0, 1, 2)
    ]
    assert phases[0] == phases[1] == phases[2] == cmath.exp(-1j * 0.9)
    assert abs(phases[0] - (math.cos(0.9) - 1j * math.sin(0.9))) <= 1e-15


def test_config_loads_without_numpy():
    # params takes nothing from clockshift, so reading a config costs no numpy
    src = Path(__file__).resolve().parent.parent / "src"
    probe = "import sys, qdeform.config; sys.exit('numpy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=str(src))
    )
    assert result.returncode == 0
