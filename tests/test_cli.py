import copy
import fractions
import io
import json
import os
import shutil
import subprocess
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import qdeform.cli as cli
from qdeform import weyl
from qdeform.cli import expand_text, parse_int_list
from qdeform.config import DEFAULTS, ConfigError, load_config, parse_config_text
from qdeform.report import Metric, VerificationReport

from conftest import mask_timestamp
from mutants import MUTANTS, ROOT
from oracles import (
    binomial_series_sqrt,
    one_plus_square,
    reference_csv,
    reference_json,
    reference_scan,
    reference_text,
)


# ---------------------------------------------------------------------------
# argument helpers
# ---------------------------------------------------------------------------


def test_parse_int_list_forms():
    assert parse_int_list("0..5", "n") == range(0, 6)
    assert parse_int_list("16,32,64", "dims") == [16, 32, 64]
    assert parse_int_list("7", "n") == [7]


def test_parse_int_list_errors():
    with pytest.raises(ValueError, match="empty"):
        parse_int_list("", "dims")
    with pytest.raises(ValueError, match="empty"):
        parse_int_list(None, "dims")
    with pytest.raises(ValueError, match="bad n range"):
        parse_int_list("5..1", "n")
    with pytest.raises(ValueError):
        parse_int_list("a,b", "dims")
    with pytest.raises(ValueError, match="empty dims list"):
        parse_int_list(" , ", "dims")


# ---------------------------------------------------------------------------
# expand
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name,argv",
    [
        ("expand_P_deg2.txt", ["expand", "--target", "P", "--degree", "2"]),
        ("expand_X_deg4.txt", ["expand", "--target", "X", "--degree", "4"]),
        (
            "expand_prefactor_deg4.txt",
            ["expand", "--target", "prefactor", "--degree", "4"],
        ),
        ("expand_eq9_deg2.txt", ["expand", "--target", "eq9", "--degree", "2"]),
        ("expand_eq8rhs_deg4.txt", ["expand", "--target", "eq8-rhs", "--degree", "4"]),
        (
            "expand_eq8rhs_deg16.txt",
            ["expand", "--target", "eq8-rhs", "--degree", "16"],
        ),
    ],
)
def test_expand_golden(invoke, golden_dir, name, argv):
    code, out = invoke(argv)
    assert code == 0
    assert out == (golden_dir / name).read_text()


def test_expand_known_strings(invoke):
    assert expand_text("P", 2) == "p + (1/6)*mu^2*p^3"
    assert expand_text("prefactor", 4) == "1/2 + (1/24)*theta^2 + (1/240)*theta^4"
    assert expand_text("eq9", 2) == "-i*(1 + (1/2)*mu^2*p^2 + (1/2)*nu^2*x^2)"


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_expand_refuses_format(invoke, fmt):
    # expand printed its text and exited 0 whatever --format said
    code, out = invoke(["expand", "--target", "P", "--format", fmt])
    assert code == 2
    assert out == ""


def test_expand_bad_target_is_usage_error(invoke):
    code, _ = invoke(["expand", "--target", "nonsense", "--degree", "2"])
    assert code == 2


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_symbolic_golden(invoke, golden_dir):
    code, out = invoke(["verify", "--engine", "symbolic", "--degree", "8"])
    assert code == 0
    assert mask_timestamp(out) == (golden_dir / "verify_symbolic_deg8.json").read_text()


def test_verify_symbolic_golden_degree_16(invoke, golden_dir):
    code, out = invoke(["verify", "--engine", "symbolic", "--degree", "16"])
    assert code == 0
    assert mask_timestamp(out) == (
        golden_dir / "verify_symbolic_deg16.json"
    ).read_text()


def _words(element):
    """The words x^a p^b of an element that carry a nonzero coefficient."""
    return len({(x, p) for x, p, _, _ in element.terms})


def _low_degree_coefficients(element):
    """The coefficients of an element of total (mu, nu) degree below 4."""
    return sum(1 for _, _, m, n in element.terms if m + n < 4)


@pytest.mark.parametrize("degree", range(15))
def test_verify_symbolic_metrics_match_public_weyl(invoke, degree):
    code, out = invoke(["verify", "--engine", "symbolic", "--degree", str(degree)])
    assert code == 0
    reported = {m["name"]: m["value"] for m in json.loads(out)["metrics"]}
    # the two residuals built separately, not through identity_checks
    rhs = weyl.identity_rhs(degree)
    lhs = weyl.commutator(weyl.deformed_momentum(degree), weyl.deformed_position(degree))
    residual9 = rhs - weyl.leading_order_target(degree)
    expected = {
        "residual_terms": _words(lhs - rhs),
        "exchange_residual_terms": _words(weyl.exchange_residual(degree)),
        "sqrt_cosh_mismatch_terms": sum(
            _words(
                binomial_series_sqrt(one_plus_square(side, degree))
                - weyl.cosh_element(side, degree)
            )
            for side in ("momentum", "position")
        ),
        "expansion_low_degree_terms": _low_degree_coefficients(residual9),
    }
    assert reported == expected


def test_verify_symbolic_counts_words_but_low_degree_coefficients(invoke, monkeypatch):
    # x + mu*x + mu^2 nu^2 p: two words, three coefficients, two of them
    # of degree < 4; residual_terms and its kin count words, and
    # expansion_low_degree_terms counts coefficients
    residual = weyl.WeylSeriesElement(
        4, {(1, 0, 0, 0): 1, (1, 0, 1, 0): 1, (0, 1, 2, 2): 1}
    )
    zero = weyl.WeylSeriesElement(4)
    checks = weyl.IdentityChecks(residual, residual, (residual, zero) * 2, residual)
    monkeypatch.setattr(weyl, "identity_checks", lambda degree: checks)
    code, out = invoke(["verify", "--engine", "symbolic", "--degree", "4"])
    assert code == 1
    reported = {m["name"]: m["value"] for m in json.loads(out)["metrics"]}
    assert (_words(residual), len(residual.terms)) == (2, 3)
    assert reported == {
        "residual_terms": 2,
        "exchange_residual_terms": 2,
        "sqrt_cosh_mismatch_terms": 4,
        "expansion_low_degree_terms": 2,
    }


def _word_kind(terms):
    """'1', 'p', 'x' or 'xp': which generators a kernel operand's words hold."""
    has_x = any(t[1] for t in terms)
    has_p = any(t[2] for t in terms)
    return {(False, False): "1", (False, True): "p", (True, False): "x"}.get(
        (has_x, has_p), "xp"
    )


def test_verify_symbolic_builds_each_shared_piece_once(invoke, monkeypatch):
    calls, rhs_sums, built = Counter(), Counter(), []
    series, term_lists = {}, Counter()
    kernel, rhs_sum, wrap = weyl._add_terms, weyl._rhs_sum, weyl._element
    generate, terms_of = weyl._generator_series, weyl._terms
    init = weyl.WeylSeriesElement.__init__

    def counted_kernel(acc, left, right, cap, start=0):
        calls[(start, _word_kind(left), _word_kind(right))] += 1
        return kernel(acc, left, right, cap, start)

    def counted_rhs(degree, cosh_p, cosh_x):
        rhs_sums[degree] += 1
        return rhs_sum(degree, cosh_p, cosh_x)

    def counted_series(side, degree, start, step):
        element = generate(side, degree, start, step)
        series.setdefault((side, start, step), []).append(id(element.terms))
        return element

    def counted_terms(terms, re, im):
        term_lists[id(terms)] += 1
        return terms_of(terms, re, im)

    def recorded_element(degree, terms):
        built.append(terms)
        return wrap(degree, terms)

    def recorded_init(self, degree, terms=None):
        init(self, degree, terms)
        built.append(self.terms)

    monkeypatch.setattr(weyl, "_add_terms", counted_kernel)
    monkeypatch.setattr(weyl, "_rhs_sum", counted_rhs)
    monkeypatch.setattr(weyl, "_generator_series", counted_series)
    monkeypatch.setattr(weyl, "_terms", counted_terms)
    monkeypatch.setattr(weyl, "_element", recorded_element)
    monkeypatch.setattr(weyl.WeylSeriesElement, "__init__", recorded_init)
    code, _ = invoke(["verify", "--engine", "symbolic", "--degree", "6"])
    assert code == 0
    assert calls == {
        # from k = 1, a p-series times an x-series: [P, X] alone, the
        # k >= 1 part of {c cosh(mu*p), cosh(nu*x)} and of e^(mu p) e^(nu x)
        (1, "p", "x"): 3,
        # the k = 0 products: 2 c cosh(nu*x) cosh(mu*p) and
        # (e^(-i mu nu) - 1) e^(nu*x) e^(mu*p)
        (0, "x", "p"): 2,
        # per square-root side, root*root and (-mu^2 P)*P (-nu^2 X on x)
        (0, "p", "p"): 2,
        (0, "x", "x"): 2,
        # the q-oscillator target subtracted from the right-hand side
        (0, "xp", "1"): 1,
    }
    # the right-hand side is summed once and shared by two residuals
    assert rhs_sums == {6: 1}
    # P, X, cosh(mu*p) and cosh(nu*x) are each built once, and so is each
    # one's term list, which the right-hand side, [P, X] and the square
    # roots share; e^(mu p) and e^(nu x) are built once for the exchange
    shared = [("momentum", 1, 2), ("position", 1, 2), ("momentum", 0, 2),
              ("position", 0, 2)]
    assert sorted(series) == sorted(shared + [("momentum", 0, 1), ("position", 0, 1)])
    assert all(len(ids) == 1 for ids in series.values())
    assert [term_lists[series[key][0]] for key in shared] == [1, 1, 1, 1]
    # every central factor rides on a term list: no element is built on
    # the empty word alone with a (mu, nu)-dependent coefficient
    assert built
    central = [
        terms for terms in built
        if {key[:2] for key in terms} == {(0, 0)}
        and any(key[2:] != (0, 0) for key in terms)
    ]
    assert not central


def test_verify_matrix_passes(invoke):
    code, out = invoke(
        ["verify", "--engine", "matrix", "--dim", "32", "--interior", "8",
         "--mu", "0.2", "--nu", "0.2"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    assert payload["schemaVersion"] == 1
    names = [m["name"] for m in payload["metrics"]]
    assert names == ["res_fro"]


def test_verify_matrix_interior_error_golden(invoke, golden_dir):
    code, out = invoke(
        ["verify", "--engine", "matrix", "--dim", "4", "--interior", "8"]
    )
    assert code == 2
    assert mask_timestamp(out) == (
        golden_dir / "error_matrix_interior.json"
    ).read_text()


@pytest.mark.parametrize(
    "flags, lines, named",
    [
        (["--dim", "2"], "", "--dim must be at least 3, got 2"),
        ([], "matrix.dim = 2", "matrix.dim must be at least 3, got 2"),
        # N is the bad input, not the interior block the user set
        (["--dim", "-5", "--interior", "2"], "", "--dim must be at least 3, got -5"),
        (["--dim", "3"], "", None),
        ([], "matrix.dim = 3", None),
        (["--dim", "4"], "", None),
        ([], "matrix.dim = 4", None),
    ],
    ids=["2-flag", "2-config", "negative-flag", "3-flag", "3-config", "4-flag",
         "4-config"],
)
def test_verify_matrix_at_the_smallest_dims(invoke, tmp_path, flags, lines, named):
    # the default interior max(4, N // 4) reached N at N <= 4, and these
    # exited 2 naming an interior block that was never set; N = 3 and 4
    # now take M = N - 1 and fail on truncation
    cfg = tmp_path / "dim.cfg"
    cfg.write_text(lines + "\n")
    code, out = invoke(["verify", "--engine", "matrix", "--config", str(cfg)] + flags)
    payload = json.loads(out)
    if named is not None:
        assert code == 2
        assert payload["parameters"]["error"] == f"ValueError: {named}"
        return
    dim = payload["parameters"]["dim"]
    assert code == 1 and payload["verdict"] == "fail"
    assert payload["parameters"]["interior"] == dim - 1
    assert f"--dim {dim} --interior {dim - 1} " in payload["command"]


@pytest.mark.parametrize(
    "argv, named",
    [
        # M = 8 is the scan's default, which the user never typed
        (["scan", "--engine", "matrix", "--dims", "5,6"],
         "M=8 (default) and N=5 (smallest of --dims)"),
        (["scan", "--engine", "matrix", "--dims", "4,6", "--interior", "1"],
         "M=1 (--interior) and N=4 (smallest of --dims)"),
        (["verify", "--engine", "matrix", "--dim", "5", "--interior", "5"],
         "M=5 (--interior) and N=5 (--dim)"),
        (["verify", "--engine", "matrix", "--dim", "5", "--interior", "1"],
         "M=1 (--interior) and N=5 (--dim)"),
    ],
)
def test_interior_out_of_range_names_m_n_and_their_sources(invoke, argv, named):
    code, out = invoke(argv)
    assert code == 2
    assert json.loads(out)["parameters"]["error"] == (
        f"ValueError: interior dimension must satisfy 2 <= M < N, got {named}"
    )


def test_verify_clockshift_passes(invoke):
    code, out = invoke(["verify", "--engine", "clock-shift", "--dim", "16",
                        "--level", "3"])
    assert code == 0
    payload = json.loads(out)
    metrics = {m["name"]: m["value"] for m in payload["metrics"]}
    assert metrics["max_residual"] <= 1e-13


@pytest.mark.parametrize(
    "dim,level", [(cli.MAX_PAIR_DIM, 1), (262144, 131071)],
    ids=["largest", "next-to-pole"],
)
def test_verify_clockshift_passes_at_large_pairs(invoke, dim, level):
    # the largest accepted pair, and one next to the pole: every gated
    # metric is an identity of the pair, at round-off for every N
    code, out = invoke(
        ["verify", "--engine", "clock-shift", "--dim", str(dim), "--level", str(level)]
    )
    assert code == 0
    metrics = json.loads(out)["metrics"]
    assert [m["name"] for m in metrics] == [
        "max_residual", "v_unitary_defect", "eq8_residual"]
    assert all(m["value"] <= m["threshold"] for m in metrics)


def test_verify_failure_exit_code(invoke):
    # at mu = nu = 2 the truncation error at N = 16 is still 1.05e-2
    code, out = invoke(
        ["verify", "--engine", "matrix", "--dim", "16", "--interior", "4",
         "--mu", "2", "--nu", "2"]
    )
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] == "fail"
    res_fro = next(m for m in report["metrics"] if m["name"] == "res_fro")
    assert res_fro["threshold"] == 1e-8 < 1e-2 < res_fro["value"]


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------


def test_scan_matrix_csv(invoke):
    code, out = invoke(
        ["scan", "--engine", "matrix", "--mu", "0.2", "--nu", "0.2",
         "--dims", "16,32,64", "--format", "csv"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "N,M,mu,nu,res_fro"
    assert len(lines) == 4
    assert lines[1].startswith("16,8,0.2,0.2,")


def test_scan_matrix_monotone_verdict(invoke):
    code, out = invoke(
        ["scan", "--engine", "matrix", "--mu", "0.2", "--nu", "0.2",
         "--dims", "10,12,14,16"]
    )
    assert code == 0
    payload = json.loads(out)
    table = payload["table"]["rows"]
    residuals = [row[4] for row in table]
    assert all(b < a for a, b in zip(residuals, residuals[1:]))


def test_scan_empty_dims_error_golden(invoke, golden_dir):
    code, out = invoke(["scan", "--engine", "matrix", "--dims", ""])
    assert code == 2
    assert mask_timestamp(out) == (golden_dir / "error_empty_dims.json").read_text()


def test_scan_non_increasing_dims_is_error(invoke):
    code, out = invoke(["scan", "--engine", "matrix", "--dims", "8,4"])
    assert code == 2
    assert json.loads(out)["verdict"] == "error"


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("flag", ["--mu", "--nu"])
@pytest.mark.parametrize("argv", [
    ["verify", "--engine", "matrix", "--dim", "16", "--interior", "4"],
    ["scan", "--engine", "matrix", "--dims", "10,12"],
])
def test_matrix_non_finite_parameter_is_named_error(invoke, argv, flag, value):
    code, out = invoke(argv + [flag, value])
    assert code == 2
    message = json.loads(out)["parameters"]["error"]
    assert message == (
        f"ValueError: deformation parameter {flag[2:]} must be finite, got {value}"
    )


def test_verify_matrix_passes_at_envelope_edge(invoke):
    # mu = nu = 0.6 at N = 128 with the default interior N/4; each operator
    # from its own eigensolve left res_fro at 6.5e-8, above the 1e-8 gate
    code, out = invoke(
        ["verify", "--engine", "matrix", "--dim", "128", "--mu", "0.6", "--nu", "0.6"]
    )
    assert code == 0
    metrics = {m["name"]: m["value"] for m in json.loads(out)["metrics"]}
    assert metrics["res_fro"] <= 1e-10


def _res_fro_column(out):
    table = json.loads(out)["table"]
    column = table["columns"].index("res_fro")
    return [row[column] for row in table["rows"]]


@pytest.mark.parametrize("value", ["1e-315", "5e-324"])
@pytest.mark.parametrize("flag", ["--mu", "--nu"])
def test_subnormal_parameter_gives_the_undeformed_operator(invoke, flag, value):
    # sinh(mu*s)/mu at a subnormal mu divided by a value that had lost its
    # low bits: verify at N = 64 failed with res_fro 1.7e-8 at 1e-315 and
    # 4.27 at 5e-324; sinh(mu*s)/mu rounds to s there, as at mu = 0
    other = "--nu" if flag == "--mu" else "--mu"
    verify = ["verify", "--engine", "matrix", "--dim", "64", other, "0.2"]
    code, out = invoke(verify + [flag, value])
    _, undeformed = invoke(verify + [flag, "0"])
    assert code == 0
    assert json.loads(out)["metrics"] == json.loads(undeformed)["metrics"]
    scan = ["scan", "--engine", "matrix", "--dims", "16,32,64", other, "0.2"]
    code, out = invoke(scan + [flag, value])
    _, undeformed = invoke(scan + [flag, "0"])
    assert code == 0
    assert _res_fro_column(out) == _res_fro_column(undeformed)
    assert max(_res_fro_column(out)) <= 1e-12


def test_scan_matrix_from_roundoff_floor_passes(invoke):
    # every dimension is past the truncation window, so the scan is
    # round-off throughout; it must stay below the noise floor up to N = 256
    dims = (
        "15,30,40,43,53,68,75,86,92,111,113,122,133,149,160,163,172,182,"
        "200,210,221,230,241,251,256"
    )
    code, out = invoke(
        ["scan", "--engine", "matrix", "--dims", dims, "--mu", "0.1006",
         "--nu", "0.2424"]
    )
    assert code == 0
    metrics = {m["name"]: m["value"] for m in json.loads(out)["metrics"]}
    assert metrics["residual_excess"] == 0.0


def test_scan_clockshift_grid(invoke):
    code, out = invoke(["scan", "--engine", "clock-shift", "--dims", "2..16"])
    assert code == 0
    payload = json.loads(out)
    assert payload["table"]["columns"] == ["N", "k", "residual"]
    # one row per admissible (N, k) pair
    assert len(payload["table"]["rows"]) == sum(n - 1 for n in range(2, 17))


@pytest.mark.parametrize("dims,bad", [("1", 1), ("0,1", 0), ("2,1", 1)])
def test_scan_clockshift_grid_below_two_is_named_error(invoke, dims, bad):
    # a dimension below 2 has no level 1 <= k < N: the grid would be empty
    code, out = invoke(["scan", "--engine", "clock-shift", "--dims", dims])
    assert code == 2
    message = json.loads(out)["parameters"]["error"]
    assert message == f"ValueError: dimension must be >= 2, got N={bad}"


SCAN_ROUTE_CASES = {
    "matrix-window": ["--engine", "matrix", "--mu", "0.2", "--nu", "0.2",
                      "--dims", "10,12,14,16"],
    "matrix-single": ["--engine", "matrix", "--dims", "64"],
    "matrix-undeformed-range": ["--engine", "matrix", "--mu", "0", "--nu", "0",
                                "--interior", "2", "--dims", "3..20"],
    # round-off at M = 32 grows with N past the noise floor: residual_excess
    # 4.7e-11 > 0, verdict fail
    "matrix-excess": ["--engine", "matrix", "--mu", "0.8", "--nu", "0.8",
                      "--interior", "32", "--dims", "64,384"],
    "hbar-negative-alpha": ["--path", "hbar-to-0", "--alpha", "-1", "--beta", "1.5",
                            "--n", "1..40"],
    "hbar-unsorted": ["--path", "hbar-to-0", "--alpha", "0.7", "--beta", "0.3",
                      "--n", "7,0,3"],
    "hbar-single": ["--path", "hbar-to-0", "--alpha", "2.5", "--beta", "2",
                    "--n", "4"],
    "hbar-to-1e6": ["--path", "hbar-to-0", "--alpha", "-3.1", "--beta", "0.8",
                    "--n", "999000..1000000"],
    "periodicity-50k": ["--engine", "clock-shift", "--alpha", "-2.1",
                        "--n", "0..49999"],
    "periodicity-unsorted": ["--engine", "clock-shift", "--alpha", "-0.0",
                             "--n", "7,0,3"],
    "periodicity-single": ["--engine", "clock-shift", "--alpha", "1.0", "--n", "5"],
    "periodicity-to-1e6": ["--engine", "clock-shift", "--alpha", "3",
                           "--n", "999990..1000000"],
    "q-to-1": ["--path", "q-to-1"],
    "q-to-1-smallest-step": ["--path", "q-to-1", "--n", "0..1074"],
    "omega-to-0-unsorted": ["--path", "omega-to-0", "--n", "7,0,3"],
    "omega-to-0-smallest-step": ["--path", "omega-to-0", "--n", "0..1074"],
    # every pair (N, k) of the grid against a dense residual each
    "grid-2..64": ["--engine", "clock-shift", "--dims", "2..64"],
    # a..b ranges across the decimal boundaries at 100 and 10^4
    "matrix-across-100": ["--engine", "matrix", "--dims", "98..102"],
    "grid-across-100": ["--engine", "clock-shift", "--dims", "99..101"],
    "periodicity-95..105": ["--engine", "clock-shift", "--alpha", "0.5",
                            "--n", "95..105"],
    "periodicity-99..201": ["--engine", "clock-shift", "--alpha", "-0.0",
                            "--n", "99..201"],
    "periodicity-at-100": ["--engine", "clock-shift", "--alpha", "2", "--n", "100..100"],
    "periodicity-across-1e4": ["--engine", "clock-shift", "--alpha", "1e-300",
                               "--n", "9990..10110"],
    "hbar-0..99": ["--path", "hbar-to-0", "--alpha", "0.7", "--beta", "1.3",
                   "--n", "0..99"],
    "hbar-99..201": ["--path", "hbar-to-0", "--alpha", "-0.0", "--beta", "2",
                     "--n", "99..201"],
    "hbar-across-1e4": ["--path", "hbar-to-0", "--alpha", "3", "--beta", "0.5",
                        "--n", "9990..10110"],
    "q-to-1-95..105": ["--path", "q-to-1", "--n", "95..105"],
    "omega-to-0-99..201": ["--path", "omega-to-0", "--n", "99..201"],
}


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("case", SCAN_ROUTE_CASES)
def test_scan_bytes_match_per_point_route(invoke, case, fmt):
    # the report built point by point (one identity_residual per N of a
    # matrix scan), one tuple per row, and rendered cell by cell
    argv = ["scan"] + SCAN_ROUTE_CASES[case]
    expected = reference_scan(argv)
    render = {"json": reference_json, "csv": reference_csv, "text": reference_text}
    code, out = invoke(argv + ["--format", fmt])
    assert code == {"pass": 0, "fail": 1}[expected.verdict]
    assert mask_timestamp(out) == mask_timestamp(render[fmt](expected))


def test_scan_clockshift_periodicity(invoke):
    # tan(alpha/2 + pi*n) = tan(alpha/2) holds exactly, so no metric is gated
    code, out = invoke(
        ["scan", "--engine", "clock-shift", "--alpha", "1.0", "--n", "0..100"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["table"]["columns"] == ["alpha", "n"]
    assert payload["metrics"] == []


@pytest.mark.parametrize(
    "alpha,ns,named",
    [
        ("3.141592653589793", "0,1", "tan(alpha/2) pole at alpha = pi (mod 2*pi)"),
        ("-3.141592653589793", "0", "tan(alpha/2) pole at alpha = pi (mod 2*pi)"),
        ("1", "-1", "n must be >= 0"),
        ("1", "5,0,-2,7", "n must be >= 0"),
        ("1", "-3..4", "n must be >= 0"),
        ("nan", "0", "alpha must be finite, got alpha=nan"),
        ("inf", "0", "alpha must be finite, got alpha=inf"),
        ("-inf", "0", "alpha must be finite, got alpha=-inf"),
    ],
)
def test_scan_periodicity_outside_domain_is_named_error(invoke, alpha, ns, named):
    code, out = invoke(
        ["scan", "--engine", "clock-shift", f"--alpha={alpha}", f"--n={ns}"]
    )
    assert code == 2
    assert json.loads(out)["parameters"]["error"] == f"ValueError: {named}"


def test_scan_hbar_path_constant_phase(invoke):
    code, out = invoke(
        ["scan", "--path", "hbar-to-0", "--alpha", "1.0", "--beta", "1.0",
         "--n", "0..5"]
    )
    assert code == 0
    payload = json.loads(out)
    phases = {(row[4], row[5]) for row in payload["table"]["rows"]}
    assert len(phases) == 1  # exchange-phase column is constant
    assert payload["verdict"] == "pass"


@pytest.mark.parametrize(
    "alpha,beta,named",
    [
        ("7", "1.0", "alpha must lie in (-pi, pi], got alpha=7.0"),
        ("-1", "1.0", "alpha + 2*pi*n must be >= 0, got alpha=-1.0 at n=0"),
        ("nan", "1.0", "alpha must lie in (-pi, pi], got alpha=nan"),
        ("1.0", "nan", "beta must be > 0 and finite, got beta=nan"),
        ("1.0", "inf", "beta must be > 0 and finite, got beta=inf"),
    ],
)
def test_scan_hbar_path_outside_domain_is_named_error(invoke, alpha, beta, named):
    code, out = invoke(
        ["scan", "--path", "hbar-to-0", "--alpha", alpha, "--beta", beta,
         "--n", "0..5"]
    )
    assert code == 2
    assert json.loads(out)["parameters"]["error"] == f"ValueError: {named}"


def test_scan_hbar_path_negative_alpha_with_positive_theta_passes(invoke):
    code, out = invoke(
        ["scan", "--path", "hbar-to-0", "--alpha", "-1", "--beta", "1.0",
         "--n", "1..3"]
    )
    assert code == 0
    rows = json.loads(out)["table"]["rows"]
    assert [row[0] for row in rows] == [1, 2, 3]
    assert {row[3] for row in rows} == {-1.0}


def test_scan_q_path(invoke):
    code, out = invoke(["scan", "--path", "q-to-1", "--n", "0..8"])
    assert code == 0
    payload = json.loads(out)
    q_values = [row[4] for row in payload["table"]["rows"]]
    assert q_values == sorted(q_values, reverse=True)
    assert abs(q_values[-1] - 1.0) <= 1e-3


def test_scan_omega_path(invoke):
    code, out = invoke(["scan", "--path", "omega-to-0"])
    assert code == 0
    payload = json.loads(out)
    mus = {row[2] for row in payload["table"]["rows"]}
    assert mus == {1.0}  # mu held fixed along the path
    assert payload["table"]["rows"][-1][4] <= 1e-3  # omega_ratio at t = 2^-10


@pytest.mark.parametrize("path", ["q-to-1", "omega-to-0"])
@pytest.mark.parametrize("steps,bad", [("-3", -3), ("0..2000", 1075), ("1075", 1075)])
def test_scan_contraction_step_out_of_range_is_named_error(invoke, path, steps, bad):
    # t = 2^-step: a negative step leaves (0, 1], and 2^-1075 rounds to 0
    code, out = invoke(["scan", "--path", path, "--n", steps])
    assert code == 2
    message = json.loads(out)["parameters"]["error"]
    assert message.startswith("ValueError: --n steps must lie in 0..1074")
    assert message.endswith(f"got {bad}")


@pytest.mark.parametrize("path", ["q-to-1", "omega-to-0"])
def test_scan_contraction_to_smallest_step_passes(invoke, path):
    code, out = invoke(["scan", "--path", path, "--n", "0..1074"])
    assert code == 0
    assert json.loads(out)["table"]["rows"][-1][1] == 5e-324


@pytest.mark.parametrize(
    "lines,path,fmt,named",
    [
        # a bare ZeroDivisionError before
        ("params.mu0 = 0", "omega-to-0", "json",
         "params.mu0 must be > 0 on omega-to-0 (omega_ratio = nu / mu0), got 0.0"),
        # a table of nan or inf with exit 1 before
        ("params.mu0 = nan", "q-to-1", "csv",
         "params.mu0 must be finite and >= 0, got nan"),
        ("params.nu0 = inf", "q-to-1", "csv",
         "params.nu0 must be finite and >= 0, got inf"),
        ("params.nu0 = inf", "omega-to-0", "json",
         "params.nu0 must be finite and >= 0, got inf"),
        # computed on with mu = -1 before
        ("params.mu0 = -1", "q-to-1", "json",
         "params.mu0 must be finite and >= 0, got -1.0"),
        ("params.mu0 = 1e300\nparams.nu0 = 1e300", "q-to-1", "json",
         "path cell q overflows at step = 0 (params.mu0=1e+300, params.nu0=1e+300)"),
        ("params.mu0 = 1e-300\nparams.nu0 = 1e300", "omega-to-0", "csv",
         "path cell omega_ratio overflows at step = 0 "
         "(params.mu0=1e-300, params.nu0=1e+300)"),
    ],
)
def test_path_config_outside_domain_is_named_error(
    invoke, tmp_path, lines, path, fmt, named
):
    cfg = tmp_path / "path.cfg"
    cfg.write_text(lines + "\n")
    code, out = invoke(["scan", "--path", path, "--format", fmt, "--config", str(cfg)])
    assert code == 2
    assert json.loads(out)["parameters"]["error"] == f"ValueError: {named}"


@pytest.mark.parametrize(
    "path,line,named",
    [
        # each exited 2 on a key that the path does not read
        ("q-to-1", "params.alpha = banana", None),
        ("omega-to-0", "params.beta = x", None),
        # each exited 2 on hbar-to-0, which is walked in n and reads neither
        ("hbar-to-0", "params.mu0 = -1", None),
        ("hbar-to-0", "params.nu0 = inf", None),
        # the path that reads them still refuses them
        ("hbar-to-0", "params.alpha = banana",
         "ConfigError: bad config value for params.alpha"),
        ("hbar-to-0", "params.beta = x",
         "ConfigError: bad config value for params.beta"),
    ],
)
def test_path_scan_reads_only_its_own_config_keys(invoke, tmp_path, path, line, named):
    cfg = tmp_path / "path.cfg"
    cfg.write_text(line + "\n")
    code, out = invoke(["scan", "--path", path, "--config", str(cfg)])
    if named is None:
        assert code == 0
        _, default = invoke(["scan", "--path", path])
        assert mask_timestamp(out) == mask_timestamp(default)
    else:
        assert code == 2
        assert json.loads(out)["parameters"]["error"] == named


@pytest.mark.parametrize(
    "beta,ns,named",
    [
        # nu = inf with verdict pass and exit 0 before
        ("1e306", "999999..1000000", "nu overflows at n = 999999"),
        ("1e-306", "0,1000000", "mu overflows at n = 1000000"),
    ],
)
def test_scan_hbar_path_overflow_is_named_error(invoke, beta, ns, named):
    code, out = invoke(
        ["scan", "--path", "hbar-to-0", "--alpha", "1", "--beta", beta, "--n", ns,
         "--format", "csv"]
    )
    assert code == 2
    assert json.loads(out)["parameters"]["error"] == (
        f"ValueError: path cell {named} (alpha=1.0, beta={float(beta)})"
    )


def test_scan_requires_engine_xor_path(invoke):
    code, _ = invoke(["scan", "--dims", "16,32"])
    assert code == 2
    code, _ = invoke(
        ["scan", "--engine", "matrix", "--path", "q-to-1", "--dims", "16,32"]
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv, named",
    [
        (["scan", "--dims", "16,32"], ("--engine", "--path")),
        (
            ["scan", "--engine", "matrix", "--path", "q-to-1", "--dims", "16,32"],
            ("--engine", "--path"),
        ),
        (["scan", "--engine", "clock-shift"], ("--alpha", "--dims")),
        (
            ["scan", "--engine", "clock-shift", "--alpha", "1.0", "--dims", "4"],
            ("--alpha", "--dims"),
        ),
    ],
    ids=["no-selector", "engine-and-path", "no-clock-shift-mode", "alpha-and-dims"],
)
def test_scan_selector_errors_name_both_flags(invoke, argv, named):
    code, out = invoke(argv)
    assert code == 2
    error = json.loads(out)["parameters"]["error"]
    assert error.startswith("ValueError: ")
    for flag in named:
        assert flag in error


# one passing argv per row of cli.ROUTES with the flags that row
# reads, stated here independently of the table; expand takes no flag
# that it does not read, so the grammar itself refuses the rest
ROW_ARGVS = {
    "verify --engine symbolic": (["verify", "--engine", "symbolic"], ("degree",)),
    "verify --engine matrix": (
        ["verify", "--engine", "matrix", "--dim", "8", "--interior", "2"],
        ("dim", "interior", "mu", "nu"),
    ),
    "verify --engine clock-shift": (
        ["verify", "--engine", "clock-shift", "--dim", "4"], ("dim", "level")
    ),
    "scan --engine matrix": (
        ["scan", "--engine", "matrix", "--dims", "8,10", "--interior", "2"],
        ("dims", "mu", "nu", "interior"),
    ),
    "scan --engine clock-shift --alpha": (
        ["scan", "--engine", "clock-shift", "--alpha", "1"], ("alpha", "n")
    ),
    "scan --engine clock-shift --dims": (
        ["scan", "--engine", "clock-shift", "--dims", "2..4"], ("dims",)
    ),
    "scan --path hbar-to-0": (["scan", "--path", "hbar-to-0"], ("alpha", "beta", "n")),
    "scan --path q-to-1": (["scan", "--path", "q-to-1"], ("n",)),
    "scan --path omega-to-0": (["scan", "--path", "omega-to-0"], ("n",)),
}
# a value each flag accepts, in range for every row that reads it
FLAG_VALUES = {
    "degree": "2", "dim": "8", "interior": "2", "mu": "0.3", "nu": "0.3",
    "level": "1", "dims": "2..4", "alpha": "1", "beta": "1", "n": "0..10",
}
VERIFY_FLAGS = ("degree", "dim", "interior", "mu", "nu", "level")
SCAN_FLAGS = ("dims", "mu", "nu", "interior", "alpha", "beta", "n")
UNREAD_CASES = [
    (row, flag)
    for row, (argv, reads) in ROW_ARGVS.items()
    for flag in (VERIFY_FLAGS if argv[0] == "verify" else SCAN_FLAGS)
    if flag not in reads
]


@pytest.mark.parametrize("row", ROW_ARGVS)
def test_each_row_passes_with_every_flag_it_reads(invoke, row):
    argv, reads = ROW_ARGVS[row]
    extra = [a for flag in reads if f"--{flag}" not in argv
             for a in (f"--{flag}", FLAG_VALUES[flag])]
    code, _ = invoke(argv + extra)
    assert code == 0


@pytest.mark.parametrize(
    "row,flag", UNREAD_CASES, ids=[f"{r} --{f}" for r, f in UNREAD_CASES]
)
def test_a_flag_the_row_does_not_read_is_refused(invoke, row, flag):
    argv, _ = ROW_ARGVS[row]
    code, out = invoke(argv + [f"--{flag}", FLAG_VALUES[flag]])
    assert code == 2
    if flag == "dims" and row.endswith("--alpha"):
        # --dims selects the grid, which in turn does not read --alpha
        row, flag = "scan --engine clock-shift --dims", "alpha"
    assert json.loads(out)["parameters"]["error"] == (
        f"ValueError: --{flag} does not apply to {row}"
    )


def test_flag_table_has_one_row_per_command_route():
    assert set(cli.ROUTES) == set(ROW_ARGVS) | {"expand"}


# an argv of each table row of cli.ROUTES, with --dims and --n given both
# as a list and as a..b where the row reads them
_MATRIX_DIMS = ["scan", "--engine", "matrix", "--interior", "2", "--dims"]
_PERIODICITY_N = ["scan", "--engine", "clock-shift", "--alpha", "1", "--n"]
TABLE_ARGVS = {
    "matrix-dims-list": _MATRIX_DIMS + ["8,10"],
    "matrix-dims-range": _MATRIX_DIMS + ["8..10"],
    "grid": ["scan", "--engine", "clock-shift", "--dims", "2..5"],
    "periodicity-n-list": _PERIODICITY_N + ["3,0,7"],
    "periodicity-n-range": _PERIODICITY_N + ["95..105"],
    "hbar-to-0": ["scan", "--path", "hbar-to-0"],
    "q-to-1": ["scan", "--path", "q-to-1"],
    "omega-to-0": ["scan", "--path", "omega-to-0"],
}


def _column_shape(cells):
    """The shape of a table column that report.Table renders, or None."""
    if isinstance(cells, range):
        return "range" if cells.step == 1 and cells.start >= 0 else None
    if isinstance(cells, list):
        kinds = set(map(type, cells))
        return "list" if len(kinds) == 1 and kinds <= {int, float} else None
    return "repeated" if type(cells) in (int, float) else None


@pytest.mark.parametrize("case", TABLE_ARGVS)
def test_table_rows_hold_ints_or_floats_one_type_per_column(case):
    args = cli.parse_args(TABLE_ARGVS[case])
    _, handler = cli.ROUTES[cli._row(args)]
    table = handler(args, dict(DEFAULTS)).table
    shapes = {name: _column_shape(c) for name, c in zip(table.columns, table.cells)}
    assert table.count and None not in shapes.values(), shapes
    if case.endswith("-range"):
        assert "range" in shapes.values()


def test_table_argvs_cover_every_table_row():
    rows = {cli._row(cli.parse_args(argv)) for argv in TABLE_ARGVS.values()}
    assert rows == {row for row in cli.ROUTES if row.startswith("scan")}


# ---------------------------------------------------------------------------
# every gated metric can fail
# ---------------------------------------------------------------------------

# For each gated (cli.ROUTES row, metric) pair that the CLI emits, one
# witness that the gate can fail: an accepted argv under which the metric
# FAILs, or a mutant in tests/mutants.py under which a passing argv makes
# it FAIL.  No witness takes a config file, so each is judged by the
# default thresholds.  A gate without a witness fails the first test below.

INPUT_WITNESSES = {
    # truncation at N = 16 is still large once mu = nu = 1.25: 2.4e-2
    ("verify --engine matrix", "res_fro"): [
        "verify", "--engine", "matrix", "--dim", "16", "--interior", "8",
        "--mu", "1.25", "--nu", "1.25"],
    ("scan --engine matrix", "residual_at_largest_dim"): [  # 1.3e-8
        "scan", "--engine", "matrix", "--dims", "8,16", "--interior", "4",
        "--mu", "1.25", "--nu", "1.25"],
    ("scan --engine matrix", "residual_excess"):  # 4.7e-11
        ["scan"] + SCAN_ROUTE_CASES["matrix-excess"],
}
# the exact identities hold at every input, so only a mutant fails them
SYMBOLIC = ["verify", "--engine", "symbolic", "--degree", "4"]
PAIR = ["verify", "--engine", "clock-shift", "--dim", "16", "--level", "3"]
MUTANT_WITNESSES = {
    ("verify --engine symbolic", "residual_terms"):
        ("prefactor recurrence adds the inner sum", SYMBOLIC),
    ("verify --engine symbolic", "exchange_residual_terms"):
        ("exchange residual adds the phased product instead of subtracting it",
         SYMBOLIC),
    ("verify --engine symbolic", "sqrt_cosh_mismatch_terms"):
        ("square-root check squares against 1 - mu^2 P^2", SYMBOLIC),
    ("verify --engine symbolic", "expansion_low_degree_terms"):
        ("q-oscillator target divides its quadratic terms by 3, not 2", SYMBOLIC),
    ("verify --engine clock-shift", "max_residual"):
        ("clock-shift pair phases built at the pole level N/2", PAIR),
    ("verify --engine clock-shift", "v_unitary_defect"):
        ("V V^dag read as re*re - im*im", PAIR),
    ("verify --engine clock-shift", "eq8_residual"):
        ("eq. 8 residual takes q-bar for q", PAIR),
    ("scan --engine clock-shift --dims", "max_residual"):
        ("q-plane check shifts the clock phases the wrong way",
         ["scan", "--engine", "clock-shift", "--dims", "2..8"]),
}


def _gated(row, out):
    """The gated (row, metric) pairs of a JSON report."""
    metrics = json.loads(out)["metrics"]
    return {(row, m["name"]) for m in metrics if m["threshold"] is not None}


def _failed(out, name):
    metric = next(m for m in json.loads(out)["metrics"] if m["name"] == name)
    return metric["value"] > metric["threshold"]


def _witness_row(argv, row):
    assert cli._row(cli.parse_args(argv)) == row
    assert not any(arg.startswith("--config") for arg in argv)


def test_every_gated_metric_has_one_witness(invoke):
    gated = set()
    for row, (argv, _) in ROW_ARGVS.items():
        code, out = invoke(argv)
        assert code == 0
        gated |= _gated(row, out)
    assert not set(INPUT_WITNESSES) & set(MUTANT_WITNESSES)
    assert set(INPUT_WITNESSES) | set(MUTANT_WITNESSES) == gated


@pytest.mark.parametrize("row,metric", INPUT_WITNESSES)
def test_input_witness_fails_its_metric(invoke, row, metric):
    argv = INPUT_WITNESSES[row, metric]
    _witness_row(argv, row)
    code, out = invoke(argv)
    assert code == 1
    assert _failed(out, metric)
    assert _gated(row, out) <= set(INPUT_WITNESSES) | set(MUTANT_WITNESSES)


@pytest.mark.parametrize("row,metric", MUTANT_WITNESSES)
def test_mutant_witness_fails_its_metric(invoke, tmp_path, row, metric):
    name, argv = MUTANT_WITNESSES[row, metric]
    _witness_row(argv, row)
    code, out = invoke(argv)
    assert code == 0 and not _failed(out, metric)
    (mutant,) = [m for m in MUTANTS if m.name == name]
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(ROOT / "src" / "qdeform", tmp_path / "qdeform", ignore=ignore)
    target = tmp_path / Path(mutant.path).relative_to("src")
    source = target.read_text(encoding="utf-8")
    assert source.count(mutant.old) == 1
    target.write_text(source.replace(mutant.old, mutant.new), encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "qdeform.cli", *argv],
        env=dict(os.environ, PYTHONPATH=str(tmp_path)),
        capture_output=True,
        text=True,
    )
    assert result.returncode == 1
    assert _failed(result.stdout, metric)


# Every gate value, stated here rather than read from qdeform.cli: a witness
# above shows that its gate can fail, not that the gate sits where it did.
GATE_VALUES = {
    ("verify --engine symbolic", "residual_terms"): 0,
    ("verify --engine symbolic", "exchange_residual_terms"): 0,
    ("verify --engine symbolic", "sqrt_cosh_mismatch_terms"): 0,
    ("verify --engine symbolic", "expansion_low_degree_terms"): 0,
    ("verify --engine matrix", "res_fro"): 1e-8,
    ("verify --engine clock-shift", "max_residual"): 1e-12,
    ("verify --engine clock-shift", "v_unitary_defect"): 1e-13,
    ("verify --engine clock-shift", "eq8_residual"): 1e-12,
    ("scan --engine matrix", "residual_at_largest_dim"): 1e-8,
    ("scan --engine matrix", "residual_excess"): 0.0,
    ("scan --engine clock-shift --dims", "max_residual"): 1e-12,
}


def test_every_gate_sits_at_its_stated_value(invoke):
    thresholds = {}
    for row, (argv, _) in ROW_ARGVS.items():
        code, out = invoke(argv)
        assert code == 0
        for metric in json.loads(out)["metrics"]:
            if metric["threshold"] is not None:
                thresholds[row, metric["name"]] = metric["threshold"]
    assert thresholds == GATE_VALUES


# each route the grammar allows, from its own choices: every verify engine,
# scan path and scan engine (a clock-shift scan by either selector) and
# every expand target
SCAN_SELECTORS = {"clock-shift": (["--alpha", "1"], ["--dims", "2"])}
GRAMMAR_ROUTES = (
    [["verify", "--engine", engine] for engine in cli.GRAMMAR["verify"]["engine"]]
    + [["scan", "--path", path] for path in cli.GRAMMAR["scan"]["path"]]
    + [
        ["scan", "--engine", engine, *selector]
        for engine in cli.GRAMMAR["scan"]["engine"]
        for selector in SCAN_SELECTORS.get(engine, ([],))
    ]
    + [["expand", "--target", target] for target in cli.GRAMMAR["expand"]["target"]]
)
# the flags every row takes as the grammar allows, and those that choose it
ROUTING_FLAGS = {"config", "out", "format", "engine", "path", "target"}


def test_each_grammar_route_reaches_a_row_and_every_row_is_reached():
    rows = {" ".join(argv): cli._row(cli.parse_args(argv)) for argv in GRAMMAR_ROUTES}
    assert {argv: row for argv, row in rows.items() if row not in cli.ROUTES} == {}
    assert set(rows.values()) == set(cli.ROUTES)


def test_every_grammar_flag_is_read_by_a_row_of_its_command():
    flags = [
        (command, flag)
        for command, grammar in cli.GRAMMAR.items()
        for flag in grammar
        if flag not in ROUTING_FLAGS
    ]
    read = {
        (row.split()[0], flag) for row, (reads, _) in cli.ROUTES.items()
        for flag in reads
    }
    assert flags and [pair for pair in flags if pair not in read] == []


def test_grammar_gives_each_command_its_routing_flags():
    routing = {name: set(flags) & ROUTING_FLAGS for name, flags in cli.GRAMMAR.items()}
    assert routing == {
        "verify": {"config", "out", "format", "engine"},
        "scan": {"config", "out", "format", "engine", "path"},
        "expand": {"config", "out", "target"},
    }
    assert tuple(cli.GRAMMAR["expand"]["target"]) == cli.EXPAND_TARGETS


def _run_fresh(argvs, names):
    """Run cli.main on each argv in turn in a fresh interpreter; its exit
    codes and which of the modules ``names`` it has loaded by then.  The
    probe imports json only after it has listed them."""
    src = Path(__file__).resolve().parent.parent / "src"
    probe = (
        "import contextlib, io, sys\n"
        "import qdeform.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [cli.main(argv) for argv in {list(argvs)!r}]\n"
        f"loaded = [m for m in {list(names)!r} if m in sys.modules]\n"
        "import json\n"
        "print(json.dumps([codes, loaded]))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(result.stdout)


def test_cli_import_loads_no_engine_numpy_or_dataclasses():
    names = ("numpy", "qdeform.weyl", "qdeform.rational", "dataclasses", "argparse",
             "json")
    assert _run_fresh([], names) == [[], []]


def test_non_symbolic_rows_never_load_the_symbolic_engine():
    # ROW_ARGVS has every row but expand (see the route table test above)
    argvs = [argv for row, (argv, _) in ROW_ARGVS.items() if row != "verify --engine symbolic"]
    codes, loaded = _run_fresh(argvs, ("qdeform.weyl", "qdeform.rational"))
    assert codes == [0] * len(argvs)
    assert loaded == []


def test_matrix_rows_never_load_dataclasses():
    # identity_residual returns one float, so matrixrep needs no record type
    argvs = [ROW_ARGVS[row][0] for row in ("verify --engine matrix", "scan --engine matrix")]
    assert _run_fresh(argvs, ("dataclasses",)) == [[0, 0], []]


def test_contraction_paths_never_load_numpy():
    # their cells are plain floats, and math.isfinite finds an overflowed one
    argvs = [["scan", "--path", "q-to-1"], ["scan", "--path", "omega-to-0"]]
    assert _run_fresh(argvs, ("numpy",)) == [[0, 0], []]


def test_periodicity_scan_never_loads_numpy():
    # its cells are alpha and n, and params holds the pole tolerance
    argvs = [["scan", "--engine", "clock-shift", "--alpha", "1", "--n", "0..100"]]
    assert _run_fresh(argvs, ("numpy", "qdeform.clockshift")) == [[0], []]


def test_symbolic_verify_and_expand_never_load_numpy():
    # nor dataclasses or datetime: they run on integers and the report alone
    argvs = [["verify", "--engine", "symbolic", "--degree", "4"]] + [
        ["expand", "--target", target, "--degree", "4"] for target in cli.EXPAND_TARGETS
    ]
    codes, loaded = _run_fresh(argvs, ("numpy", "dataclasses", "datetime"))
    assert codes == [0] * len(argvs)
    assert loaded == []


def test_symbolic_rows_construct_no_fraction(invoke, monkeypatch):
    # text, prefactor series and q-oscillator target run on integer triples
    argvs = [["verify", "--engine", "symbolic", "--degree", "12"]] + [
        ["expand", "--target", target, "--degree", "16"]
        for target in cli.EXPAND_TARGETS
    ]
    before = [invoke(argv) for argv in argvs]

    def refuse(*args, **kwargs):
        raise AssertionError("a symbolic row constructed a Fraction")

    monkeypatch.setattr(fractions.Fraction, "__new__", refuse)
    after = [invoke(argv) for argv in argvs]
    assert [code for code, _ in after] == [0] * len(argvs)
    assert [mask_timestamp(out) for _, out in after] == [
        mask_timestamp(out) for _, out in before
    ]


def test_csv_without_table_is_error(invoke):
    code, out = invoke(
        ["verify", "--engine", "symbolic", "--degree", "4", "--format", "csv"]
    )
    assert code == 2
    assert json.loads(out)["verdict"] == "error"


# ---------------------------------------------------------------------------
# formats, files, config
# ---------------------------------------------------------------------------


def test_text_format(invoke):
    code, out = invoke(
        ["verify", "--engine", "symbolic", "--degree", "4", "--format", "text"]
    )
    assert code == 0
    assert "verdict: pass" in out
    assert "metric residual_terms = 0 (threshold 0) PASS" in out


def test_out_file_matches_stdout(invoke, tmp_path):
    target = tmp_path / "report.json"
    code, out = invoke(
        ["verify", "--engine", "symbolic", "--degree", "4", "--out", str(target)]
    )
    assert code == 0
    assert target.read_text() == out


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--engine", "symbolic", "--degree", "2"],
        ["expand", "--target", "P", "--degree", "2"],
    ],
    ids=["verify", "expand"],
)
def test_unwritable_out_path_is_error_with_one_report_at_most(argv, tmp_path):
    target = tmp_path / "missing" / "r.json"
    code, out, err = _run_cli(argv + ["--out", str(target)])
    assert code == 2
    # no pass report or expansion; an error report, if any, is the only text
    if out:
        assert json.loads(out)["verdict"] == "error"
    assert str(target) in out + err
    assert not target.exists()


@pytest.mark.parametrize(
    "argv,named",
    [
        (["verify", "--engine", "symbolic", "--degree", "99"],
         "--degree must lie in 0..64, got 99"),
        (["scan", "--dims", "16,32"], "scan needs exactly one of --engine or --path"),
        (["expand", "--target", "P", "--degree", "99"],
         "--degree must lie in 0..64, got 99"),
    ],
    ids=["verify", "scan", "expand"],
)
def test_input_error_and_unwritable_out_path_are_both_named(argv, named, tmp_path):
    target = tmp_path / "missing" / "r.json"
    code, out, err = _run_cli(argv + ["--out", str(target)])
    assert (code, out) == (2, "")
    assert named in err
    assert str(target) in err
    assert not target.exists()


def test_config_defaults_and_overrides(invoke, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\nsymbolic.degree = 4  # inline comment\n")
    code, out = invoke(["verify", "--engine", "symbolic", "--config", str(cfg)])
    assert code == 0
    assert json.loads(out)["parameters"]["degree"] == 4
    # flags override config
    code, out = invoke(
        ["verify", "--engine", "symbolic", "--degree", "6", "--config", str(cfg)]
    )
    assert json.loads(out)["parameters"]["degree"] == 6


def test_config_env_fallback(invoke, tmp_path, monkeypatch):
    cfg = tmp_path / "env.cfg"
    cfg.write_text("symbolic.degree = 2\n")
    monkeypatch.setenv("QDEFORM_CONFIG", str(cfg))
    code, out = invoke(["verify", "--engine", "symbolic"])
    assert code == 0
    assert json.loads(out)["parameters"]["degree"] == 2


def test_missing_config_file_is_error(invoke, tmp_path):
    code, out = invoke(
        ["verify", "--engine", "symbolic", "--config", str(tmp_path / "absent.cfg")]
    )
    assert code == 2


def test_config_file_not_utf8_is_named_error(invoke, tmp_path):
    path = tmp_path / "utf16.cfg"
    path.write_bytes(b"\xff\xfes\x00y\x00")
    code, out = invoke(["verify", "--engine", "symbolic", "--config", str(path)])
    assert code == 2
    assert json.loads(out)["parameters"]["error"] == (
        f"ConfigError: cannot read config file {path}: 'utf-8' codec can't "
        "decode byte 0xff in position 0: invalid start byte"
    )


@pytest.mark.parametrize(
    "line,named",
    [
        ("matrix.residual_treshold = 1e-30",
         "ConfigError: unknown config key matrix.residual_treshold"),
        ("params.hbar = banana J.s",
         "ConfigError: bad config value for params.hbar: "
         "cannot parse quantity: 'banana J.s'"),
        ("params.hbar = 1.05e-34 kg",
         "ConfigError: bad config value for params.hbar: "
         "expected unit 'J.s', got 'kg'"),
        ("params.mu = 0.5 J.s",
         "ConfigError: bad config value for params.mu: "
         "unexpected unit tag 'J.s' on dimensionless value"),
    ],
)
def test_bad_config_key_or_quantity_is_named_error(invoke, tmp_path, line, named):
    # both first lines passed with exit 0 before
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"symbolic.degree = 2\n{line}\n")
    code, out = invoke(["verify", "--engine", "symbolic", "--config", str(cfg)])
    assert code == 2
    assert json.loads(out)["parameters"]["error"].startswith(named)


def test_readme_example_config_loads(invoke, tmp_path):
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    example = readme.split("# example config\n", 1)[1].split("```", 1)[0]
    cfg = tmp_path / "example.cfg"
    cfg.write_text(example)
    assert "params.hbar = 1.054571817e-34 J.s" in example
    code, out = invoke(
        ["verify", "--engine", "symbolic", "--degree", "4", "--config", str(cfg)]
    )
    assert code == 0
    assert load_config(str(cfg))["params.hbar"] == "1.054571817e-34 J.s"


@pytest.mark.parametrize(
    "line",
    [
        # a guard of 500 let sinh^2 overflow first: verify at N = 64 with
        # mu = 40 exited 2 with a LinAlgError that named no input
        "matrix.overflow_guard = 500",
        "matrix.sqrt_cosh_threshold = 1",
        "clockshift.periodicity_threshold = 1",
        "params.phase_threshold = 1",
        "params.endpoint_tol = 1",
        # gate values are constants: a file could loosen a verdict with these
        "matrix.residual_threshold = 1",
        "matrix.noise_floor = 1",
        "clockshift.residual_threshold = 1",
        "clockshift.unitary_threshold = 1",
        "clockshift.power_threshold = 1",
    ],
)
def test_removed_config_key_is_unknown(invoke, tmp_path, line):
    cfg = tmp_path / "removed.cfg"
    cfg.write_text(line + "\n")
    code, out = invoke(
        ["verify", "--engine", "matrix", "--dim", "64", "--mu", "40", "--nu", "0.001",
         "--config", str(cfg)]
    )
    assert code == 2
    key = line.split(" = ")[0]
    assert json.loads(out)["parameters"]["error"] == (
        f"ConfigError: unknown config key {key} in {cfg}"
    )


@pytest.mark.parametrize(
    "argv",
    [["verify", "--engine", "matrix", "--dim", "64"],
     ["scan", "--engine", "matrix", "--dims", "16,32,64"]],
    ids=["verify", "scan"],
)
@pytest.mark.parametrize("name,other", [("mu", "nu"), ("nu", "mu")])
def test_overflow_guard_names_the_parameter_its_value_and_n(invoke, argv, name, other):
    # 3 * sqrt(2 * 64) = 33.9 is past the guard of 25, and 3 * sqrt(2 * 32)
    # = 24 is inside it; the message read "parameter * sqrt(2N) exceeds 25.0"
    code, out = invoke(argv + [f"--{name}", "3", f"--{other}", "0.1"])
    assert code == 2
    assert json.loads(out)["parameters"]["error"] == (
        f"ValueError: overflow guard: {name} * sqrt(2N) exceeds 25.0 "
        f"at {name}=3.0, N=64"
    )


def test_json_report_refuses_non_finite_values():
    report = VerificationReport.build(
        "matrix", "verify", {}, [Metric("res_fro", float("nan"), 1e-8)]
    )
    with pytest.raises(ValueError):
        report.to_json()


def test_config_parsing():
    merged = parse_config_text("a.b = 1\n# note\nc = x y\n")
    assert merged == {"a.b": "1", "c": "x y"}
    with pytest.raises(ValueError, match="expected"):
        parse_config_text("not a pair\n")
    with pytest.raises(ConfigError, match="line 4: key a.b already set on line 1"):
        parse_config_text("a.b = 1\n# note\nc = x\na.b = 1\n")
    assert load_config(None) == DEFAULTS


def test_repeated_config_key_is_named_error(invoke, tmp_path):
    # the second setting won and the first did nothing: mu = 0.3, exit 0
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("matrix.mu = 0.2\nmatrix.dim = 32\nmatrix.mu = 0.3\n")
    code, out = invoke(["verify", "--engine", "matrix", "--config", str(cfg)])
    assert code == 2
    assert json.loads(out)["parameters"]["error"] == (
        "ConfigError: config line 3: key matrix.mu already set on line 1"
    )


def test_unknown_flag_is_usage_error(invoke):
    code, _ = invoke(["verify", "--engine", "symbolic", "--frequency", "3"])
    assert code == 2


def test_expand_negative_degree_is_symbolic_error(invoke):
    code, out = invoke(["expand", "--target", "P", "--degree", "-1"])
    assert code == 2
    payload = json.loads(out)
    assert payload["engine"] == "symbolic"
    assert payload["verdict"] == "error"


@pytest.mark.parametrize(
    "argv,lines,named",
    [
        # the cases just past the bound come first: without the bound they
        # finish (and fail the test) where the others would run on
        (["expand", "--target", "eq8-rhs", "--degree", "65"], "",
         "--degree must lie in 0..64, got 65"),
        (["verify", "--engine", "symbolic"], "symbolic.degree = 65",
         "symbolic.degree must lie in 0..64, got 65"),
        # ran without limit before
        (["verify", "--engine", "symbolic", "--degree", "100000000"], "",
         "--degree must lie in 0..64, got 100000000"),
        (["expand", "--target", "P"], "symbolic.degree = 100000000",
         "symbolic.degree must lie in 0..64, got 100000000"),
    ],
)
def test_degree_beyond_bound_is_named_error(invoke, tmp_path, argv, lines, named):
    cfg = tmp_path / "degree.cfg"
    cfg.write_text(lines + "\n")
    code, out = invoke(argv + ["--config", str(cfg)])
    assert code == 2
    payload = json.loads(out)
    assert payload["engine"] == "symbolic"
    assert payload["parameters"]["error"] == f"ValueError: {named}"


def test_degree_at_bound_runs(invoke):
    code, out = invoke(["expand", "--target", "P", "--degree", "64"])
    assert code == 0
    assert out == expand_text("P", 64) + "\n"


BIG_N = "1" + "0" * 400


@pytest.mark.parametrize(
    "argv,n",
    [
        # OverflowError naming neither --n nor the value before
        (["scan", "--path", "hbar-to-0", "--alpha", "1", "--beta", "1"], BIG_N),
        # a table for this n and exit 0 before
        (["scan", "--engine", "clock-shift", "--alpha", "1"], BIG_N),
        (["scan", "--path", "hbar-to-0"], f"0,{2**62 + 1}"),
        # a comma list's largest n may come first
        (["scan", "--engine", "clock-shift", "--alpha", "1"], f"{2**62 + 1},0"),
        (["scan", "--engine", "clock-shift", "--alpha", "1"], f"{2**62 + 1}"),
    ],
)
def test_n_beyond_bound_is_named_error(invoke, argv, n):
    code, out = invoke(argv + ["--n", n, "--format", "csv"])
    assert code == 2
    largest = max(int(value) for value in n.split(","))
    assert json.loads(out)["parameters"]["error"] == (
        f"ValueError: --n must be at most 2^62 = {2**62}, got {largest}"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--path", "hbar-to-0", "--alpha", "1", "--beta", "1"],
        ["scan", "--engine", "clock-shift", "--alpha", "1"],
    ],
)
def test_n_at_bound_runs(invoke, argv):
    code, out = invoke(argv + ["--n", f"0,{2**62}"])
    assert code == 0
    table = json.loads(out)["table"]
    assert [row[table["columns"].index("n")] for row in table["rows"]] == [0, 2**62]


# 2^18 (N, k) pairs: 256 grids of N = 1024 and one of N = 257; the leading
# N = 1 is refused by the engine before any grid is built
GRID_AT_BOUND = "1," + "1024," * 256 + "257"


@pytest.mark.parametrize(
    "argv,lines,named",
    [
        # one past each bound; without the bound each of these runs (and
        # fails the test) in about a second at most
        (["scan", "--engine", "clock-shift", "--alpha", "1", "--n", "0..262144"], "",
         "--n length must be at most 262144, got 262145"),
        (["scan", "--engine", "clock-shift", "--alpha", "1",
          "--n", "0," * 262144 + "0"], "",
         "--n length must be at most 262144, got 262145"),
        (["scan", "--engine", "matrix", "--dims", "3..262147"], "",
         "--dims length must be at most 262144, got 262145"),
        (["verify", "--engine", "matrix", "--dim", "2049"], "",
         "--dim must be at most 2048, got 2049"),
        (["verify", "--engine", "matrix"], "matrix.dim = 2049",
         "matrix.dim must be at most 2048, got 2049"),
        (["scan", "--engine", "matrix", "--dims", "16,2049"], "",
         "--dims must be at most 2048, got 2049"),
        (["verify", "--engine", "clock-shift", "--dim", "1048577"], "",
         "--dim must be at most 1048576, got 1048577"),
        (["scan", "--engine", "clock-shift", "--dims", "2,1025"], "",
         "--dims must be at most 1024, got 1025"),
        (["scan", "--engine", "clock-shift", "--dims", GRID_AT_BOUND + ",2"], "",
         "--dims pair count must be at most 262144, got 262145"),
        # far past: these would need terabytes or hours
        (["scan", "--path", "hbar-to-0", "--n", "0..1000000000000"], "",
         "--n length must be at most 262144, got 1000000000001"),
        (["scan", "--path", "q-to-1", "--n", "0..1000000000000"], "",
         "--n length must be at most 262144, got 1000000000001"),
        (["verify", "--engine", "clock-shift", "--dim", "1000000000"], "",
         "--dim must be at most 1048576, got 1000000000"),
        # not integers: int()'s error named neither the flag nor the list before
        (["scan", "--engine", "clock-shift", "--alpha", "1", "--n", "0..x"], "",
         "--n takes integers: invalid literal for int() with base 10: 'x'"),
        (["scan", "--engine", "matrix", "--dims", "10,abc"], "",
         "--dims takes integers: invalid literal for int() with base 10: 'abc'"),
        (["scan", "--path", "q-to-1", "--n", "1e3"], "",
         "--n takes integers: invalid literal for int() with base 10: '1e3'"),
        # past int()'s 4300 digits: its own error pointed at
        # sys.set_int_max_str_digits()
        (["scan", "--path", "q-to-1", "--n", "7" * 5000], "",
         "--n value of 5000 digits is past the bound of --n"),
        (["scan", "--engine", "matrix", "--dims", "16,-" + "7" * 5000], "",
         "--dims value of 5000 digits is past the bound of --dims"),
    ],
)
def test_size_beyond_bound_is_named_error(invoke, tmp_path, argv, lines, named):
    cfg = tmp_path / "size.cfg"
    cfg.write_text(lines + "\n")
    start = time.perf_counter()
    code, out = invoke(argv + ["--config", str(cfg)])
    # refused from the endpoints, before any list or array is built
    assert time.perf_counter() - start < 0.5
    assert code == 2
    assert json.loads(out)["parameters"]["error"] == f"ValueError: {named}"


@pytest.mark.parametrize(
    "argv,lines,named",
    [
        # at each dimension bound the next, cheap check decides: the bound
        # lets the value through
        (["verify", "--engine", "matrix", "--dim", "2048", "--interior", "2048"], "",
         "interior dimension must satisfy 2 <= M < N, got M=2048 (--interior) "
         "and N=2048 (--dim)"),
        (["verify", "--engine", "matrix", "--interior", "2048"], "matrix.dim = 2048",
         "interior dimension must satisfy 2 <= M < N, got M=2048 (--interior) "
         "and N=2048 (matrix.dim)"),
        (["scan", "--engine", "matrix", "--dims", "2048", "--interior", "2048"], "",
         "interior dimension must satisfy 2 <= M < N, got M=2048 (--interior) "
         "and N=2048 (smallest of --dims)"),
        (["verify", "--engine", "clock-shift", "--dim", "1048576",
          "--level", "1048576"], "",
         "level must satisfy 1 <= k < N, got k=1048576"),
        (["scan", "--engine", "clock-shift", "--dims", GRID_AT_BOUND], "",
         "dimension must be >= 2, got N=1"),
    ],
)
def test_dimension_at_bound_passes_the_bound(invoke, tmp_path, argv, lines, named):
    cfg = tmp_path / "size.cfg"
    cfg.write_text(lines + "\n")
    code, out = invoke(argv + ["--config", str(cfg)])
    assert code == 2
    assert json.loads(out)["parameters"]["error"] == f"ValueError: {named}"


@pytest.mark.parametrize(
    "ntext", ["0..262143", "0," * 262143 + "0"], ids=["range", "list"]
)
def test_n_list_at_length_bound_runs(invoke, ntext):
    code, out = invoke(
        ["scan", "--engine", "clock-shift", "--alpha", "1", "--n", ntext,
         "--format", "csv"]
    )
    assert code == 0
    assert out.count("\n") == 1 + 2**18


def test_grid_at_dimension_bound_runs(invoke):
    code, out = invoke(["scan", "--engine", "clock-shift", "--dims", "1024"])
    assert code == 0
    assert json.loads(out)["parameters"]["pairs"] == 1023


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # usage errors
        code = exc.code
    return code, mask_timestamp(out.getvalue()), err.getvalue()


# a usage error, a flag given then left out twice over, and an expansion
REUSE_SEQUENCE = (
    ["verify", "--engine", "dense"],
    ["scan", "--engine", "clock-shift", "--alpha", "1", "--n", "0..3",
     "--format", "csv"],
    ["scan", "--engine", "clock-shift", "--alpha", "1", "--n", "0..3"],
    ["verify", "--engine", "matrix", "--dim", "12", "--interior", "4", "--mu", "0.3"],
    ["verify", "--engine", "matrix", "--dim", "12", "--interior", "4"],
    ["expand", "--target", "P", "--degree", "3"],
)


def test_grammar_carries_no_state_between_calls():
    grammar = copy.deepcopy(cli.GRAMMAR)
    shared = [_run_cli(argv) for argv in REUSE_SEQUENCE]
    assert cli.GRAMMAR == grammar
    backwards = [_run_cli(argv) for argv in reversed(REUSE_SEQUENCE)]
    assert shared == backwards[::-1]
    codes, outs, errs = zip(*shared)
    assert codes == (2, 0, 0, 0, 0, 0)
    assert "usage:" in errs[0] and not outs[0]
    assert outs[1].startswith("alpha,n\n")
    assert json.loads(outs[2])["table"]["columns"] == ["alpha", "n"]
    assert json.loads(outs[3])["parameters"]["mu"] == 0.3
    assert json.loads(outs[4])["parameters"]["mu"] == 0.2
    assert outs[5] == expand_text("P", 3) + "\n"


def test_scan_without_engine_or_path_reports_params_error(invoke):
    code, out = invoke(["scan", "--dims", "16,32"])
    assert code == 2
    assert json.loads(out)["engine"] == "params"


def test_scan_text_format_includes_table(invoke):
    code, out = invoke(
        ["scan", "--engine", "clock-shift", "--alpha", "1.0", "--n", "0..3",
         "--format", "text"]
    )
    assert code == 0
    assert "table:" in out
    assert "alpha,n\n" in out


def test_scan_matrix_without_dims_is_error(invoke):
    code, out = invoke(["scan", "--engine", "matrix"])
    assert code == 2
    assert "empty dimension list" in json.loads(out)["parameters"]["error"]


def test_verify_symbolic_at_configured_default_degree(invoke):
    # no --degree: config default of 10 applies
    code, out = invoke(["verify", "--engine", "symbolic"])
    assert code == 0
    assert json.loads(out)["parameters"]["degree"] == 10
