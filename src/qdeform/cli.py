"""Command-line front end: verify, scan, expand.

An argv is read in one pass by :data:`GRAMMAR`, which the rows of
:data:`ROUTES` declare, and routed in one place.  :func:`_row` names its
row: the command and its engine or path, and for a clock-shift scan its
grid (--dims set) or its periodicity table (--alpha set).  The row lists
the flags the command reads, and any other flag set on it exits 2 naming
it, so none is silently ignored.  Its handler takes the parsed arguments
and the config and resolves its own flags, config keys and defaults.
The gate values are constants of this module, not config keys: a config
file sets inputs, never a verdict's threshold.

Exit status: 0 when the report verdict is pass, 1 on fail, 2 on error
(including usage errors).  Reports are deterministic for fixed inputs
and tool version; only the timestamp field differs between runs.

Each handler imports the engine it runs, so start-up loads only this
module, config, params and report, and none of numpy, json, dataclasses
or argparse.  The rows load in addition:

* ``verify --engine symbolic`` and ``expand``: weyl and rational; they
  run on integers alone and never load numpy;
* ``verify`` and ``scan --engine matrix``: matrixrep and numpy, but not
  dataclasses;
* ``verify --engine clock-shift`` and ``scan --engine clock-shift
  --dims``: clockshift and numpy;
* ``scan --path hbar-to-0``: numpy, inside params.scaling_columns, but
  not clockshift or dataclasses;
* ``scan --engine clock-shift --alpha``, ``scan --path q-to-1`` and
  ``omega-to-0``: nothing more; their cells are plain floats.

Each handler lays out its own table and gates.  The engines compute one
result per call, and a handler composes its scan from them, save the
matrix scan: matrixrep.identity_residuals takes its whole list of N, as
that module alone knows which N share a solve.  Both matrix rows read
mu, nu and the interior block through one reader, :func:`_matrix_inputs`.
"""

from __future__ import annotations

import math
import re
import sys
from types import SimpleNamespace
from typing import NoReturn, Optional, Sequence

from . import config, params
from .report import Metric, Table, VerificationReport

EXPAND_TARGETS = ("P", "X", "prefactor", "eq8-rhs", "eq9")

# last step of a contraction path, walked in t = 2^-step: 2.0 ** -1074 is
# the smallest double, and t underflows to 0 past it
MAX_STEP = 1074
# largest symbolic truncation degree (--degree, symbolic.degree): the
# exact work grows steeply with the degree
MAX_DEGREE = 64
# largest n of theta = alpha + 2*pi*n (periodicity and hbar-to-0 scans):
# theta is formed in floats, which have no value for n past about 1.8e308
MAX_N = 2**62
# longest --n or --dims list, and most (N, k) pairs in a clock-shift grid:
# one table row each, and a table's time and memory grow linearly in rows
MAX_POINTS = 2**18
# largest matrix dimension (--dim, matrix.dim, scan --engine matrix --dims):
# a residual costs N'^3 in time and N'^2 in memory, on the leading block of
# N' = min(N, M + K) states, K <= 62 (matrixrep.solved_dim), and a scan
# solves each distinct N' once (matrixrep.identity_residuals)
MAX_MATRIX_DIM = 2048
# largest clock-shift pair (verify --engine clock-shift --dim): its time
# and memory grow linearly in N
MAX_PAIR_DIM = 2**20
# largest N of a clock-shift grid (scan --engine clock-shift --dims): its
# N x N phase table grows four times per doubling of N
MAX_GRID_DIM = 1024

# Gate values.  They are constants rather than config keys, so a verdict
# depends on the tool version and its inputs alone (see README).
# res_fro of a matrix verify and residual_at_largest_dim of a matrix scan:
# the residual envelope validated for max(mu, nu) * sqrt(2N) <= 14
MATRIX_RESIDUAL_TOL = 1e-8
# residual_excess of a matrix scan counts a rise only above this floor, which
# sits above the round-off floor of interior residuals (6e-15 to 1.3e-13)
MATRIX_NOISE_FLOOR = 1e-12
# max_residual |PX - qXP| of a clock-shift pair and of a pair grid, and
# eq8_residual of a pair
CLOCKSHIFT_RESIDUAL_TOL = 1e-12
# v_unitary_defect, max |V V^dag - 1|
CLOCKSHIFT_UNITARY_TOL = 1e-13


def _within(value: int, lo: int, hi: int, source: str) -> int:
    """The integer value, refused outside lo..hi naming the flag or key it
    came from."""
    if not lo <= value <= hi:
        raise ValueError(f"{source} must lie in {lo}..{hi}, got {value}")
    return value


def _ints(tokens: list[str], flag: str, lo: int, hi: int) -> list[int]:
    values = []
    for tok in tokens:
        try:
            values.append(int(tok))
        except ValueError as exc:  # int() quotes the token it cannot read
            if not re.fullmatch(r"\s*[+-]?\d+\s*", tok):
                raise ValueError(f"{flag} takes integers: {exc}") from None
            # past int()'s 4300 digits: Decimal reads and prints it in full
            from decimal import Decimal

            values.append(int(_within(Decimal(tok), lo, hi, flag)))
    return values


def parse_int_list(text: Optional[str], flag: str, lo: int, hi: int) -> Sequence[int]:
    """Accept 'a..b' (inclusive) as a range, and 'a,b,c' or a single
    integer as a list, of 1..MAX_POINTS values in lo..hi.  A range is
    counted and bounded from its ends; a missing or empty list, and a
    range with b < a, has length 0."""
    text = (text or "").strip()
    if ".." in text:
        least, largest = _ints(text.split("..", 1), flag, lo, hi)
        values, count = range(least, largest + 1), max(0, largest - least + 1)
    else:
        values = _ints([tok for tok in text.split(",") if tok.strip()], flag, lo, hi)
        count = len(values)
    _within(count, 1, MAX_POINTS, f"{flag} length")
    if isinstance(values, list):
        least, largest = min(values), max(values)
    _within(least, lo, hi, flag)
    _within(largest, lo, hi, flag)
    return values


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _symbolic_degree(args, cfg) -> int:
    """--degree, else the config's symbolic.degree, inside 0..MAX_DEGREE."""
    if args.degree is not None:
        degree, source = args.degree, "--degree"
    else:
        degree, source = config.get_int(cfg, "symbolic.degree"), "symbolic.degree"
    return _within(degree, 0, MAX_DEGREE, source)


def _word_count(element) -> int:
    """The words x^a p^b of an element that carry a nonzero coefficient."""
    return len({(x, p) for x, p, _, _ in element.terms})


def _verify_symbolic(args, cfg) -> VerificationReport:
    from . import weyl

    degree = _symbolic_degree(args, cfg)
    command = f"verify --engine symbolic --degree {degree}"
    checks = weyl.identity_checks(degree)
    mismatch = sum(_word_count(diff) for diff in checks.sqrt_cosh)
    low_terms = sum(1 for _, _, m, n in checks.leading_order.terms if m + n < 4)
    metrics = [
        Metric("residual_terms", _word_count(checks.identity), 0),
        Metric("exchange_residual_terms", _word_count(checks.exchange), 0),
        Metric("sqrt_cosh_mismatch_terms", mismatch, 0),
        Metric("expansion_low_degree_terms", low_terms, 0),
    ]
    return VerificationReport.build("symbolic", command, {"degree": degree}, metrics)


def _matrix_inputs(args, cfg, dims: Sequence[int], dims_source: str,
                   default: int) -> tuple[float, float, int]:
    """mu and nu of a matrix row, each from its flag, else its config key,
    and its interior block M, from --interior, else the row's default.
    The row's dims must increase, and M is refused outside 2 <= M < N at
    the first of them, naming M, N and the flag, key or default each came
    from."""
    mu = args.mu if args.mu is not None else config.get_float(cfg, "matrix.mu")
    nu = args.nu if args.nu is not None else config.get_float(cfg, "matrix.nu")
    for a, b in zip(dims, dims[1:]):
        if b <= a:
            raise ValueError(f"--dims must be strictly increasing, got {b} after {a}")
    source = "default" if args.interior is None else "--interior"
    interior = default if args.interior is None else args.interior
    if not 2 <= interior < dims[0]:
        raise ValueError(f"interior dimension must satisfy 2 <= M < N, got M={interior} "
                         f"({source}) and N={dims[0]} ({dims_source})")
    return mu, nu, interior


def _verify_matrix(args, cfg) -> VerificationReport:
    from . import matrixrep

    if args.dim is not None:
        dim, source = args.dim, "--dim"
    else:
        dim, source = config.get_int(cfg, "matrix.dim"), "matrix.dim"
    # 3 is the smallest N with an interior block 2 <= M < N
    _within(dim, 3, MAX_MATRIX_DIM, source)
    default = min(max(4, dim // 4), dim - 1)
    mu, nu, interior = _matrix_inputs(args, cfg, [dim], source, default)
    command = (f"verify --engine matrix --dim {dim} --interior {interior} "
               f"--mu {mu} --nu {nu}")
    parameters = {"dim": dim, "interior": interior, "mu": mu, "nu": nu}
    residual = matrixrep.identity_residual(dim, interior, mu, nu)
    metrics = [Metric("res_fro", residual, MATRIX_RESIDUAL_TOL)]
    return VerificationReport.build("matrix", command, parameters, metrics)


def _verify_clockshift(args, cfg) -> VerificationReport:
    from . import clockshift

    dim = _within(args.dim if args.dim is not None else 16, 2, MAX_PAIR_DIM, "--dim")
    level = _within(args.level if args.level is not None else 1, 1, dim - 1, "--level")
    command = f"verify --engine clock-shift --dim {dim} --level {level}"
    pair = clockshift.build_pair(dim, level)
    metrics = [
        Metric("max_residual", clockshift.verify_qplane(pair), CLOCKSHIFT_RESIDUAL_TOL),
        # U is a permutation, so only V has a unitarity defect
        Metric("v_unitary_defect", clockshift.v_unitary_defect(pair),
               CLOCKSHIFT_UNITARY_TOL),
        Metric("eq8_residual", clockshift.eq8_residual(pair), CLOCKSHIFT_RESIDUAL_TOL),
    ]
    parameters = {"dim": dim, "level": level, "alpha": pair.alpha}
    return VerificationReport.build("clock-shift", command, parameters, metrics)


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------


def _scan_matrix(args, cfg) -> VerificationReport:
    from . import matrixrep

    dims = parse_int_list(args.dims, "--dims", 3, MAX_MATRIX_DIM)
    mu, nu, interior = _matrix_inputs(args, cfg, dims, "smallest of --dims", 8)
    command = (f"scan --engine matrix --mu {mu} --nu {nu} --interior {interior} "
               f"--dims {args.dims}")
    residuals = matrixrep.identity_residuals(dims, interior, mu, nu)
    first, last = residuals[0], residuals[-1]
    table = Table(("N", "M", "mu", "nu", "res_fro"), [dims, interior, mu, nu, residuals])
    metrics = [
        Metric("residual_at_largest_dim", last, MATRIX_RESIDUAL_TOL),
        Metric("residual_at_smallest_dim", first, None),
        # residuals below the noise floor count as converged in any order:
        # they bottom out at the decomposition's round-off floor long before
        # a scan ends, and then fluctuate without meaning
        Metric("residual_excess", max(0.0, last - max(first, MATRIX_NOISE_FLOOR)), 0.0),
    ]
    parameters = {"mu": mu, "nu": nu, "interior": interior, "dims": list(dims),
                  "noise_floor": MATRIX_NOISE_FLOOR}
    return VerificationReport.build("matrix", command, parameters, metrics, table)


def _scan_clockshift_periodicity(args, cfg) -> VerificationReport:
    """The points theta = alpha + 2*pi*n of the periodicity table.

    tan(theta/2) = tan(alpha/2 + pi*n) = tan(alpha/2) holds exactly: the
    n-dependence drops out of the half-angle before any rounding, so the
    table has nothing to gate.  It refuses a non-finite alpha and the pole
    of tan(alpha/2), and parse_int_list an n outside 0..MAX_N.
    """
    alpha = args.alpha  # the periodicity row is the one with --alpha set
    ntext = args.n if args.n is not None else "0..100"
    ns = parse_int_list(ntext, "--n", 0, MAX_N)
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got alpha={alpha}")
    if params.near_pole(alpha):
        raise ValueError("tan(alpha/2) pole at alpha = pi (mod 2*pi)")
    command = f"scan --engine clock-shift --alpha {alpha} --n {ntext}"
    table = Table(("alpha", "n"), (alpha, ns))
    parameters = {"alpha": alpha, "n_count": len(ns)}
    return VerificationReport.build("clock-shift", command, parameters, [], table)


def _scan_clockshift_grid(args, cfg) -> VerificationReport:
    from . import clockshift

    dims = parse_int_list(args.dims, "--dims", 2, MAX_GRID_DIM)
    # one table row per pair (N, k), 1 <= k < N
    _within(sum(dim - 1 for dim in dims), 1, MAX_POINTS, "--dims pair count")
    command = f"scan --engine clock-shift --dims {args.dims}"
    sizes, levels, residuals = [], [], []
    for dim in dims:
        sizes.extend([dim] * (dim - 1))
        levels.extend(range(1, dim))
        residuals.extend(clockshift.qplane_residuals(dim).tolist())
    worst = max(residuals)
    table = Table(("N", "k", "residual"), (sizes, levels, residuals))
    metrics = [Metric("max_residual", worst, CLOCKSHIFT_RESIDUAL_TOL)]
    parameters = {"dims": list(dims), "pairs": len(residuals)}
    return VerificationReport.build("clock-shift", command, parameters, metrics, table)


def _scan_hbar(args, cfg) -> VerificationReport:
    """scan --path hbar-to-0, walked in n.

    Every point's exchange phase e^(-i*theta) is e^(-i*alpha): theta is
    kept as the pair (alpha, n), so the table has nothing to gate.
    """
    alpha = args.alpha if args.alpha is not None else config.get_float(
        cfg, "params.alpha"
    )
    beta = args.beta if args.beta is not None else config.get_float(cfg, "params.beta")
    ntext = args.n if args.n is not None else "0..5"
    ns = parse_int_list(ntext, "--n", 0, MAX_N)
    command = f"scan --path hbar-to-0 --alpha {alpha} --beta {beta} --n {ntext}"
    columns = params.scaling_columns(alpha, beta, ns)
    table = Table(("n", *columns), [ns, *columns.values()])
    parameters = {"alpha": alpha, "beta": beta, "n_count": len(ns)}
    return VerificationReport.build("params", command, parameters, [], table)


def _scan_contraction(args, cfg) -> VerificationReport:
    """scan --path q-to-1 or omega-to-0, walked in t = 2^-step.

    Its cells are the path's formulas at each t, so the table has nothing
    to gate; the row refuses steps, mu0 and nu0 outside the domain and any
    cell that overflows.
    """
    mu0 = config.get_float(cfg, "params.mu0")
    nu0 = config.get_float(cfg, "params.nu0")
    path = params.ContractionPath(args.path, mu0=mu0, nu0=nu0)
    ntext = args.n if args.n is not None else "0..10"
    steps = parse_int_list(ntext, "--n", 0, MAX_STEP)
    command = f"scan --path {path.name} --n {ntext}"
    # omega-to-0's mu is one repeated cell, mu0
    columns = path.columns(steps)
    table = Table(("step", *columns), [steps, *columns.values()])
    parameters = {"path": path.name, "mu0": mu0, "nu0": nu0, "steps": len(steps)}
    return VerificationReport.build("params", command, parameters, [], table)


# ---------------------------------------------------------------------------
# expand
# ---------------------------------------------------------------------------


def expand_text(target: str, degree: int) -> str:
    """Canonical series text for the CLI expansion targets."""
    from . import weyl
    from .rational import I

    _within(degree, 0, MAX_DEGREE, "degree")
    if target == "P":
        return weyl.deformed_momentum(degree).to_text()
    if target == "X":
        return weyl.deformed_position(degree).to_text()
    if target == "prefactor":
        return weyl.theta_text(weyl.prefactor_series(degree))
    if target == "eq8-rhs":
        return weyl.identity_rhs(degree).to_text()
    if target == "eq9":
        inner = weyl.leading_order_target(degree).scaled(I)
        return f"-i*({inner.to_text()})"
    raise ValueError(f"unknown expand target: {target!r}")


def _expand(args, cfg) -> str:
    return expand_text(args.target, _symbolic_degree(args, cfg)) + "\n"


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


# Each row of an argv, as :func:`_row` names it: the flags it reads and the
# handler that runs it.  --config, --out, --format, --engine, --path and
# --target apply as GRAMMAR allows.
ROUTES = {
    "verify --engine symbolic": (("degree",), _verify_symbolic),
    "verify --engine matrix": (("dim", "interior", "mu", "nu"), _verify_matrix),
    "verify --engine clock-shift": (("dim", "level"), _verify_clockshift),
    "scan --engine matrix": (("dims", "mu", "nu", "interior"), _scan_matrix),
    "scan --engine clock-shift --alpha": (("alpha", "n"), _scan_clockshift_periodicity),
    "scan --engine clock-shift --dims": (("dims",), _scan_clockshift_grid),
    "scan --path hbar-to-0": (("alpha", "beta", "n"), _scan_hbar),
    "scan --path q-to-1": (("n",), _scan_contraction),
    "scan --path omega-to-0": (("n",), _scan_contraction),
    "expand": (("degree",), _expand),
}
# the converter of each flag a row reads, in the order the rows list them,
# and the flag without which a command has no row
_FLAGS = {"degree": int, "dim": int, "interior": int, "mu": float, "nu": float,
          "level": int, "dims": str, "alpha": float, "n": str, "beta": float}
_REQUIRED = {"verify": "engine", "expand": "target"}


def _grammar() -> dict:
    """Each command's flags: --config, --out, its routing flags and the
    flags its ROUTES rows read.  A flag maps to the converter of its value
    or to a dict that maps each value it takes to itself; --engine and
    --path take the names of their rows."""
    formats = {"json": "json", "csv": "csv", "text": "text"}
    grammar = {"verify": {"format": formats, "engine": {}},
               "scan": {"format": formats, "engine": {}, "path": {}},
               "expand": {"target": dict(zip(EXPAND_TARGETS, EXPAND_TARGETS))}}
    for row, (reads, _) in ROUTES.items():
        command, *selector = row.split()
        if selector:
            grammar[command][selector[0][2:]][selector[1]] = selector[1]
        grammar[command].update((flag, _FLAGS[flag]) for flag in reads)
    return {name: dict(config=str, out=str, **flags) for name, flags in grammar.items()}


GRAMMAR = _grammar()


def _metavar(kind) -> str:
    return "{%s}" % ",".join(kind) if isinstance(kind, dict) else kind.__name__.upper()


def _exit(command: Optional[str], error: Optional[str]) -> NoReturn:
    """Print the usage of a command, or of every command, and exit: with no
    error (-h or --help) to stdout, status 0; else with it to stderr, 2."""
    lines = [
        f"usage: qdeform {name} " + " ".join(
            f"--{flag} {_metavar(kind)}" if flag == _REQUIRED.get(name)
            else f"[--{flag} {_metavar(kind)}]" for flag, kind in GRAMMAR[name].items()
        )
        for name in ([command] if command else GRAMMAR)
    ]
    end = f"qdeform: error: {error}" if error else "--flag value or --flag=value"
    print(*lines, end, sep="\n", file=sys.stderr if error else sys.stdout)
    raise SystemExit(2 if error else 0)


def parse_args(argv: Sequence[str]) -> SimpleNamespace:
    """One pass over argv by GRAMMAR: the command, and each of its flags as
    an attribute, None where not given (--format defaults to json).

    A flag is spelt in full, as --flag value or --flag=value, and the last
    of a repeated flag wins.  The token after a flag is its value unless
    it begins with --, so --alpha -1e-3 is a value.
    """
    command = argv[0] if argv else None
    if command not in GRAMMAR:
        error = f"expected a command, got {command!r}" if argv else "no command given"
        _exit(None, None if command in ("-h", "--help") else error)
    flags = GRAMMAR[command]
    values = {flag: "json" if flag == "format" else None for flag in flags}
    tokens = iter(argv[1:])
    for token in tokens:
        if token in ("-h", "--help"):
            _exit(command, None)
        flag, given, value = token.partition("=")
        kind = flags.get(flag[2:]) if flag.startswith("--") else None
        if kind is None:
            _exit(command, f"unknown argument {token!r}")
        if not given:
            value = next(tokens, None)
            if value is None or value.startswith("--"):
                _exit(command, f"{flag} needs a value, got {value or 'none'}")
        try:
            value = kind[value] if isinstance(kind, dict) else kind(value)
        except (KeyError, ValueError):
            _exit(command, f"{flag} takes {_metavar(kind)}, got {value!r}")
        values[flag[2:]] = value
    required = _REQUIRED.get(command)
    if required and values[required] is None:
        _exit(command, f"--{required} is required")
    return SimpleNamespace(command=command, **values)


def _row(args) -> str:
    """The ROUTES row of parsed arguments."""
    if args.command == "expand":
        return "expand"
    if args.command == "verify":
        return f"verify --engine {args.engine}"
    if (args.engine is None) == (args.path is None):
        raise ValueError("scan needs exactly one of --engine or --path")
    if args.path is not None:
        return f"scan --path {args.path}"
    if args.engine == "matrix":
        return "scan --engine matrix"
    if args.alpha is None and args.dims is None:
        raise ValueError(
            "clock-shift scan needs one of --alpha (periodicity) or --dims (grid)"
        )
    return "scan --engine clock-shift " + ("--alpha" if args.dims is None else "--dims")


def _emit(text: str, out_path: Optional[str]) -> None:
    # the file first, so that a path that cannot be written fails the
    # command before anything reaches stdout: stdout gets one report at most
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    sys.stdout.write(text)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)

    try:
        row = _row(args)
        reads, handler = ROUTES[row]
        for flag in _FLAGS:
            if flag not in reads and getattr(args, flag, None) is not None:
                raise ValueError(f"--{flag} does not apply to {row}")
        result = handler(args, config.load_config(args.config))
        if isinstance(result, str):  # an expansion: canonical text, no verdict
            _emit(result, args.out)
            return 0
        _emit(result.render(args.format), args.out)
    except Exception as exc:  # noqa: BLE001 - malformed input must not traceback
        engine = getattr(args, "engine", None)
        if engine is None:
            # expand is symbolic-engine work; path scans belong to params
            engine = "symbolic" if args.command == "expand" else "params"
        report = VerificationReport.error(
            engine, args.command, {}, f"{type(exc).__name__}: {exc}"
        )
        fmt = getattr(args, "format", "json")
        try:
            _emit(report.render("json" if fmt == "csv" else fmt), args.out)
        except OSError as unwritable:
            # the error, and the --out file too when that is another error
            for line in dict.fromkeys((str(exc), str(unwritable))):
                sys.stderr.write(line + "\n")
        return 2
    return {"pass": 0, "fail": 1}.get(result.verdict, 2)


if __name__ == "__main__":
    sys.exit(main())
