"""Property test over the command-line grammar.

Hypothesis draws commands, engines, flags and values (nan, inf, negative
numbers, empty lists, out-of-range values; small sizes, plus a few just
past the CLI's size bounds), sometimes with a config file, and sometimes
with one under which every path overflows a cell.  Half the
draws follow one row of ``cli.ROUTES`` with valid values, so that most
of those reach a verdict, and one in six does the same with one integer
flag at a value that the one bound rule must refuse.  Every argv must
end in exit 0, 1 or 2 without an uncaught exception or a numpy warning:
a usage error with its usage on stderr and nothing on stdout, help with
its usage on stdout, or a command.  A command must print strict JSON
whenever a report is JSON (an expansion prints its canonical text, and
takes no --format).  An error report carries a ValueError or
ConfigError, the errors that name an input, not an exception from deep
inside.  An error that bounds an integer input takes the one form of
every CLI bound, and names a flag in argv, a key in the config, or a
list that argv leaves out at its length of 0.  No report prints a
non-finite table cell in any format, and no failing report (exit 1)
carries a non-finite metric.
"""

import io
import json
import re
import warnings
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qdeform.cli as cli

from conftest import mask_timestamp

FLOATS = st.sampled_from(
    ["nan", "inf", "-inf", "-1", "-0.0", "0", "0.1", "0.5", "1", "2.5", "3.1416",
     "7", "1e-300", "1e300", "1e306", "x"]
)
INTS = st.sampled_from(["-3", "-1", "0", "1", "2", "3", "5", "8", "nan", "x"])
SMALL_DIMS = st.sampled_from(["2", "3", "5", "8", "12", "16", "24"])
INT_LISTS = st.sampled_from(
    ["", ",", " , ", "0", "1", "7,0,3", "0..5", "5..0", "-2..2", "-1", "1..3",
     "0..40", "1074", "1075", "0..1074", "999990..1000000", "a..b", "1,x",
     "4611686018427387904", "0,4611686018427387905", "0..262144",
     "0..1000000000000"]
)
DIM_LISTS = st.sampled_from(
    ["", ",", "1", "0,1", "2", "2..12", "5,17,3", "10,12,14,16", "16,12",
     "-4", "2..1", "x", "1025", "16,2049", "2..262146"]
)
CONFIG_LINES = st.sampled_from(
    ["symbolic.degree = 3", "symbolic.degree = -1", "symbolic.degree = x",
     "matrix.mu = nan", "matrix.nu = inf",
     "symbolic.degree = 100000000", "matrix.residual_treshold = 1e-30",
     "matrix.mu = -1", "matrix.dim = 2049",
     "matrix.dim = 2", "params.alpha = nan",
     "params.alpha = 7", "params.beta = 0", "params.mu0 = 0", "params.mu0 = nan",
     "params.nu0 = inf", "params.mu0 = -1", "params.mu0 = 1e300",
     "params.nu0 = 1e300", "params.mu0 = 1e-320", "params.beta = 1e308",
     "params.beta = inf", "params.hbar = banana J.s",
     "params.hbar = 1.05e-34 J.s", "params.c = 3e8 kg", "params.mu = 0.5",
     "no equals sign", "= 1"]
)
# a config under which every path overflows a cell at each valid --n: q =
# 1 + mu nu / 2 of q-to-1 and omega-to-0, and nu = beta sqrt(theta) of
# hbar-to-0 at every n >= 1
OVERFLOWING = ["params.mu0 = 1e300", "params.nu0 = 1e300", "params.beta = 1e308"]


# small values that every ROUTES row reading the flag accepts
VALID = {
    "degree": st.sampled_from(["0", "2", "5"]),
    "dim": st.sampled_from(["12", "16", "24"]),
    "interior": st.sampled_from(["4", "8"]),
    "mu": st.sampled_from(["0", "0.1", "0.5"]),
    "nu": st.sampled_from(["0", "0.2", "0.5"]),
    "level": st.sampled_from(["1", "2", "3"]),
    "dims": st.sampled_from(["10,12,14,16", "9..12"]),
    "alpha": st.sampled_from(["0.1", "1", "2.5"]),
    "beta": st.sampled_from(["0.5", "1", "2.5"]),
    "n": st.sampled_from(["0..5", "0,2,4", "7", "0..40"]),
}


# the four refusal forms that the one integer bound rule took over, each
# once an error of its own: the flags a form reaches and values that take it
# (every valid --dim is at most 24, so each level lies outside 1..N-1)
REFUSALS = {
    "backwards range": (("n", "dims"), st.sampled_from(["5..0", "12..9"])),
    "literal past 4300 digits": (
        ("n", "dims"), st.sampled_from(["7" * 4301, "0,1" + "0" * 4400])
    ),
    "empty list": (("dims",), st.sampled_from(["", ",", " , "])),
    "level outside 1..N-1": (("level",), st.sampled_from(["0", "-1", "24", "99"])),
}


def _flags(draw, options):
    argv = []
    for flag, values in options.items():
        if draw(st.booleans()):
            argv += [flag, draw(values)]
    return argv


@st.composite
def commands(draw):
    # half the draws take one ROUTES row and only the flags it reads, at
    # valid values, so that most of them reach a verdict; one in six takes
    # a row and sets one of its flags at a refusal form
    kind = draw(st.sampled_from(["valid"] * 3 + ["refused"] + ["free"] * 2))
    if kind == "valid":
        return draw(route_commands())
    if kind == "refused":
        return draw(route_commands(draw(st.sampled_from(sorted(REFUSALS)))))
    command = draw(st.sampled_from(["verify", "scan", "expand"]))
    argv = [command]
    if command == "verify":
        engine = draw(st.sampled_from(["symbolic", "matrix", "clock-shift", "dense"]))
        argv += ["--engine", engine]
        argv += _flags(draw, {
            "--degree": st.sampled_from(["-1", "0", "2", "5", "65", "x"]),
            "--dim": SMALL_DIMS | INTS | st.sampled_from(["2049", "1048577"]),
            "--interior": INTS,
            "--mu": FLOATS,
            "--nu": FLOATS,
            "--level": INTS,
        })
    elif command == "scan":
        # the valid selectors three times as often as the invalid ones
        selector = draw(st.sampled_from(
            [["--engine", "matrix"], ["--engine", "clock-shift"],
             ["--path", "q-to-1"], ["--path", "hbar-to-0"], ["--path", "omega-to-0"]]
            * 3
            + [[], ["--engine", "matrix", "--path", "q-to-1"]]
        ))
        argv += selector
        argv += _flags(draw, {
            "--dims": DIM_LISTS,
            "--mu": FLOATS,
            "--nu": FLOATS,
            "--interior": INTS,
            "--alpha": FLOATS,
            "--beta": FLOATS,
            "--n": INT_LISTS,
        })
    else:
        argv += ["--target", draw(st.sampled_from(
            ["P", "X", "prefactor", "eq8-rhs", "eq9", "Q"]
        ))]
        argv += _flags(draw, {
            "--degree": st.sampled_from(["-1", "0", "3", "6", "65", "100000000", "x"])
        })
    argv += _flags(draw, {"--format": st.sampled_from(["json", "csv", "text", "xml"])})
    return _joined(argv)


@st.composite
def route_commands(draw, refusal=None):
    """A ROUTES row with valid values for some of the flags it reads (and
    for its --alpha or --dims selector), in a format it can print.  With
    a ``refusal`` form of REFUSALS, a row that reads a flag the form
    reaches, with that flag set at one of the form's values."""
    rows, values = sorted(cli.ROUTES), dict(VALID)
    if refusal is not None:
        flags, refused = REFUSALS[refusal]
        rows = [row for row in rows if set(flags) & set(cli.ROUTES[row][0])]
    row = draw(st.sampled_from(rows))
    reads, _ = cli.ROUTES[row]
    words = row.split()
    argv, selector = words[:3], [word[2:] for word in words[3:]]
    if refusal is not None:
        flag = draw(st.sampled_from([flag for flag in reads if flag in flags]))
        selector.append(flag)
        values[flag] = refused
    if argv[0] == "expand":
        argv += ["--target", draw(st.sampled_from(cli.EXPAND_TARGETS))]
    for flag in reads:
        if flag in selector or draw(st.booleans()):
            argv += [f"--{flag}", draw(values[flag])]
    # only a scan has a table to print as CSV, and expand takes no --format
    formats = {"verify": ["json", "text"], "scan": ["json", "csv", "text"]}
    if argv[0] in formats:
        argv += _flags(draw, {"--format": st.sampled_from(formats[argv[0]])})
    return _joined(argv)


def _joined(argv):
    # "=" keeps values that start with "-" from reading as flags
    return [argv[0]] + [
        f"{flag}={value}" for flag, value in zip(argv[1::2], argv[2::2])
    ]


def _strict_json(text):
    # NaN, Infinity and -Infinity are the only non-finite JSON numbers
    def refuse(constant):
        raise ValueError(f"non-strict JSON constant {constant}")

    return json.loads(text, parse_constant=refuse)


NON_FINITE = {"nan", "inf", "-inf"}
NAMED_ERRORS = ("ValueError: ", "ConfigError: ")
# an error that bounds an integer input, whether it names it by its flag,
# its key or an engine's word for it (n, step, dimension, degree, level),
# or that refuses a list as empty or backwards, or a literal by its digits;
# the order of a matrix scan's --dims is a rule of its own
INTEGER_BOUND = re.compile(
    r"ValueError: ((--(degree|dims?|n|level)|symbolic\.degree|matrix\.dim"
    r"|n|steps?|dimension|(truncation )?degree|level)\b"
    r"(?! must be strictly increasing).* must "
    r"|.*\b(empty|bad|digits)\b)"
)
# the one form of a bound error: its flag or key, both bounds and the value
BOUND_FORM = re.compile(
    r"ValueError: (\S+)( length| pair count)? must lie in (-?\d+)\.\.(\d+), "
    r"got (-?\d+)"
)


def _check_bound_error(message, argv, config):
    """A bound error takes the one form, its value lies outside its bounds,
    and it names a flag set in argv or a key set in the config."""
    if not INTEGER_BOUND.match(message):
        return
    form = BOUND_FORM.fullmatch(message)
    assert form, message
    source, count, lo, hi, value = form.groups()
    # Decimal reads a value past int()'s 4300 digits too
    assert not Decimal(lo) <= Decimal(value) <= Decimal(hi), message
    if source.startswith("--"):
        # a list that is not given has length 0
        given = any(arg.startswith(source + "=") for arg in argv)
        assert given or count == " length" and value == "0", message
    else:
        keys = [line.split("=")[0].strip() for line in config or ()]
        assert source in keys, message


def _non_finite_numbers(text, fmt):
    """The non-finite numbers a CSV or text report prints: its table
    cells, and in text also its metric values."""
    lines = text.splitlines()
    if fmt == "csv":
        numbers, table = [], lines[1:]
    else:
        numbers = [
            line.split(" = ", 1)[1].split(" ")[0]
            for line in lines
            if line.startswith("metric ")
        ]
        table = lines[lines.index("table:") + 2 :] if "table:" in lines else []
    numbers += [cell for line in table for cell in line.strip().split(",")]
    return [number for number in numbers if number in NON_FINITE]


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("grammar")


@settings(max_examples=150)
@given(argv=commands(),
       config=st.just(OVERFLOWING) | st.none() | st.lists(CONFIG_LINES, max_size=3))
# inputs that once printed a non-finite table
@example(argv=["scan", "--path=q-to-1", "--format=csv"], config=["params.mu0 = nan"])
@example(argv=["scan", "--path=omega-to-0", "--format=text"],
         config=["params.nu0 = inf"])
@example(argv=["scan", "--path=q-to-1", "--format=text"],
         config=["params.mu0 = 1e300", "params.nu0 = 1e300"])
@example(argv=["scan", "--path=hbar-to-0", "--beta=1e306", "--n=999990..1000000",
               "--format=csv"], config=None)
# inputs past the degree and --n bounds, which once ran without limit, or
# ended in an unnamed OverflowError or a table with a 0.0 deviation
@example(argv=["verify", "--engine=symbolic", "--degree=100000000"], config=None)
@example(argv=["expand", "--target=eq8-rhs"], config=["symbolic.degree = 100000000"])
@example(argv=["scan", "--path=hbar-to-0", "--n=1" + "0" * 400], config=None)
@example(argv=["scan", "--engine=clock-shift", "--alpha=1", "--n=1" + "0" * 400,
               "--format=text"], config=None)
# one past each size bound, and far past the list bound; without its bound
# each of these ran for up to 15 s, or needed terabytes
@example(argv=["scan", "--engine=clock-shift", "--alpha=1", "--n=0..262144"],
         config=None)
@example(argv=["scan", "--path=hbar-to-0", "--n=0..1000000000000"], config=None)
@example(argv=["scan", "--path=omega-to-0", "--n=0..262144"], config=None)
@example(argv=["verify", "--engine=matrix", "--dim=2049"], config=None)
@example(argv=["verify", "--engine=matrix"], config=["matrix.dim = 2049"])
@example(argv=["scan", "--engine=matrix", "--dims=16,2049"], config=None)
@example(argv=["verify", "--engine=clock-shift", "--dim=1048577"], config=None)
@example(argv=["scan", "--engine=clock-shift", "--dims=1025"], config=None)
@example(argv=["scan", "--engine=clock-shift", "--dims=" + "1024," * 256 + "258"],
         config=None)
# one below each lower bound; all but --dims=2,16 and --degree=-1 once gave
# a message that named neither the flag nor both bounds
@example(argv=["scan", "--engine=clock-shift", "--alpha=1", "--n=-1"], config=None)
@example(argv=["scan", "--path=hbar-to-0", "--n=-1"], config=None)
@example(argv=["scan", "--path=q-to-1", "--n=-1"], config=None)
@example(argv=["scan", "--engine=clock-shift", "--dims=1"], config=None)
@example(argv=["scan", "--engine=matrix", "--dims=2,16"], config=None)
@example(argv=["verify", "--engine=clock-shift", "--dim=1"], config=None)
@example(argv=["verify", "--engine=symbolic", "--degree=-1"], config=None)
# an empty list, a backwards range, a literal past int()'s 4300 digits and
# a level outside 1 <= k < N, each once refused in a form of its own
@example(argv=["scan", "--engine=matrix", "--dims="], config=None)
@example(argv=["scan", "--path=hbar-to-0", "--n=5..0"], config=None)
@example(argv=["scan", "--path=q-to-1", "--n=" + "7" * 5000], config=None)
@example(argv=["verify", "--engine=clock-shift", "--dim=16", "--level=16"],
         config=None)
# both clock-shift selectors, which once ran the periodicity scan and
# dropped --dims without a word
@example(argv=["scan", "--engine=clock-shift", "--alpha=1", "--dims=4"], config=None)
# the edges of the argv grammar: an abbreviation (refused), a flag without
# a value, a stray word, a value that begins with "-" as its own token, a
# value that begins with "--" (refused), and help after each command
@example(argv=["verify", "--deg=4", "--engine=symbolic"], config=None)
@example(argv=["verify", "--eng=symbolic"], config=None)
@example(argv=["verify", "--engine=symbolic", "--degree"], config=None)
@example(argv=["scan", "--path=q-to-1", "stray"], config=None)
@example(argv=["scan", "--engine=clock-shift", "--alpha", "-1e-3"], config=None)
@example(argv=["scan", "--engine=clock-shift", "--dims", "--mu"], config=None)
@example(argv=["verify", "--help"], config=None)
@example(argv=["scan", "--help"], config=None)
@example(argv=["expand", "--help"], config=None)
def test_every_argv_ends_in_a_verdict_or_a_named_error(config_dir, argv, config):
    if config is not None:
        path = config_dir / "run.cfg"
        path.write_text("\n".join(config) + "\n")
        argv = argv + [f"--config={path}"]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as exc:  # help on stdout, exit 0; usage errors exit 2
            if "--help" in argv:
                assert exc.code == 0 and not err.getvalue()
                assert out.getvalue().startswith("usage:")
            else:
                assert exc.code == 2 and not out.getvalue()
                assert err.getvalue().startswith("usage:")
            return
    assert not caught, [str(w.message) for w in caught]
    assert code in (0, 1, 2)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    fmt = next((a.split("=", 1)[1] for a in argv if a.startswith("--format=")), "json")
    if argv[0] == "expand" and code == 0:
        return  # an expansion is canonical text
    if fmt == "json" or code == 2 and fmt == "csv":
        report = _strict_json(out.getvalue())
        assert report["verdict"] == {0: "pass", 1: "fail", 2: "error"}[code]
        if code == 2:
            assert report["parameters"]["error"].startswith(NAMED_ERRORS)
            _check_bound_error(report["parameters"]["error"], argv, config)
    elif code != 2:
        assert not _non_finite_numbers(out.getvalue(), fmt)
        if code == 1 and fmt == "csv":  # a CSV report prints no metrics
            json_argv = [a for a in argv if not a.startswith("--format=")]
            rerun = io.StringIO()
            with redirect_stdout(rerun):
                assert cli.main(json_argv) == 1
            _strict_json(rerun.getvalue())


# the @examples that end in a path cell that overflows, with their configs
OVERFLOW_WITNESSES = (
    (["scan", "--path=q-to-1", "--format=text"],
     ["params.mu0 = 1e300", "params.nu0 = 1e300"]),
    (["scan", "--path=hbar-to-0", "--beta=1e306", "--n=999990..1000000",
      "--format=csv"], None),
)
# the refusal of such a cell names its row by the step t = 2^-step of a
# path walked in t, or by the n of hbar-to-0
PATH_OVERFLOW = re.compile(r"path cell \w+ overflows at (step|n) = ")


def _refusal_forms(argv):
    """The REFUSALS forms that the flag values of an argv take."""
    values = dict(arg[2:].split("=", 1) for arg in argv[1:] if "=" in arg)
    forms = set()
    for flag in ("n", "dims"):
        text = values.get(flag, "")
        ends = re.fullmatch(r"\s*(\d{1,30})\.\.(\d{1,30})\s*", text)
        if ends and int(ends[2]) < int(ends[1]):
            forms.add("backwards range")
        if re.search(r"\d{4301}", text):
            forms.add("literal past 4300 digits")
    if "dims" in values and not re.search(r"\d", values["dims"]):
        forms.add("empty list")
    level, dim = values.get("level", ""), values.get("dim", "16")
    if argv[:2] == ["verify", "--engine=clock-shift"] and re.fullmatch(
        r"-?\d+", level
    ) and dim.isdigit() and not 1 <= int(level) < int(dim):
        forms.add("level outside 1..N-1")
    return forms


@pytest.mark.parametrize("form", sorted(REFUSALS))
def test_draws_aimed_at_a_refusal_form_end_in_it(form):
    # every draw of a row with one flag at the form's values ends in the
    # form's refusal, whatever the order of the property test's strategies:
    # a rule that only an @example witnesses is one edit away from going
    # unwatched
    @settings(max_examples=20)
    @given(argv=route_commands(form))
    def aimed(argv):
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(argv)
        assert code == 2 and "must lie in" in out.getvalue(), argv
        assert form in _refusal_forms(argv), argv

    aimed()


def test_draws_reach_the_path_overflow_refusals(config_dir, monkeypatch):
    # the derandomized draws of the property test, its @examples aside, end
    # in the refusal of a path cell that overflows, on a path walked in t
    # and on hbar-to-0
    main, overflowed = cli.main, set()

    def recording(argv):
        out = io.StringIO()
        try:
            with redirect_stdout(out):
                code = main(argv)  # a usage error raises, and reaches no refusal
        finally:
            print(out.getvalue(), end="")
        drawn = [arg for arg in argv if not arg.startswith("--config=")]
        paths = [arg.split("=", 1)[1] for arg in argv if arg.startswith("--config=")]
        config = Path(paths[0]).read_text().splitlines() if paths else None
        overflow = PATH_OVERFLOW.search(out.getvalue())
        if overflow and (drawn, config) not in OVERFLOW_WITNESSES:
            overflowed.add(overflow[1])
        return code

    monkeypatch.setattr(cli, "main", recording)
    test_every_argv_ends_in_a_verdict_or_a_named_error(config_dir=config_dir)
    assert overflowed == {"step", "n"}


def _usage_exit(argv):
    """The exit code, stdout and stderr of an argv that ends in SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.raises(SystemExit) as exc, redirect_stdout(out), redirect_stderr(err):
        cli.main(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


# argvs that are usage errors, and the words their error line names
USAGE_ERRORS = [
    (["verify", "--deg=4", "--engine=symbolic"], ["--deg=4"]),
    (["verify", "--engine", "symbolic", "--deg", "4"], ["--deg"]),
    (["verify", "--eng=symbolic"], ["--eng=symbolic"]),
    (["verify", "--engine=symbolic", "--degree"], ["--degree"]),
    (["scan", "--path=q-to-1", "stray"], ["stray"]),
    (["scan", "--engine=clock-shift", "--dims", "--mu"], ["--dims", "--mu"]),
    (["verify", "--engine=symbolic", "--dims=4"], ["--dims=4"]),
    (["expand", "--target=P", "--mu", "1"], ["--mu"]),
    (["verify", "--engine", "dense"], ["--engine", "dense"]),
    (["verify", "--engine=symbolic", "--degree", "x"], ["--degree", "x"]),
    (["scan", "--path=q-to-1", "--alpha", "1e"], ["--alpha", "1e"]),
    (["verify"], ["--engine"]),
    (["expand"], ["--target"]),
    (["bogus"], ["bogus"]),
    ([], ["command"]),
]


@pytest.mark.parametrize("argv,named", USAGE_ERRORS, ids=lambda v: " ".join(v))
def test_usage_error_names_its_token_on_stderr(argv, named):
    code, out, err = _usage_exit(argv)
    lines = err.splitlines()
    assert code == 2 and out == ""
    assert lines[0].startswith("usage: qdeform ")
    assert lines[-1].startswith("qdeform: error: ")
    assert all(word in lines[-1] for word in named), lines[-1]


def test_value_may_begin_with_one_dash_in_either_spelling(invoke):
    scan = ["scan", "--engine", "clock-shift", "--n", "0..3"]
    two = invoke(scan + ["--alpha", "-1e-3"])
    one = invoke(scan + ["--alpha=-1e-3"])
    assert two[0] == 0 and json.loads(two[1])["parameters"]["alpha"] == -1e-3
    assert (two[0], mask_timestamp(two[1])) == (one[0], mask_timestamp(one[1]))


def test_repeated_flag_keeps_its_last_value():
    args = cli.parse_args(["verify", "--engine=matrix", "--dim", "8", "--dim=12"])
    assert (args.engine, args.dim, args.format) == ("matrix", 12, "json")


@pytest.mark.parametrize(
    "argv",
    [[flag] for flag in ("-h", "--help")]
    + [[command, flag] for command in cli.GRAMMAR for flag in ("-h", "--help")],
    ids=" ".join,
)
def test_help_exits_0_with_the_flags_of_each_command(argv):
    code, out, err = _usage_exit(argv)
    assert code == 0 and err == ""
    commands = list(cli.GRAMMAR) if len(argv) == 1 else argv[:1]
    usages = [line.split() for line in out.splitlines() if line.startswith("usage:")]
    assert [words[2] for words in usages] == commands
    for command, words in zip(commands, usages):
        named = {word.strip("[").split("=")[0] for word in words if "--" in word}
        assert named == {f"--{flag}" for flag in cli.GRAMMAR[command]}
