"""Config-boundary fuzz: malformed and edge-case configs are config errors.

`config_from_dict` either returns a config or raises `ConfigError`, and the
CLI exits 2 on every config that fails to parse, never 3 (internal error).
Draws are derandomized, so every run checks the same configs.

Configs that parse are not run.  Mode counts are drawn small or past
`MAX_DIM`: phi, an n x n DFT matrix by default, is built at parse time for
every experiment, and a one-mode experiment accepts n up to 90
(n*n <= `MAX_DIM`).
"""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fockgraph import cli
from fockgraph.config import EXPERIMENTS, MAX_DIM, ConfigError, config_from_dict, parse_config

FUZZ = settings(
    derandomize=True,
    deadline=None,
    max_examples=300,
    suppress_health_check=[HealthCheck.too_slow],
)

HUGE_INTS = st.one_of(
    st.sampled_from([2**31, 2**53 + 1, 2**63, -(2**63) - 1, 2**64, 10**400, -(10**400)]),
    st.integers(min_value=10**300, max_value=10**310),
)
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["NaN", "Infinity", "-Infinity", "1e400", "nan", "16", ""]),
    st.text(max_size=6),
    st.lists(st.integers(-3, 3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=2),
)


def ints(low, high):
    """Small integers around the accepted range, huge ones and junk."""
    return st.one_of(st.integers(low, high), HUGE_INTS, JUNK)


MODES = st.one_of(st.integers(-2, 6), st.integers(MAX_DIM + 1, 10**6), HUGE_INTS, JUNK)
REAL = st.one_of(st.floats(-10.0, 10.0), st.floats(allow_nan=True, allow_infinity=True), HUGE_INTS, JUNK)
COMPLEX_ENTRY = st.one_of(st.lists(REAL, min_size=2, max_size=2), st.lists(REAL, max_size=3), JUNK)
REAL_LIST = st.one_of(st.lists(REAL, min_size=1, max_size=2), st.lists(REAL, max_size=4), JUNK)


def point(radius_key, phase_key):
    keys = st.sampled_from([radius_key, phase_key, "R", "X", "Theta", "extra"])
    return st.one_of(
        st.fixed_dictionaries({radius_key: REAL_LIST, phase_key: REAL_LIST}),
        st.dictionaries(keys, REAL_LIST, max_size=3),
        JUNK,
    )


# Replacement values per field; a drawn config sets one to three of them.
FIELDS = {
    "experiment": st.one_of(st.sampled_from(EXPERIMENTS), JUNK),
    "n": MODES,
    "cutoff": ints(-2, 40),
    "phi": st.one_of(st.lists(COMPLEX_ENTRY, max_size=10), JUNK),
    "generator_params": st.one_of(st.lists(point("R", "Theta"), min_size=1, max_size=3), JUNK),
    "anticlique_params": point("X", "Gamma"),
    "radial_order": ints(-2, 70),
    "angular_order": ints(-2, 70),
    "tolerance": st.one_of(REAL, st.sampled_from([1e-12, 0.0, -1.0, 1e308])),
    "trusted_block": ints(-2, 40),
    "seed": ints(-2, 2**64),
    "cutoff_ladder": st.one_of(st.lists(ints(-2, 40), min_size=1, max_size=4), JUNK),
    "unknown_field": JUNK,
}


@st.composite
def configs(draw):
    """A valid small config with one to three fields replaced or dropped.

    Starting valid lets a draw get past the early checks to the field it
    corrupts.
    """
    n = draw(st.integers(2, 3))
    data = {"experiment": draw(st.sampled_from(EXPERIMENTS)), "n": n, "cutoff": draw(st.integers(4, 8))}
    if draw(st.booleans()):
        data["phi"] = [[1.0, 0.0] if i % (n + 1) == 0 else [0.0, 0.0] for i in range(n * n)]
        if draw(st.booleans()):
            data["phi"][draw(st.integers(0, n * n - 1))] = draw(COMPLEX_ENTRY)
    for key in draw(st.lists(st.sampled_from(sorted(FIELDS)), min_size=1, max_size=3, unique=True)):
        if key != "unknown_field" and draw(st.integers(0, 9)) == 0:
            data.pop(key, None)
        else:
            data[key] = draw(FIELDS[key])
    return data


CONFIGS = configs()

OVERRIDES = st.fixed_dictionaries(
    {},
    optional={
        "--cutoff": st.one_of(st.integers(-2, 40), HUGE_INTS),
        "--seed": st.one_of(st.integers(-2, 50), HUGE_INTS),
    },
)


@FUZZ
@given(CONFIGS)
def test_config_from_dict_returns_or_raises_config_error(data):
    try:
        config_from_dict(data)
    except ConfigError:
        pass


@FUZZ
@given(CONFIGS, OVERRIDES)
def test_cli_exits_two_on_parse_failures(tmp_path_factory, data, flags):
    path = tmp_path_factory.mktemp("fuzz") / "config.json"
    # NaN and infinities are written as the bare JSON constants the parser
    # must reject.
    path.write_text(json.dumps(data), encoding="utf-8")
    overrides = {flag.lstrip("-"): value for flag, value in flags.items()}
    try:
        parse_config(path, overrides)
    except ConfigError:
        argv = ["--quiet", "--config", str(path)]
        for flag, value in flags.items():
            argv += [flag, str(value)]
        assert cli.main(argv) == 2


def test_cli_exits_two_on_integer_past_digit_limit(tmp_path):
    # Python refuses to parse integers of more than 4300 digits.
    path = tmp_path / "config.json"
    path.write_text('{"experiment": "gs", "cutoff": ' + "9" * 5000 + "}", encoding="utf-8")
    assert cli.main(["--quiet", "--config", str(path)]) == 2
