"""Experiment configuration: JSON parsing, defaults and validation.

Configs are JSON objects; complex entries are [re, im] pairs so the format
is unambiguous across ecosystems.  Every random draw an experiment makes
flows from the single ``seed`` field through a counter-based generator.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .graphs import GeneratorParams
from .multimode import validate_unitary
from .quadrature import MAX_RADIAL_ORDER, exact_rule, gauss_laguerre

__all__ = [
    "ConfigError",
    "EXPERIMENTS",
    "ExperimentConfig",
    "default_config",
    "default_suite",
    "dft_matrix",
    "parse_config",
]

EXPERIMENTS = ("gs", "covariant_gs", "projection", "resolution", "anticlique", "convergence")

# Experiments of the default suite, in run order.
DEFAULT_SUITE = ("gs", "covariant_gs", "projection", "resolution", "anticlique")

DEFAULT_MODES = 2
DEFAULT_CUTOFF = 16
DEFAULT_SEED = 42
DEFAULT_LADDER = (12, 16, 20)

# Largest row count of any operator a config may ask for, where one dense
# complex matrix takes 1 GiB, and largest entry count of phi.  The one-mode
# experiments never use phi, but it is built and echoed in every report, so
# its n x n entries are bounded as well.
MAX_DIM = 8192

# Largest polar rule, radial_order x angular_order nodes (one pair's for resolution), a config may
# ask for.  No experiment evaluates more than one node per radius, so it bounds no array.
MAX_NODES = 2**20

# Pass tolerances and trusted blocks per experiment.  Exact-identity
# experiments sit at the floating-point floor; truncation-limited ones get
# two orders of magnitude of headroom over measured deviations at the
# default cutoff.
_DEFAULT_TOLERANCE = {
    "gs": 1e-12,
    "covariant_gs": 1e-4,
    "projection": 1e-8,
    "resolution": 1e-10,
    "anticlique": 1e-4,
    "convergence": 1e-3,
}


def _default_trusted(experiment: str, n: int, cutoff: int) -> int:
    if experiment in ("covariant_gs", "convergence"):
        return min(8, cutoff // 2)
    if experiment in ("projection", "resolution"):
        # Every tuple of the block then has total occupation <= cutoff, the
        # depth of the seed ladder.
        return cutoff // n
    return cutoff


def _rule_span(experiment: str, n: int, trusted_block: int, top: int) -> int:
    """Highest grade of the rule operator the verdict reads; the default rule is :func:`exact_rule` of it."""
    if experiment == "gs":
        return trusted_block
    if experiment in ("projection", "resolution"):
        # The trusted box's tuples reach total occupation n t, which the rotated frame may put on one mode.
        return n * trusted_block
    # covariant_gs and convergence: the seed, kept up to the largest cutoff run, displaces into rows 0..t.
    return trusted_block + top


class ConfigError(ValueError):
    """Raised for malformed or invalid experiment configs."""


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """One experiment's validated inputs, defaults resolved."""

    experiment: str
    n: int
    cutoff: int
    phi: np.ndarray
    generator_params: tuple[GeneratorParams, ...] | None
    anticlique_params: GeneratorParams | None
    radial_order: int
    angular_order: int
    tolerance: float
    trusted_block: int
    seed: int
    cutoff_ladder: tuple[int, ...] | None

    def echo(self) -> dict:
        """Schema-shaped dict of this config, for report parameter echoes."""
        return {
            "experiment": self.experiment,
            "n": self.n,
            "cutoff": self.cutoff,
            "phi": [[float(z.real), float(z.imag)] for z in self.phi.flatten()],
            "generator_params": None
            if self.generator_params is None
            else [
                {"R": [float(r) for r in p.radii], "Theta": [float(t) for t in p.phases]}
                for p in self.generator_params
            ],
            "anticlique_params": None
            if self.anticlique_params is None
            else {
                "X": [float(r) for r in self.anticlique_params.radii],
                "Gamma": [float(t) for t in self.anticlique_params.phases],
            },
            "radial_order": self.radial_order,
            "angular_order": self.angular_order,
            "tolerance": self.tolerance,
            "trusted_block": self.trusted_block,
            "seed": self.seed,
            "cutoff_ladder": None if self.cutoff_ladder is None else list(self.cutoff_ladder),
        }


def dft_matrix(n: int) -> np.ndarray:
    """Discrete-Fourier unitary of size n, built fresh and writable."""
    j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return np.exp(-2j * math.pi * j * k / n) / math.sqrt(n)


@functools.lru_cache(maxsize=None)
def _default_phi(n: int) -> np.ndarray:
    """The default ``phi``, :func:`dft_matrix` of size n, cached per ``n`` and read-only.

    Every config that omits ``phi`` shares it: a write raises.
    """
    phi = dft_matrix(n)
    phi.flags.writeable = False
    return phi


def parse_config(path, overrides: dict | None = None) -> ExperimentConfig:
    """Parse and validate a JSON config file.

    ``overrides`` replaces raw fields before defaults are resolved, which is
    how CLI flags like --cutoff and --seed take effect.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text, parse_constant=_reject_constant)
    except ConfigError:
        raise
    except ValueError as exc:  # malformed JSON, or an integer past Python's digit limit
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    if overrides:
        data = {**data, **overrides}
    return config_from_dict(data)


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a validated config from a raw dict, applying defaults."""
    unknown = set(data) - {field.name for field in fields(ExperimentConfig)}
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")

    if "experiment" not in data:
        raise ConfigError("config missing required field: experiment")
    experiment = data["experiment"]
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}; expected one of {EXPERIMENTS}")

    n = _require_int(data.get("n", DEFAULT_MODES), "n", minimum=1)
    if experiment in ("projection", "resolution", "anticlique") and n < 2:
        raise ConfigError(f"experiment {experiment!r} needs n >= 2, got {n}")
    cutoff = _require_int(data.get("cutoff", DEFAULT_CUTOFF), "cutoff", minimum=4)

    _check_size("phi", n, 2, "entries")
    if experiment in ("projection", "resolution", "anticlique"):
        _check_size(f"the {n}-mode space at cutoff {cutoff}", cutoff + 1, n, "rows")
    elif experiment in ("gs", "covariant_gs"):
        _check_size(f"the space at cutoff {cutoff}", cutoff + 1, 1, "rows")
    phi = _parse_phi(data.get("phi"), n)

    cutoff_ladder = None
    if experiment == "convergence":
        raw_ladder = data.get("cutoff_ladder", list(DEFAULT_LADDER))
        if not isinstance(raw_ladder, list) or not raw_ladder:
            raise ConfigError("cutoff_ladder must be a nonempty list of integers")
        cutoff_ladder = tuple(_require_int(v, "cutoff_ladder entry", minimum=4) for v in raw_ladder)
        if any(low >= high for low, high in zip(cutoff_ladder, cutoff_ladder[1:])):
            raise ConfigError(f"cutoff_ladder {list(cutoff_ladder)} must be strictly increasing")
        for cut in cutoff_ladder:
            _check_size(f"the space at cutoff_ladder entry {cut}", cut + 1, 1, "rows")
    runs_at = cutoff if cutoff_ladder is None else cutoff_ladder[0]  # convergence runs at its ladder alone
    trusted_block = _require_int(
        data.get("trusted_block", _default_trusted(experiment, n, runs_at)), "trusted_block", minimum=0
    )
    if trusted_block > runs_at and cutoff_ladder is not None:
        raise ConfigError(f"cutoff_ladder entry {runs_at} is below trusted_block = {trusted_block}")
    if trusted_block > runs_at:
        raise ConfigError(f"trusted_block {trusted_block} exceeds cutoff {cutoff}")

    top = cutoff if cutoff_ladder is None else cutoff_ladder[-1]  # the largest cutoff the experiment runs at
    span = _rule_span(experiment, n, trusted_block, top)
    default_rule = exact_rule(span)
    if experiment == "anticlique":  # reads no quadrature: its echoed default need only stay within the bound
        default_rule = (min(cutoff + 1, MAX_RADIAL_ORDER), 2 * cutoff + 2)
    radial_order = _require_int(data.get("radial_order", default_rule[0]), "radial_order", minimum=1)
    if radial_order > MAX_RADIAL_ORDER:
        if "radial_order" in data:
            raise ConfigError(f"radial_order must be <= {MAX_RADIAL_ORDER}, got {radial_order}")
        raise ConfigError(
            f"the default rule exact at span {span} needs radial_order {radial_order}, "
            f"past MAX_RADIAL_ORDER = {MAX_RADIAL_ORDER}"
        )
    angular_order = _require_int(data.get("angular_order", default_rule[1]), "angular_order", minimum=1)
    if experiment != "anticlique":
        rule = f"radial_order {radial_order} x angular_order {angular_order}"
        _check_size(f"the {experiment} quadrature at {rule}", radial_order * angular_order, 1, "nodes")

    tolerance = data.get("tolerance", _DEFAULT_TOLERANCE[experiment])
    if not isinstance(tolerance, (int, float)) or isinstance(tolerance, bool) or not 0 < tolerance < math.inf:
        raise ConfigError(f"tolerance must be a positive finite real, got {tolerance!r}")
    tolerance = _as_float(tolerance, "tolerance")

    seed = _require_int(data.get("seed", DEFAULT_SEED), "seed", minimum=0)

    generator_params = None
    raw_generators = data.get("generator_params")
    if raw_generators is not None:
        if not isinstance(raw_generators, list) or not raw_generators:
            raise ConfigError("generator_params must be a nonempty list of {R, Theta} objects")
        _check_size("generator_params", len(raw_generators), 1, "entries")
        generator_params = tuple(
            _parse_point(item, n, ("R", "Theta"), "generator_params entry") for item in raw_generators
        )
    anticlique_params = None
    if data.get("anticlique_params") is not None:
        anticlique_params = _parse_point(data["anticlique_params"], n, ("X", "Gamma"), "anticlique_params")

    if experiment in ("covariant_gs", "convergence"):
        # The kernel's powers alpha^k, k <= cutoff, overflow at the largest radial node past this limit.
        node = float(gauss_laguerre(radial_order).nodes[-1])
        limit = int(math.log(np.finfo(float).max) / (0.5 * math.log(node))) if node > 1.0 else math.inf
        if top > limit:
            raise ConfigError(f"cutoff {top} exceeds {limit}: alpha^cutoff overflows at radial_order {radial_order}")

    return ExperimentConfig(
        experiment=experiment,
        n=n,
        cutoff=cutoff,
        phi=phi,
        generator_params=generator_params,
        anticlique_params=anticlique_params,
        radial_order=radial_order,
        angular_order=angular_order,
        tolerance=tolerance,
        trusted_block=trusted_block,
        seed=seed,
        cutoff_ladder=cutoff_ladder,
    )


def default_config(experiment: str, overrides: dict | None = None) -> ExperimentConfig:
    data = {"experiment": experiment}
    if overrides:
        data.update(overrides)
    return config_from_dict(data)


def default_suite(overrides: dict | None = None) -> list[ExperimentConfig]:
    """The default verification suite: five experiments at the defaults."""
    return [default_config(name, overrides) for name in DEFAULT_SUITE]


def _reject_constant(name: str):
    raise ConfigError(f"non-finite number {name} in config")


def _require_int(value, name: str, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")
    return value


def _check_size(what: str, base: int, exponent: int, unit: str) -> None:
    """Reject base ** exponent past MAX_DIM ("rows", "entries") or MAX_NODES ("nodes").

    Multiplies one factor at a time and stops past the budget, so a huge
    ``n`` from the config never sizes an integer power.
    """
    name, budget = ("MAX_NODES", MAX_NODES) if unit == "nodes" else ("MAX_DIM", MAX_DIM)
    size = 1
    for _ in range(exponent):
        size *= base
        if size > budget:
            raise ConfigError(f"{what} needs more than {name} = {budget} {unit}")


def _parse_complex_entry(entry, context: str) -> complex:
    if (
        not isinstance(entry, list)
        or len(entry) != 2
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in entry)
    ):
        raise ConfigError(f"malformed complex entry in {context}: expected [re, im] pair, got {entry!r}")
    return complex(_as_float(entry[0], context), _as_float(entry[1], context))


def _parse_phi(raw, n: int) -> np.ndarray:
    if raw is None:
        return _default_phi(n)
    if not isinstance(raw, list) or len(raw) != n * n:
        raise ConfigError(f"phi must be a row-major list of {n * n} complex entries")
    values = [_parse_complex_entry(entry, "phi") for entry in raw]
    phi = np.array(values, dtype=complex).reshape(n, n)
    try:
        return validate_unitary(phi)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_real_list(raw, length: int, name: str) -> np.ndarray:
    if (
        not isinstance(raw, list)
        or len(raw) != length
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in raw)
    ):
        raise ConfigError(f"{name} must be a list of {length} reals, got {raw!r}")
    return np.array([_as_float(v, name) for v in raw])


def _as_float(value, name: str) -> float:
    """A JSON int or float as a float; ints past the float range are config errors."""
    try:
        return float(value)
    except OverflowError as exc:
        raise ConfigError(f"{name} holds an integer outside the float range") from exc


def _parse_point(raw, n: int, keys: tuple[str, str], what: str) -> GeneratorParams:
    """One displacement point from an object with radius and phase keys."""
    radius_key, phase_key = keys
    if not isinstance(raw, dict) or set(raw) != set(keys):
        raise ConfigError(f"{what} must be an object with keys {radius_key} and {phase_key}, got {raw!r}")
    radii = _parse_real_list(raw[radius_key], n - 1, f"{what} {radius_key}")
    phases = _parse_real_list(raw[phase_key], n - 1, f"{what} {phase_key}")
    try:
        return GeneratorParams(radii=radii, phases=phases)
    except ValueError as exc:
        raise ConfigError(f"invalid {what}: {exc}") from exc
