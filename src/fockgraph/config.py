"""Experiment configuration: JSON parsing, defaults and validation.

Configs are JSON objects; complex entries are [re, im] pairs so the format
is unambiguous across ecosystems.  Every random draw an experiment makes
flows from the single ``seed`` field through a counter-based generator.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .graphs import GeneratorParams
from .multimode import validate_unitary
from .quadrature import MAX_RADIAL_ORDER

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
    """Discrete-Fourier unitary of size n."""
    j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return np.exp(-2j * math.pi * j * k / n) / math.sqrt(n)


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
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    if overrides:
        data = {**data, **overrides}
    return config_from_dict(data)


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a validated config from a raw dict, applying defaults."""
    unknown = set(data) - {
        "experiment",
        "n",
        "cutoff",
        "phi",
        "generator_params",
        "anticlique_params",
        "radial_order",
        "angular_order",
        "tolerance",
        "trusted_block",
        "seed",
        "cutoff_ladder",
    }
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

    phi = _parse_phi(data.get("phi"), n)

    radial_order = _require_int(data.get("radial_order", cutoff + 1), "radial_order", minimum=1)
    if radial_order > MAX_RADIAL_ORDER:
        raise ConfigError(f"radial_order must be <= {MAX_RADIAL_ORDER}, got {radial_order}")
    angular_order = _require_int(data.get("angular_order", 2 * cutoff + 2), "angular_order", minimum=1)

    tolerance = data.get("tolerance", _DEFAULT_TOLERANCE[experiment])
    if not isinstance(tolerance, (int, float)) or isinstance(tolerance, bool) or not 0 < tolerance < math.inf:
        raise ConfigError(f"tolerance must be a positive finite real, got {tolerance!r}")
    tolerance = float(tolerance)

    trusted_block = _require_int(
        data.get("trusted_block", _default_trusted(experiment, n, cutoff)), "trusted_block", minimum=0
    )
    if trusted_block > cutoff:
        raise ConfigError(f"trusted_block {trusted_block} exceeds cutoff {cutoff}")

    seed = _require_int(data.get("seed", DEFAULT_SEED), "seed", minimum=0)

    generator_params = _parse_generator_params(data.get("generator_params"), n)
    anticlique_params = _parse_anticlique_params(data.get("anticlique_params"), n)

    cutoff_ladder = None
    if experiment == "convergence":
        raw_ladder = data.get("cutoff_ladder", list(DEFAULT_LADDER))
        if not isinstance(raw_ladder, list) or not raw_ladder:
            raise ConfigError("cutoff_ladder must be a nonempty list of integers")
        cutoff_ladder = tuple(_require_int(v, "cutoff_ladder entry", minimum=4) for v in raw_ladder)
        if any(cut < trusted_block for cut in cutoff_ladder):
            raise ConfigError("every cutoff_ladder entry must be >= trusted_block")

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


def _parse_complex_entry(entry, context: str) -> complex:
    if (
        not isinstance(entry, list)
        or len(entry) != 2
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in entry)
    ):
        raise ConfigError(f"malformed complex entry in {context}: expected [re, im] pair, got {entry!r}")
    return complex(entry[0], entry[1])


def _parse_phi(raw, n: int) -> np.ndarray:
    if raw is None:
        return dft_matrix(n)
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
    return np.asarray(raw, dtype=float)


def _parse_generator_params(raw, n: int):
    if raw is None:
        return None
    if not isinstance(raw, list) or not raw:
        raise ConfigError("generator_params must be a nonempty list of {R, Theta} objects")
    params = []
    for item in raw:
        if not isinstance(item, dict) or set(item) != {"R", "Theta"}:
            raise ConfigError(f"generator_params entries must be objects with keys R and Theta, got {item!r}")
        radii = _parse_real_list(item["R"], n - 1, "generator_params R")
        phases = _parse_real_list(item["Theta"], n - 1, "generator_params Theta")
        try:
            params.append(GeneratorParams(radii=radii, phases=phases))
        except ValueError as exc:
            raise ConfigError(f"invalid generator_params: {exc}") from exc
    return tuple(params)


def _parse_anticlique_params(raw, n: int):
    if raw is None:
        return None
    if not isinstance(raw, dict) or set(raw) != {"X", "Gamma"}:
        raise ConfigError(f"anticlique_params must be an object with keys X and Gamma, got {raw!r}")
    radii = _parse_real_list(raw["X"], n - 1, "anticlique_params X")
    phases = _parse_real_list(raw["Gamma"], n - 1, "anticlique_params Gamma")
    try:
        return GeneratorParams(radii=radii, phases=phases)
    except ValueError as exc:
        raise ConfigError(f"invalid anticlique_params: {exc}") from exc
