"""Experiment orchestration: dispatch configs to the verification routines.

Each experiment reduces to a handful of deviations compared against the
configured tolerance.  A report passes only if every deviation it carries is
at or below tolerance; numerical exceptions propagate instead of being
folded into a passing report.
"""

from __future__ import annotations

import time

import numpy as np

from .config import ExperimentConfig
from .graphs import (
    GraphSpec,
    compression_check,
    draw_generator_params,
    seed_projector,
    seed_projector_quadrature,
)
from .multimode import trusted_mask
from .quadrature import (
    coherent_identity,
    displaced_projector_identity,
    graph_resolution,
    polar_scheme,
)
from .report import TOOL_VERSION, VerificationReport

__all__ = ["run_experiment"]

# The displaced-projector identity is verified at this seed amplitude; the
# config schema has no slot for it, and the acceptance value is 1.
COVARIANT_SEED_AMPLITUDE = 1.0

# Seeded-draw policy when an anticlique config omits explicit parameters:
# three generators with radii <= 0.5, keeping displaced ladders deep inside
# the default cutoff so truncation stays ~100x below the default tolerance.
DEFAULT_GENERATOR_DRAWS = 3
DEFAULT_DRAW_RADIUS = 0.5


def run_experiment(cfg: ExperimentConfig) -> VerificationReport:
    """Run one configured experiment and return its report."""
    start = time.perf_counter()
    runner = _RUNNERS[cfg.experiment]
    report = runner(cfg)
    report.runtime_ms = int(round((time.perf_counter() - start) * 1000.0))
    return report


def _identity_deviations(operator: np.ndarray, mask: np.ndarray) -> tuple[float, float]:
    """Max-abs and relative Frobenius deviation from the identity on a block."""
    idx = np.flatnonzero(mask)
    block = operator[np.ix_(idx, idx)]
    delta = block - np.eye(idx.size)
    max_abs = float(np.max(np.abs(delta)))
    frobenius = float(np.linalg.norm(delta) / np.sqrt(idx.size))
    return max_abs, frobenius


def _report(cfg: ExperimentConfig, max_abs: float, frobenius: float, **extra) -> VerificationReport:
    deviations = [max_abs, frobenius]
    if extra.get("scalar_relative_error") is not None:
        deviations.append(extra["scalar_relative_error"])
    passed = extra.pop("passed", None)
    if passed is None:
        passed = max(deviations) <= cfg.tolerance
    return VerificationReport(
        experiment=cfg.experiment,
        parameters=cfg.echo(),
        max_abs_deviation=max_abs,
        frobenius_deviation=frobenius,
        scalar_measured=extra.pop("scalar_measured", None),
        scalar_predicted=extra.pop("scalar_predicted", None),
        trusted_block=cfg.trusted_block,
        passed=passed,
        tolerance=cfg.tolerance,
        runtime_ms=0,
        tool_version=TOOL_VERSION,
        **extra,
    )


def _single_mode_mask(cutoff: int, trusted: int) -> np.ndarray:
    mask = np.zeros(cutoff + 1, dtype=bool)
    mask[: trusted + 1] = True
    return mask


def _rng(cfg: ExperimentConfig) -> np.random.Generator:
    # Counter-based and splittable, so every draw traces back to the seed.
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(cfg.seed)))


def _run_gs(cfg: ExperimentConfig) -> VerificationReport:
    scheme = polar_scheme(cfg.radial_order, cfg.angular_order)
    operator = coherent_identity(cfg.cutoff, scheme)
    max_abs, frobenius = _identity_deviations(operator, _single_mode_mask(cfg.cutoff, cfg.cutoff))
    return _report(cfg, max_abs, frobenius)


def _run_covariant(cfg: ExperimentConfig) -> VerificationReport:
    scheme = polar_scheme(cfg.radial_order, cfg.angular_order)
    operator = displaced_projector_identity(COVARIANT_SEED_AMPLITUDE, cfg.cutoff, scheme)
    max_abs, frobenius = _identity_deviations(operator, _single_mode_mask(cfg.cutoff, cfg.trusted_block))
    return _report(cfg, max_abs, frobenius)


def _run_projection(cfg: ExperimentConfig) -> VerificationReport:
    spec = GraphSpec(phi=cfg.phi, modes=cfg.n, cutoff=cfg.cutoff)
    projector = seed_projector(spec)
    idempotency = float(np.max(np.abs(projector @ projector - projector)))
    hermiticity = float(np.max(np.abs(projector - projector.conj().T)))
    trace_dev = abs(float(np.trace(projector).real) - (cfg.cutoff + 1))
    quad = seed_projector_quadrature(spec, polar_scheme(cfg.radial_order, cfg.angular_order))
    mask = trusted_mask(spec.space, cfg.trusted_block)
    idx = np.flatnonzero(mask)
    backend_dev = float(np.max(np.abs((projector - quad)[np.ix_(idx, idx)])))
    max_abs = max(idempotency, hermiticity, trace_dev, backend_dev)
    frobenius = float(np.linalg.norm(projector @ projector - projector) / np.linalg.norm(projector))
    return _report(cfg, max_abs, frobenius)


def _run_resolution(cfg: ExperimentConfig) -> VerificationReport:
    spec = GraphSpec(phi=cfg.phi, modes=cfg.n, cutoff=cfg.cutoff)
    scheme = polar_scheme(cfg.radial_order, cfg.angular_order)
    operator = graph_resolution(spec, scheme, backend="rank")
    mask = trusted_mask(spec.space, cfg.trusted_block)
    max_abs, frobenius = _identity_deviations(operator, mask)
    return _report(cfg, max_abs, frobenius)


def _run_anticlique(cfg: ExperimentConfig) -> VerificationReport:
    spec = GraphSpec(phi=cfg.phi, modes=cfg.n, cutoff=cfg.cutoff)
    rng = _rng(cfg)
    anticlique = cfg.anticlique_params
    if anticlique is None:
        anticlique = draw_generator_params(cfg.n, rng, max_radius=DEFAULT_DRAW_RADIUS)
    generators = cfg.generator_params
    if generators is None:
        generators = tuple(
            draw_generator_params(cfg.n, rng, max_radius=DEFAULT_DRAW_RADIUS)
            for _ in range(DEFAULT_GENERATOR_DRAWS)
        )
    trusted = None if cfg.trusted_block >= cfg.cutoff else cfg.trusted_block
    result = compression_check(spec, anticlique, generators, trusted_block=trusted)
    return _report(
        cfg,
        result.max_abs_deviation,
        result.frobenius_deviation,
        scalar_measured=result.scalar_measured,
        scalar_predicted=result.scalar_predicted,
        scalar_relative_error=result.scalar_relative_error,
    )


def _run_convergence(cfg: ExperimentConfig) -> VerificationReport:
    scheme = polar_scheme(cfg.radial_order, cfg.angular_order)
    rows = []
    for cutoff in cfg.cutoff_ladder:
        operator = displaced_projector_identity(COVARIANT_SEED_AMPLITUDE, cutoff, scheme)
        max_abs, frobenius = _identity_deviations(operator, _single_mode_mask(cutoff, cfg.trusted_block))
        rows.append(
            {
                "cutoff": cutoff,
                "max_abs_deviation": max_abs,
                "frobenius_deviation": frobenius,
                "pass": max(max_abs, frobenius) <= cfg.tolerance,
            }
        )
    deviations = [row["max_abs_deviation"] for row in rows]
    # Sequences that reach the double-precision floor jitter by ~1e-14;
    # the additive allowance keeps "non-increasing" meaningful there while
    # stays negligible for truncation-limited values.
    monotone = all(later <= earlier + 1e-12 for earlier, later in zip(deviations, deviations[1:]))
    final = rows[-1]
    passed = monotone and final["pass"]
    return _report(
        cfg,
        final["max_abs_deviation"],
        final["frobenius_deviation"],
        passed=passed,
        ladder=rows,
    )


_RUNNERS = {
    "gs": _run_gs,
    "covariant_gs": _run_covariant,
    "projection": _run_projection,
    "resolution": _run_resolution,
    "anticlique": _run_anticlique,
    "convergence": _run_convergence,
}
