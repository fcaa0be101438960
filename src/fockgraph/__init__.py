"""Numerical laboratory for displaced-projector operator graphs on truncated
Fock spaces: coherent-state resolutions of identity, their projection
structure, and quantum anticliques, all verified to quantified tolerances."""

from .config import ConfigError, ExperimentConfig, default_config, default_suite, dft_matrix, parse_config
from .fock import (
    coherent_state,
    displacement_matrix,
    laguerre_sequence,
    unnormalized_coherent,
)
from .graphs import (
    CompressionResult,
    GeneratorParams,
    GraphSpec,
    compression_check,
    compression_constant,
    displaced_mode_amplitudes,
    draw_generator_params,
    graph_generator,
    seed_basis,
    seed_projector_quadrature,
)
from .multimode import (
    ModeSpace,
    kron_all,
    validate_unitary,
)
from .quadrature import (
    AngularScheme,
    PolarScheme,
    RadialScheme,
    coherent_identity,
    displaced_projector_identity,
    gauss_laguerre,
    graph_resolution,
    polar_scheme,
)
from .report import TOOL_VERSION, VerificationReport, emit_report, render_csv, render_json
from .runner import run_experiment

__version__ = TOOL_VERSION
