"""Numerical laboratory for displaced-projector operator graphs on truncated
Fock spaces: coherent-state resolutions of identity, their projection
structure, and quantum anticliques, all verified to quantified tolerances."""

from .config import ConfigError, ExperimentConfig, default_config, default_suite, dft_matrix, parse_config
from .fock import (
    coherent_overlap,
    coherent_state,
    displacement_compose_phase,
    displacement_matrix,
    expm_displacement_oracle,
    laguerre_sequence,
    min_oracle_buffer,
    trusted_cutoff,
)
from .graphs import (
    CompressionResult,
    GeneratorParams,
    GraphElement,
    GraphSpec,
    anticlique_projection,
    compression_check,
    compression_constant,
    displaced_mode_amplitudes,
    draw_generator_params,
    graph_displacement,
    graph_generator,
    haar_unitary,
    seed_basis,
    seed_projector,
    seed_projector_quadrature,
)
from .multimode import (
    ModeSpace,
    MultimodeState,
    apply_weyl_to_exponential_check,
    creation_poly_state,
    exponential_vector_embed,
    index_of,
    kron_all,
    mode_ladder,
    state_inner,
    trusted_mask,
    tuple_of,
    validate_unitary,
    weyl_operator,
    weyl_phase,
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
    unnormalized_coherent,
)
from .report import TOOL_VERSION, VerificationReport, emit_report, render_csv, render_json
from .runner import run_experiment

__version__ = TOOL_VERSION
