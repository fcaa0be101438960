"""Acceptance suite: one test per criterion, each printing a verdict line.

Every tolerance is pinned here.  Monotonicity assertions carry a 1e-12
additive allowance so sequences that reach the double-precision floor
(~2e-14, where successive cutoffs differ only by rounding jitter) still
count as non-increasing; the allowance is negligible at truncation-limited
scales.
"""

import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import fockgraph
from fockgraph import (
    GraphSpec,
    apply_weyl_to_exponential_check,
    coherent_identity,
    compression_check,
    displacement_matrix,
    displaced_projector_identity,
    draw_generator_params,
    expm_displacement_oracle,
    exponential_vector_embed,
    graph_resolution,
    haar_unitary,
    polar_scheme,
    seed_projector,
    seed_projector_quadrature,
    state_inner,
    trusted_cutoff,
    weyl_operator,
    weyl_phase,
)
from fockgraph.config import dft_matrix
from fockgraph.multimode import ModeSpace, trusted_mask

FLOOR_ALLOWANCE = 1e-12


def verdict(number, label, ok, detail):
    line = f"[acceptance] criterion {number} ({label}): {'PASS' if ok else 'FAIL'} -- {detail}"
    print(line)
    return ok


def identity_deviation(op, mask=None):
    if mask is None:
        mask = np.ones(op.shape[0], dtype=bool)
    idx = np.flatnonzero(mask)
    sub = op[np.ix_(idx, idx)]
    return float(np.abs(sub - np.eye(idx.size)).max())


def non_increasing(values):
    return all(b <= a + FLOOR_ALLOWANCE for a, b in zip(values, values[1:]))


def rng_for(criterion):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(criterion)))


def test_criterion_1_coherent_state_identity():
    start = time.perf_counter()
    op = coherent_identity(12, polar_scheme(13, 26))
    deviation = identity_deviation(op)
    elapsed = time.perf_counter() - start
    ok = deviation <= 1e-12 and elapsed < 1.0
    assert verdict(1, "coherent-state resolution of identity", ok,
                   f"max deviation {deviation:.3e}, {elapsed:.2f}s")


def test_criterion_2_displaced_projector_identity():
    start = time.perf_counter()
    scheme = polar_scheme(20, 52)
    deviations = []
    for cutoff in (16, 20, 24):
        op = displaced_projector_identity(1.0, cutoff, scheme)
        mask = np.zeros(cutoff + 1, dtype=bool)
        mask[:9] = True
        deviations.append(identity_deviation(op, mask))
    elapsed = time.perf_counter() - start
    ok = deviations[-1] <= 1e-6 and non_increasing(deviations) and elapsed < 30.0
    assert verdict(2, "displaced-projector resolution of identity", ok,
                   f"trusted-block deviations {['%.2e' % d for d in deviations]}, {elapsed:.1f}s")


def test_criterion_3_seed_projector_structure():
    start = time.perf_counter()
    rng = rng_for(3)
    scheme = polar_scheme(13, 26)
    worst = {"idem": 0.0, "herm": 0.0, "trace": 0.0, "backend": 0.0}
    for _ in range(20):
        spec = GraphSpec(phi=haar_unitary(2, rng), modes=2, cutoff=12)
        projector = seed_projector(spec)
        worst["idem"] = max(worst["idem"], float(np.abs(projector @ projector - projector).max()))
        worst["herm"] = max(worst["herm"], float(np.abs(projector - projector.conj().T).max()))
        worst["trace"] = max(worst["trace"], abs(float(np.trace(projector).real) - 13.0))
        quad = seed_projector_quadrature(spec, scheme)
        mask = trusted_mask(spec.space, 6)
        idx = np.flatnonzero(mask)
        worst["backend"] = max(
            worst["backend"], float(np.abs((projector - quad)[np.ix_(idx, idx)]).max())
        )
    elapsed = time.perf_counter() - start
    ok = (
        worst["idem"] <= 1e-12
        and worst["herm"] <= 1e-13
        and worst["trace"] <= 1e-9
        and worst["backend"] <= 1e-8
        and elapsed < 60.0
    )
    assert verdict(3, "projection structure of the seed operator", ok,
                   f"idempotency {worst['idem']:.2e}, hermiticity {worst['herm']:.2e}, "
                   f"trace {worst['trace']:.2e}, backends {worst['backend']:.2e}, {elapsed:.1f}s")


def test_criterion_4_graph_resolution_identity():
    start = time.perf_counter()
    spec = GraphSpec(phi=dft_matrix(2), modes=2, cutoff=10)
    rank_op = graph_resolution(spec, polar_scheme(11, 22), backend="rank")
    # Identity is recoverable only on the trusted block: the rank-(N+1)
    # truncation of the seed projector integrates to a ladder projector
    # whose corner entries genuinely differ from the identity (see ledger).
    rank_dev = identity_deviation(rank_op, trusted_mask(spec.space, 5))

    scheme = polar_scheme(8, 24)
    direct_devs = []
    for cutoff in (12, 16, 20):
        spec_n = GraphSpec(phi=dft_matrix(2), modes=2, cutoff=cutoff)
        direct_op = graph_resolution(spec_n, scheme, backend="direct")
        direct_devs.append(identity_deviation(direct_op, trusted_mask(spec_n.space, 5)))
    elapsed = time.perf_counter() - start
    ok = (
        rank_dev <= 1e-10
        and direct_devs[1] <= 1e-4
        and non_increasing(direct_devs)
        and elapsed < 180.0
    )
    assert verdict(4, "graph-generator resolution of identity", ok,
                   f"rank backend {rank_dev:.2e}, direct ladder "
                   f"{['%.2e' % d for d in direct_devs]}, {elapsed:.1f}s")


def test_criterion_5_anticlique_compression():
    # Ten seeded draws at cutoff 20 with radii up to 1 and Haar mode-mixing
    # unitaries.  The identity P G P = C(..) P is exact in infinite dimension
    # and is verified on the trusted block: occupations m with
    # m + a^2 + 2a sqrt(m) <= cutoff at the worst combined displacement
    # a = x + r = 2, i.e. block 6 (full-matrix deviations are first order in
    # the top-ladder truncation loss and cannot reach 1e-6 here; see ledger).
    start = time.perf_counter()
    rng = rng_for(5)
    block = 6
    worst_frob = worst_scalar = 0.0
    for _ in range(10):
        spec = GraphSpec(phi=haar_unitary(2, rng), modes=2, cutoff=20)
        anticlique = draw_generator_params(2, rng, max_radius=1.0)
        generator = draw_generator_params(2, rng, max_radius=1.0)
        result = compression_check(spec, anticlique, [generator], trusted_block=block)
        worst_frob = max(worst_frob, result.frobenius_deviation)
        worst_scalar = max(worst_scalar, result.scalar_relative_error)

    spec = GraphSpec(phi=haar_unitary(2, rng), modes=2, cutoff=20)
    anticlique = draw_generator_params(2, rng, max_radius=1.0)
    generators = [draw_generator_params(2, rng, max_radius=1.0) for _ in range(3)]
    weights = [1.0 + 0.5j, -0.25 + 1.0j, 0.8 - 0.1j]
    combo = compression_check(spec, anticlique, generators, weights=weights, trusted_block=block)
    elapsed = time.perf_counter() - start

    ok = (
        worst_frob <= 1e-6
        and worst_scalar <= 1e-6
        and combo.frobenius_deviation <= 1e-6
        and combo.scalar_relative_error <= 1e-6
        and elapsed < 120.0
    )
    assert verdict(5, "anticlique compression", ok,
                   f"worst Frobenius {worst_frob:.2e}, worst scalar {worst_scalar:.2e}, "
                   f"combination {combo.frobenius_deviation:.2e}/{combo.scalar_relative_error:.2e}, "
                   f"{elapsed:.1f}s")


def test_criterion_6_weyl_algebra():
    start = time.perf_counter()
    space = ModeSpace(2, 24)
    rng = rng_for(6)
    vacuum = np.zeros(space.dim)
    vacuum[0] = 1.0
    worst_comp = worst_action = worst_kernel = 0.0
    for _ in range(20):
        f = _draw_coords(rng, 2, rng.uniform(0.2, 1.0))
        g = _draw_coords(rng, 2, rng.uniform(0.2, 1.0))
        total = float(np.linalg.norm(f) + np.linalg.norm(g))
        mask = trusted_mask(space, trusted_cutoff(24, total))

        # Composition law, applied to the vacuum: the operator entries
        # beyond the reach of truncation are exercised through the states
        # the algebra acts on (see ledger for the operator-block variant).
        lhs = weyl_operator(f, space) @ (weyl_operator(g, space) @ vacuum)
        rhs = weyl_phase(f, g) * (weyl_operator(f + g, space) @ vacuum)
        worst_comp = max(worst_comp, float(np.abs((lhs - rhs)[mask]).max()))

        worst_action = max(worst_action, apply_weyl_to_exponential_check(f, g, space))

        kernel = state_inner(exponential_vector_embed(f, space), exponential_vector_embed(g, space))
        expected = np.exp(np.vdot(f, g))
        worst_kernel = max(worst_kernel, abs(kernel - expected) / abs(expected))
    elapsed = time.perf_counter() - start
    ok = (
        worst_comp <= 1e-8
        and worst_action <= 1e-8
        and worst_kernel <= 1e-8
        and elapsed < 60.0
    )
    assert verdict(6, "Weyl composition, action and kernel", ok,
                   f"composition {worst_comp:.2e}, action {worst_action:.2e}, "
                   f"kernel {worst_kernel:.2e}, {elapsed:.1f}s")


def test_criterion_7_oracle_equivalence():
    start = time.perf_counter()
    rng = rng_for(7)
    alphas = [2.0, 2.0j, -2.0, -2.0j]
    alphas += [rng.uniform(0, 2) * np.exp(2j * math.pi * rng.uniform()) for _ in range(8)]
    worst = 0.0
    for alpha in alphas:
        closed = displacement_matrix(alpha, 8)
        oracle = expm_displacement_oracle(alpha, 8, 24)
        worst = max(worst, float(np.abs(closed - oracle).max()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    assert verdict(7, "closed form vs matrix-exponential oracle", ok,
                   f"worst entrywise {worst:.2e}, {elapsed:.2f}s")


def test_criterion_8_determinism(tmp_path):
    start = time.perf_counter()
    # The subprocess runs the same fockgraph these tests import.
    package_root = str(Path(fockgraph.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    outputs = []
    for label in ("first", "second"):
        outdir = tmp_path / label
        outdir.mkdir()
        result = subprocess.run(
            [sys.executable, "-m", "fockgraph", "--seed", "42", "--quiet",
             "--out", str(outdir / "report.json")],
            capture_output=True,
            text=True,
            env=env,
        )
        assert result.returncode == 0, result.stderr
        bundle = {}
        for path in sorted(outdir.glob("report_*.json")):
            bundle[path.name] = re.sub(r'"runtime_ms": \d+', '"runtime_ms": 0', path.read_text())
        outputs.append(bundle)
    elapsed = time.perf_counter() - start
    identical = outputs[0] == outputs[1] and len(outputs[0]) == 5
    assert verdict(8, "byte-identical default suite", identical,
                   f"{len(outputs[0])} reports compared, {elapsed:.1f}s")


def _draw_coords(rng, modes, norm):
    raw = rng.standard_normal(modes) + 1j * rng.standard_normal(modes)
    return raw / np.linalg.norm(raw) * norm
