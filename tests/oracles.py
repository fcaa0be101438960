"""Independent oracles, kept with the tests.

Closed forms for coherent overlaps and the displacement composition phase,
and the displacement matrix by exponentiating the truncated generator: none
of them shares a code path with ``fockgraph.fock``, which is what makes them
oracles for it.  The seed projector checks on the dense ``dim x dim``
projector, which the runner reads grade by grade.
"""

import cmath
import math

import numpy as np


def coherent_overlap(alpha: complex, beta: complex) -> complex:
    """Overlap <beta|alpha> = exp(-|a|^2/2 - |b|^2/2 + conj(b)*a).

    Inner products are antilinear in the first slot throughout the package.
    The squared modulus is exp(-|a - b|^2).
    """
    alpha = complex(alpha)
    beta = complex(beta)
    exponent = -0.5 * abs(alpha) ** 2 - 0.5 * abs(beta) ** 2 + beta.conjugate() * alpha
    return cmath.exp(exponent)


def displacement_compose_phase(alpha: complex, beta: complex) -> complex:
    """Unit-modulus phase in D(a)D(b) = phase * D(a+b)."""
    alpha = complex(alpha)
    beta = complex(beta)
    return cmath.exp(0.5 * (alpha * beta.conjugate() - alpha.conjugate() * beta))


def min_oracle_buffer(alpha: complex) -> int:
    """Smallest inflation of the cutoff accepted by the expm oracle."""
    a = abs(complex(alpha))
    return 2 * math.ceil(a * a + 3.0 * a) + 4


def expm_displacement_oracle(alpha: complex, cutoff: int, buffer: int) -> np.ndarray:
    """Displacement matrix by truncated-generator exponentiation.

    Builds alpha*adag - conj(alpha)*a at cutoff + buffer, exponentiates by
    scaling-and-squaring Taylor summation, and restricts to the top-left
    (cutoff+1) x (cutoff+1) block.  Independent of the Laguerre closed form,
    which is exactly why it serves as the oracle for it.
    """
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    needed = min_oracle_buffer(alpha)
    if buffer < needed:
        raise ValueError(f"buffer {buffer} too small for |alpha|={abs(complex(alpha)):.3f}; need >= {needed}")
    alpha = complex(alpha)
    dim = cutoff + buffer + 1
    lower = np.diag(np.sqrt(np.arange(1.0, dim)), 1)  # annihilation
    generator = alpha * lower.conj().T - alpha.conjugate() * lower
    return _expm_taylor(generator)[: cutoff + 1, : cutoff + 1]


def _expm_taylor(matrix: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(matrix, 1)
    squarings = max(0, int(math.ceil(math.log2(norm))) + 1) if norm > 0 else 0
    scaled = matrix / (2.0**squarings)
    dim = matrix.shape[0]
    result = np.eye(dim, dtype=complex)
    term = np.eye(dim, dtype=complex)
    for j in range(1, 64):
        term = term @ scaled / j
        result = result + term
        if np.max(np.abs(term)) < 1e-20:
            break
    for _ in range(squarings):
        result = result @ result
    return result


def dense_projection_deviations(basis: np.ndarray, quad: np.ndarray, box: np.ndarray) -> dict:
    """Projector checks of the dense P = B B^dag, and of its box rows against ``quad``.

    ``box`` holds the indices of the rows and columns ``quad`` is the block
    of.  Keys and meanings as in the runner's grade-by-grade check, which
    adds the off-grade entries of B.
    """
    projector = basis @ basis.conj().T
    residual = projector @ projector - projector
    return {
        "idempotency": float(np.abs(residual).max()),
        "hermiticity": float(np.abs(projector - projector.conj().T).max()),
        "trace": abs(float(np.trace(projector).real) - basis.shape[1]),
        "backend": float(np.abs(projector[np.ix_(box, box)] - quad).max()),
        "frobenius": float(np.linalg.norm(residual) / np.linalg.norm(projector)),
    }
