"""Validators for the operators that describe sources and measurements.

Operators are plain numpy arrays with dtype complex128 (row-major; each entry
is a pair of 64-bit floats).  network uses these to coerce a square matrix
and to check Hermiticity and density operators (Hermitian, unit trace,
positive semidefinite) within a tolerance.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError

ATOL = 1e-10


def as_operator(m) -> np.ndarray:
    """Coerce to a square complex matrix, raising DimensionError otherwise."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {arr.shape}")
    return arr


def is_hermitian(m, atol: float = ATOL) -> bool:
    m = as_operator(m)
    return bool(np.allclose(m, m.conj().T, atol=atol, rtol=0.0))


def is_density_operator(m, atol: float = ATOL) -> bool:
    """Hermitian, unit trace, and positive semidefinite within atol."""
    m = as_operator(m)
    if not is_hermitian(m, atol):
        return False
    if abs(np.trace(m).real - 1.0) > atol or abs(np.trace(m).imag) > atol:
        return False
    evals = np.linalg.eigvalsh((m + m.conj().T) / 2)
    return bool(evals.min() >= -atol)
