"""Linear-algebra validators: square operators, Hermiticity, density operators."""

import numpy as np
import pytest

from netlocal import qlin
from netlocal.errors import DimensionError
from netlocal.network import singlet


def test_as_operator_rejects_nonsquare():
    with pytest.raises(DimensionError):
        qlin.as_operator(np.zeros((2, 3)))
    with pytest.raises(DimensionError):
        qlin.as_operator(np.zeros(4))


def test_hermitian_and_unit_vector_predicates():
    assert qlin.is_hermitian(np.array([[0.0, 1.0j], [-1.0j, 2.0]]))
    assert not qlin.is_hermitian(np.array([[0.0, 1.0], [2.0, 0.0]]))


def test_density_operator_predicate():
    assert qlin.is_density_operator(np.eye(4) / 4)
    assert qlin.is_density_operator(singlet())
    assert not qlin.is_density_operator(np.eye(4))          # trace 4
    assert not qlin.is_density_operator(np.diag([1.5, -0.5]))  # negative eigenvalue
