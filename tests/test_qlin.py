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


@pytest.mark.parametrize("rtol", [0.0, 1e-5])
def test_close_to_agrees_with_allclose_at_the_tolerance_edge(rtol):
    rng = np.random.default_rng(3)
    atol = 1e-10
    verdicts = set()
    for scale in (1e-12, 1e-6, 1.0, 1e3):
        for _ in range(20):
            b = scale * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
            edge = atol + rtol * np.abs(b)
            # every entry just inside, at, or just outside its tolerance
            for factor in (1 - 1e-9, 1.0, 1 + 1e-9):
                phase = np.exp(2j * np.pi * rng.uniform(size=b.shape))
                a = b + factor * edge * phase
                want = bool(np.allclose(a, b, atol=atol, rtol=rtol))
                assert qlin.close_to(a, b, atol, rtol) is want
                verdicts.add(want)
    assert verdicts == {True, False}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_close_to_refuses_nan_and_inf(bad):
    b = np.eye(2)
    a = b.copy()
    a[0, 1] = bad
    assert not qlin.close_to(a, b, 1e-10, 1e-5)
    assert not qlin.close_to(b, a, 1e-10, 1e-5)
    # allclose takes inf == inf as close; close_to does not
    assert not qlin.close_to(a, a.copy(), 1e-10, 1e-5)
    assert not qlin.is_hermitian(a)
