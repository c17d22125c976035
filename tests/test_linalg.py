import numpy as np
import pytest

from orbitlab import _linalg


def rank_deficient(m, k, rank, complex_field, seed):
    """An m x k matrix of exactly the given rank (a product of factors)."""
    rng = np.random.default_rng(seed)

    def draw(shape):
        if complex_field:
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return rng.standard_normal(shape)

    return draw((m, rank)) @ draw((rank, k))


SHAPES = {"wide": (3, 7, 2), "square": (5, 5, 3), "tall": (9, 4, 2)}


@pytest.mark.parametrize("complex_field", [False, True],
                         ids=["real", "complex"])
@pytest.mark.parametrize("shape", SHAPES)
def test_rank_plus_nullity_is_the_column_count(shape, complex_field):
    m, k, rank = SHAPES[shape]
    a = rank_deficient(m, k, rank, complex_field, seed=m * k)
    decision = _linalg.matrix_rank(a)
    kernel = _linalg.null_space(a)
    assert (decision.rank, decision.ambiguous) == (rank, False)
    assert kernel.shape == (k, k - rank)
    assert decision.rank + kernel.shape[1] == k
    assert np.allclose(kernel.conj().T @ kernel, np.eye(k - rank), atol=1e-12)
    assert np.linalg.norm(a @ kernel) <= 1e-12 * np.linalg.norm(a)


@pytest.mark.parametrize("shape", [(3, 4), (4, 3), (0, 4), (4, 0), (0, 0)])
def test_zero_and_empty_matrices(shape):
    a = np.zeros(shape)
    k = shape[1]
    decision = _linalg.matrix_rank(a)
    kernel = _linalg.null_space(a)
    assert (decision.rank, decision.ambiguous) == (0, False)
    assert kernel.shape == (k, k)
    assert np.allclose(kernel.T @ kernel, np.eye(k))


def test_real_span_doubles_the_dimension_of_a_complex_line():
    e12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    mats = np.array([e12, 1j * e12])
    real = _linalg.orthonormal_span(mats, real_span=True)
    own_field = _linalg.orthonormal_span(mats)
    assert real.shape == (2, 2, 2)
    assert own_field.shape == (1, 2, 2)
    gram = np.einsum("aij,bij->ab", real, real.conj()).real
    assert np.allclose(gram, np.eye(2), atol=1e-12)
    assert abs(np.vdot(own_field[0], own_field[0]) - 1.0) <= 1e-12


def test_orthonormal_span_of_nothing_is_empty():
    for real_span in (False, True):
        out = _linalg.orthonormal_span(np.zeros((0, 3, 3), dtype=complex),
                                       real_span=real_span)
        assert out.shape == (0, 3, 3)


def test_null_space_is_the_kernel_of_the_rank_decision():
    a = rank_deficient(6, 4, 2, True, seed=11)
    decision = _linalg.matrix_rank(a)
    assert np.array_equal(_linalg.null_space(a), decision.kernel)
    assert decision.kernel.shape == (4, 2)


def test_floor_and_one_sided_band_of_the_rank_decision():
    # singular values 1, 1e-3 and 5e-5 against a floor of 1e-4: the last
    # one is floored away, and lies in the lower half of the band
    q = np.linalg.qr(np.random.default_rng(3).standard_normal((5, 5)))[0]
    a = q[:, :3] @ np.diag([1.0, 1e-3, 5e-5])
    two_sided = _linalg.matrix_rank(a, floor=1e-4)
    one_sided = _linalg.matrix_rank(a, floor=1e-4, one_sided=True)
    assert (two_sided.rank, two_sided.ambiguous) == (2, True)
    assert (one_sided.rank, one_sided.ambiguous) == (2, False)
    assert one_sided.kernel.shape == (3, 1)
    assert np.linalg.norm(a @ one_sided.kernel) <= 1e-4
