import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orbitlab as ol
from orbitlab import _linalg
from orbitlab.errors import InvalidArgumentError


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
    one_sided = _linalg.rank_from_singular_values(
        _linalg.svd(a, vectors=False), floor=1e-4, one_sided=True)
    assert (two_sided.rank, two_sided.ambiguous) == (2, True)
    assert (one_sided.rank, one_sided.ambiguous) == (2, False)
    assert two_sided.kernel.shape == (3, 1)
    assert np.linalg.norm(a @ two_sided.kernel) <= 1e-4


# --- the direct-LAPACK SVD path -------------------------------------------

@pytest.mark.parametrize("complex_field", [False, True],
                         ids=["real", "complex"])
def test_nan_entry_raises_instead_of_a_silent_rank(complex_field):
    # a raw ?gesdd answers a NaN entry with info = -4 and zero singular
    # values, which would read as rank 0
    a = rank_deficient(6, 4, 2, complex_field, seed=5)
    a[2, 1] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        _linalg.matrix_rank(a)
    with pytest.raises(np.linalg.LinAlgError):
        _linalg.svd(a, vectors=False)


class _NoLapack:
    def __getattr__(self, name):
        raise AssertionError(f"LAPACK called ({name}) on an empty matrix")


@pytest.mark.parametrize("shape", [(36, 0), (0, 3), (0, 0)])
def test_empty_shapes_skip_lapack(monkeypatch, shape):
    # a raw ?gesdd reports an illegal value on stderr for an empty shape;
    # zero columns come from a dimension-0 algebra
    monkeypatch.setattr(_linalg, "lapack", _NoLapack())
    a = np.zeros(shape, dtype=complex)
    decision = _linalg.matrix_rank(a)
    assert (decision.rank, decision.ambiguous) == (0, False)
    assert decision.kernel.shape == (shape[1], shape[1])
    assert _linalg.svd(a, vectors=False).shape == (0,)
    u, s, vh = _linalg.svd(a)
    assert (u.shape, s.shape, vh.shape) == ((shape[0], 0), (0,),
                                            (0, shape[1]))


def test_svd_factors_in_numpy_layout():
    # the routine numpy.linalg.svd runs, returned in its C-ordered layout
    # (products downstream then run on the same memory order)
    for complex_field in (False, True):
        for m, k in [(36, 3), (3, 36), (70, 72), (6, 6)]:
            a = rank_deficient(m, k, min(m, k), complex_field, seed=m + k)
            expected = np.linalg.svd(a, compute_uv=False)
            for full in (False, True):
                u, s, vh = _linalg.svd(a, full_matrices=full)
                width = max(m, k) if full else min(m, k)
                assert u.shape == (m, m if full else width)
                assert vh.shape == (k if full else width, k)
                assert u.flags.c_contiguous and vh.flags.c_contiguous
                assert np.allclose(s, expected, rtol=1e-12, atol=0.0)
                assert np.allclose((u[:, :len(s)] * s) @ vh[:len(s)], a,
                                   rtol=0.0, atol=1e-12 * s[0])
                assert np.allclose(u.conj().T @ u, np.eye(u.shape[1]),
                                   atol=1e-12)
                assert np.allclose(vh @ vh.conj().T, np.eye(vh.shape[0]),
                                   atol=1e-12)
            assert np.allclose(_linalg.svd(a, vectors=False), expected,
                               rtol=1e-12, atol=0.0)


def _numpy_rank_decision(s, rtol, floor, one_sided):
    """The rank count written as numpy reductions over an array."""
    s = np.asarray(s, dtype=float)
    if s.size == 0 or s.max() == 0.0:
        return 0, False
    cutoff = max(rtol * float(s.max()), floor)
    rank = int((s > cutoff).sum())
    lo = cutoff if one_sided else cutoff / _linalg.AMBIGUITY_BAND
    hi = cutoff * _linalg.AMBIGUITY_BAND
    return rank, bool(np.any((s > lo) & (s <= hi)))


@st.composite
def singular_values(draw):
    """Singular values with the cutoff, both band edges and their float
    neighbours among them, and a floor that may lie above rtol * max."""
    top = draw(st.floats(1e-6, 1e6))
    rtol = draw(st.sampled_from([1e-9, 1e-3, 0.5]))
    floor = draw(st.sampled_from([0.0, 0.0, rtol * top * 3.0, top * 2.0]))
    cutoff = max(rtol * top, floor)
    band = _linalg.AMBIGUITY_BAND
    marks = [cutoff, cutoff / band, cutoff * band]
    specials = marks + [np.nextafter(x, d) for x in marks
                        for d in (0.0, np.inf)]
    rest = draw(st.lists(st.one_of(st.sampled_from(specials),
                                   st.floats(0.0, top)), max_size=6))
    return [top] + rest, rtol, floor, draw(st.booleans())


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(singular_values())
def test_float_list_count_keeps_the_numpy_semantics(case):
    s, rtol, floor, one_sided = case
    for values in (s, np.array(s)):
        decision = _linalg.rank_from_singular_values(values, rtol, floor,
                                                     one_sided)
        assert ((decision.rank, decision.ambiguous)
                == _numpy_rank_decision(s, rtol, floor, one_sided))
        assert type(decision.rank) is int
        assert type(decision.ambiguous) is bool


def test_eigh_checks_info():
    # a NaN entry fails ?heevd and ?syevd with a nonzero info
    for dtype in (complex, float):
        with pytest.raises(np.linalg.LinAlgError):
            _linalg.eigh(np.full((3, 3), np.nan, dtype=dtype))


@pytest.mark.parametrize("rtol", [0.0, -1e-9, 1.0, 20.0, np.inf, np.nan])
def test_cutoff_outside_the_unit_interval_is_refused(rtol):
    # at 1 or more even the largest value falls below the cutoff, and a
    # NaN cutoff compares false with every value: both read rank 0
    for s in ([1.0, 1e-3], [0.0]):
        with pytest.raises(InvalidArgumentError):
            _linalg.rank_from_singular_values(s, rtol)


def test_decision_entry_points_refuse_a_cutoff_that_decides_nothing(
        alt6, sl6, sl2_block, v0, x_translate):
    # each passes its cutoff down to the rank count; at the default
    # cutoff these read 14, non_closed and reductive
    with pytest.raises(InvalidArgumentError):
        ol.orbit_dimension_info(alt6, ol.lie_algebra_basis(sl6), v0, 20.0)
    with pytest.raises(InvalidArgumentError):
        ol.closedness_verdict(alt6, sl2_block, x_translate, rtol=np.inf)
    sl2 = ol.lie_algebra_basis(ol.special_linear(2, "complex"))
    with pytest.raises(InvalidArgumentError):
        ol.reductivity_verdict(sl2, rtol=1.0)
