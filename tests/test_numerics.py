import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st

from fdmimo.numerics import (GRAM_CONDITION_LIMIT, RngStream,
                             SingularMatrixError, _GRAM_FAST_LIMIT,
                             _pseudo_inverse, _svd_pseudo_inverse,
                             bessel_j0, hermitian_sqrt,
                             left_pseudo_inverse, right_pseudo_inverse,
                             sample_complex_gaussian)


# ---------------------------------------------------------------- RngStream

def test_stream_reproducible():
    a = sample_complex_gaussian(4, 6, 1.0, RngStream(123, 5))
    b = sample_complex_gaussian(4, 6, 1.0, RngStream(123, 5))
    assert np.array_equal(a, b)


def test_streams_with_distinct_indices_differ():
    a = sample_complex_gaussian(4, 6, 1.0, RngStream(123, 5))
    b = sample_complex_gaussian(4, 6, 1.0, RngStream(123, 6))
    assert not np.array_equal(a, b)


def test_stream_independent_of_creation_order():
    late = RngStream(9, 1000).generator().standard_normal(8)
    early = RngStream(9, 1000).generator().standard_normal(8)
    assert np.array_equal(late, early)


@pytest.mark.parametrize("seed,index", [(-1, 0), (0, -3)])
def test_stream_rejects_negative_keys(seed, index):
    with pytest.raises(ValueError):
        RngStream(seed, index)


def test_stream_defaults_to_index_zero():
    assert RngStream(7).stream_index == 0


# ------------------------------------------------------- complex Gaussians

def test_complex_gaussian_zero_variance_is_exact_zero():
    z = sample_complex_gaussian(3, 5, 0.0, RngStream(1))
    assert z.shape == (3, 5)
    assert np.all(z == 0.0)
    assert z.dtype == complex


def test_complex_gaussian_moments():
    z = sample_complex_gaussian(400, 500, 2.5, RngStream(11))
    power = np.mean(np.abs(z) ** 2)
    assert abs(power - 2.5) < 0.02
    # circular symmetry: real and imaginary parts carry half the power each
    assert abs(np.mean(z.real ** 2) - 1.25) < 0.02
    assert abs(np.mean(z.real * z.imag)) < 0.01


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
def test_complex_gaussian_rejects_bad_variance(bad):
    with pytest.raises(ValueError):
        sample_complex_gaussian(2, 2, bad, RngStream(0))


def test_complex_gaussian_rejects_negative_shape():
    with pytest.raises(ValueError):
        sample_complex_gaussian(-1, 2, 1.0, RngStream(0))


# --------------------------------------------------------- hermitian_sqrt

def _random_psd(n, seed):
    gen = RngStream(seed).generator()
    b = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
    return b @ b.conj().T / n


def test_hermitian_sqrt_squares_back():
    a = _random_psd(12, 3)
    s = hermitian_sqrt(a)
    assert np.linalg.norm(s @ s - a) < 1e-12 * np.linalg.norm(a)
    assert np.linalg.norm(s - s.conj().T) < 1e-12 * np.linalg.norm(s)


def test_hermitian_sqrt_identity():
    assert np.allclose(hermitian_sqrt(np.eye(5)), np.eye(5), atol=1e-14)


def test_hermitian_sqrt_clamps_tiny_negative_eigenvalues():
    a = np.diag([1.0, -1e-12])  # rounding-level indefiniteness
    s = hermitian_sqrt(a)
    assert s[1, 1] == 0.0


def test_hermitian_sqrt_rejects_indefinite():
    with pytest.raises(ValueError, match="indefinite"):
        hermitian_sqrt(np.diag([1.0, -0.5]))


def test_hermitian_sqrt_rejects_non_hermitian():
    a = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="Hermitian"):
        hermitian_sqrt(a)


def test_hermitian_sqrt_rejects_non_square():
    with pytest.raises(ValueError):
        hermitian_sqrt(np.ones((2, 3)))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=10_000))
def test_hermitian_sqrt_property(n, seed):
    a = _random_psd(n, seed)
    s = hermitian_sqrt(a)
    assert np.linalg.norm(s @ s - a) <= 1e-10 * max(np.linalg.norm(a), 1e-30)


# --------------------------------------------------------- pseudo-inverses

def _random_complex(rows, cols, seed):
    gen = RngStream(seed).generator()
    return gen.standard_normal((rows, cols)) + 1j * gen.standard_normal((rows, cols))


def test_right_pseudo_inverse_is_right_inverse():
    a = _random_complex(6, 15, 2)
    x = right_pseudo_inverse(a)
    assert x.shape == (15, 6)
    assert np.linalg.norm(a @ x - np.eye(6)) < 1e-12


def test_left_pseudo_inverse_is_left_inverse():
    a = _random_complex(15, 6, 4)
    x = left_pseudo_inverse(a)
    assert x.shape == (6, 15)
    assert np.linalg.norm(x @ a - np.eye(6)) < 1e-12


def test_right_pseudo_inverse_rejects_tall():
    with pytest.raises(ValueError):
        right_pseudo_inverse(np.ones((4, 2)))


def test_left_pseudo_inverse_rejects_wide():
    with pytest.raises(ValueError):
        left_pseudo_inverse(np.ones((2, 4)))


def test_singular_input_raises():
    a = np.ones((3, 8), dtype=complex)  # rank one
    with pytest.raises(SingularMatrixError):
        right_pseudo_inverse(a)


def test_condition_guard_names_the_gram():
    # singular values 1 and 1e-7: Gram condition 1e14 > 1e12
    a = np.diag([1.0, 1e-7]) @ _unitary(2, 5)
    with pytest.raises(SingularMatrixError, match="A·Aᴴ"):
        right_pseudo_inverse(a)
    with pytest.raises(SingularMatrixError, match="Aᴴ·A"):
        left_pseudo_inverse(a.conj().T)


def _unitary(rows, cols, seed=0):
    q, _ = np.linalg.qr(_random_complex(cols, rows, seed))
    return q.conj().T


def test_condition_guard_boundary():
    # Gram condition just below the limit still inverts
    sigma = 1.0 / math.sqrt(GRAM_CONDITION_LIMIT) * 1.01
    a = np.diag([1.0, sigma]) @ _unitary(2, 6, seed=8)
    x = right_pseudo_inverse(a)
    assert np.linalg.norm(a @ x - np.eye(2)) < 1e-6


def test_stacked_pseudo_inverse_flags_only_the_failing_matrix():
    a = np.stack([_random_complex(3, 7, seed) for seed in range(5)])
    a[2] = 1.0  # rank one
    # singular values 1, 1, 1e-5: Gram condition about 1e10, past the
    # Gram route's limit but inside the guard, so the SVD takes it
    a[4] = np.diag([1.0, 1.0, 1e-5]) @ _unitary(3, 7, seed=9)
    x, failed = _pseudo_inverse(a, "A·Aᴴ")
    assert failed.tolist() == [False, False, True, False, False]
    assert np.array_equal(x[4], _svd_pseudo_inverse(a[4], "A·Aᴴ")[0])
    assert not np.array_equal(x[0], _svd_pseudo_inverse(a[0], "A·Aᴴ")[0])
    for i in (0, 1, 3, 4):
        assert np.array_equal(x[i], right_pseudo_inverse(a[i]))


def test_exactly_singular_gram_keeps_the_rest_of_the_stack():
    # an all-zero member makes the batched Gram inverse raise
    a = np.stack([_random_complex(7, 3, seed) for seed in range(3)])
    a[1] = 0.0
    x, failed = _pseudo_inverse(a, "Aᴴ·A")
    assert failed.tolist() == [False, True, False]
    for i in (0, 2):
        assert np.array_equal(x[i], left_pseudo_inverse(a[i]))
    with pytest.raises(SingularMatrixError, match="singular"):
        left_pseudo_inverse(a[1])


def _with_spread(rows, cols, decades, seed):
    """rows x cols matrix with singular values s from 1 down to
    10^-decades, and s."""
    r = min(rows, cols)
    s = np.logspace(0.0, -decades, r)
    u = _unitary(r, rows, seed).conj().T
    vh = _unitary(r, cols, seed + 1)
    return (u * s) @ vh, s


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=4),
       st.booleans(),
       st.lists(st.one_of(st.floats(0.0, 7.0),
                          # Gram condition within 2.5% of GRAM_CONDITION_LIMIT
                          st.floats(5.995, 6.005)),
                min_size=1, max_size=4),
       st.integers(min_value=0, max_value=10_000))
def test_pseudo_inverse_routes_agree_with_the_svd(rows, extra, tall, spreads,
                                                  seed):
    members = [_with_spread(rows, rows + extra, d, seed + 2 * i)
               for i, d in enumerate(spreads)]
    a = np.stack([m for m, _ in members])
    if tall:
        a = a.conj().swapaxes(-1, -2).copy()
    name = "Aᴴ·A" if tall else "A·Aᴴ"
    x, failed = _pseudo_inverse(a, name)
    ref, ref_failed = _svd_pseudo_inverse(a, name)
    assert np.array_equal(failed, ref_failed)
    eye = np.eye(rows)
    for i, (_, s) in enumerate(members):
        if not failed[i]:
            single = (left_pseudo_inverse if tall
                      else right_pseudo_inverse)(a[i])
            assert np.array_equal(x[i], single)
        kappa_a = s[0] / s[-1]
        kappa_f = math.sqrt(np.sum(s ** 4) * np.sum(s ** -4.0))
        if kappa_f > 2.0 * _GRAM_FAST_LIMIT:
            assert np.array_equal(x[i], ref[i])   # the SVD route itself
            continue
        # Both routes carry a forward error of order eps kappa(A), the
        # SVD's being the larger against the exact inverse, so beyond
        # kappa(A) = 1e3 the agreement bound grows with kappa(A).
        err = np.linalg.norm(x[i] - ref[i]) / np.linalg.norm(ref[i])
        assert err <= 1e-12 * max(1.0, kappa_a / 1e3)
        if kappa_f < 0.5 * _GRAM_FAST_LIMIT:
            res = x[i] @ a[i] if tall else a[i] @ x[i]
            assert np.linalg.norm(res - eye) < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=6),
       st.integers(min_value=0, max_value=10_000))
def test_right_inverse_property(rows, extra, seed):
    a = _random_complex(rows, rows + extra, seed)
    x = right_pseudo_inverse(a)
    assert np.linalg.norm(a @ x - np.eye(rows)) < 1e-9


# ------------------------------------------------------------------- J0

def _j0_reference_series(x):
    # independent oracle: direct power series with exact factorials
    total = 0.0
    for m in range(40):
        total += (-1) ** m * (x / 2.0) ** (2 * m) / math.factorial(m) ** 2
    return total


def test_j0_known_values():
    assert bessel_j0(0.0) == 1.0
    assert abs(bessel_j0(1.0) - 0.7651976865579665) < 1e-12
    # first zero of J0
    assert abs(bessel_j0(2.404825557695773)) < 1e-12


def test_j0_matches_reference_series_on_small_arguments():
    for x in np.linspace(0.0, 8.0, 161):
        assert abs(bessel_j0(float(x)) - _j0_reference_series(float(x))) < 1e-9


def test_j0_matches_scipy_across_working_range():
    x = np.linspace(0.0, 100.0, 200_001)
    err = np.abs(bessel_j0(x) - scipy.special.j0(x))
    assert err.max() < 1e-10


def test_j0_even_symmetry():
    x = np.array([0.3, 2.7, 14.9, 55.0])
    assert np.array_equal(bessel_j0(-x), bessel_j0(x))


def test_j0_scalar_and_array_forms():
    out = bessel_j0(np.array([0.0, 1.0]))
    assert out.shape == (2,)
    assert isinstance(bessel_j0(1.0), float)


@settings(max_examples=80, deadline=None)
@given(st.floats(min_value=-100.0, max_value=100.0, allow_nan=False))
def test_j0_bounded_by_one(x):
    assert abs(bessel_j0(x)) <= 1.0 + 1e-12
