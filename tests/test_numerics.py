import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st

from fdmimo.numerics import (GRAM_CONDITION_LIMIT, RngStream,
                             SingularMatrixError, _svd_pseudo_inverse,
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
    a = np.stack([_random_complex(3, 7, seed) for seed in range(4)])
    a[2] = 1.0  # rank one
    x, failed = _svd_pseudo_inverse(a, "A·Aᴴ")
    assert failed.tolist() == [False, False, True, False]
    for i in (0, 1, 3):
        assert np.array_equal(x[i], right_pseudo_inverse(a[i]))


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
