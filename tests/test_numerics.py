import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st

import fdmimo.numerics as numerics
from fdmimo.numerics import (_GRAM_FAST_LIMIT, _SVD_RESIDUAL_LIMIT,
                             RngStream, Streams, _complex_gaussians,
                             _seed_pool, _stream_keys,
                             _svd_pseudo_inverse,
                             bessel_j0, hermitian_sqrt, left_pseudo_inverse,
                             right_pseudo_inverse)

from conftest import drawn_rows


# ---------------------------------------------------------------- RngStream

def test_stream_reproducible():
    a = RngStream(123, 5).generator().standard_normal((4, 6))
    b = RngStream(123, 5).generator().standard_normal((4, 6))
    assert np.array_equal(a, b)


def test_streams_with_distinct_indices_differ():
    a = RngStream(123, 5).generator().standard_normal((4, 6))
    b = RngStream(123, 6).generator().standard_normal((4, 6))
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


def _numpy_key(seed, index):
    return np.random.SeedSequence(seed, spawn_key=(index,)).generate_state(
        2, np.uint64)


SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**130 + 11]
# from 2^32 an index takes two spawn words, from 2^64 three
INDICES = [0, 1, 2**31, 2**32 - 1, 2**32, 2**40 + 5, 2**64 + 9]


@pytest.mark.parametrize("seed", SEEDS)
def test_stream_keys_equal_numpys_seed_sequence(seed):
    # one pass over indices of every word count, and each index alone
    keys = _stream_keys(_seed_pool(seed), INDICES)
    assert keys.shape == (len(INDICES), 2) and keys.dtype == np.uint64
    for key, index in zip(keys, INDICES):
        assert np.array_equal(key, _numpy_key(seed, index))
        assert np.array_equal(_stream_keys(_seed_pool(seed), [index])[0], key)
    assert _stream_keys(_seed_pool(seed), []).shape == (0, 2)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**160),
       st.integers(min_value=0, max_value=2**70))
def test_stream_key_property(seed, index):
    assert np.array_equal(_stream_keys(_seed_pool(seed), [index])[0],
                          _numpy_key(seed, index))


def test_stream_keys_reject_negative_indices():
    with pytest.raises(ValueError, match="nonnegative"):
        _stream_keys(_seed_pool(3), [2**64, -1])
    with pytest.raises(ValueError):
        Streams(-1)


@pytest.mark.parametrize("seed", [0, 2**64 + 3])
def test_rekeyed_philox_draws_the_seed_sequence_streams(seed):
    # the re-keyed Philox, after a draw of another stream and filling
    # rows of two outs of different widths, and RngStream.generator all
    # draw a fresh SeedSequence generator's normals
    indices = [3, 2**32 + 1, 0]
    streams = Streams(seed)
    streams.normals([7], [np.empty((1, 5))])
    outs = [np.empty((1, 11)), np.empty((2, 6))]
    streams.normals(indices, outs)
    for row, index in zip([*outs[0], *outs[1]], indices):
        fresh = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(seed, spawn_key=(index,))))
        want = fresh.standard_normal(row.size)
        assert np.array_equal(row, want)
        assert np.array_equal(
            RngStream(seed, index).generator().standard_normal(row.size),
            want)


# ------------------------------------------------------- complex Gaussians

def _complex_stack(*shape):
    return np.full(shape, np.nan, dtype=complex)


def test_complex_gaussian_zero_variance_is_exact_zero():
    z = _complex_stack(1, 3, 5)
    _complex_gaussians(drawn_rows(1, [0], [z.shape[1:]]), [z], [0.0])
    assert np.all(z == 0.0)


def test_complex_gaussian_moments():
    z = _complex_stack(1, 400, 500)
    _complex_gaussians(drawn_rows(11, [0], [z.shape[1:]]), [z], [2.5])
    power = np.mean(np.abs(z) ** 2)
    assert abs(power - 2.5) < 0.02
    # circular symmetry: real and imaginary parts carry half the power each
    assert abs(np.mean(z.real ** 2) - 1.25) < 0.02
    assert abs(np.mean(z.real * z.imag)) < 0.01


def test_complex_gaussians_follow_the_stream_layout():
    # one draw per stream, one row per stream: matrix after matrix, each
    # its real parts then its imaginary parts, row-major; equal bit for bit
    # to separate draws of each part and the complex product
    a, b = _complex_stack(2, 2, 3), _complex_stack(2, 4, 1)
    _complex_gaussians(drawn_rows(5, [2, 9], [a.shape[1:], b.shape[1:]]),
                       [a, b], [1.0, 0.3])
    for i, index in enumerate([2, 9]):
        gen = RngStream(5, index).generator()
        for out, variance in ((a, 1.0), (b, 0.3)):
            rows, cols = out.shape[1:]
            re = gen.standard_normal((rows, cols))
            im = gen.standard_normal((rows, cols))
            want = np.sqrt(variance / 2.0) * (re + 1j * im)
            assert np.array_equal(out[i], want)
            assert np.array_equal(np.signbit(out[i].real),
                                  np.signbit(want.real))


def test_complex_gaussians_reject_rows_of_another_width():
    # a row too narrow or too wide for the stacks would shift every
    # matrix after the first off its stream's layout
    z = _complex_stack(2, 3, 5)
    for width in (29, 31):
        with pytest.raises(ValueError, match=r"^%d normals per stream do "
                           r"not fill complex matrices of shapes "
                           r"\[\(3, 5\)\]$" % width):
            _complex_gaussians(np.zeros((2, width)), [z], [1.0])


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
    x, failed = right_pseudo_inverse(a)
    assert x.shape == (15, 6)
    assert failed.shape == () and not failed
    assert np.linalg.norm(a @ x - np.eye(6)) < 1e-12


def test_left_pseudo_inverse_is_left_inverse():
    a = _random_complex(15, 6, 4)
    x, failed = left_pseudo_inverse(a)
    assert x.shape == (6, 15)
    assert not failed
    assert np.linalg.norm(x @ a - np.eye(6)) < 1e-12


def test_right_pseudo_inverse_rejects_tall():
    with pytest.raises(ValueError):
        right_pseudo_inverse(np.ones((4, 2)))
    with pytest.raises(ValueError):
        right_pseudo_inverse(np.ones((3, 4, 2)))
    with pytest.raises(ValueError):
        right_pseudo_inverse(np.ones(4))


def test_left_pseudo_inverse_rejects_wide():
    with pytest.raises(ValueError):
        left_pseudo_inverse(np.ones((2, 4)))
    with pytest.raises(ValueError):
        left_pseudo_inverse(np.ones((3, 2, 4)))


def _residual(product):
    """||P - E||_F of the product P of a matrix and a one-sided inverse,
    E the identity's first columns: ||A X - E_K||_F of a right inverse's
    first columns X, or ||X A - I||_F of a left inverse X."""
    return np.linalg.norm(product - np.eye(*product.shape))


def test_singular_and_ill_conditioned_inputs_are_flagged():
    assert right_pseudo_inverse(np.ones((3, 8), dtype=complex))[1]  # rank 1
    # singular values 1 and 1e-9: the SVD's residual, about eps / 1e-9, is
    # past the bound, either side
    a = np.diag([1.0, 1e-9]) @ _unitary(2, 5)
    assert right_pseudo_inverse(a)[1]
    assert left_pseudo_inverse(a.conj().T)[1]


def _unitary(rows, cols, seed=0):
    q, _ = np.linalg.qr(_random_complex(cols, rows, seed))
    return q.conj().T


def test_svd_residual_bound_boundary():
    # singular values 1 and sigma: the SVD route's residual, about
    # eps / sigma, is within the bound at sigma = 1e-6, a Gram condition of
    # 1e12, and past it at 1e-9
    for sigma, fails in ((1e-6, False), (1e-9, True)):
        a = np.diag([1.0, sigma]) @ _unitary(2, 6, seed=8)
        x, failed = right_pseudo_inverse(a)
        assert failed == fails
        assert (_residual(a @ x) > _SVD_RESIDUAL_LIMIT) == fails
        assert np.isfinite(x).all()


def test_stacked_pseudo_inverse_flags_only_the_failing_matrix():
    a = np.stack([_random_complex(3, 7, seed) for seed in range(5)])
    a[2] = 1.0  # rank one
    # singular values 1, 1, 1e-5: Gram condition about 1e10, past the
    # Gram route's limit, so the SVD takes it, and its residual passes
    a[4] = np.diag([1.0, 1.0, 1e-5]) @ _unitary(3, 7, seed=9)
    for keep in (None, 1, 2, 3):
        x, failed = right_pseudo_inverse(a, keep=keep)
        assert x.shape == (5, 7, 3 if keep is None else keep)
        assert failed.tolist() == [False, False, True, False, False]
        assert np.array_equal(x[4], _svd_pseudo_inverse(a[4], keep)[0])
        assert not np.array_equal(x[0], _svd_pseudo_inverse(a[0], keep)[0])
        for i in range(5):
            assert np.array_equal(x[i],
                                  right_pseudo_inverse(a[i], keep=keep)[0])
        # every member on the SVD route keeps the SVD inverse's first
        # columns
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(numerics, "_GRAM_FAST_LIMIT", 0.0)
            x, failed = right_pseudo_inverse(a, keep=keep)
        assert failed.tolist() == [False, False, True, False, False]
        assert np.array_equal(x, _svd_pseudo_inverse(a, keep)[0])


def test_singular_members_fail_alone_with_finite_inverses():
    # an all-zero member, whose zero singular values scale no row, and a
    # rank-one member fail by their residual on either inverse; the other
    # members, one of them on the SVD route, keep their one-matrix results
    a = np.stack([_random_complex(3, 7, seed) for seed in range(4)])
    a[1] = 0.0
    a[2] = 1.0
    a[3] = np.diag([1.0, 1.0, 1e-5]) @ _unitary(3, 7, seed=9)
    tall = a.conj().swapaxes(-1, -2).copy()
    for inverse, stack, product in (
            (right_pseudo_inverse, a, lambda a, x: a @ x),
            (left_pseudo_inverse, tall, lambda a, x: x @ a)):
        x, failed = inverse(stack)
        assert failed.tolist() == [False, True, True, False]
        assert np.isfinite(x).all()
        for i in range(4):
            assert np.array_equal(x[i], inverse(stack[i])[0])
            residual = _residual(product(stack[i], x[i]))
            assert (residual > _SVD_RESIDUAL_LIMIT) == failed[i]


def test_exactly_singular_gram_keeps_the_rest_of_the_stack():
    # an all-zero member makes the batched Gram inverse raise
    a = np.stack([_random_complex(7, 3, seed) for seed in range(3)])
    a[1] = 0.0
    x, failed = left_pseudo_inverse(a)
    assert failed.tolist() == [False, True, False]
    for i in (0, 2):
        assert np.array_equal(x[i], left_pseudo_inverse(a[i])[0])
    assert left_pseudo_inverse(a[1])[1]
    # the left inverse is the right inverse of A^H, conjugated and
    # transposed, bit for bit on both routes: singular values of a[2]
    # about 1e-5 and 1 put its Gram condition past the Gram route's
    # limit, so the SVD takes it
    a[2][:, 0] *= 1e-5
    x, failed = left_pseudo_inverse(a)
    y, y_failed = right_pseudo_inverse(a.conj().swapaxes(-1, -2))
    assert failed.tolist() == y_failed.tolist() == [False, True, False]
    for i in (0, 2):
        assert np.array_equal(x[i], y[i].conj().swapaxes(-1, -2))


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
       st.lists(st.one_of(st.floats(0.0, 9.0),
                          # an SVD residual near _SVD_RESIDUAL_LIMIT
                          st.floats(6.5, 7.5)),
                min_size=1, max_size=4),
       st.integers(min_value=0, max_value=10_000), st.data())
def test_pseudo_inverse_routes_agree_with_the_svd(rows, extra, tall, spreads,
                                                  seed, data):
    members = [_with_spread(rows, rows + extra, d, seed + 2 * i)
               for i, d in enumerate(spreads)]
    a = np.stack([m for m, _ in members])
    # the right inverse's first keep columns, the left inverse whole
    keep = None if tall else data.draw(st.integers(1, rows), label="keep")
    if tall:
        a = a.conj().swapaxes(-1, -2).copy()
        inverse = left_pseudo_inverse
    else:
        def inverse(a):
            return right_pseudo_inverse(a, keep=keep)
    x, failed = inverse(a)
    if tall:
        # the left inverse is the transpose of the right inverse of A^T
        ref, ref_failed = _svd_pseudo_inverse(a.swapaxes(-1, -2),
                                               a.shape[-1])
        ref = ref.swapaxes(-1, -2)
    else:
        ref, ref_failed = _svd_pseudo_inverse(a, keep)
    full = right_pseudo_inverse(a)[0][..., :keep] if not tall else x
    assert np.array_equal(failed, ref_failed)
    assert np.isfinite(x).all()
    for i, (_, s) in enumerate(members):
        assert np.array_equal(x[i], inverse(a[i])[0])
        kappa_a = s[0] / s[-1]
        kappa_f = math.sqrt(np.sum(s ** 4) * np.sum(s ** -4.0))
        residual = _residual(x[i] @ a[i] if tall else a[i] @ x[i])
        if kappa_f > 2.0 * _GRAM_FAST_LIMIT:
            assert np.array_equal(x[i], ref[i])   # the SVD route itself
            # which fails where its residual is past the bound; near the
            # bound, the rounding of A X, of the residual's own order,
            # decides, so this product need not give the kernel's verdict
            if not 0.5 < residual / _SVD_RESIDUAL_LIMIT < 2.0:
                assert failed[i] == (residual > _SVD_RESIDUAL_LIMIT)
            continue
        assert not failed[i]
        # Both routes carry a forward error of order eps kappa(A), the
        # SVD's being the larger against the exact inverse, so beyond
        # kappa(A) = 1e3 the agreement bound grows with kappa(A).
        bound = 1e-12 * max(1.0, kappa_a / 1e3)
        err = np.linalg.norm(x[i] - ref[i]) / np.linalg.norm(ref[i])
        assert err <= bound
        # the kept columns are the full inverse's first columns
        err = np.linalg.norm(x[i] - full[i]) / np.linalg.norm(full[i])
        assert err <= bound
        if kappa_f < 0.5 * _GRAM_FAST_LIMIT:
            assert residual < 1e-12


def _at_gram_condition(rows, cols, kappa_f, seed):
    """A rows x cols matrix of _with_spread whose Gram's Frobenius
    condition number is kappa_f."""
    def kappa(decades):
        s = np.logspace(0.0, -decades, rows)
        return math.sqrt(np.sum(s ** 4) * np.sum(s ** -4.0))
    lo, hi = 0.0, 10.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if kappa(mid) < kappa_f else (lo, mid)
    return _with_spread(rows, cols, lo, seed)[0]


@pytest.mark.parametrize("rows, cols", [(30, 64), (10, 20)])
@pytest.mark.parametrize("keep", [None, 3])
def test_only_a_gram_condition_past_the_refine_limit_is_refined(rows, cols,
                                                                 keep):
    eye = np.eye(rows, keep)
    for factor, refined in ((0.9, False), (1.1, True)):
        a = _at_gram_condition(rows, cols, factor * numerics._REFINE_LIMIT,
                               seed=rows)
        x, failed = right_pseudo_inverse(a, keep=keep)
        assert not failed
        ah = a.conj().T
        gram_inv = np.linalg.inv(a @ ah)
        unrefined = ah @ gram_inv[:, :keep]
        if refined:
            assert np.array_equal(
                x, unrefined + ah @ (gram_inv @ (eye - a @ unrefined)))
            assert not np.array_equal(x, unrefined)
        else:
            assert np.array_equal(x, unrefined)
        assert np.max(np.abs(a @ x - eye)) <= 1e-12


def test_a_stack_refines_only_its_members_past_the_refine_limit():
    # below and past the limit, a failing member and one on the SVD route
    # (Gram condition 1e10): each member is what its one-matrix call gives
    rows, cols = 10, 20
    limit = numerics._REFINE_LIMIT
    a = np.stack([_at_gram_condition(rows, cols, 0.9 * limit, 1),
                  _at_gram_condition(rows, cols, 1.1 * limit, 3),
                  np.ones((rows, cols), dtype=complex),
                  _at_gram_condition(rows, cols, 0.1 * limit, 5),
                  _at_gram_condition(rows, cols, 1e10, 7),
                  _at_gram_condition(rows, cols, 1e3 * limit, 9)])
    kept = (0, 1, 3, 4, 5)
    for keep in (None, 4):
        x, failed = right_pseudo_inverse(a, keep=keep)
        assert failed.tolist() == [False, False, True, False, False, False]
        for i in kept:
            assert np.array_equal(x[i],
                                  right_pseudo_inverse(a[i], keep=keep)[0])
    # the left inverse takes the right inverse of a transposed view
    tall = a.conj().swapaxes(-1, -2).copy()
    x, failed = left_pseudo_inverse(tall)
    assert failed.tolist() == [False, False, True, False, False, False]
    for i in kept:
        assert np.array_equal(x[i], left_pseudo_inverse(tall[i])[0])


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=6),
       st.integers(min_value=0, max_value=10_000))
def test_right_inverse_property(rows, extra, seed):
    a = _random_complex(rows, rows + extra, seed)
    x, failed = right_pseudo_inverse(a)
    assert not failed
    assert np.linalg.norm(a @ x - np.eye(rows)) < 1e-9


# ------------------------------------------------------------------- J0

def _j0_reference_series(x):
    # independent oracle: direct power series with exact factorials
    total = 0.0
    for m in range(40):
        total += (-1) ** m * (x / 2.0) ** (2 * m) / math.factorial(m) ** 2
    return total


def _j0_node_by_node(x):
    # the midpoint rule summed one node at a time over the whole array
    arr = np.asarray(x, dtype=float)
    ax, inverse = np.unique(np.abs(arr).ravel(), return_inverse=True)
    nodes = int(ax.max(initial=0.0)) + 40
    total = np.zeros_like(ax)
    for c in np.cos((np.arange(nodes) + 0.5) * (np.pi / nodes)):
        total += np.cos(c * ax)
    return (total / nodes)[inverse].reshape(arr.shape)


@pytest.mark.parametrize("size", [1, 2, 17, 300, 3000])
def test_j0_blocks_match_the_node_by_node_sum(size):
    # bit for bit: up to 3000 distinct values a block holds several nodes
    rng = np.random.default_rng(size)
    x = rng.uniform(-1.0, 1.0, size) * 10.0 ** rng.uniform(-3.0, 3.0, size)
    assert np.array_equal(bessel_j0(x), _j0_node_by_node(x))


@pytest.mark.parametrize("x", [0.0, 5e4])
def test_j0_blocks_match_the_node_by_node_sum_on_scalars(x):
    assert np.array_equal(bessel_j0(x), _j0_node_by_node(x))


def test_j0_known_values():
    assert bessel_j0(0.0) == 1.0
    assert abs(bessel_j0(1.0) - 0.7651976865579665) < 1e-12
    # first zero of J0
    assert abs(bessel_j0(2.404825557695773)) < 1e-12


def test_j0_matches_reference_series_on_small_arguments():
    for x in np.linspace(0.0, 8.0, 161):
        assert abs(bessel_j0(float(x)) - _j0_reference_series(float(x))) < 1e-9


def test_j0_matches_scipy_across_working_range():
    x = np.linspace(0.0, 1000.0, 20_001)
    err = np.abs(bessel_j0(x) - scipy.special.j0(x))
    assert err.max() < 1e-14


def test_j0_even_symmetry():
    x = np.array([0.3, 2.7, 14.9, 55.0])
    assert np.array_equal(bessel_j0(-x), bessel_j0(x))


def test_j0_scalar_and_array_forms():
    out = bessel_j0(np.array([0.0, 1.0]))
    assert out.shape == (2,)


@settings(max_examples=80, deadline=None)
@given(st.floats(min_value=-100.0, max_value=100.0, allow_nan=False))
def test_j0_bounded_by_one(x):
    assert abs(bessel_j0(x)) <= 1.0 + 1e-12
