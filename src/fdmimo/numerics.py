"""Complex-matrix numerics and reproducible random-number streams.

Everything downstream (channel draws, precoders, combiners) is built on the
small set of primitives in this module: seeded counter-based RNG substreams,
complex Gaussian sampling, a clamping Hermitian square root, rank-revealing
one-sided pseudo-inverses, and the zero-order Bessel function J0 used by the
spatial-correlation model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Condition-number ceiling for the Gram matrix of a pseudo-inverse input.
GRAM_CONDITION_LIMIT = 1e12


class SingularMatrixError(np.linalg.LinAlgError):
    """Raised when a Gram matrix is rank deficient or too ill-conditioned."""


@dataclass(frozen=True)
class RngStream:
    """Independent substream of a master seed.

    Streams are derived with the counter-based Philox generator keyed by
    (master_seed, stream_index), so any two streams with distinct indices are
    statistically independent by construction and a given (seed, index) pair
    always reproduces the same draw sequence, bit for bit, regardless of how
    many other streams exist or in which order they are consumed.
    """

    master_seed: int
    stream_index: int = 0

    def __post_init__(self) -> None:
        if self.master_seed < 0:
            raise ValueError("master_seed must be a nonnegative integer")
        if self.stream_index < 0:
            raise ValueError("stream_index must be a nonnegative integer")

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this substream."""
        seq = np.random.SeedSequence(self.master_seed,
                                     spawn_key=(self.stream_index,))
        return np.random.Generator(np.random.Philox(seq))


def _complex_gaussian(gen: np.random.Generator, rows: int, cols: int,
                      variance: float) -> np.ndarray:
    """Draw a rows x cols matrix of i.i.d. CN(0, variance) entries."""
    if variance == 0.0:
        return np.zeros((rows, cols), dtype=complex)
    scale = np.sqrt(variance / 2.0)
    real = gen.standard_normal((rows, cols))
    imag = gen.standard_normal((rows, cols))
    return scale * (real + 1j * imag)


def sample_complex_gaussian(rows: int, cols: int, variance: float,
                            rng: RngStream) -> np.ndarray:
    """Circularly symmetric complex Gaussian matrix from a stream.

    The stream is consumed from its start, so calling twice with an equal
    (master_seed, stream_index) pair returns bit-identical matrices.
    """
    if rows < 0 or cols < 0:
        raise ValueError("matrix dimensions must be nonnegative")
    if not np.isfinite(variance) or variance < 0.0:
        raise ValueError("variance must be finite and nonnegative")
    return _complex_gaussian(rng.generator(), rows, cols, variance)


def hermitian_sqrt(a: np.ndarray) -> np.ndarray:
    """Principal square root of a Hermitian positive semidefinite matrix.

    Eigenvalues that are slightly negative due to roundoff (down to
    -1e-8 times the largest eigenvalue) are clamped to zero; anything more
    negative means the input is genuinely indefinite and is rejected.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("hermitian_sqrt expects a square matrix")
    norm = np.linalg.norm(a)
    asym = np.linalg.norm(a - a.conj().T)
    if asym > 1e-10 * max(norm, 1e-300):
        raise ValueError("input is not Hermitian to within 1e-10 relative")
    vals, vecs = np.linalg.eigh(a)
    scale = max(float(vals[-1]), 0.0)
    if vals[0] < -1e-8 * scale or (scale == 0.0 and vals[0] < 0.0):
        raise ValueError(
            f"matrix is indefinite: eigenvalue {vals[0]:.3e} below "
            f"-1e-8 * {scale:.3e}")
    clamped = np.clip(vals, 0.0, None)
    root = (vecs * np.sqrt(clamped)) @ vecs.conj().T
    return root


def _svd_pseudo_inverse(a: np.ndarray,
                        gram_name: str) -> tuple[np.ndarray, np.ndarray]:
    """Moore-Penrose inverse via SVD with a condition guard on the Gram.

    a is one matrix or a stack of matrices along leading axes.  Returns the
    inverses and a boolean mask over the leading axes that marks every
    matrix whose Gram matrix is singular or has a condition number at or
    above GRAM_CONDITION_LIMIT; the inverses of those are meaningless.  A
    single matrix that fails the guard raises SingularMatrixError instead.
    """
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond_gram = (s[..., 0] / s[..., -1]) ** 2
    failed = ~(cond_gram < GRAM_CONDITION_LIMIT)
    if a.ndim == 2 and failed:
        if s[-1] <= 0.0:
            raise SingularMatrixError(
                f"Gram matrix {gram_name} is singular (zero singular value)")
        raise SingularMatrixError(
            f"Gram matrix {gram_name} is ill-conditioned: condition number "
            f"{cond_gram:.3e} exceeds {GRAM_CONDITION_LIMIT:.1e}")
    # x = (V / s) U^H, with the conjugates and the scaling done in place.
    np.conjugate(vh, out=vh)
    vh /= np.where(failed[..., None], 1.0, s)[..., None]
    x = vh.swapaxes(-1, -2) @ np.conjugate(u, out=u).swapaxes(-1, -2)
    return x, failed


#: Frobenius condition number of the Gram matrix below which a
#: pseudo-inverse is taken from the Gram inverse plus one refinement step.
#: The residual after that step is about (eps kappa)^2 + eps kappa(A), at
#: most 1e-12 here (Higham, Accuracy and Stability of Numerical
#: Algorithms, ch. 12 and 20).
_GRAM_FAST_LIMIT = 1e8


def _gram_inverse(gram: np.ndarray) -> np.ndarray:
    """Inverses of a stack of Gram matrices, NaN where one is singular.

    A single exactly singular member makes the batched inverse raise; the
    members are then inverted one by one, so each keeps its own result.
    """
    try:
        return np.linalg.inv(gram)
    except np.linalg.LinAlgError:
        out = np.full_like(gram, np.nan)
        for i in np.ndindex(gram.shape[:-2]):
            try:
                out[i] = np.linalg.inv(gram[i])
            except np.linalg.LinAlgError:
                pass
        return out


def _pseudo_inverse(a: np.ndarray,
                    gram_name: str) -> tuple[np.ndarray, np.ndarray]:
    """Guarded Moore-Penrose inverse of a full-rank matrix or stack.

    gram_name names the Gram matrix G to form, and so the side: "A·Aᴴ"
    gives the right inverse A^H (A A^H)^{-1} of a wide matrix, "Aᴴ·A" the
    left inverse (A^H A)^{-1} A^H of a tall one.  Where G has a Frobenius
    condition number ||G||_F ||G^{-1}||_F below _GRAM_FAST_LIMIT, the
    inverse X0 from G^{-1} is refined once, X = X0 + X0 (I - A X0) (wide)
    or X0 + (I - X0 A) X0 (tall), which squares its residual and keeps X
    in A's row (column) space.  Every other matrix goes through
    _svd_pseudo_inverse, and so does the guard: since kappa_2 <= kappa_F,
    a matrix on the fast route always passes it (the factor 1/2 absorbs
    the rounding of kappa_F), and the returned failure mask and the
    SingularMatrixError of a single matrix are exactly the SVD's.  Each
    matrix's route and result depend on that matrix alone, so a stack's
    members equal their one-matrix calls bit for bit.
    """
    ah = a.conj().swapaxes(-1, -2)
    wide = gram_name == "A·Aᴴ"
    gram = a @ ah if wide else ah @ a
    gram_inv = _gram_inverse(gram)
    with np.errstate(over="ignore", invalid="ignore"):
        kappa = (np.linalg.norm(gram, axis=(-2, -1))
                 * np.linalg.norm(gram_inv, axis=(-2, -1)))
    fast = kappa < min(_GRAM_FAST_LIMIT, 0.5 * GRAM_CONDITION_LIMIT)
    if a.ndim == 2 and not fast:
        return _svd_pseudo_inverse(a, gram_name)
    eye = np.eye(gram.shape[-1])
    if wide:
        x = ah @ gram_inv
        x += x @ (eye - a @ x)
    else:
        x = gram_inv @ ah
        x += (eye - x @ a) @ x
    failed = np.zeros(fast.shape, dtype=bool)
    if not fast.all():
        slow = ~fast
        x[slow], failed[slow] = _svd_pseudo_inverse(a[slow], gram_name)
    return x, failed


def right_pseudo_inverse(a: np.ndarray) -> np.ndarray:
    """Right inverse A^H (A A^H)^{-1} of a full-row-rank wide matrix.

    Taken from the inverse of the Gram matrix plus one refinement step
    where that Gram is well conditioned, and from a rank-revealing SVD
    otherwise, so the residual ||A X - I|| stays near machine precision
    even for moderately ill-conditioned inputs.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] > a.shape[1]:
        raise ValueError("right inverse needs rows <= cols")
    return _pseudo_inverse(a, "A·Aᴴ")[0]


def left_pseudo_inverse(a: np.ndarray) -> np.ndarray:
    """Left inverse (A^H A)^{-1} A^H of a full-column-rank tall matrix."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] < a.shape[1]:
        raise ValueError("left inverse needs rows >= cols")
    return _pseudo_inverse(a, "Aᴴ·A")[0]


# J0 evaluation: power series on |x| <= _J0_SERIES_CUTOFF, Hankel asymptotic
# expansion beyond.  The cutoff balances series cancellation (grows with x)
# against the asymptotic error floor (shrinks with x); 13 keeps the absolute
# error under 1e-10 across |x| <= 100.
_J0_SERIES_CUTOFF = 13.0


def _j0_series(x: np.ndarray) -> np.ndarray:
    q = -0.25 * x * x
    term = np.ones_like(x)
    total = np.ones_like(x)
    for k in range(1, 80):
        term = term * q / (k * k)
        total = total + term
        if np.all(np.abs(term) < 1e-18):
            break
    return total


def _j0_asymptotic(x: np.ndarray) -> np.ndarray:
    # J0(x) = sqrt(2/(pi x)) [P(x) cos(x - pi/4) - Q(x) sin(x - pi/4)]
    # with P = 1 - |a2|/x^2 + |a4|/x^4 - ... and
    #      Q = -|a1|/x + |a3|/x^3 - ..., |a_m| = |a_{m-1}| (2m-1)^2 / (8m).
    inv = 1.0 / x
    p = np.ones_like(x)
    q = np.zeros_like(x)
    coeff = 1.0
    power = np.ones_like(x)
    for m in range(1, 25):
        coeff *= (2 * m - 1) ** 2 / (8.0 * m)
        power = power * inv
        sign = -1.0 if ((m + 1) // 2) % 2 else 1.0
        if m % 2:
            q = q + sign * coeff * power
        else:
            p = p + sign * coeff * power
    chi = x - np.pi / 4.0
    return np.sqrt(2.0 / (np.pi * x)) * (p * np.cos(chi) - q * np.sin(chi))


def bessel_j0(x):
    """Bessel function of the first kind of order zero.

    Accepts scalars or arrays; absolute error is below 1e-10 on |x| <= 100.
    """
    arr = np.asarray(x, dtype=float)
    ax = np.abs(arr)
    out = np.empty_like(ax)
    small = ax <= _J0_SERIES_CUTOFF
    if np.any(small):
        out[small] = _j0_series(ax[small])
    large = ~small
    if np.any(large):
        out[large] = _j0_asymptotic(ax[large])
    if np.ndim(x) == 0:
        return float(out)
    return out
