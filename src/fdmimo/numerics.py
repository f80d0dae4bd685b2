"""Complex-matrix numerics and reproducible random-number streams.

Everything downstream (channel draws, precoders, combiners) is built on the
small set of primitives in this module: seeded counter-based RNG substreams,
whose Philox keys are derived from NumPy's SeedSequence pool of the master
seed for all of a draw's streams at once, complex Gaussian stacks
scattered from drawn rows in one stream layout, one rank-revealing
pseudo-inverse kernel that works in a reusable workspace (the left inverse
is the transpose of a right one), and, for the spatial-correlation model
alone, a clamping square root of a symmetric positive semidefinite matrix
and the zero-order Bessel function J0 of finite arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Node-argument pairs bessel_j0 evaluates per block.
_J0_BLOCK = 1 << 15


# SeedSequence's hash and mix constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _hashmix(value, const, mult: int = _MULT_A):
    """SeedSequence's hashmix of value under hash constant const, each a
    32-bit word or a uint32 array: the hash and the next constant."""
    nxt = const * mult & _MASK32
    value = (value ^ const) * nxt & _MASK32
    return value ^ value >> 16, nxt


def _mix(x, y):
    """SeedSequence's mix of two 32-bit words or arrays of them."""
    r = (_MIX_L * x - _MIX_R * y) & _MASK32
    return r ^ r >> 16


def _seed_pool(master_seed: int) -> tuple[list[int], int]:
    """The entropy pool of SeedSequence(master_seed), which is that of
    SeedSequence(master_seed, spawn_key=key) after the master seed's
    words, and the hash constant its spawn-key words continue with.
    Neither depends on the key, so a run takes them once.  The pool took
    one hashmix step, each multiplying the constant by _MULT_A, per pool
    word, per ordered pair of them and per pool word for each seed word
    past the fourth: 4 max(4, words) steps in all.
    """
    pool = np.random.SeedSequence(master_seed).pool.tolist()
    words = (int(master_seed).bit_length() + 31) // 32
    return pool, _INIT_A * pow(_MULT_A, 4 * max(4, words), 1 << 32) & _MASK32


def _hash_consts(const: int, mult: int) -> tuple[np.ndarray, int]:
    """The hash constants of four successive hashmix steps from const, as
    a (4, 1) uint32 column, and the constant after them."""
    seq = [const]
    for _ in range(4):
        seq.append(seq[-1] * mult & _MASK32)
    return np.array(seq[:4], np.uint32)[:, None], seq[4]


def _stream_keys(seed_pool: tuple[list[int], int], indices) -> np.ndarray:
    """Philox keys of the substreams (master_seed, i), i in indices, of
    the master seed that _seed_pool mixed, one row of two uint64 each.

    Row r equals SeedSequence(master_seed, spawn_key=(indices[r],))
    .generate_state(2, np.uint64), the key Philox takes from that
    sequence, for every nonnegative index.  The pool is a (4, indices)
    array, so all indices are mixed in at once, word by word, an index of
    2^32 or more taking its further 32-bit words as SeedSequence does.
    """
    try:
        rest = np.asarray(indices, dtype=np.uint64)
    except OverflowError:       # an index of 2^64 or more, or a negative one
        rest = np.asarray(indices, dtype=object)
        if (rest < 0).any():
            raise ValueError("stream indices must be nonnegative") from None
    words, const = seed_pool
    pool = np.array(words, np.uint32)[:, None]
    top = int(rest.max(initial=0))
    for shift in range(0, max(1, top.bit_length()), 32):
        consts, const = _hash_consts(const, _MULT_A)
        h, _ = _hashmix((rest >> shift & _MASK32).astype(np.uint32), consts)
        mixed = _mix(pool, h)
        # Every index has a first word; a further word only from 2^shift.
        pool = mixed if not shift else np.where(rest >> shift != 0, mixed,
                                                pool)
    # SeedSequence.generate_state: the four pool words hashed under the
    # other constants.
    consts, _ = _hash_consts(_INIT_B, _MULT_B)
    state, _ = _hashmix(pool, consts, _MULT_B)
    # Two 32-bit words per uint64, the first the low one.
    return (state[1::2].astype(np.uint64) << 32 | state[::2]).T


@dataclass(frozen=True)
class RngStream:
    """Independent substream of a master seed.

    Streams are derived with the counter-based Philox generator keyed by
    (master_seed, stream_index), so any two streams with distinct indices are
    statistically independent by construction and a given (seed, index) pair
    always reproduces the same draw sequence, bit for bit, regardless of how
    many other streams exist or in which order they are consumed.  The key
    is NumPy's for SeedSequence(master_seed, spawn_key=(stream_index,)),
    from the one key derivation that Streams uses too.
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
        key = _stream_keys(_seed_pool(self.master_seed),
                           [self.stream_index])[0]
        return np.random.Generator(np.random.Philox(key=key))


class Streams:
    """Substreams of one master seed, drawn through one re-keyed Philox.

    Streams(master_seed) takes the master seed's SeedSequence pool once,
    which rejects a negative seed.  normals(indices, outs) derives the
    Philox keys of the substreams RngStream(master_seed, i), i in indices,
    in one pass, and fills the rows of the 2-D arrays in outs in order,
    one stream per row: the first row of outs[0] takes indices[0].  Each
    stream is drawn by setting its key, at counter 0, on the one Philox,
    which gives the numbers of a fresh generator of that stream bit for
    bit.  So a Streams serves one caller at a time; threads each use their
    own.  The numbers depend on the keys alone, not on which thread draws
    them or when, and standard_normal releases the GIL while it fills a
    row: the engine (metrics._trial_chunks) makes one Streams per run,
    from which only its draw thread draws, one chunk ahead of the calling
    thread, which builds and evaluates the chunk before.
    """

    def __init__(self, master_seed: int) -> None:
        self._pool = _seed_pool(master_seed)
        self._philox = np.random.Philox(key=0)
        self._generator = np.random.Generator(self._philox)

    def normals(self, indices, outs: list[np.ndarray]) -> None:
        """Fill each row of the 2-D arrays in outs, in order, with the
        first standard normals of the stream of the next of indices; rows
        past the last index, such as zero-width ones, are left as they are."""
        keys = iter(_stream_keys(self._pool, indices))
        state = {"bit_generator": "Philox",
                 "state": {"counter": np.zeros(4, np.uint64), "key": None},
                 "buffer": np.zeros(4, np.uint64), "buffer_pos": 4,
                 "has_uint32": 0, "uinteger": 0}
        for out in outs:
            for row, key in zip(out, keys):
                state["state"]["key"] = key
                self._philox.state = state
                self._generator.standard_normal(out=row)


class Workspace:
    """Scratch arrays that a loop reuses from one pass to the next.

    array(name, shape, dtype) returns an uninitialized array over the
    buffer kept under name.  The buffer is allocated on first use and
    again only when a request needs more elements or another dtype, so a
    loop whose shapes do not grow allocates it once, and its pages are not
    handed back to the system and faulted in again on every pass.  The
    array stays valid until the next request for its name, so calls that
    share a workspace keep their results apart under distinct names.  A
    workspace serves one caller at a time; threads each use their own.
    """

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}

    def array(self, name: str, shape: tuple[int, ...],
              dtype) -> np.ndarray:
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size or buf.dtype != dtype:
            buf = self._buffers[name] = np.empty(size, dtype)
        return buf[:size].reshape(shape)


def _stream_width(shapes) -> int:
    """Standard normals that complex matrices of the given (rows, cols)
    shapes take from one stream in the layout of _complex_gaussians."""
    return 2 * sum(rows * cols for rows, cols in shapes)


def _complex_gaussians(normals: np.ndarray, outs: list[np.ndarray],
                       variances: list[float]) -> None:
    """Fill stacks of complex matrices with i.i.d. CN(0, variance) entries
    from drawn standard normals.

    Each out is a complex stack (trials, rows, cols), and normals a
    (trials, width) float array whose row i holds the first standard
    normals of trial i's stream, as Streams.normals draws them.  This is
    the layout of every stream: the matrices in the order of outs, each
    as its real parts and then its imaginary parts, row-major, width
    _stream_width of their shapes in all.  Philox being counter-based,
    one draw of a row yields the same numbers as consecutive draws whose
    sizes sum to it.  An entry is sqrt(variance / 2) (re + 1j im), written
    part by part, which equals the complex product bit for bit.  Only
    scatters and scales: nothing is drawn or allocated here.
    """
    shapes = [out.shape[-2:] for out in outs]
    if normals.shape[-1] != _stream_width(shapes):
        raise ValueError(f"{normals.shape[-1]} normals per stream do not "
                         f"fill complex matrices of shapes {shapes}")
    start = 0
    for out, (rows, cols), variance in zip(outs, shapes, variances):
        size = rows * cols
        scale = np.sqrt(variance / 2.0)
        for part in (out.real, out.imag):
            np.multiply(normals[:, start:start + size].reshape(out.shape),
                        scale, out=part)
            start += size


def hermitian_sqrt(a: np.ndarray) -> np.ndarray:
    """Principal square root of a Hermitian positive semidefinite matrix,
    which a is taken to be: eigh reads its lower triangle only.

    Eigenvalues that are slightly negative due to roundoff (down to
    -1e-8 times the largest eigenvalue) are clamped to zero; anything more
    negative means the input is genuinely indefinite and is rejected.
    """
    vals, vecs = np.linalg.eigh(a)
    scale = max(float(vals[-1]), 0.0)
    if vals[0] < -1e-8 * scale or (scale == 0.0 and vals[0] < 0.0):
        raise ValueError(
            f"matrix is indefinite: eigenvalue {vals[0]:.3e} below "
            f"-1e-8 * {scale:.3e}")
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T


#: Largest residual ||A X_K - E_K||_F of an SVD-route pseudo-inverse, as
#: criterion 4's; about eps kappa_2(A), as the SVD forms no Gram.
_SVD_RESIDUAL_LIMIT = 1e-9


def _svd_pseudo_inverse(a: np.ndarray, keep: int
                        ) -> tuple[np.ndarray, np.ndarray]:
    """First keep columns X_K of the Moore-Penrose inverse of a wide matrix
    or stack via SVD, and the mask of the matrices whose residual
    ||A X_K - E_K||_F is above _SVD_RESIDUAL_LIMIT or not finite.  Their
    X_K stay finite: a zero singular value scales no row."""
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    # x = (V / s) U^H, with the conjugates and the scaling done in place.
    np.conjugate(vh, out=vh)
    np.divide(vh, s[..., None], out=vh, where=s[..., None] > 0.0)
    x = vh.swapaxes(-1, -2) @ np.conjugate(u, out=u).swapaxes(-1, -2)
    x = x[..., :keep]
    resid = a @ x - np.eye(a.shape[-2], x.shape[-1])
    return x, ~(np.linalg.norm(resid, axis=(-2, -1)) <= _SVD_RESIDUAL_LIMIT)


#: Frobenius condition number of the Gram matrix below which a
#: pseudo-inverse is taken from the Gram inverse.  The residual after one
#: refinement step is about (eps kappa)^2 + eps kappa(A), at most 1e-12
#: here (Higham, Accuracy and Stability of Numerical Algorithms, ch. 12
#: and 20).
_GRAM_FAST_LIMIT = 1e8

#: Frobenius condition number of the Gram matrix from which on a Gram-route
#: pseudo-inverse takes that refinement step.  Below it the residual of the
#: unrefined A^H G^{-1} E_K, about eps kappa, already stays within 1e-12.
_REFINE_LIMIT = 1e4


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


def _refine(a: np.ndarray, ah: np.ndarray, gram_inv: np.ndarray,
            x: np.ndarray, ws: Workspace) -> None:
    """One refinement step X_K += A^H (G^{-1} (E_K - A X_K)) in place,
    the residual and the correction products written into ws."""
    dtype = x.dtype
    resid = ws.array("resid", (*x.shape[:-2], a.shape[-2], x.shape[-1]),
                     dtype)
    np.subtract(np.eye(*resid.shape[-2:]), np.matmul(a, x, out=resid),
                out=resid)
    solved = np.matmul(gram_inv, resid,
                       out=ws.array("solved", resid.shape, dtype))
    x += np.matmul(ah, solved, out=ws.array("corr", x.shape, dtype))


def right_pseudo_inverse(a: np.ndarray, workspace: Workspace | None = None,
                         keep: int | None = None, name: str = "x"
                         ) -> tuple[np.ndarray, np.ndarray]:
    """First keep columns X_K of the right inverse A^H (A A^H)^{-1} of a
    full-row-rank wide matrix or stack; all of them when keep is None.

    Where the Gram G = A A^H has a Frobenius condition number
    kappa = ||G||_F ||G^{-1}||_F below _GRAM_FAST_LIMIT, X_K = A^H G^{-1}
    E_K (E_K the first keep columns of I).  From kappa = _REFINE_LIMIT on
    it is refined once, X_K += A^H (G^{-1} (E_K - A X_K)), the first keep
    columns of X + X (I - A X): this squares the residual ||A X - I|| and
    keeps X in A's row space.  Below that limit the residual of the
    unrefined X_K, about eps kappa, is already within 1e-12.  Every other
    matrix goes through _svd_pseudo_inverse, and only those can fail: the
    returned mask marks a residual ||A X_K - E_K||_F above 1e-9 or not
    finite.  A matrix's route and result depend on that matrix alone, so
    a stack's members equal their one-matrix calls bit for bit: a stack
    with some members to refine refines those gathered.

    X is written into the workspace (a fresh one when None) under name,
    conj(A), G, the residual and the correction products under "conj",
    "gram", "resid", "solved" and "corr", which all calls share; X is a
    view of its buffer, which the next call with that name overwrites.
    Writing into a buffer changes no arithmetic.
    """
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-2] > a.shape[-1]:
        raise ValueError("right inverse needs matrices with rows <= cols")
    rows = a.shape[-2]
    keep = rows if keep is None else keep
    ws = Workspace() if workspace is None else workspace
    ah = np.conjugate(a, out=ws.array("conj", a.shape, a.dtype)
                      ).swapaxes(-1, -2)
    gram = np.matmul(a, ah, out=ws.array(
        "gram", (*a.shape[:-2], rows, rows), a.dtype))
    gram_inv = _gram_inverse(gram)
    with np.errstate(over="ignore", invalid="ignore"):
        kappa = (np.linalg.norm(gram, axis=(-2, -1))
                 * np.linalg.norm(gram_inv, axis=(-2, -1)))
    fast = kappa < _GRAM_FAST_LIMIT
    x = ws.array(name, (*ah.shape[:-1], keep), np.result_type(a, gram_inv))
    np.matmul(ah, gram_inv[..., :keep], out=x)
    refine = fast & (kappa >= _REFINE_LIMIT)
    if refine.all():
        _refine(a, ah, gram_inv, x, ws)
    elif refine.any():
        sub = x[refine]
        _refine(a[refine], ah[refine], gram_inv[refine], sub, ws)
        x[refine] = sub
    failed = np.zeros(fast.shape, dtype=bool)
    if not fast.all():
        x[~fast], failed[~fast] = _svd_pseudo_inverse(a[~fast], keep)
    return x, failed


def left_pseudo_inverse(a: np.ndarray, workspace: Workspace | None = None,
                        name: str = "x") -> tuple[np.ndarray, np.ndarray]:
    """Left inverse (A^H A)^{-1} A^H of a full-column-rank tall matrix or
    stack, with the failure mask, workspace and name of right_pseudo_inverse:
    the transpose of the right inverse of A^T, which, conjugation being
    exact, is the conjugate of the right inverse of A^H.
    """
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-2] < a.shape[-1]:
        raise ValueError("left inverse needs matrices with rows >= cols")
    x, failed = right_pseudo_inverse(a.swapaxes(-1, -2), workspace, name=name)
    return x.swapaxes(-1, -2), failed


def bessel_j0(x):
    """Bessel function of the first kind of order zero, of finite x.

    The midpoint rule on J0(x) = (1/pi) int_0^pi cos(x cos t) dt, which
    converges geometrically for this periodic integrand (Trefethen and
    Weideman, SIAM Review 2014); max|x| + 40 nodes keep the absolute error
    below 1e-14 on |x| <= 1000.  Each distinct |x| is evaluated once, in
    blocks of at most _J0_BLOCK node-argument pairs; the nodes are summed
    strictly in order (cumsum, not a pairwise sum), so the result does not
    depend on the block size.  The result has x's shape.
    """
    ax, inverse = np.unique(np.abs(x), return_inverse=True)
    nodes = int(ax.max(initial=0.0)) + 40
    c = np.cos((np.arange(nodes) + 0.5) * (np.pi / nodes))
    step = max(1, _J0_BLOCK // max(1, ax.size))
    total = np.zeros_like(ax)
    for start in range(0, nodes, step):
        block = np.cos(np.outer(c[start:start + step], ax))
        total = np.cumsum(np.vstack([total, block]), axis=0)[-1]
    return (total / nodes)[inverse].reshape(np.shape(x))
