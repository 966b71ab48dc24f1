"""Objective layer: finite sums with exact gradient-oracle accounting.

Every objective is f = (1/n) sum_i f_i over the n rows of one array plus
two kernels over a block of rows (mean value, mean tangent gradient).
Provides the sphere-constrained quadratic used for leading-eigenvector
computation (rows z_i), seeded synthetic instances with a controlled
eigengap, and the exact gradient variance over the rows.

Accounting convention: every sampled component gradient charges one call
per evaluation point, and only the charged path writes the counter, the
counter of the objective the call is made on. Objectives may share one
counter by assignment. Plain objective values and the kernels are free, so
tracing and probing never distort the measured cost.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from abc import ABC, abstractmethod

import numpy as np

from ._checks import _check_count
from .geometry import Manifold, ManifoldPoint, Sphere, TangentVector

__all__ = [
    "FiniteSumObjective",
    "IfoCounter",
    "PcaProblem",
    "SyntheticSpec",
    "generate_gap_matrix",
    "leading_eigpair",
    "load_problem",
    "packed_spectrum",
    "problem_from_spectrum",
    "save_problem",
    "variance_bound_estimate",
]


class IfoCounter:
    """Counts component-gradient evaluations (one per component per point).

    ``calls`` only grows, and only :meth:`FiniteSumObjective._charged` writes
    it; a run's own cost is the difference of two reads.
    """

    __slots__ = ("calls",)

    def __init__(self):
        self.calls = 0

    def __repr__(self):
        return f"IfoCounter(calls={self.calls})"


class _Batch:
    """The rows of a minibatch a solver drew in range itself, gathered once for
    both its evaluations; ``minibatch_rgrad`` skips its index checks."""

    __slots__ = ("rows",)
    columns = False  # a column batch evaluates row i at point i

    def __init__(self, rows: np.ndarray):
        self.rows = rows

    def __len__(self):  # the batch size perfbench/tracing.py reads with len()
        return self.rows.shape[0]


class _Columns(_Batch):
    """A column batch: one drawn row per run of a lockstep block, row i
    evaluated at point i (:func:`_prepare_columns`)."""

    __slots__ = ()
    columns = True


class FiniteSumObjective(ABC):
    """Objective f(x) = (1/n) sum_i f_i(x) over the n rows of one array.

    Row i of ``_rows``, a C-contiguous n x p array, holds what f_i reads. A
    subclass supplies ``L_hint`` and two uncounted kernels over a block of
    rows: ``_value(rows, x)``, the mean component value, and
    ``_grad(rows, x)``, the mean tangent gradient as a raw array. The base
    checks raw indices, gathers their rows (``_prepare``) and charges
    ``counter`` through one path, one call per row; value calls are free.
    A lockstep solver evaluates one row per run at once through the per-row
    kernel ``_grads(rows, X)``, which stacks one-row ``_grad`` calls unless a
    subclass gives it a vectorized form with the same bits. The kernels read
    only the rows, the points and the manifold, so objectives with the same
    ``_grad`` and ``_grads`` on one manifold evaluate each other's rows alike:
    a lockstep block over several of them that share one ``counter``
    evaluates all its rows in one charged call on the first
    (:func:`_prepare_columns`).
    """

    def __init__(self, manifold: Manifold, rows):
        rows = np.ascontiguousarray(rows)  # no copy when already C-ordered
        if rows.ndim != 2 or rows.shape[0] < 1:
            raise ValueError("need at least one component, as an n x p array of rows")
        self.manifold = manifold
        self.n = rows.shape[0]
        self._rows = rows
        self.counter = IfoCounter()

    @property
    @abstractmethod
    def L_hint(self) -> float:
        """Estimated geodesic smoothness constant for the components."""

    @abstractmethod
    def _value(self, rows: np.ndarray, x: ManifoldPoint) -> float:
        """Mean value at x of the components in ``rows``."""

    @abstractmethod
    def _grad(self, rows: np.ndarray, x: ManifoldPoint) -> np.ndarray:
        """Mean tangent gradient at x of the components in ``rows``, raw."""

    def value(self, x: ManifoldPoint) -> float:
        return self._value(self._rows, x)

    def component_rgrad(self, i: int, x: ManifoldPoint) -> TangentVector:
        return self._charged(self._prepare(self._checked([i])).rows, x)

    def minibatch_rgrad(self, idx, x: ManifoldPoint) -> TangentVector:
        """Mean gradient over an index multiset (uniform-with-replacement draws).

        ``idx`` is an integer array, checked here, or a batch a solver
        prepared from indices it drew in range (:meth:`_prepare`). For a
        column batch (:func:`_prepare_columns`) ``x`` is a k x p array of
        points, and the result is the raw k x p array whose row i is row i's
        gradient at ``x[i]``, unchecked: the caller checks it.
        """
        if not isinstance(idx, _Batch):
            idx = self._prepare(self._checked(idx))
        return self._charged(idx.rows, x, idx.columns)

    def full_rgrad(self, x: ManifoldPoint) -> TangentVector:
        """Exact mean gradient; charges n calls."""
        return self._charged(self._rows, x)

    def _charged(self, rows: np.ndarray, x, columns=False):
        # the one metered path: every charged gradient is evaluated here, and
        # nothing else writes the counter
        if columns:
            g = self._grads(rows, x)
            self.counter.calls += rows.shape[0]
            return g
        g = self._grad(rows, x)
        self.counter.calls += rows.shape[0]
        return TangentVector._raw(x, g)

    def _grads(self, rows: np.ndarray, X: np.ndarray) -> np.ndarray:
        """Row i's tangent gradient at the point ``X[i]``, raw: one one-row
        :meth:`_grad` call per row, stacked."""
        man = self.manifold
        return np.stack([self._grad(rows[i:i + 1], ManifoldPoint._raw(man, X[i]))
                         for i in range(rows.shape[0])])

    def _exact_grad(self, x: ManifoldPoint) -> TangentVector:
        """grad f(x) from the full-pass kernel, uncharged: the probes' read of
        what :meth:`full_rgrad` returns, to the bit."""
        return TangentVector._raw(x, self._grad(self._rows, x))

    def _prepare(self, idx: np.ndarray) -> _Batch:
        """The batch of indices a solver drew in range, for ``minibatch_rgrad``."""
        return _Batch(self._rows.take(idx, axis=0))

    def _probe(self, x: ManifoldPoint) -> tuple[float, float]:
        """f(x) and |grad f(x)|^2, uncharged: every checkpoint record's values
        and the domination ratios of ``pl_constant_estimate``. An objective
        with a cheaper closed form overrides it (:class:`PcaProblem` reads
        its Gram matrix)."""
        return self.value(x), self._exact_grad(x)._sq

    def _checked(self, idx) -> np.ndarray:
        """Raw component indices as an index array: integers in [0, n)."""
        idx = np.asarray(idx)
        if idx.size == 0:
            raise ValueError("empty minibatch")
        if idx.ndim != 1 or idx.dtype.kind not in "iu":  # no truncated floats, no masks
            raise IndexError(
                f"component indices must be a 1-d integer array, not {idx.ndim}-d {idx.dtype}")
        if idx.min() < 0 or idx.max() >= self.n:
            raise IndexError(f"component index out of range [0, {self.n})")
        return idx.astype(np.intp, copy=False)


def _prepare_columns(parts) -> _Columns:
    """The column batch of a lockstep block: for each ``(objective, idx)`` of
    ``parts`` in turn, the rows of its runs' indices, one per run, drawn in
    range; one gather per objective."""
    rows = [obj._rows.take(idx, axis=0) for obj, idx in parts]
    return _Columns(rows[0] if len(rows) == 1 else np.concatenate(rows))


class PcaProblem(FiniteSumObjective):
    """Sphere-constrained quadratic f(x) = -(1/n) sum_i (z_i^T x)^2 = -x^T A x.

    ``A = (1/n) Z Z^T``. For synthetic instances the spectrum of A is known
    and the optimal value ``f_star = -lambda_1`` is exposed. The minimizer is
    the leading eigenvector of A (up to sign). The charged oracle and
    :meth:`value` read the components. The uncharged reads go to A, formed
    on first use and kept: :meth:`_probe` (every checkpoint's f and
    |grad f|^2, and the domination ratios) and the top eigenpairs.

    The rows are the components: row i is z_i, so a minibatch gathers whole
    rows. :attr:`Z` is their d x n transpose (a view); ``__init__`` accepts Z
    in either memory order, and rejects components that are not finite.
    """

    def __init__(self, Z, spectrum=None, seed: int | None = None):
        Z = np.asarray(Z, dtype=np.float64)
        if Z.ndim != 2:
            raise ValueError("Z must be a d x n matrix")
        super().__init__(Sphere(Z.shape[0]), Z.T)  # no copy when Z is F-ordered
        self.seed = seed
        self.spectrum = None if spectrum is None else np.asarray(spectrum, dtype=np.float64)
        if self.spectrum is not None and self.spectrum.shape != (self.d,):
            raise ValueError("spectrum must list one eigenvalue per ambient dimension")
        row_sq = np.einsum("ij,ij->i", self._rows, self._rows)  # squared |z_i|
        # certified component smoothness: each -(z^T x)^2 is 4*|z|^2 smooth,
        # and the variance recursion needs the root-mean-square of those
        self._l_component = 4.0 * math.sqrt(float(np.mean(row_sq**2)))
        if not math.isfinite(self._l_component):  # a nan or inf component
            raise ValueError(
                f"components must be finite: their smoothness bound is {self._l_component}"
            )
        self._A = None  # the Gram matrix, formed by _gram() on first use
        self._eig = None  # its (lambda_1, u_1, u_2), decomposed by _top_eigs() on first use

    @property
    def d(self) -> int:
        return self.manifold.d

    @property
    def Z(self) -> np.ndarray:
        """The d x n component matrix: a transposed view of the rows."""
        return self._rows.T

    @property
    def f_star(self) -> float | None:
        """Known optimal value -lambda_1, when the spectrum is attached."""
        return None if self.spectrum is None else -float(self.spectrum[0])

    @property
    def L_hint(self) -> float:
        return self._l_component

    def _value(self, rows, x):
        w = rows.dot(x.coords)
        return -float(w.dot(w)) / rows.shape[0]

    def _grad(self, rows, x):
        # a gather keeps C order, so a batch covering 1..n reproduces the
        # exact full-gradient arithmetic
        x_arr = x.coords
        g = rows.dot(x_arr).dot(rows)
        g *= -2.0 / rows.shape[0]
        g -= x_arr.dot(g) * x_arr
        return g

    def _grads(self, rows, X):
        # _grad on each row, vectorized: np.vecdot makes the one-row products'
        # ddot calls, and a one-row mean is the product itself
        g = np.vecdot(rows, X)[:, None] * rows
        g *= -2.0
        g -= np.vecdot(X, g)[:, None] * X
        return g

    def _gram(self) -> np.ndarray:
        """A = (1/n) Z Z^T (d x d), formed with one GEMM on first use and kept."""
        if self._A is None:
            self._A = self._rows.T @ self._rows
            self._A /= self.n
        return self._A

    def _probe(self, x):
        # f = -x^T A x and grad f = 2 (x^T A x) x - 2 A x: value(x) and
        # |full_rgrad(x)|^2 to rounding, without a pass over the rows
        x = x.coords
        ax = self._gram().dot(x)
        q = float(x.dot(ax))
        g = 2.0 * (q * x - ax)
        return -q, float(g.dot(g))

    def _top_eigs(self) -> tuple[float, np.ndarray, np.ndarray]:
        """(lambda_1, u_1, u_2) of A from one symmetric eigendecomposition, kept."""
        if self._eig is None:
            lam, u = np.linalg.eigh(self._gram())  # ascending eigenvalues
            self._eig = (float(lam[-1]), u[:, -1].copy(), u[:, -2].copy())
        return self._eig

    # perfbench/tracing.py wraps these names in PcaProblem.__dict__
    value = FiniteSumObjective.value
    component_rgrad = FiniteSumObjective.component_rgrad
    minibatch_rgrad = FiniteSumObjective.minibatch_rgrad
    full_rgrad = FiniteSumObjective.full_rgrad


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of a seeded synthetic instance with a prescribed eigengap.

    The covariance-type matrix A = (1/n) Z Z^T gets eigenvalues
    lambda_1 = 1, lambda_2 = 1 - delta, lambda_j = (1 - delta) * tail^(j-2).
    """

    d: int
    n: int
    delta: float
    seed: int
    tail: float = 0.9

    def __post_init__(self):
        _check_count("d", self.d, 2)
        _check_count("n", self.n, 1)
        _check_count("seed", self.seed, 0)
        _check_samples(self.d, self.n)
        if not 0.0 < self.delta < 1.0:
            raise ValueError("eigengap must satisfy 0 < delta < lambda_1 = 1")
        if not 0.0 < self.tail < 1.0:
            raise ValueError("tail decay must lie in (0, 1)")

    def target_spectrum(self) -> np.ndarray:
        lam = np.empty(self.d)
        lam[0] = 1.0
        lam[1:] = (1.0 - self.delta) * self.tail ** np.arange(self.d - 1)
        return lam


def _check_samples(d: int, n: int):
    if n < d:
        raise ValueError("need at least as many samples as dimensions (n >= d)")


# largest |L - I| entry accepted from the second Cholesky QR pass; beyond it
# the draw (condition number around 1e7 or more) is too ill-conditioned for
# two passes to be trusted
_CHOLQR_TOL = 1e-2


def _orthonormal(rng: np.random.Generator, rows: int,
                 cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Q factor of a Gaussian ``rows x cols`` draw, by two Cholesky QR passes.

    Each pass factors the Gram matrix ``q^T q = L L^T`` and replaces q with
    ``q L^-T``. The second replacement is left to the caller: the result is
    the pair ``(q, m)`` with ``m = L^-T`` (``cols x cols``), and Q = q @ m.
    R's diagonal is positive by construction, so in exact arithmetic Q is the
    sign-fixed Householder Q of the draw. The second pass's L measures how far
    the first pass left q from orthonormal; if it is not within
    ``_CHOLQR_TOL`` of the identity the draw is rejected.
    """
    q = rng.standard_normal((rows, cols))
    low = np.linalg.cholesky(q.T @ q)
    q = q @ np.linalg.inv(low).T
    low = np.linalg.cholesky(q.T @ q)
    off = float(np.abs(low - np.eye(cols)).max())
    if not off <= _CHOLQR_TOL:
        raise np.linalg.LinAlgError(
            f"Gaussian {rows}x{cols} draw too ill-conditioned for two Cholesky QR "
            f"passes: second-pass factor is {off:.1e} from the identity"
        )
    return q, np.linalg.inv(low).T


def _eigenvector_factors(d: int, n: int,
                         seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orthonormal U (d x d) and V = q @ m (n x d) of Z = U D V^T, drawn from ``seed``.

    Returns ``(U, q, m)``; V itself is never formed (see
    :func:`_problem_from_factors`). Both factors are the Q factors of Gaussian
    draws, orthonormalized by two Cholesky QR passes (:func:`_orthonormal`):
    one Gram product and one d x d Cholesky per pass and one n x d x d
    product, where Householder QR needs a blocked factorization and an
    explicit Q. The Q is the same, positive-diagonal one.
    """
    rng = np.random.default_rng(np.random.SeedSequence(int(seed)))
    u_q, u_m = _orthonormal(rng, d, d)
    return (u_q @ u_m, *_orthonormal(rng, int(n), d))


def _problem_from_factors(lam: np.ndarray, u: np.ndarray, q: np.ndarray, m: np.ndarray,
                          seed: int) -> PcaProblem:
    # Z^T = V D U^T = q (m (U D)^T): the rows in one n x d x d product, V never formed
    dvals = np.sqrt(q.shape[0] * lam)
    rows = q @ (m @ (u * dvals).T)
    return PcaProblem(rows.T, spectrum=lam, seed=int(seed))


def problem_from_spectrum(lam, n: int, seed: int) -> PcaProblem:
    """Build Z = U D V^T with orthonormal U, V realizing a target spectrum.

    U (d x d) and V (n x d) depend only on (d, n, seed), so instances that
    share the seed but differ in the spectrum share the same eigenvector
    geometry. D = diag(sqrt(n * lambda_j)), hence (1/n) Z Z^T = U diag(lambda) U^T.
    Identical inputs produce bitwise-identical Z at a fixed BLAS thread count.
    """
    lam = np.asarray(lam, dtype=np.float64)
    d = lam.shape[0]
    _check_count("d", d, 2)
    _check_count("n", n, 1)
    _check_count("seed", seed, 0)
    _check_samples(d, n)
    if lam[0] <= 0 or np.any(np.diff(lam) > 0) or np.any(lam < 0):
        raise ValueError("spectrum must be nonincreasing and nonnegative")
    return _problem_from_factors(lam, *_eigenvector_factors(d, n, seed), seed)


def generate_gap_matrix(spec: SyntheticSpec) -> PcaProblem:
    """Seeded instance with eigengap ``spec.delta`` and a geometric tail."""
    return problem_from_spectrum(spec.target_spectrum(), spec.n, spec.seed)


def packed_spectrum(d: int, delta: float, tail: float = 0.5) -> np.ndarray:
    """Spectrum whose observable convergence rate is governed by the eigengap.

    The second eigenvalue sits at 1 - delta just below the top; the rest
    decay geometrically from 1 - 2*delta, so the bulk contracts in a few
    epochs and leaves the delta-limited mode as the visible bottleneck while
    the trace (hence the gradient noise) stays small.
    """
    _check_count("d", d, 2)
    if not 0.0 < delta < 0.25:
        raise ValueError("packed spectrum needs 0 < delta < 0.25")
    if not 0.0 < tail < 1.0:
        raise ValueError("tail decay must lie in (0, 1)")
    lam = np.empty(d)
    lam[0] = 1.0
    lam[1] = 1.0 - delta
    lam[2:] = (1.0 - 2.0 * delta) * tail ** np.arange(1, d - 1)
    return lam


def leading_eigpair(P: PcaProblem) -> tuple[float, ManifoldPoint]:
    """Top eigenpair (lambda_1, u_1) of A = (1/n) Z Z^T.

    Read from one symmetric eigendecomposition (``np.linalg.eigh``) of the
    instance's d x d Gram matrix; both are formed on the first call and
    kept, so no call streams Z. A direct solve has no iteration to stop
    early, so u_1 is accurate to rounding however small the eigengap. The
    sign of u_1 is LAPACK's. Does not touch the counter.
    """
    lam, u1, _ = P._top_eigs()
    return lam, ManifoldPoint(P.manifold, u1)


def _row_grads(obj: FiniteSumObjective, x: ManifoldPoint) -> np.ndarray:
    """The n x d tangent gradients g_i(x), uncharged: one per-row kernel call
    with every row at x, which gives each row the bits of a one-row ``_grad``."""
    return obj._grads(obj._rows, np.broadcast_to(x.coords, (obj.n, x.coords.size)))


def variance_bound_estimate(obj: FiniteSumObjective, x: ManifoldPoint) -> float:
    """sigma^2 = (1/n) sum_i |grad f_i(x) - grad f(x)|^2, exactly, in one pass
    over the rows (used to size anchor batches); charges nothing."""
    g = _row_grads(obj, x)
    g -= g.mean(axis=0)
    return float(np.einsum("ij,ij->", g, g)) / obj.n


_MAGIC = b"RSPD"
_HEADER = struct.Struct("<4sII4xQ")  # magic, u32 d, u32 n, 4 pad bytes, u64 seed


def save_problem(P: PcaProblem, path):
    """Write Z as little-endian float64, column-major, behind a 24-byte header."""
    seed = 0 if P.seed is None else int(P.seed)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, P.d, P.n, seed))
        fh.write(np.asarray(P._rows, dtype="<f8").tobytes())  # Z column-major


def load_problem(path) -> PcaProblem:
    """Read a matrix dump written by :func:`save_problem`.

    The stored file carries no spectrum, so ground truth for loaded instances
    comes from :func:`leading_eigpair`.
    """
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) != _HEADER.size:
            raise ValueError("truncated header")
        magic, d, n, seed = _HEADER.unpack(head)
        if magic != _MAGIC:
            raise ValueError(f"bad magic {magic!r}; not a matrix dump")
        rows = np.fromfile(fh, dtype="<f8", count=d * n)
        if rows.size != d * n or fh.read(1):  # truncated, or trailing bytes
            raise ValueError(f"matrix payload is not exactly {d} x {n} floats")
    # column-major Z is the row layout: its transpose is Z with no copy
    return PcaProblem(rows.reshape(n, d).T, seed=seed)
