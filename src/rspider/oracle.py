"""Objective layer: finite sums with exact gradient-oracle accounting.

Provides the sphere-constrained quadratic used for leading-eigenvector
computation, seeded synthetic instances with a controlled eigengap, and a
generic component-based objective for custom finite sums.

Accounting convention: every sampled component gradient charges one call
per evaluation point. Plain objective values are free, so tracing and
probing never distort the measured cost.
"""

from __future__ import annotations

import contextlib
import math
import struct
from dataclasses import dataclass
from abc import ABC, abstractmethod

import numpy as np

from .geometry import Euclidean, Manifold, ManifoldPoint, Sphere, TangentVector

__all__ = [
    "ComponentObjective",
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
    """Counts component-gradient evaluations (one per component per point)."""

    __slots__ = ("calls", "_pause_depth")

    def __init__(self):
        self.calls = 0
        self._pause_depth = 0

    def add(self, k: int):
        if self._pause_depth == 0:
            self.calls += int(k)

    @contextlib.contextmanager
    def paused(self):
        """Suspend accounting; used for trace/probe evaluations."""
        self._pause_depth += 1
        try:
            yield self
        finally:
            self._pause_depth -= 1

    def reset(self):
        self.calls = 0

    def __repr__(self):
        return f"IfoCounter(calls={self.calls})"


class _Batch:
    """A minibatch a solver drew itself, prepared once for both its evaluations.

    Its indices were drawn in range, so ``minibatch_rgrad`` skips its index
    checks; ``rows`` holds the components a :class:`PcaProblem` gathered for it.
    """

    __slots__ = ("idx", "rows")

    def __init__(self, idx: np.ndarray, rows: np.ndarray):
        self.idx = idx
        self.rows = rows

    def __len__(self):  # the batch size perfbench/tracing.py reads with len()
        return self.idx.size


class FiniteSumObjective(ABC):
    """Objective f(x) = (1/n) sum_i f_i(x) with Riemannian gradient access.

    Subclasses provide per-component values and one gradient kernel,
    ``_rgrad``. The three gradient entry points validate their indices and
    charge ``counter`` through one path; value calls are free.
    """

    def __init__(self, manifold: Manifold, n: int):
        if int(n) < 1:
            raise ValueError("need at least one component")
        self.manifold = manifold
        self.n = int(n)
        self.counter = IfoCounter()

    @property
    @abstractmethod
    def L_hint(self) -> float:
        """Estimated geodesic smoothness constant for the components."""

    @abstractmethod
    def component_value(self, i: int, x: ManifoldPoint) -> float: ...

    @abstractmethod
    def _rgrad(self, idx, x: ManifoldPoint) -> np.ndarray:
        """Mean tangent gradient over components ``idx`` at x, as a raw array.

        ``idx=None`` means all n components in order. Uncounted.
        """

    def value(self, x: ManifoldPoint) -> float:
        return sum(self.component_value(i, x) for i in range(self.n)) / self.n

    def component_rgrad(self, i: int, x: ManifoldPoint) -> TangentVector:
        self._check_index(i)
        return self._charged([int(i)], 1, x)

    def minibatch_rgrad(self, idx, x: ManifoldPoint) -> TangentVector:
        """Mean gradient over an index multiset (uniform-with-replacement draws)."""
        if isinstance(idx, _Batch):
            return self._charged(idx, idx.idx.size, x)
        idx = np.asarray(idx, dtype=np.intp)
        if idx.size == 0:
            raise ValueError("empty minibatch")
        if idx.min() < 0 or idx.max() >= self.n:
            raise IndexError("component index out of range")
        return self._charged(idx, idx.size, x)

    def full_rgrad(self, x: ManifoldPoint) -> TangentVector:
        """Exact mean gradient; charges n calls."""
        return self._charged(None, self.n, x)

    def _charged(self, idx, calls: int, x: ManifoldPoint) -> TangentVector:
        # the one metered path: every charged gradient is evaluated here
        g = self._rgrad(idx, x)
        self.counter.add(calls)
        return TangentVector._raw(x, g)

    def _prepare(self, idx: np.ndarray):
        """What a solver hands ``minibatch_rgrad`` for indices it drew in range.

        The plain index array here (checked on every call); objectives that
        gather per batch return a :class:`_Batch` their ``_rgrad`` reads.
        """
        return idx

    def _probe(self, x: ManifoldPoint) -> tuple[float, float]:
        """f(x) and |grad f(x)|^2, uncharged: the tracer's checkpoint values."""
        with self.counter.paused():
            return self.value(x), self.full_rgrad(x)._sq

    def _check_index(self, i: int):
        if not 0 <= int(i) < self.n:
            raise IndexError(f"component index {i} out of range [0, {self.n})")


class ComponentObjective(FiniteSumObjective):
    """Finite sum assembled from per-component callables.

    ``values[i]`` and ``grads[i]`` take an ambient coordinate array; the
    gradient may be ambient (it is projected on evaluation).
    """

    def __init__(self, manifold, values, grads, L_hint=None):
        if len(values) != len(grads):
            raise ValueError("values and grads must have equal length")
        super().__init__(manifold, len(values))
        self._values = list(values)
        self._grads = list(grads)
        self._L_hint = L_hint

    @property
    def L_hint(self) -> float:
        if self._L_hint is None:
            raise ValueError("no smoothness hint was provided for this objective")
        return self._L_hint

    def component_value(self, i, x):
        self._check_index(i)
        return float(self._values[i](x.coords))

    def _rgrad(self, idx, x):
        # project each component, average, then project the mean
        idx = range(self.n) if idx is None else idx
        acc = np.zeros(self.manifold.d)
        for i in idx:
            acc += TangentVector(x, self._grads[i](x.coords)).coords
        acc /= len(idx)
        return self.manifold._project_tangent(x.coords, acc)


class PcaProblem(FiniteSumObjective):
    """Sphere-constrained quadratic f(x) = -(1/n) sum_i (z_i^T x)^2 = -x^T A x.

    ``A = (1/n) Z Z^T``. For synthetic instances the spectrum of A is known
    and the optimal value ``f_star = -lambda_1`` is exposed. The minimizer is
    the leading eigenvector of A (up to sign). The charged oracle and
    :meth:`value` read the components; only uncharged spectral probes read A.

    The components are stored as one C-contiguous n x d array whose row i is
    z_i, so a minibatch gathers whole rows. :attr:`Z` is its d x n transpose
    (a view); ``__init__`` accepts Z in either memory order.
    """

    def __init__(self, Z, spectrum=None, seed: int | None = None):
        Z = np.asarray(Z, dtype=np.float64)
        if Z.ndim != 2:
            raise ValueError("Z must be a d x n matrix")
        d, n = Z.shape
        super().__init__(Sphere(d), n)
        self._rows = np.ascontiguousarray(Z.T)  # no copy when Z is F-ordered
        self.seed = seed
        self.spectrum = None if spectrum is None else np.asarray(spectrum, dtype=np.float64)
        if self.spectrum is not None and self.spectrum.shape != (d,):
            raise ValueError("spectrum must list one eigenvalue per ambient dimension")
        row_sq = np.einsum("ij,ij->i", self._rows, self._rows)  # squared |z_i|
        # certified component smoothness: each -(z^T x)^2 is 4*|z|^2 smooth,
        # and the variance recursion needs the root-mean-square of those
        self._l_component = 4.0 * math.sqrt(float(np.mean(row_sq**2)))
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

    def value(self, x: ManifoldPoint) -> float:
        w = self._rows.dot(x.coords)
        return -float(w.dot(w)) / self.n

    def component_value(self, i, x):
        self._check_index(i)
        w = float(self._rows[i].dot(x.coords))
        return -w * w

    def _rgrad(self, idx, x):
        # full anchors read the rows in place; a gather keeps C order, so a
        # batch covering 1..n reproduces the exact full-gradient arithmetic
        if idx is None:
            rows = self._rows
        elif isinstance(idx, _Batch):
            rows = idx.rows
        else:
            rows = self._rows.take(idx, axis=0)
        x_arr = x.coords
        return self._kernel(rows, x_arr, rows.dot(x_arr))

    @staticmethod
    def _kernel(rows, x_arr, w):
        # mean tangent gradient over the rows, given w = rows x
        g = w.dot(rows)
        g *= -2.0 / rows.shape[0]
        g -= x_arr.dot(g) * x_arr
        return g

    def _prepare(self, idx):
        return _Batch(idx, self._rows.take(idx, axis=0))

    def _probe(self, x):
        # value(x) and full_rgrad(x) both start from rows x: one pass over the
        # rows gives the same bits as the two
        w = self._rows.dot(x.coords)
        g = self._kernel(self._rows, x.coords, w)
        return -float(w.dot(w)) / self.n, TangentVector._raw(x, g)._sq

    def _gram(self) -> np.ndarray:
        """A = (1/n) Z Z^T (d x d), formed with one GEMM on first use and kept."""
        if self._A is None:
            self._A = self._rows.T @ self._rows
            self._A /= self.n
        return self._A

    def _gram_probe(self, x: ManifoldPoint) -> tuple[float, float]:
        # f = -x^T A x and grad f = 2 (x^T A x) x - 2 A x: _probe's values to
        # rounding, without a pass over the rows
        x = x.coords
        ax = self._gram() @ x
        q = float(x @ ax)
        g = 2.0 * (q * x - ax)
        return -q, float(g @ g)

    def _top_eigs(self) -> tuple[float, np.ndarray, np.ndarray]:
        """(lambda_1, u_1, u_2) of A from one symmetric eigendecomposition, kept."""
        if self._eig is None:
            lam, u = np.linalg.eigh(self._gram())  # ascending eigenvalues
            self._eig = (float(lam[-1]), u[:, -1].copy(), u[:, -2].copy())
        return self._eig

    # perfbench/tracing.py wraps these names in PcaProblem.__dict__
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
        if self.d < 2:
            raise ValueError("need ambient dimension >= 2")
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
    if d < 2:
        raise ValueError("need ambient dimension >= 2")
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


def variance_bound_estimate(
    obj: FiniteSumObjective, x: ManifoldPoint, m: int, seed: int = 0
) -> float:
    """Empirical mean of |grad f_i(x) - grad f(x)|^2 over m uniform draws.

    Estimation utility (used to size anchor batches); does not charge the
    oracle counter.
    """
    if m < 2:
        raise ValueError("need at least two samples")
    rng = np.random.default_rng(seed)
    with obj.counter.paused():
        gbar = obj.full_rgrad(x)
        idx = rng.integers(0, obj.n, size=m)
        total = 0.0
        for i in idx:
            diff = obj.component_rgrad(int(i), x) - gbar
            total += diff._sq
    return total / m


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
