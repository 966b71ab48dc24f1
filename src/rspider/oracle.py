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


class FiniteSumObjective(ABC):
    """Objective f(x) = (1/n) sum_i f_i(x) with Riemannian gradient access.

    Subclasses provide per-component values and ambient gradients; gradients
    are projected onto the tangent space of the evaluation point. Gradient
    calls charge ``counter``; value calls do not.
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
    def _component_rgrad_arr(self, i: int, x: ManifoldPoint) -> np.ndarray:
        """Tangent-projected gradient of f_i at x, as a raw array. Uncounted."""

    def value(self, x: ManifoldPoint) -> float:
        return sum(self.component_value(i, x) for i in range(self.n)) / self.n

    def component_rgrad(self, i: int, x: ManifoldPoint) -> TangentVector:
        self._check_index(i)
        g = self._component_rgrad_arr(i, x)
        self.counter.add(1)
        return TangentVector(x, g)

    def minibatch_rgrad(self, idx, x: ManifoldPoint) -> TangentVector:
        """Mean gradient over an index multiset (uniform-with-replacement draws)."""
        idx = np.asarray(idx, dtype=np.intp)
        if idx.size == 0:
            raise ValueError("empty minibatch")
        if idx.min() < 0 or idx.max() >= self.n:
            raise IndexError("component index out of range")
        acc = np.zeros(self.manifold.d)
        for i in idx:
            acc += self._component_rgrad_arr(int(i), x)
        acc /= idx.size
        self.counter.add(idx.size)
        return TangentVector(x, acc)

    def full_rgrad(self, x: ManifoldPoint) -> TangentVector:
        """Exact mean gradient; charges n calls."""
        acc = np.zeros(self.manifold.d)
        for i in range(self.n):
            acc += self._component_rgrad_arr(i, x)
        acc /= self.n
        self.counter.add(self.n)
        return TangentVector(x, acc)

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

    def _component_rgrad_arr(self, i, x):
        g = np.asarray(self._grads[i](x.coords), dtype=np.float64)
        return self.manifold._project_tangent(x, g)


class PcaProblem(FiniteSumObjective):
    """Sphere-constrained quadratic f(x) = -(1/n) sum_i (z_i^T x)^2 = -x^T A x.

    ``A = (1/n) Z Z^T``. For synthetic instances the spectrum of A is known
    and the optimal value ``f_star = -lambda_1`` is exposed. The minimizer is
    the leading eigenvector of A (up to sign).
    """

    def __init__(self, Z, spectrum=None, seed: int | None = None):
        Z = np.ascontiguousarray(Z, dtype=np.float64)
        if Z.ndim != 2:
            raise ValueError("Z must be a d x n matrix")
        d, n = Z.shape
        super().__init__(Sphere(d), n)
        self.Z = Z
        self.seed = seed
        self.spectrum = None if spectrum is None else np.asarray(spectrum, dtype=np.float64)
        if self.spectrum is not None and self.spectrum.shape != (d,):
            raise ValueError("spectrum must list one eigenvalue per ambient dimension")
        col_sq = np.einsum("ij,ij->j", Z, Z)  # squared column norms
        # certified component smoothness: each -(z^T x)^2 is 4*|z|^2 smooth,
        # and the variance recursion needs the root-mean-square of those
        self._l_component = 4.0 * math.sqrt(float(np.mean(col_sq**2)))

    @property
    def d(self) -> int:
        return self.manifold.d

    @property
    def f_star(self) -> float | None:
        """Known optimal value -lambda_1, when the spectrum is attached."""
        return None if self.spectrum is None else -float(self.spectrum[0])

    @property
    def L_hint(self) -> float:
        return self._l_component

    def value(self, x: ManifoldPoint) -> float:
        w = self.Z.T @ x.coords
        return -float(w @ w) / self.n

    def component_value(self, i, x):
        self._check_index(i)
        w = float(self.Z[:, i] @ x.coords)
        return -w * w

    def _rgrad_kernel(self, cols: np.ndarray, x_arr: np.ndarray) -> np.ndarray:
        w = cols.T @ x_arr
        g = cols @ w
        g *= -2.0 / cols.shape[1]
        g -= (x_arr @ g) * x_arr
        return g

    def _component_rgrad_arr(self, i, x):
        return self._rgrad_kernel(self.Z.take([int(i)], axis=1), x.coords)

    def component_rgrad(self, i, x):
        self._check_index(i)
        g = self._rgrad_kernel(self.Z.take([int(i)], axis=1), x.coords)
        self.counter.add(1)
        return TangentVector._raw(x, g)

    def minibatch_rgrad(self, idx, x):
        idx = np.asarray(idx, dtype=np.intp)
        if idx.size == 0:
            raise ValueError("empty minibatch")
        if idx.min() < 0 or idx.max() >= self.n:
            raise IndexError("component index out of range")
        # take keeps C order, so a batch covering 1..n reproduces the exact
        # full-gradient arithmetic
        g = self._rgrad_kernel(self.Z.take(idx, axis=1), x.coords)
        self.counter.add(idx.size)
        return TangentVector._raw(x, g)

    def full_rgrad(self, x):
        g = self._rgrad_kernel(self.Z, x.coords)
        self.counter.add(self.n)
        return TangentVector._raw(x, g)


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


def _orthonormal(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((rows, cols)))
    sign = np.sign(np.diag(r))
    sign[sign == 0] = 1.0
    return q * sign


def _eigenvector_factors(d: int, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal U (d x d) and V (n x d) of Z = U D V^T, drawn from ``seed``."""
    rng = np.random.default_rng(np.random.SeedSequence(int(seed)))
    u = _orthonormal(rng, d, d)
    return u, _orthonormal(rng, int(n), d)


def _problem_from_factors(lam: np.ndarray, u: np.ndarray, v: np.ndarray,
                          seed: int) -> PcaProblem:
    dvals = np.sqrt(v.shape[0] * lam)
    return PcaProblem((u * dvals) @ v.T, spectrum=lam, seed=int(seed))


def problem_from_spectrum(lam, n: int, seed: int) -> PcaProblem:
    """Build Z = U D V^T with orthonormal U, V realizing a target spectrum.

    U (d x d) and V (n x d) depend only on (d, n, seed), so instances that
    share the seed but differ in the spectrum share the same eigenvector
    geometry. D = diag(sqrt(n * lambda_j)), hence (1/n) Z Z^T = U diag(lambda) U^T.
    Identical inputs produce bitwise-identical Z.
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


def packed_spectrum(
    d: int, delta: float, tail: float = 0.5, plateau: int = 1
) -> np.ndarray:
    """Spectrum whose observable convergence rate is governed by the eigengap.

    ``plateau`` eigenvalues sit at 1 - delta * (1 + j/10) just below the top;
    the rest decay geometrically from 1 - 2*delta, so the bulk contracts in a
    few epochs and leaves the delta-limited mode as the visible bottleneck
    while the trace (hence the gradient noise) stays small.
    """
    if d < 2:
        raise ValueError("need ambient dimension >= 2")
    if not 0.0 < delta < 0.25:
        raise ValueError("packed spectrum needs 0 < delta < 0.25")
    if not 0.0 < tail < 1.0:
        raise ValueError("tail decay must lie in (0, 1)")
    lam = np.empty(d)
    lam[0] = 1.0
    p = min(int(plateau), d - 1)
    lam[1 : 1 + p] = 1.0 - delta * (1.0 + np.arange(p) / 10.0)
    rest = d - 1 - p
    if rest > 0:
        lam[1 + p :] = (1.0 - 2.0 * delta) * tail ** np.arange(1, rest + 1)
    return lam


def leading_eigpair(
    P: PcaProblem, tol: float = 1e-13, max_iter: int = 100_000
) -> tuple[float, ManifoldPoint]:
    """Top eigenpair of A = (1/n) Z Z^T by power iteration.

    Iterates until successive Rayleigh quotients differ by less than ``tol``.
    Raises on non-convergence (tiny eigengap) with the iteration count.
    Does not touch the oracle counter.
    """
    Z = P.Z
    n = P.n
    rng = np.random.default_rng(0x5EED)
    v = rng.standard_normal(P.d)
    v /= math.sqrt(float(v @ v))
    lam_prev = math.inf
    for it in range(max_iter):
        w = Z @ (Z.T @ v)
        w /= n
        lam = float(v @ w)
        if abs(lam - lam_prev) < tol:
            return lam, ManifoldPoint(P.manifold, v)
        nw = math.sqrt(float(w @ w))
        if nw <= 1e-300:
            raise RuntimeError("power iteration collapsed: A appears to be zero")
        v = w / nw
        lam_prev = lam
    raise RuntimeError(
        f"power iteration did not converge after {max_iter} iterations "
        f"(last Rayleigh step {abs(lam - lam_prev):.3e}); the eigengap may be too small"
    )


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
        fh.write(np.ascontiguousarray(P.Z, dtype="<f8").tobytes(order="F"))


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
        body = fh.read(8 * d * n)
    if len(body) != 8 * d * n:
        raise ValueError("truncated matrix payload")
    z = np.frombuffer(body, dtype="<f8").reshape((d, n), order="F")
    return PcaProblem(z, seed=seed)
