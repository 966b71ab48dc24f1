"""Geodesic primitives for the unit hypersphere and for flat space.

Points and tangent vectors are stored in ambient ``R^d`` coordinates.
Sphere points are kept unit-norm on construction; tangent vectors are
projected onto the tangent space of their base point. All operations are
deterministic pure functions, and constructed values are treated as
immutable (safe to share across threads).

Each manifold implements its geodesic operations once, on raw coordinate
arrays (``_exp``, ``_retract``, ``_transport``, ``_dist``). The public
``exp``, ``retract``, ``transport`` and ``dist`` are checked wrappers around
them: they verify that points and tangents belong together and return
checked :class:`ManifoldPoint`/:class:`TangentVector` values. The solvers
call the raw operations directly on arrays they already trust.

Inner products in these operations are written ``a.dot(b)``, not ``a @ b``.
On contiguous float64 arrays both make the same BLAS call (``ddot``), so
they give the same bits, but ``.dot`` skips the matmul ufunc dispatch, which
costs more than the arithmetic at the solvers' sizes.

Sphere transport from x to y along their geodesic is the closed form
``v - <y, v> / (1 + <x, y>) (x + y)``, followed by a projection onto the
tangent space at y. It takes ``1 + <x, y>`` as ``|x + y|^2 / 2``: near
antipodes ``x + y`` cancels exactly, while ``1 + <x, y>`` would lose most of
its digits. Transport from x to the same array returns ``v`` itself.

Sphere angles never come from ``acos(<x, y>)``, which rounds every angle
below about 2e-8 to 0. The distance is ``2 asin(|y - x| / 2)``, from the
chord, and the logarithm takes its angle as ``atan2(|u|, <x, y>)``, where
``u = y - <x, y> x``. The logarithm computes both on unit copies of x and y,
since a point kept within ``_UNIT_TOL`` of unit norm would leave u a normal
part of that size, and it returns 0 only when |u| is at rounding level.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np

from ._checks import _check_count

__all__ = [
    "AntipodalError",
    "Euclidean",
    "GeometryError",
    "Manifold",
    "ManifoldPoint",
    "Sphere",
    "TangentVector",
]


class GeometryError(ValueError):
    """Invalid use of a geometry operation (dimension or base mismatch)."""


class AntipodalError(GeometryError):
    """The geodesic between (nearly) antipodal sphere points is not unique."""


_UNIT_TOL = 1e-9        # |norm - 1| accepted without renormalizing
_ANTIPODAL_COS = -1.0 + 1e-8
_ANTIPODAL_SQ = 2.0 * (1.0 + _ANTIPODAL_COS)  # the same bound on |x + y|^2
_EXP_SMALL = 1e-8       # below this angle exp falls back to normalize(x + v)
_ROUNDING_SIN = 1e-15   # at or below this |u| (sin of the angle) log returns 0


class ManifoldPoint:
    """A point on a manifold, in ambient coordinates."""

    __slots__ = ("manifold", "coords")

    def __init__(self, manifold: "Manifold", coords):
        coords = np.asarray(coords, dtype=np.float64)
        if coords.ndim != 1 or coords.shape[0] != manifold.d:
            raise GeometryError(
                f"expected a vector of dimension {manifold.d}, got shape {coords.shape}"
            )
        self.manifold = manifold
        self.coords = manifold._clean_point(coords)

    @classmethod
    def _raw(cls, manifold: "Manifold", coords: np.ndarray) -> "ManifoldPoint":
        # trusted path: coords already cleaned onto the manifold
        x = object.__new__(cls)
        x.manifold = manifold
        x.coords = coords
        return x

    def __repr__(self):
        return f"ManifoldPoint({self.manifold!r}, {self.coords!r})"


class TangentVector:
    """A tangent vector attached to a base point, in ambient coordinates.

    Construction projects the coordinates onto the tangent space at the
    base, so the tangency invariant holds for every instance. The squared
    norm is cached.
    """

    __slots__ = ("base", "coords", "_sq")

    def __init__(self, base: ManifoldPoint, coords):
        coords = np.asarray(coords, dtype=np.float64)
        if coords.ndim != 1 or coords.shape[0] != base.manifold.d:
            raise GeometryError(
                f"expected a vector of dimension {base.manifold.d}, got shape {coords.shape}"
            )
        # projecting twice: one pass leaves a normal part of order
        # 1e-16 * |coords|, large next to the result when coords is nearly
        # parallel to the base; the raw ops keep their single projection
        project = base.manifold._project_tangent
        coords = project(base.coords, project(base.coords, coords))
        sq = float(coords.dot(coords))
        if not math.isfinite(sq):
            raise GeometryError("tangent coordinates must be finite")
        self.base = base
        self.coords = coords
        self._sq = sq

    @classmethod
    def _raw(cls, base: ManifoldPoint, coords: np.ndarray) -> "TangentVector":
        # trusted path: coords already tangent at base
        v = object.__new__(cls)
        v.base = base
        v.coords = coords
        sq = float(coords.dot(coords))
        if not math.isfinite(sq):
            raise GeometryError("tangent coordinates must be finite")
        v._sq = sq
        return v

    def norm(self) -> float:
        return math.sqrt(self._sq)

    def _scaled(self, s: float) -> "TangentVector":
        v = object.__new__(TangentVector)
        v.base = self.base
        v.coords = self.coords * s
        v._sq = self._sq * (s * s)
        return v

    def _check_same_base(self, other: "TangentVector"):
        if self.base is not other.base and not np.array_equal(
            self.base.coords, other.base.coords
        ):
            raise GeometryError("tangent vectors live at different base points")

    def __add__(self, other: "TangentVector") -> "TangentVector":
        self._check_same_base(other)
        return TangentVector._raw(self.base, self.coords + other.coords)

    def __sub__(self, other: "TangentVector") -> "TangentVector":
        self._check_same_base(other)
        return TangentVector._raw(self.base, self.coords - other.coords)

    def __neg__(self) -> "TangentVector":
        return self._scaled(-1.0)

    def __mul__(self, s: float) -> "TangentVector":
        return self._scaled(float(s))

    __rmul__ = __mul__

    def __repr__(self):
        return f"TangentVector(base={self.base.coords!r}, coords={self.coords!r})"


class Manifold(ABC):
    """Shared interface: metric, exponential map, logarithm, transport."""

    __slots__ = ("d",)
    _MIN_D = 1  # the least ambient dimension

    def __init__(self, d: int):
        _check_count("d", d, self._MIN_D)
        self.d = int(d)  # numpy integers as ints

    def __eq__(self, other):
        return type(self) is type(other) and self.d == other.d

    def __hash__(self):
        return hash((type(self).__name__, self.d))

    def __repr__(self):
        return f"{type(self).__name__}({self.d})"

    # -- construction ---------------------------------------------------
    def point(self, coords) -> ManifoldPoint:
        return ManifoldPoint(self, coords)

    def tangent(self, base: ManifoldPoint, coords) -> TangentVector:
        self._check_point(base)
        return TangentVector(base, coords)

    def random_point(self, rng: np.random.Generator) -> ManifoldPoint:
        return ManifoldPoint(self, rng.standard_normal(self.d))

    def random_tangent(
        self, base: ManifoldPoint, rng: np.random.Generator, scale: float = 1.0
    ) -> TangentVector:
        """Random tangent at ``base`` with norm ``scale``."""
        for _ in range(16):
            v = TangentVector(base, rng.standard_normal(self.d))
            if v._sq > 1e-24:
                return v._scaled(scale / v.norm())
        raise GeometryError("failed to draw a nonzero tangent direction")

    # -- metric -----------------------------------------------------------
    def inner(self, u: TangentVector, v: TangentVector) -> float:
        """Riemannian inner product of two tangents at the same base."""
        u._check_same_base(v)
        return float(u.coords.dot(v.coords))

    # -- geodesic operations (checked wrappers around the raw ops) -----------
    def exp(self, x: ManifoldPoint, v: TangentVector) -> ManifoldPoint:
        """Point reached by the unit-time geodesic from ``x`` with velocity ``v``."""
        self._check_base(x, v)
        return ManifoldPoint._raw(self, self._exp(x.coords, v.coords, v._sq))

    @abstractmethod
    def log(self, x: ManifoldPoint, y: ManifoldPoint) -> TangentVector:
        """Inverse of ``exp``: tangent at ``x`` pointing to ``y`` with length dist(x, y)."""

    def transport(
        self, x: ManifoldPoint, y: ManifoldPoint, v: TangentVector
    ) -> TangentVector:
        """Parallel transport of ``v`` from ``x`` to ``y`` along the geodesic."""
        self._check_base(x, v)
        self._check_point(y)
        return TangentVector._raw(y, self._transport(x.coords, y.coords, v.coords))

    def retract(self, x: ManifoldPoint, v: TangentVector) -> ManifoldPoint:
        """First-order approximation of the exponential map."""
        self._check_base(x, v)
        return ManifoldPoint._raw(self, self._retract(x.coords, v.coords))

    def dist(self, x: ManifoldPoint, y: ManifoldPoint) -> float:
        """Geodesic distance."""
        self._check_pair(x, y)
        return self._dist(x.coords, y.coords)

    # -- raw operations on coordinate arrays ----------------------------------
    # Inputs are trusted: x, y are clean points, v is tangent at its base and
    # v_sq is v @ v. Results are clean points or tangent coordinates.
    @abstractmethod
    def _exp(self, x: np.ndarray, v: np.ndarray, v_sq: float) -> np.ndarray: ...

    @abstractmethod
    def _retract(self, x: np.ndarray, v: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def _transport(self, x: np.ndarray, y: np.ndarray, v: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def _dist(self, x: np.ndarray, y: np.ndarray) -> float: ...

    # -- internal hooks -----------------------------------------------------
    @abstractmethod
    def _clean_point(self, coords: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def _project_tangent(self, base: np.ndarray, coords: np.ndarray) -> np.ndarray: ...

    def _check_point(self, x: ManifoldPoint):
        if x.manifold is not self and x.manifold != self:
            raise GeometryError(f"point belongs to {x.manifold!r}, not {self!r}")

    def _check_pair(self, x: ManifoldPoint, y: ManifoldPoint):
        self._check_point(x)
        self._check_point(y)

    def _check_base(self, x: ManifoldPoint, v: TangentVector):
        self._check_point(x)
        if v.base is not x and not np.array_equal(v.base.coords, x.coords):
            raise GeometryError("tangent vector is not based at the given point")


class Sphere(Manifold):
    """Unit hypersphere S^{d-1} embedded in R^d (requires d >= 2)."""

    __slots__ = ()
    _MIN_D = 2

    def _clean_point(self, coords: np.ndarray) -> np.ndarray:
        sq = float(coords.dot(coords))
        if not math.isfinite(sq):
            raise GeometryError("point coordinates must be finite")
        nrm = math.sqrt(sq)
        if abs(nrm - 1.0) <= _UNIT_TOL:
            return coords
        if nrm <= 1e-300:
            raise GeometryError("cannot normalize a zero vector onto the sphere")
        return coords / nrm

    def _project_tangent(self, base: np.ndarray, coords: np.ndarray) -> np.ndarray:
        c = float(base.dot(coords))
        return coords - c * base

    def log(self, x: ManifoldPoint, y: ManifoldPoint) -> TangentVector:
        self._check_pair(x, y)
        xs = x.coords / math.sqrt(float(x.coords.dot(x.coords)))
        ys = y.coords / math.sqrt(float(y.coords.dot(y.coords)))
        c = float(xs.dot(ys))
        if c <= _ANTIPODAL_COS:
            raise AntipodalError(
                f"logarithm undefined for (nearly) antipodal points: <x, y> = {c}"
            )
        u = ys - c * xs
        un = math.sqrt(float(u.dot(u)))  # equals sin(theta); resolves tiny angles
        if un <= _ROUNDING_SIN:
            return TangentVector._raw(x, np.zeros(self.d))
        theta = math.atan2(un, c)
        return TangentVector._raw(x, (theta / un) * u)

    def _exp(self, x, v, v_sq):
        theta = math.sqrt(v_sq)
        if theta < _EXP_SMALL:
            return self._clean_point(x + v)
        return self._clean_point(math.cos(theta) * x + (math.sin(theta) / theta) * v)

    def _transport(self, x, y, v):
        if x is y:
            return v
        # v - <y, v> / (1 + <x, y>) (x + y), with 1 + <x, y> = |x + y|^2 / 2:
        # the sum cancels exactly near antipodes, where 1 + <x, y> would not
        s = x + y
        q = float(s.dot(s))
        if q <= _ANTIPODAL_SQ:
            raise AntipodalError(
                "transport undefined for (nearly) antipodal points: "
                f"<x, y> = {float(x.dot(y))}"
            )
        out = v - (2.0 * float(y.dot(v)) / q) * s
        return self._project_tangent(y, out)

    def _retract(self, x, v):
        w = x + v
        nw = math.sqrt(float(w.dot(w)))
        if nw <= 1e-12:
            raise GeometryError("retraction undefined: x + v is (nearly) zero")
        return self._clean_point(w / nw)

    def _dist(self, x, y):
        c = float(x.dot(y))
        if c <= _ANTIPODAL_COS:
            raise AntipodalError(
                f"distance ill-conditioned for (nearly) antipodal points: <x, y> = {c}"
            )
        diff = y - x  # the chord, 2 sin(theta / 2)
        return 2.0 * math.asin(min(1.0, 0.5 * math.sqrt(float(diff.dot(diff)))))

    # perfbench/tracing.py wraps these names in Sphere.__dict__
    exp = Manifold.exp
    transport = Manifold.transport
    retract = Manifold.retract
    dist = Manifold.dist


class Euclidean(Manifold):
    """Flat R^d with the standard inner product."""

    __slots__ = ()

    def _clean_point(self, coords: np.ndarray) -> np.ndarray:
        if not math.isfinite(float(coords.dot(coords))):
            raise GeometryError("point coordinates must be finite")
        return coords

    def _project_tangent(self, base: np.ndarray, coords: np.ndarray) -> np.ndarray:
        return coords

    def log(self, x: ManifoldPoint, y: ManifoldPoint) -> TangentVector:
        self._check_pair(x, y)
        return TangentVector._raw(x, y.coords - x.coords)

    def _exp(self, x, v, v_sq):
        return self._clean_point(x + v)

    def _retract(self, x, v):
        return self._clean_point(x + v)

    def _transport(self, x, y, v):
        return v

    def _dist(self, x, y):
        diff = y - x
        return math.sqrt(float(diff.dot(diff)))
