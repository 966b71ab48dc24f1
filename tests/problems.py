"""Row-kernel objectives the tests share: off the PCA path, on two manifolds.

Each subclasses ``FiniteSumObjective`` the way a new objective does: it
passes its components as the n rows of one array and implements ``L_hint``
plus the two vectorized kernels ``_value`` and ``_grad``.
"""

import numpy as np

import rspider as r
from rspider.geometry import Euclidean, Sphere


class LinearSum(r.FiniteSumObjective):
    """f_i(x) = c_i . x on R^d; ``C`` is d x n, so row i is c_i."""

    def __init__(self, C):
        super().__init__(Euclidean(C.shape[0]), C.T)
        self.C = C

    @property
    def L_hint(self):
        return 0.0

    def _value(self, rows, x):
        return float((rows @ x.coords).mean())

    def _grad(self, rows, x):
        return rows.mean(axis=0)


class ChordalMean(r.FiniteSumObjective):
    """f_i(x) = |x - a_i|^2 / 2 on the sphere; row i is a_i."""

    L_hint = 2.0

    def __init__(self, a):
        super().__init__(Sphere(a.shape[1]), a)

    def _value(self, rows, x):
        diff = x.coords - rows
        return 0.5 * float(np.einsum("ij,ij->", diff, diff)) / rows.shape[0]

    def _grad(self, rows, x):
        return self.manifold._project_tangent(x.coords, x.coords - rows.mean(axis=0))


class LeastSquares(r.FiniteSumObjective):
    """f_i(x) = (a_i . x - b_i)^2 / 2 on R^d; row i is [a_i, b_i]."""

    def __init__(self, a, b):
        super().__init__(Euclidean(a.shape[1]), np.column_stack((a, b)))
        self._L = max(float(ai @ ai) for ai in a)

    @property
    def L_hint(self):
        return self._L

    def _residuals(self, rows, x):
        return rows[:, :-1] @ x.coords - rows[:, -1]

    def _value(self, rows, x):
        res = self._residuals(rows, x)
        return 0.5 * float(res @ res) / rows.shape[0]

    def _grad(self, rows, x):
        return self._residuals(rows, x) @ rows[:, :-1] / rows.shape[0]


def chordal_mean_problem(d=4, n=30, seed=0):
    # not the PCA quadratic
    return ChordalMean(np.random.default_rng(seed).standard_normal((n, d)) + 1.0)


def least_squares_problem(d=4, n=30, seed=0):
    # the solution is far from unit norm, so iterates leave the unit sphere
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, d))
    b = a @ np.full(d, 3.0) + 0.1 * rng.standard_normal(n)
    return LeastSquares(a, b)
