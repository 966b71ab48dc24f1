import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import rspider as r
from rspider.geometry import Euclidean, GeometryError, Sphere
from rspider.oracle import (
    _eigenvector_factors,
    _orthonormal,
    _prepare_columns,
    _problem_from_factors,
    _row_home,
    packed_spectrum,
    problem_from_spectrum,
)
from problems import LinearSum, chordal_mean_problem


def diag21_problem():
    # two columns (2,0) and (0, sqrt(2)) give A = diag(2, 1)
    Z = np.array([[2.0, 0.0], [0.0, math.sqrt(2.0)]])
    return r.PcaProblem(Z, spectrum=np.array([2.0, 1.0]))


def power_deflation_gap(A, iters=20000):
    # independent oracle: top two eigenvalues by power iteration + deflation
    rng = np.random.default_rng(123)

    def top(M):
        v = rng.standard_normal(M.shape[0])
        v /= np.linalg.norm(v)
        for _ in range(iters):
            w = M @ v
            nw = np.linalg.norm(w)
            v = w / nw
        return float(v @ M @ v), v

    l1, v1 = top(A)
    l2, _ = top(A - l1 * np.outer(v1, v1))
    return l1, l2


class TestIfoCounter:
    def test_counting(self):
        # one call per row per evaluation point, through every charged entry
        P = diag21_problem()
        x = P.manifold.point([0.6, 0.8])
        c = P.counter
        assert c.calls == 0
        P.component_rgrad(1, x)
        assert c.calls == 1
        P.minibatch_rgrad([0, 1, 1], x)
        assert c.calls == 1 + 3
        P.minibatch_rgrad(P._prepare(np.array([1, 0])), x)
        assert c.calls == 1 + 3 + 2
        P.full_rgrad(x)
        assert c.calls == 1 + 3 + 2 + P.n
        assert repr(c) == "IfoCounter(calls=8)"


class TestPcaValue:
    def test_hand_values(self):
        P = diag21_problem()
        x = P.manifold.point([1.0, 0.0])
        assert P.value(x) == pytest.approx(-2.0, abs=1e-15)
        y = P.manifold.point([1.0, 1.0])
        assert P.value(y) == pytest.approx(-1.5, abs=1e-15)

    def test_even_function(self):
        P = diag21_problem()
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = P.manifold.random_point(rng)
            nx = P.manifold.point(-x.coords)
            assert P.value(x) == pytest.approx(P.value(nx), abs=1e-15)

    def test_value_is_mean_of_components(self):
        rng = np.random.default_rng(1)
        P = r.PcaProblem(rng.standard_normal((4, 7)))
        x = P.manifold.random_point(rng)
        direct = sum(-float(P.Z[:, i] @ x.coords) ** 2 for i in range(P.n)) / P.n
        assert P.value(x) == pytest.approx(direct, rel=1e-13)

    def test_value_is_free(self):
        P = diag21_problem()
        x = P.manifold.point([1.0, 0.0])
        P.value(x)
        assert P.counter.calls == 0

    def test_value_within_spectrum_range(self):
        P = r.generate_gap_matrix(r.SyntheticSpec(d=8, n=30, delta=0.3, seed=4))
        rng = np.random.default_rng(5)
        lo, hi = -P.spectrum[0], -P.spectrum[-1]
        for _ in range(25):
            val = P.value(P.manifold.random_point(rng))
            assert lo - 1e-12 <= val <= hi + 1e-12


class TestComponentGradients:
    def test_zero_at_optimum(self):
        P = diag21_problem()
        x = P.manifold.point([1.0, 0.0])
        for i in range(P.n):
            g = P.component_rgrad(i, x)
            assert g.norm() <= 1e-15

    def test_full_gradient_hand_value(self):
        P = diag21_problem()
        s = 1.0 / math.sqrt(2.0)
        x = P.manifold.point([s, s])
        g = P.full_rgrad(x)
        assert np.allclose(g.coords, [-s, s], atol=1e-14)

    def test_tangency(self):
        rng = np.random.default_rng(2)
        P = r.PcaProblem(rng.standard_normal((6, 20)))
        for _ in range(20):
            x = P.manifold.random_point(rng)
            i = int(rng.integers(0, P.n))
            g = P.component_rgrad(i, x)
            assert abs(x.coords @ g.coords) <= 1e-12 * max(1.0, g.norm())

    def test_index_out_of_range(self):
        P = diag21_problem()
        x = P.manifold.point([1.0, 0.0])
        with pytest.raises(IndexError):
            P.component_rgrad(2, x)

    def test_non_integer_indices_rejected(self):
        # a float index would be truncated ([1.5, 2.9] to [1, 2]) and a
        # boolean mask read as the indices 0 and 1: both raise before any call
        P = r.generate_gap_matrix(r.SyntheticSpec(d=6, n=20, delta=0.3, seed=2))
        x = P.manifold.random_point(np.random.default_rng(4))
        for idx in ([1.5, 2.9], np.array([1.0, 2.0]), np.array([True, True, False])):
            with pytest.raises(IndexError, match="integer"):
                P.minibatch_rgrad(idx, x)
        for i in (1.7, 2.0):
            with pytest.raises(IndexError, match="integer"):
                P.component_rgrad(i, x)
        assert P.counter.calls == 0
        # integer scalars and integer arrays of any width still pass
        g = P.minibatch_rgrad([1, 2], x).coords
        assert np.array_equal(P.minibatch_rgrad(np.array([1, 2], dtype=np.uint8), x).coords, g)
        assert np.array_equal(P.component_rgrad(np.int32(3), x).coords,
                              P.component_rgrad(3, x).coords)

    @pytest.mark.parametrize("other", ["euclidean", "smaller sphere"])
    def test_point_off_the_manifold_rejected_before_any_charge(self, other):
        # a checked point of another manifold, even of the same dimension,
        # is refused at every checked entry, before a call is charged
        P = problem_from_spectrum(packed_spectrum(20, 0.1), 200, seed=7)
        x = (Euclidean(20).point(5.0 * np.ones(20)) if other == "euclidean"
             else Sphere(5).point(np.ones(5)))
        entries = [
            lambda: P.value(x),
            lambda: P.component_rgrad(0, x),
            lambda: P.minibatch_rgrad([0, 1], x),
            lambda: P.minibatch_rgrad(P._prepare(np.array([0, 1])), x),
            lambda: P.full_rgrad(x),
            lambda: P._exact_grad(x),
            lambda: r.variance_bound_estimate(P, x),
        ]
        for entry in entries:
            with pytest.raises(GeometryError, match="point belongs to"):
                entry()
        assert P.counter.calls == 0


def _pca_objective():
    return r.generate_gap_matrix(r.SyntheticSpec(d=12, n=40, delta=0.3, seed=5))


def _linear_sum():
    return LinearSum(np.random.default_rng(5).standard_normal((12, 40)))


# every objective shares the base's gather and charged path; "components" is
# the chordal mean, a second sphere objective beside the PCA quadratic
OBJECTIVES = {"pca": _pca_objective, "components": chordal_mean_problem,
              "linear-sum": _linear_sum}


class TestMinibatch:
    @pytest.mark.parametrize("make", OBJECTIVES.values(), ids=OBJECTIVES)
    def test_all_indices_equals_full_exactly(self, make):
        P = make()
        x = P.manifold.random_point(np.random.default_rng(3))
        g1 = P.minibatch_rgrad(np.arange(P.n), x)
        g2 = P.full_rgrad(x)
        assert np.array_equal(g1.coords, g2.coords)
        f, g_sq = P._probe(x)
        if isinstance(P, r.PcaProblem):
            # the PCA probe reads the Gram matrix: value and full_rgrad to rounding
            lam = r.leading_eigpair(P)[0]
            assert abs(f - P.value(x)) <= 1e-14 * lam
            assert abs(g_sq - g2._sq) <= 1e-14 * lam**2
        else:
            # the generic probe gives the bits of value and full_rgrad
            assert (f, g_sq) == (P.value(x), g2._sq)

    def test_unbiasedness_monte_carlo(self):
        P = r.generate_gap_matrix(r.SyntheticSpec(d=6, n=30, delta=0.4, seed=8))
        rng = np.random.default_rng(4)
        x = P.manifold.random_point(rng)
        target = P.full_rgrad(x).coords
        draws = 100_000
        idx = rng.integers(0, P.n, size=draws)
        singles = np.stack([P.component_rgrad(int(i), x).coords for i in range(P.n)])
        samples = singles[idx]
        mean = samples.mean(axis=0)
        se = samples.std(axis=0, ddof=1) / math.sqrt(draws)
        assert np.all(np.abs(mean - target) <= 3.0 * se + 1e-12)

    def test_counter_accounting(self):
        P = r.generate_gap_matrix(r.SyntheticSpec(d=5, n=100, delta=0.2, seed=1))
        x = P.manifold.random_point(np.random.default_rng(5))
        before = P.counter.calls
        P.full_rgrad(x)
        assert P.counter.calls - before == 100
        P.minibatch_rgrad([3, 3, 7], x)
        assert P.counter.calls - before == 103
        P.component_rgrad(0, x)
        assert P.counter.calls - before == 104

    def test_empty_batch_rejected(self):
        P = diag21_problem()
        x = P.manifold.point([1.0, 0.0])
        with pytest.raises(ValueError):
            P.minibatch_rgrad([], x)

    @pytest.mark.parametrize("make", OBJECTIVES.values(), ids=OBJECTIVES)
    def test_single_index_batch_equals_component(self, make):
        P = make()
        rng = np.random.default_rng(6)
        for _ in range(5):
            x = P.manifold.random_point(rng)
            for i in range(P.n):
                g = P.minibatch_rgrad([i], x).coords
                assert np.array_equal(g, P.component_rgrad(i, x).coords)
                assert np.array_equal(g, P.minibatch_rgrad(P._prepare(np.array([i])), x).coords)
            # raw indices take the prepared batch's path
            idx = rng.integers(0, P.n, size=23)
            assert np.array_equal(P.minibatch_rgrad(idx, x).coords,
                                  P.minibatch_rgrad(P._prepare(idx), x).coords)
            # a solver's raw point gets the same bits back, raw, and the same charge
            for grad in (lambda at: P.minibatch_rgrad(P._prepare(idx), at), P.full_rgrad):
                calls = P.counter.calls
                g = grad(x)
                charged = P.counter.calls - calls
                raw = grad(x.coords)
                assert type(raw) is np.ndarray and np.array_equal(raw, g.coords)
                assert P.counter.calls - calls == 2 * charged

    def test_memory_order_of_z_does_not_matter(self):
        Z = np.random.default_rng(7).standard_normal((9, 50))
        P, Q = r.PcaProblem(Z), r.PcaProblem(np.asfortranarray(Z))
        assert np.array_equal(P.Z, Z) and np.array_equal(Q.Z, Z)
        assert P._rows.flags.c_contiguous and Q._rows.flags.c_contiguous
        assert P.L_hint == Q.L_hint
        assert np.array_equal(P._gram(), Q._gram())
        rng = np.random.default_rng(8)
        idx = rng.integers(0, P.n, size=23)
        for _ in range(5):
            x = P.manifold.random_point(rng)
            assert P.value(x) == Q.value(x) and P._probe(x) == Q._probe(x)
            for grad in (
                lambda O: O.full_rgrad(x),
                lambda O: O.component_rgrad(3, x),
                lambda O: O.minibatch_rgrad(idx, x),
                lambda O: O.minibatch_rgrad(O._prepare(idx), x),
            ):
                assert np.array_equal(grad(P).coords, grad(Q).coords)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_components_rejected(self, bad):
        # L_hint would read nan or inf
        Z = np.random.default_rng(0).standard_normal((3, 5))
        Z[1, 2] = bad
        with pytest.raises(ValueError, match="components must be finite"):
            r.PcaProblem(Z)


@settings(max_examples=50, deadline=None)
@given(
    d=hst.integers(2, 30),
    extra=hst.integers(0, 60),
    batch=hst.integers(1, 150),
    seed=hst.integers(0, 2**32 - 1),
)
def test_minibatch_is_mean_of_component_gradients(d, extra, batch, seed):
    rng = np.random.default_rng(seed)
    P = r.PcaProblem(rng.standard_normal((d, d + extra)))
    x = P.manifold.random_point(rng)
    idx = rng.integers(0, P.n, size=batch)
    singles = [P.component_rgrad(int(i), x).coords for i in idx]
    g = P.minibatch_rgrad(idx, x).coords
    scale = np.mean([np.linalg.norm(c) for c in singles])
    assert np.linalg.norm(g - np.mean(singles, axis=0)) <= 1e-12 * scale


@settings(max_examples=50, deadline=None)
@given(
    d=hst.integers(2, 30),
    extra=hst.integers(0, 40),
    k=hst.integers(1, 30),
    seed=hst.integers(0, 2**32 - 1),
)
def test_column_batch_has_the_one_row_bits(d, extra, k, seed):
    # a column batch evaluates row i at point i in one charged call of k
    # components; PcaProblem's vectorized kernel gives each row the bits of a
    # one-component evaluation, as the default stacked kernel does. The
    # batch gathers the first j rows from P and the rest from Q, which shares
    # P's counter, and the call on P gives Q's rows Q's own bits
    rng = np.random.default_rng(seed)
    P, Q = (r.PcaProblem(rng.standard_normal((d, d + extra))) for _ in range(2))
    Q.counter = P.counter
    X = np.array([P.manifold.random_point(rng).coords for _ in range(k)])
    idx = rng.integers(0, P.n, size=k)
    j = int(rng.integers(0, k + 1))
    batch = _prepare_columns([(P._rows, idx[:j]), (Q._rows, idx[j:])])
    g = P.minibatch_rgrad(batch, X)
    assert P.counter.calls == k == len(batch)
    assert g.tobytes() == r.FiniteSumObjective._grads(P, batch.rows, X).tobytes()
    for i in range(k):
        one = (P if i < j else Q).component_rgrad(int(idx[i]), P.manifold.point(X[i]))
        assert g[i].tobytes() == one.coords.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    d=hst.integers(2, 30),
    extra=hst.integers(0, 60),
    seed=hst.integers(0, 2**32 - 1),
    near=hst.none() | hst.floats(0.0, 1e-12),
)
def test_probe_matches_value_and_full_gradient(d, extra, seed, near):
    # the probe reads the Gram matrix, the charged oracle the rows: they agree
    # to rounding at random points and at points within 1e-12 of u_1, where
    # the gradient all but vanishes (measured worst: 6.7e-16 and 6.1e-16)
    rng = np.random.default_rng(seed)
    P = r.PcaProblem(rng.standard_normal((d, d + extra)))
    lam, u1 = r.leading_eigpair(P)
    if near is None:
        x = P.manifold.random_point(rng)
    else:
        x = P.manifold.exp(u1, P.manifold.random_tangent(u1, rng, scale=near))
    f, g_sq = P._probe(x)
    assert P.counter.calls == 0
    assert abs(f - P.value(x)) <= 1e-14 * lam
    assert abs(g_sq - P.full_rgrad(x)._sq) <= 1e-14 * lam**2


class TestMinimalObjective:
    def setup_method(self):
        self.C = np.arange(12.0).reshape(3, 4)
        self.obj = LinearSum(self.C)
        self.x = self.obj.manifold.point([1.0, -1.0, 0.5])

    def test_charges_one_batch_and_n(self):
        obj, x = self.obj, self.x
        g = obj.component_rgrad(2, x)
        assert obj.counter.calls == 1
        assert np.array_equal(g.coords, self.C[:, 2])
        g = obj.minibatch_rgrad([1, 3, 3], x)
        assert obj.counter.calls == 1 + 3
        assert np.allclose(g.coords, self.C[:, [1, 3, 3]].mean(axis=1))
        g = obj.full_rgrad(x)
        assert obj.counter.calls == 1 + 3 + obj.n
        assert np.allclose(g.coords, self.C.mean(axis=1))
        assert obj.value(x) == pytest.approx(float(self.C.mean(axis=1) @ x.coords))

    def test_rejects_empty_batch_and_bad_index(self):
        obj, x = self.obj, self.x
        with pytest.raises(ValueError, match="empty minibatch"):
            obj.minibatch_rgrad([], x)
        with pytest.raises(IndexError):
            obj.minibatch_rgrad([0, obj.n], x)
        with pytest.raises(IndexError):
            obj.minibatch_rgrad([-1], x)
        with pytest.raises(IndexError):
            obj.component_rgrad(obj.n, x)
        assert obj.counter.calls == 0


class TestGenerator:
    def test_small_instance_dense_eigensolve(self):
        P = r.generate_gap_matrix(r.SyntheticSpec(d=2, n=4, delta=0.5, seed=0))
        A = P.Z @ P.Z.T / P.n
        evals = np.sort(np.linalg.eigvalsh(A))[::-1]
        assert np.allclose(evals, [1.0, 0.5], atol=1e-8)

    def test_determinism(self):
        spec = r.SyntheticSpec(d=7, n=21, delta=0.25, seed=42)
        Z1 = r.generate_gap_matrix(spec).Z
        Z2 = r.generate_gap_matrix(spec).Z
        assert np.array_equal(Z1, Z2)

    def test_gap_via_power_deflation(self):
        P = r.generate_gap_matrix(r.SyntheticSpec(d=10, n=50, delta=0.1, seed=9))
        A = P.Z @ P.Z.T / P.n
        l1, l2 = power_deflation_gap(A)
        assert l1 - l2 == pytest.approx(0.1, abs=1e-7)

    def test_spectrum_matches_target(self):
        spec = r.SyntheticSpec(d=9, n=33, delta=0.15, seed=13)
        P = r.generate_gap_matrix(spec)
        A = P.Z @ P.Z.T / P.n
        evals = np.sort(np.linalg.eigvalsh(A))[::-1]
        assert np.abs(evals - P.spectrum).max() <= 1e-7

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            r.SyntheticSpec(d=10, n=5, delta=0.1, seed=0)  # d > n
        with pytest.raises(ValueError):
            r.SyntheticSpec(d=4, n=8, delta=1.0, seed=0)  # gap too large
        with pytest.raises(ValueError):
            r.SyntheticSpec(d=4, n=8, delta=-0.1, seed=0)

    def test_shared_geometry_across_gaps(self):
        # same seed, different gap: same eigenvector basis
        p1 = r.generate_gap_matrix(r.SyntheticSpec(d=8, n=30, delta=0.3, seed=77))
        p2 = r.generate_gap_matrix(r.SyntheticSpec(d=8, n=30, delta=0.1, seed=77))
        _, v1 = r.leading_eigpair(p1)
        _, v2 = r.leading_eigpair(p2)
        assert abs(v1.coords @ v2.coords) >= 1.0 - 1e-9

    def test_rows_built_into_a_buffer_slice_keep_the_fresh_bits(self):
        # a sweep builds its block gaps into one row buffer: each instance's
        # rows are a view of its slice, with the bits of a fresh build, and
        # a block finds the buffer and the slice's first row from the rows
        d, n, seed = 8, 30, 77
        factors = _eigenvector_factors(d, n, seed)
        buffer = np.zeros((3 * n, d))
        for k, delta in enumerate((0.2, 0.1, 0.05)):
            lam = packed_spectrum(d, delta)
            fresh = _problem_from_factors(lam, *factors)
            rows = buffer[k * n:(k + 1) * n]
            P = _problem_from_factors(lam, *factors, out=rows)
            assert P._rows.tobytes() == fresh._rows.tobytes()
            assert np.shares_memory(P._rows, rows) and P._rows.flags.c_contiguous
            assert P.f_star == fresh.f_star and P.L_hint == fresh.L_hint
            home, first = _row_home(P._rows)
            assert home is buffer and first == k * n
            assert _row_home(fresh._rows)[1] == 0
            assert _row_home(fresh._rows)[0].ctypes.data == fresh._rows.ctypes.data

    def test_packed_spectrum_shape(self):
        lam = packed_spectrum(10, 0.02)
        assert lam[0] == 1.0
        assert lam[0] - lam[1] == pytest.approx(0.02, abs=1e-15)
        assert np.all(np.diff(lam) < 0)
        P = problem_from_spectrum(lam, 25, seed=3)
        evals = np.sort(np.linalg.eigvalsh(P.Z @ P.Z.T / P.n))[::-1]
        assert np.abs(evals - lam).max() <= 1e-8

    @pytest.mark.parametrize(
        "lam",
        [[1.0, np.nan, 0.2], [np.inf, 0.5, 0.2], [1.0, 0.5, -np.inf], [[1.0], [0.5], [0.2]]],
        ids=["nan", "inf", "minus-inf", "2-d"],
    )
    def test_bad_spectrum_raises_before_any_draw(self, monkeypatch, lam):
        import rspider.oracle as oracle

        drawn = []
        monkeypatch.setattr(oracle, "_eigenvector_factors", lambda *a: drawn.append(a))
        with pytest.raises(ValueError, match="spectrum"):
            problem_from_spectrum(lam, 20, seed=0)
        assert drawn == []


@settings(max_examples=60, deadline=None)
@given(
    d=hst.integers(2, 40),
    extra=hst.integers(0, 360),
    delta=hst.floats(0.001, 0.24),
    seed=hst.integers(0, 2**32 - 1),
)
def test_instance_spectrum_on_either_pass_count(d, extra, delta, seed):
    # n from d (a square draw: two passes) to 10 d (one pass, cond(q^T q) about 4)
    n = d + extra % (9 * d + 1)
    lam = packed_spectrum(d, delta)
    P = problem_from_spectrum(lam, n, seed=seed)
    evals = np.sort(np.linalg.eigvalsh(P.Z @ P.Z.T / n))[::-1]
    assert np.abs(evals - lam).max() <= 1e-12


def householder_reference(rng, rows, cols):
    # the Q of a Gaussian draw by Householder QR, signed so R's diagonal is positive
    q, rr = np.linalg.qr(rng.standard_normal((rows, cols)))
    sign = np.sign(np.diag(rr))
    sign[sign == 0] = 1.0
    return q * sign


class FixedDraw:
    """Stands in for a Generator whose next Gaussian draw is a given matrix."""

    def __init__(self, draw):
        self.draw = np.array(draw, dtype=np.float64)

    def standard_normal(self, shape):
        assert shape == self.draw.shape
        return self.draw.copy()


class KeptDraw:
    """A seeded Generator that keeps its Gaussian draw, so a caller can tell
    the draw itself from an array computed from it."""

    def __init__(self, seed):
        self.rng, self.draw = np.random.default_rng(seed), None

    def standard_normal(self, shape):
        self.draw = self.rng.standard_normal(shape)
        return self.draw


class TestOrthonormal:
    @pytest.mark.parametrize(
        "rows,cols", [(2, 2), (3, 3), (20, 20), (60, 20), (200, 20), (2000, 100)]
    )
    def test_orthonormal_and_equal_to_householder_q(self, rows, cols):
        for seed in range(6):
            q, m = _orthonormal(np.random.default_rng(seed), rows, cols)
            assert q.shape == (rows, cols) and m.shape == (cols, cols)
            q = q @ m
            ref = householder_reference(np.random.default_rng(seed), rows, cols)
            assert np.abs(q.T @ q - np.eye(cols)).max() <= 1e-14
            assert np.abs(q - ref).max() <= 1e-13

    def test_square_instance_factors(self):
        # n == d: V is square like U; Z = U D V^T must match the Householder build
        d, seed = 12, 31
        lam = packed_spectrum(d, 0.05)
        P = problem_from_spectrum(lam, d, seed=seed)
        u, q, m = _eigenvector_factors(d, d, seed)
        v = q @ m
        for f in (u, v):
            assert np.abs(f.T @ f - np.eye(d)).max() <= 1e-14
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        u_ref = householder_reference(rng, d, d)
        v_ref = householder_reference(rng, d, d)
        assert np.abs(u - u_ref).max() <= 1e-13
        assert np.abs(v - v_ref).max() <= 1e-13
        # bit for bit the V-free build; within rounding of U D V^T
        assert np.array_equal(P.Z, (q @ (m @ (u * np.sqrt(d * lam)).T)).T)
        assert np.abs(P.Z - (u * np.sqrt(d * lam)) @ v.T).max() <= 1e-14
        evals = np.sort(np.linalg.eigvalsh(P.Z @ P.Z.T / P.n))[::-1]
        assert np.abs(evals - lam).max() <= 1e-12

    @pytest.mark.parametrize("rows,cols,passes", [(2000, 100, 1), (200, 20, 1), (20, 20, 2)])
    def test_pass_count(self, monkeypatch, rows, cols, passes):
        # a tall draw with a well-conditioned Gram matrix takes one pass and
        # returns the draw itself as q: no n x d array beyond the draw is
        # formed; a square draw takes two
        import tracemalloc

        cholesky, factored = np.linalg.cholesky, []

        def counted(a):
            factored.append(a.shape)
            return cholesky(a)

        _orthonormal(np.random.default_rng(0), rows, cols)  # numpy's first-use allocations
        monkeypatch.setattr(np.linalg, "cholesky", counted)
        for seed in range(3):
            rng = KeptDraw(seed)
            factored.clear()
            tracemalloc.start()
            try:
                q, _ = _orthonormal(rng, rows, cols)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert factored == [(cols, cols)] * passes
            assert (q is rng.draw) == (passes == 1)
            if passes == 1:
                # the draw, plus d x d work arrays; a second n x d array would double it
                assert peak < rows * cols * 8 + 8 * cols * cols * 8

    @pytest.mark.parametrize(
        "draw",
        [
            [[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]],  # parallel: the first Cholesky fails
            [[1.0, 1.0], [1.0, 1.0 + 1e-7], [1.0, 1.0]],  # second pass far from I
        ],
    )
    def test_nearly_parallel_draw_raises(self, draw):
        with pytest.raises(np.linalg.LinAlgError):
            _orthonormal(FixedDraw(draw), 3, 2)


class TestLeadingEigpair:
    def test_diagonal_case(self):
        P = diag21_problem()
        lam, v = r.leading_eigpair(P)
        assert lam == pytest.approx(2.0, abs=1e-10)
        assert abs(abs(v.coords[0]) - 1.0) <= 1e-6

    def test_synthetic_top_eigenvalue(self):
        P = r.generate_gap_matrix(r.SyntheticSpec(d=10, n=50, delta=0.1, seed=2))
        lam, v = r.leading_eigpair(P)
        assert lam == pytest.approx(1.0, abs=1e-7)
        assert P.value(v) == pytest.approx(-lam, abs=1e-10)
        assert P._exact_grad(v).norm() <= 1e-6

    def test_counter_untouched(self):
        P = diag21_problem()
        r.leading_eigpair(P)
        assert P.counter.calls == 0

    def test_tiny_two_dimensional_gap(self):
        # eigenvalues 1 and 1 - 3e-7: a Rayleigh-step stop accepts a vector
        # far from e_1 here, the direct solve returns e_1
        lam = np.array([1.0, 1.0 - 3e-7])
        P = r.PcaProblem(np.diag(np.sqrt(2.0 * lam)), spectrum=lam)
        top, v = r.leading_eigpair(P)
        assert abs(abs(v.coords[0]) - 1.0) <= 1e-12
        assert top == pytest.approx(1.0, abs=1e-12)

    def test_smallest_default_packed_gap(self):
        # the smallest gap of the default sweep (d=100, n=2000, delta=0.00125):
        # u_1 is column 0 of the instance's known U to rounding
        d, n, seed = 100, 2000, 12345
        P = problem_from_spectrum(packed_spectrum(d, 0.00125), n, seed=seed)
        u, _, _ = _eigenvector_factors(d, n, seed)
        top, v = r.leading_eigpair(P)
        assert 1.0 - abs(float(v.coords @ u[:, 0])) <= 1e-12
        assert top == pytest.approx(1.0, abs=1e-12)

    def test_gram_formed_on_first_use_only(self):
        P = problem_from_spectrum(packed_spectrum(8, 0.1), 30, seed=2)
        built = [
            P,
            r.generate_gap_matrix(r.SyntheticSpec(d=8, n=30, delta=0.1, seed=2)),
            r.PcaProblem(P.Z.copy()),
        ]
        for Q in built:
            assert Q._A is None  # building never pays for the Gram matrix
            A = Q._gram()
            assert np.array_equal(A, Q.Z @ Q.Z.T / Q.n)
            assert Q._eig is None
            r.leading_eigpair(Q)
            assert Q._gram() is A
            eig = Q._top_eigs()
            r.leading_eigpair(Q)
            assert Q._top_eigs() is eig  # decomposed once, then kept


class TestVarianceBound:
    def test_single_component(self):
        P = r.PcaProblem(np.array([[1.0], [0.5]]))
        x = P.manifold.random_point(np.random.default_rng(0))
        assert r.variance_bound_estimate(P, x) == 0.0

    def test_zero_at_critical_point(self):
        P = diag21_problem()
        x = P.manifold.point([1.0, 0.0])
        assert r.variance_bound_estimate(P, x) <= 1e-28

    def test_matches_exhaustive_enumeration(self):
        # sigma^2 is the mean over every component of |g_i - grad f|^2
        spec = r.SyntheticSpec(d=5, n=12, delta=0.3, seed=6)
        for P in (r.generate_gap_matrix(spec), *(make() for make in OBJECTIVES.values())):
            x = P.manifold.random_point(np.random.default_rng(7))
            gbar = P.full_rgrad(x)
            exact = np.mean([(P.component_rgrad(i, x) - gbar)._sq for i in range(P.n)])
            assert r.variance_bound_estimate(P, x) == pytest.approx(exact, rel=1e-12)

    def test_counter_free(self):
        P = diag21_problem()
        x = P.manifold.point([0.6, 0.8])
        r.variance_bound_estimate(P, x)
        assert P.counter.calls == 0
