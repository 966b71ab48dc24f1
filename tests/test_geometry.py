import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from rspider.geometry import (
    AntipodalError,
    Euclidean,
    GeometryError,
    Sphere,
    TangentVector,
)

S2 = Sphere(2)
S3 = Sphere(3)


def e(i, d):
    v = np.zeros(d)
    v[i] = 1.0
    return v


class TestInner:
    def test_unit_vector_with_itself(self):
        x = S2.point(e(0, 2))
        u = S2.tangent(x, [0.0, 1.0])
        assert S2.inner(u, u) == pytest.approx(1.0, abs=1e-15)

    def test_bilinearity(self):
        x = S2.point(e(0, 2))
        u = S2.tangent(x, [0.0, 2.0])
        v = S2.tangent(x, [0.0, 3.0])
        assert S2.inner(u, v) == pytest.approx(6.0, abs=1e-14)

    def test_symmetry_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = S3.random_point(rng)
            u = S3.random_tangent(x, rng, scale=rng.uniform(0.1, 2.0))
            v = S3.random_tangent(x, rng, scale=rng.uniform(0.1, 2.0))
            assert abs(S3.inner(u, v) - S3.inner(v, u)) <= 1e-14

    def test_mismatched_bases_rejected(self):
        rng = np.random.default_rng(1)
        x, y = S3.random_point(rng), S3.random_point(rng)
        u = S3.random_tangent(x, rng)
        v = S3.random_tangent(y, rng)
        with pytest.raises(GeometryError):
            S3.inner(u, v)


class TestExp:
    def test_zero_vector(self):
        rng = np.random.default_rng(2)
        x = S3.random_point(rng)
        y = S3.exp(x, S3.tangent(x, np.zeros(3)))
        assert np.allclose(y.coords, x.coords, atol=1e-15)

    def test_quarter_great_circle(self):
        x = S3.point(e(0, 3))
        v = S3.tangent(x, (math.pi / 2) * e(1, 3))
        y = S3.exp(x, v)
        assert np.allclose(y.coords, e(1, 3), atol=1e-15)

    def test_constant_speed(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            x = S3.random_point(rng)
            v = S3.random_tangent(x, rng, scale=rng.uniform(1e-4, 1.2))
            assert S3.dist(S3.exp(x, v), x) == pytest.approx(v.norm(), abs=1e-10)

    def test_output_on_manifold(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            x = S3.random_point(rng)
            v = S3.random_tangent(x, rng, scale=rng.uniform(0, 3.0))
            y = S3.exp(x, v)
            assert abs(np.linalg.norm(y.coords) - 1.0) <= 1e-9


class TestLog:
    def test_identity(self):
        rng = np.random.default_rng(5)
        x = S3.random_point(rng)
        assert S3.log(x, x).norm() == 0.0

    def test_quarter_circle_inverse(self):
        x = S3.point(e(0, 3))
        y = S3.point(e(1, 3))
        w = S3.log(x, y)
        assert np.allclose(w.coords, (math.pi / 2) * e(1, 3), atol=1e-15)

    def test_round_trip(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            x = S3.random_point(rng)
            v = S3.random_tangent(x, rng, scale=rng.uniform(0, math.pi / 2))
            w = S3.log(x, S3.exp(x, v))
            assert np.linalg.norm(w.coords - v.coords) <= 1e-9 * (1 + v.norm())

    @pytest.mark.parametrize("delta", [-9.9e-10, -8e-10, -1e-12, 1e-12, 8e-10, 9.9e-10])
    def test_nearly_unit_point_logs_to_zero(self, delta):
        # a point kept within the unit tolerance of norm 1 is its own log's
        # base: nothing of its normal direction comes back as a tangent
        rng = np.random.default_rng(11)
        for d in (2, 3, 10, 50):
            S = Sphere(d)
            for _ in range(20):
                z = rng.standard_normal(d)
                x = S.point(z / np.linalg.norm(z) * (1.0 + delta))
                assert abs(np.linalg.norm(x.coords) - (1.0 + delta)) <= 1e-15
                assert S.log(x, x).norm() <= 1e-15

    @pytest.mark.parametrize("length", [1e-14, 1e-12, 1e-10, 1e-9, 1e-8, 1e-6, 1e-3])
    def test_tiny_angle_round_trip(self, length):
        # angles far below 1e-9 are resolved, not rounded to a zero tangent
        rng = np.random.default_rng(12)
        for d in (2, 3, 10, 50):
            S = Sphere(d)
            for _ in range(20):
                x = S.random_point(rng)
                v = S.random_tangent(x, rng, scale=length)
                assert np.linalg.norm(S.log(x, S.exp(x, v)).coords - v.coords) <= 2e-15

    def test_antipodal_rejected(self):
        x = S3.point(e(0, 3))
        y = S3.point(-e(0, 3))
        with pytest.raises(AntipodalError):
            S3.log(x, y)

    def test_norm_equals_dist(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            x, y = S3.random_point(rng), S3.random_point(rng)
            assert S3.log(x, y).norm() == pytest.approx(S3.dist(x, y), abs=1e-12)


class TestTransport:
    def test_identity_case(self):
        rng = np.random.default_rng(8)
        x = S3.random_point(rng)
        v = S3.random_tangent(x, rng)
        w = S3.transport(x, x, v)
        assert np.array_equal(w.coords, v.coords)

    def test_quarter_circle_rotation(self):
        x = S2.point(e(0, 2))
        y = S2.point(e(1, 2))
        v = S2.tangent(x, e(1, 2))
        w = S2.transport(x, y, v)
        assert np.allclose(w.coords, -e(0, 2), atol=1e-15)
        assert abs(w.norm() - 1.0) <= 1e-12
        assert abs(w.coords @ y.coords) <= 1e-12

    def test_isometry(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            x, y = S3.random_point(rng), S3.random_point(rng)
            u = S3.random_tangent(x, rng, scale=rng.uniform(0.1, 2.0))
            v = S3.random_tangent(x, rng, scale=rng.uniform(0.1, 2.0))
            tu, tv = S3.transport(x, y, u), S3.transport(x, y, v)
            assert abs(S3.inner(tu, tv) - S3.inner(u, v)) <= 1e-10
            assert abs(tu.norm() - u.norm()) <= 1e-10

    def test_reversal(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            x, y = S3.random_point(rng), S3.random_point(rng)
            fwd = S3.transport(x, y, S3.log(x, y))
            back = S3.log(y, x)
            assert np.linalg.norm(fwd.coords + back.coords) <= 1e-9

    def test_output_tangent_at_target(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            x, y = S3.random_point(rng), S3.random_point(rng)
            v = S3.random_tangent(x, rng, scale=2.0)
            w = S3.transport(x, y, v)
            assert abs(w.coords @ y.coords) <= 1e-9 * max(1.0, w.norm())


def _tangent(x, rng, scale):
    # projected twice, so <x, v> is at rounding level even at d = 2, where a
    # single projection of a draw close to x leaves ~1e-12 of it behind
    g = rng.standard_normal(x.shape[0])
    v = g - (x @ g) * x
    v -= (x @ v) * x
    return v * (scale / math.sqrt(v @ v))


def _unit(rng, d):
    g = rng.standard_normal(d)
    return g / math.sqrt(g @ g)


def _at_angle(x, rng, theta):
    y = math.cos(theta) * x + math.sin(theta) * _tangent(x, rng, 1.0)
    return y / math.sqrt(y @ y)


def _transport_longdouble(x, y, v):
    # Sphere._transport's formula, evaluated in extended precision
    x, y, v = (a.astype(np.longdouble) for a in (x, y, v))
    s = x + y
    out = v - (2 * (y @ v) / (s @ s)) * s
    return out - (y @ out) * y


def _transport_acos(x, y, v):
    # the rotation form: turn v's component along the geodesic by the angle
    c = float(x @ y)
    u = y - c * x
    un = math.sqrt(float(u @ u))
    theta = math.acos(min(1.0, max(-1.0, c)))
    e_ = u / un
    a = float(e_ @ v)
    out = v - a * e_ + a * (math.cos(theta) * e_ - math.sin(theta) * x)
    return out - float(y @ out) * y


def _pairs(kind, d, rng, count=200):
    for _ in range(count):
        x = _unit(rng, d)
        if kind == "tiny":
            y = _at_angle(x, rng, 10 ** rng.uniform(-16, -10))
        elif kind == "random":
            y = _unit(rng, d)
        elif kind == "antipodal":  # <x, y> from -1 + 1e-2 down to -1 + 1e-6
            y = _at_angle(x, rng, math.acos(-1.0 + 10 ** rng.uniform(-6, -2)))
        else:  # well conditioned: angle in [0.1, pi - 0.1]
            y = _at_angle(x, rng, rng.uniform(0.1, math.pi - 0.1))
        yield x, y, _tangent(x, rng, rng.uniform(0.1, 3.0))


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                    reason="long double is no wider than double here")
@pytest.mark.parametrize("d", [2, 3, 20, 100])
@pytest.mark.parametrize("kind", ["tiny", "random", "antipodal"])
def test_transport_matches_extended_precision(kind, d):
    S = Sphere(d)
    rng = np.random.default_rng(d)
    for x, y, v in _pairs(kind, d, rng):
        err = S._transport(x, y, v) - _transport_longdouble(x, y, v)
        assert float(np.linalg.norm(err.astype(np.float64))) <= 1e-12 * np.linalg.norm(v)


@pytest.mark.parametrize("d", [2, 3, 20, 100])
def test_transport_matches_the_rotation_form(d):
    S = Sphere(d)
    rng = np.random.default_rng(d + 1)
    for x, y, v in _pairs("well", d, rng):
        err = S._transport(x, y, v) - _transport_acos(x, y, v)
        assert np.linalg.norm(err) <= 1e-13 * np.linalg.norm(v)


@settings(max_examples=200, deadline=None)
@given(
    d=hst.integers(2, 100),
    seed=hst.integers(0, 2**32 - 1),
    cos=hst.floats(-1.0 + 1e-6, 1.0),
    scale=hst.floats(1e-3, 10.0),
)
def test_transport_identity_and_round_trip(d, seed, cos, scale):
    S = Sphere(d)
    rng = np.random.default_rng(seed)
    x = S.random_point(rng)
    v = S.tangent(x, _tangent(x.coords, rng, scale))
    assert S.transport(x, x, v).coords.tobytes() == v.coords.tobytes()
    y = S.point(_at_angle(x.coords, rng, math.acos(cos)))
    back = S.transport(y, x, S.transport(x, y, v))
    assert np.linalg.norm(back.coords - v.coords) <= 1e-12 * v.norm()


class TestRetract:
    def test_zero(self):
        rng = np.random.default_rng(12)
        x = S3.random_point(rng)
        y = S3.retract(x, S3.tangent(x, np.zeros(3)))
        assert np.allclose(y.coords, x.coords, atol=1e-15)

    def test_hand_normalized(self):
        x = S2.point(e(0, 2))
        v = S2.tangent(x, e(1, 2))
        y = S2.retract(x, v)
        assert np.allclose(y.coords, [1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-15)

    def test_second_order_agreement_with_exp(self):
        # dist(retract, exp) / |v|^2 stays bounded as |v| shrinks
        rng = np.random.default_rng(13)
        x = S3.random_point(rng)
        u = S3.random_tangent(x, rng)
        ratios = []
        for s in (0.2, 0.1, 0.05):
            v = u._scaled(s)
            gap = S3.dist(S3.retract(x, v), S3.exp(x, v))
            ratios.append(gap / s**2)
        assert max(ratios) <= 0.5
        # ratio does not blow up as the step shrinks
        assert ratios[-1] <= 2.0 * ratios[0] + 1e-12


class TestDist:
    def test_zero(self):
        rng = np.random.default_rng(14)
        x = S3.random_point(rng)
        assert S3.dist(x, x) == 0.0

    def test_orthogonal_units(self):
        assert S3.dist(S3.point(e(0, 3)), S3.point(e(1, 3))) == pytest.approx(
            math.pi / 2, abs=1e-15
        )

    def test_small_angles_keep_their_digits(self):
        # exp then dist (and log, above its 1e-9 short-circuit) returns a
        # tangent's length, where acos(<x, y>) would read 0 below about 2e-8
        S = Sphere(4)
        rng = np.random.default_rng(16)
        for length in np.geomspace(1e-9, 1e-6, 13):
            for _ in range(20):
                x = S.random_point(rng)
                v = S.random_tangent(x, rng, scale=1.0)
                y = S.exp(x, v * (length / v.norm()))
                assert S.dist(x, y) == pytest.approx(length, rel=1e-6)
                if length > 1e-9:
                    assert S.log(x, y).norm() == pytest.approx(length, rel=1e-6)

    def test_symmetry(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            x, y = S3.random_point(rng), S3.random_point(rng)
            assert abs(S3.dist(x, y) - S3.dist(y, x)) <= 1e-12


class TestEuclidean:
    def test_exp_retract_transport_exact(self):
        E = Euclidean(4)
        rng = np.random.default_rng(16)
        x = E.random_point(rng)
        v = E.random_tangent(x, rng, scale=2.5)
        y1, y2 = E.exp(x, v), E.retract(x, v)
        assert np.array_equal(y1.coords, y2.coords)
        w = E.transport(x, y1, v)
        assert np.array_equal(w.coords, v.coords)
        assert np.allclose(E.log(x, y1).coords, v.coords, atol=1e-15)
        assert E.dist(x, y1) == pytest.approx(v.norm(), abs=1e-14)

    def test_nonfinite_rejected(self):
        E = Euclidean(2)
        with pytest.raises(GeometryError):
            E.point([1.0, math.inf])


class TestInvariants:
    def test_point_renormalized(self):
        x = S2.point([3.0, 4.0])
        assert np.allclose(x.coords, [0.6, 0.8], atol=1e-15)

    def test_zero_point_rejected(self):
        with pytest.raises(GeometryError):
            S2.point([0.0, 0.0])

    def test_tangent_projected(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            x = S3.random_point(rng)
            v = S3.tangent(x, rng.standard_normal(3) * 5)
            assert abs(x.coords @ v.coords) <= 1e-9 * max(1.0, v.norm())

    def test_checked_tangent_is_tangent_to_rounding_at_d2(self):
        # at d=2 a single projection left <x, v> up to ~1e-11 |v| on random
        # draws and ~1e-7 |v| on draws nearly parallel to x
        rng = np.random.default_rng(366)
        for _ in range(2000):
            x = S2.random_point(rng)
            for v in (S2.random_tangent(x, rng),
                      S2.tangent(x, x.coords + 1e-9 * rng.standard_normal(2))):
                assert abs(x.coords @ v.coords) <= 1e-15 * v.norm()

    def test_dimension_mismatch(self):
        with pytest.raises(GeometryError):
            S3.point([1.0, 0.0])

    def test_manifold_mismatch(self):
        x3 = S3.point(e(0, 3))
        # equality is by value: a separate Sphere(3) instance is the same manifold
        assert S3.dist(x3, Sphere(3).point(e(1, 3))) == pytest.approx(math.pi / 2)
        with pytest.raises(GeometryError):
            Euclidean(3).dist(x3, x3)

    def test_degenerate_retraction(self):
        x = S2.point(e(0, 2))
        v = TangentVector._raw(x, np.array([-1.0, 0.0]))  # forced: x + v = 0
        with pytest.raises(GeometryError):
            S2.retract(x, v)

    def test_tangent_arithmetic(self):
        rng = np.random.default_rng(18)
        x = S3.random_point(rng)
        u = S3.random_tangent(x, rng)
        v = S3.random_tangent(x, rng)
        s = u + v - 2.0 * u
        assert np.allclose(s.coords, v.coords - u.coords, atol=1e-15)
        assert np.allclose((-u).coords, -u.coords, atol=0)


@settings(max_examples=200, deadline=None)
@given(
    d=hst.integers(2, 8),
    seed=hst.integers(0, 2**32 - 1),
    angle=hst.floats(0.0, 3.0),
    su=hst.floats(1e-3, 10.0),
    sv=hst.floats(1e-3, 10.0),
)
def test_sphere_maps_stay_tangent_and_transport_is_isometric(d, seed, angle, su, sv):
    S = Sphere(d)
    rng = np.random.default_rng(seed)
    x = S.random_point(rng)
    y = S.exp(x, S.random_tangent(x, rng, scale=angle))
    u = S.random_tangent(x, rng, scale=su)
    v = S.random_tangent(x, rng, scale=sv)
    assert abs(float(y.coords @ y.coords) - 1.0) <= 1e-12  # exp lands on the sphere
    w = S.log(x, y)
    assert abs(float(x.coords @ w.coords)) <= 1e-12 * max(1.0, w.norm())
    tu, tv = S.transport(x, y, u), S.transport(x, y, v)
    for t, scale in ((tu, su), (tv, sv)):
        assert abs(float(y.coords @ t.coords)) <= 1e-12 * scale
    assert tu.norm() == pytest.approx(su, rel=1e-12)
    assert tv.norm() == pytest.approx(sv, rel=1e-12)
    assert S.inner(tu, tv) == pytest.approx(S.inner(u, v), abs=1e-12 * su * sv)


@settings(max_examples=200, deadline=None)
@given(
    flat=hst.booleans(),
    d=hst.integers(2, 8),
    seed=hst.integers(0, 2**32 - 1),
    # steps below 1e-8 take the sphere's short exp branch; gap 0 gives a y
    # equal to x bit for bit in another array, which transport does not
    # short-circuit (only x is y returns v itself)
    step=hst.sampled_from([0.0, 1e-12, 1e-9, 1e-3, 0.5, 2.0]),
    gap=hst.sampled_from([0.0, 1e-12, 1e-6, 0.3, 2.5]),
)
def test_checked_ops_equal_raw_ops(flat, d, seed, step, gap):
    # the public ops are checks around the raw array ops the solvers call,
    # and add nothing to their arithmetic
    M = Euclidean(d) if flat else Sphere(d)
    rng = np.random.default_rng(seed)
    x = M.random_point(rng)
    v = M.random_tangent(x, rng, scale=step)
    y = M.exp(x, M.random_tangent(x, rng, scale=gap))
    u = M.random_tangent(x, rng, scale=1.5)

    assert M.exp(x, v).coords.tobytes() == M._exp(x.coords, v.coords, v._sq).tobytes()
    assert M.retract(x, v).coords.tobytes() == M._retract(x.coords, v.coords).tobytes()
    for target in (x, y):
        t = M.transport(x, target, u)
        raw = M._transport(x.coords, target.coords, u.coords)
        assert t.base is target
        assert t.coords.tobytes() == raw.tobytes()
        assert t._sq == float(raw @ raw)
    assert M.dist(x, y) == M._dist(x.coords, y.coords)


def test_raw_ops_keep_the_antipodal_check():
    x = S3.point(e(0, 3))
    y = S3.point(-e(0, 3))
    v = S3.tangent(x, e(1, 3))
    for op in (lambda: S3._transport(x.coords, y.coords, v.coords),
               lambda: S3._dist(x.coords, y.coords),
               lambda: S3.transport(x, y, v),
               lambda: S3.dist(x, y)):
        with pytest.raises(AntipodalError):
            op()


# one row of a column-form case: what its point, tangent and second point are
_ROW_KINDS = ("plain", "long", "small", "still", "nudged", "zero", "grazing", "nonfinite")


def _column_case(M, rng, kind):
    p = M.random_point(rng)
    x = p.coords
    if kind == "plain":
        return x, M.random_tangent(p, rng, scale=0.5).coords, M.exp(p, M.random_tangent(
            p, rng, scale=0.3)).coords
    if kind == "long":
        return x, M.random_tangent(p, rng, scale=2.5).coords, M.random_point(rng).coords
    if kind in ("small", "still"):  # sphere exp's short branch; y equals x in another array
        return x, M.random_tangent(p, rng, scale=1e-10 if kind == "small" else 0.0).coords, \
            x.copy()
    if kind == "nudged":  # x + v is 3e-9 off unit norm: renormalized on the sphere
        return x, M.random_tangent(p, rng, scale=1e-12).coords + 3e-9 * x, x * (1 + 1e-8)
    if kind == "zero":  # x + v = 0, and y antipodal to x
        return x, -x, -x
    if kind == "grazing":  # |x + v| about 1e-13: too short to retract along
        return x, M.random_tangent(p, rng, scale=1e-13).coords - x, M.random_point(rng).coords
    v = M.random_tangent(p, rng).coords
    v[0] = np.nan
    return x, v, M.random_point(rng).coords


def _outcome(op, *args):
    try:
        return op(*args)
    except (GeometryError, ValueError) as e:
        return e


def _assert_rows_match(column, one_d):
    # row i has the 1-D op's bits, or is flagged where the 1-D op raises
    out, bad = column
    assert bad.dtype == bool and bad.shape == (len(one_d),)
    for i, ref in enumerate(one_d):
        if isinstance(ref, Exception):
            assert bad[i], (i, ref)
        else:
            assert not bad[i], i
            assert np.asarray(out[i]).tobytes() == np.asarray(ref, dtype=float).tobytes(), i


@settings(max_examples=200, deadline=None)
@given(
    flat=hst.booleans(),
    d=hst.integers(2, 8),
    seed=hst.integers(0, 2**32 - 1),
    kinds=hst.lists(hst.sampled_from(_ROW_KINDS), min_size=1, max_size=6),
)
def test_column_ops_equal_the_raw_ops_row_by_row(flat, d, seed, kinds):
    # a lockstep block's column forms give every row the bits of the 1-D raw
    # op, and flag exactly the rows on which the 1-D op raises
    M = Euclidean(d) if flat else Sphere(d)
    rng = np.random.default_rng(seed)
    X, V, Y = (np.array(a) for a in zip(*(_column_case(M, rng, k) for k in kinds)))
    rows = range(len(kinds))
    with np.errstate(all="ignore"):  # as the block computes flagged rows
        v_sq = np.vecdot(V, V)
        cases = [
            (M._exp_rows(X, V, v_sq), [_outcome(M._exp, X[i], V[i], float(v_sq[i])) for i in rows]),
            (M._retract_rows(X, V), [_outcome(M._retract, X[i], V[i]) for i in rows]),
            (M._transport_rows(X, Y, V), [_outcome(M._transport, X[i], Y[i], V[i]) for i in rows]),
            (M._transport_rows(X, X, V), [_outcome(M._transport, x, x, v) for x, v in zip(X, V)]),
            (M._dist_rows(X, Y), [_outcome(M._dist, X[i], Y[i]) for i in rows]),
        ]
    for column, one_d in cases:
        _assert_rows_match(column, one_d)


def test_column_clean_equals_clean_point_row_by_row():
    # the sphere's point cleaning: kept within 1e-9 of unit norm, renormalized
    # beyond it, rejected when zero or not finite
    S = Sphere(3)
    x = S.point([1.0, 2.0, 2.0]).coords
    P = np.array([x, x * (1 + 5e-10), x * (1 + 5e-9), 3.0 * x, 0.0 * x, x + np.inf])
    with np.errstate(all="ignore"):
        out, bad = S._clean_rows(P)
    assert bad.tolist() == [False, False, False, False, True, True]
    for i in range(4):
        assert out[i].tobytes() == S._clean_point(P[i]).tobytes()
    assert out[1].tobytes() == P[1].tobytes() and out[2].tobytes() != P[2].tobytes()
