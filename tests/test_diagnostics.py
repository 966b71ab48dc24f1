import dataclasses
import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

import rspider as r
from rspider.diagnostics import CONVERGED, STALLED, epochs_to_double
from rspider.geometry import Sphere
from rspider.oracle import _eigenvector_factors, packed_spectrum, problem_from_spectrum
from rspider.optim import FrozenState, SpiderConfig, _Run, params_finite, spider_nonconvex
from problems import LinearSum, chordal_mean_problem


def diag21_problem():
    Z = np.array([[2.0, 0.0], [0.0, math.sqrt(2.0)]])
    return r.PcaProblem(Z, spectrum=np.array([2.0, 1.0]))


def linear_objective(d=4, n=3, seed=0):
    return LinearSum(np.random.default_rng(seed).standard_normal((n, d)).T)


class TestFdGradientCheck:
    def test_linear_objective_exact(self):
        obj = linear_objective()
        x = obj.manifold.point(np.random.default_rng(1).standard_normal(4))
        rep = r.fd_gradient_check(obj, x, trials=20, t_step=1e-3, seed=2)
        assert rep.statistic <= 1e-12

    def test_hand_directional_derivative(self):
        P = diag21_problem()
        s = 1.0 / math.sqrt(2.0)
        x = P.manifold.point([s, s])
        v = P.manifold.tangent(x, [-s, s])
        g = P._exact_grad(x)
        assert P.manifold.inner(g, v) == pytest.approx(1.0, abs=1e-14)

    def test_second_order_decay(self):
        P = r.generate_gap_matrix(r.SyntheticSpec(d=6, n=30, delta=0.4, seed=3))
        x = P.manifold.random_point(np.random.default_rng(4))
        e4 = r.fd_gradient_check(P, x, trials=30, t_step=1e-4, seed=5).statistic
        e5 = r.fd_gradient_check(P, x, trials=30, t_step=1e-5, seed=5).statistic
        assert 30.0 <= e4 / e5 <= 300.0

    def test_probe_is_free_and_deterministic(self):
        P = diag21_problem()
        x = P.manifold.point([0.6, 0.8])
        r1 = r.fd_gradient_check(P, x, trials=10, seed=6)
        r2 = r.fd_gradient_check(P, x, trials=10, seed=6)
        assert r1.statistic == r2.statistic
        assert P.counter.calls == 0

    def test_step_validation(self):
        P = diag21_problem()
        x = P.manifold.point([1.0, 0.0])
        with pytest.raises(ValueError):
            r.fd_gradient_check(P, x, t_step=0.1)


class TestSmoothnessProbe:
    def test_constant_gradient_objective(self):
        obj = linear_objective()
        rep = r.smoothness_probe(obj, pairs=20, radius=0.7, seed=0, bound=1e-9)
        assert rep.statistic <= 1e-10
        assert rep.passed

    def test_quadratic_bounded_by_four_lambda1(self):
        P = diag21_problem()
        rep = r.smoothness_probe(P, pairs=200, radius=0.8, seed=1, bound=8.0)
        assert rep.statistic <= 8.0
        assert rep.passed

    def test_symmetry_under_role_swap(self):
        P = diag21_problem()
        man = P.manifold
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = man.random_point(rng)
            y = man.exp(x, man.random_tangent(x, rng, scale=0.5))
            gx, gy = P._exact_grad(x), P._exact_grad(y)
            a = (gx - man.transport(y, x, gy)).norm()
            b = (gy - man.transport(x, y, gx)).norm()
            assert abs(a - b) <= 1e-10

    def test_default_bound_is_smoothness_hint(self):
        P = diag21_problem()
        rep = r.smoothness_probe(P, pairs=50, radius=0.5, seed=3)
        assert rep.bound == P.L_hint
        assert rep.passed

    @pytest.mark.parametrize("radius", [math.nan, math.inf, -1.0, 0.0])
    def test_radius_must_be_finite_and_positive(self, radius):
        # checked before any draw or gradient: numpy's uniform would raise its
        # own error for the first three, and a zero radius skips every pair
        P = r.generate_gap_matrix(r.SyntheticSpec(d=6, n=20, delta=0.4, seed=6))
        evaluated = []
        grad = P._grad
        P._grad = lambda rows, y: evaluated.append(rows) or grad(rows, y)
        with pytest.raises(ValueError, match="radius must be finite and positive"):
            r.smoothness_probe(P, pairs=8, radius=radius)
        assert evaluated == []

    def test_all_pairs_skipped_raises(self):
        # every geodesic radius drawn below the 1e-12 floor: nothing measured
        P = diag21_problem()
        with pytest.raises(ValueError, match="no smoothness ratio"):
            r.smoothness_probe(P, pairs=10, radius=1e-13, seed=0)


class TestPlConstantEstimate:
    def test_near_critical_points_rejected(self):
        P = diag21_problem()
        x_star = P.manifold.point([1.0, 0.0])
        with pytest.raises(ValueError):
            r.pl_constant_estimate(P, -2.0, [x_star])

    def test_two_dimensional_closed_form(self):
        # ratio at x = (cos t, sin t) is 1 / (4 delta cos^2 t)
        for delta in (1.0, 0.5, 0.25):
            lam = np.array([1.0, 1.0 - delta])
            Z = np.diag(np.sqrt(2.0 * lam))
            P = r.PcaProblem(Z, spectrum=lam)
            for t in (0.3, math.pi / 4, 1.1):
                x = P.manifold.point([math.cos(t), math.sin(t)])
                rep = r.pl_constant_estimate(P, -1.0, [x])
                assert rep.statistic == pytest.approx(
                    1.0 / (4.0 * delta * math.cos(t) ** 2), abs=1e-9
                )

    def test_tau_doubles_when_gap_halves(self):
        taus = {}
        for delta in (0.2, 0.1):
            P = r.generate_gap_matrix(r.SyntheticSpec(d=50, n=200, delta=delta, seed=21))
            taus[delta] = r.pl_constant_estimate(P, P.f_star, 200, seed=5).statistic
        assert 1.6 <= taus[0.1] / taus[0.2] <= 2.4

    def test_sampling_requires_center_for_generic_objectives(self):
        obj = linear_objective()
        with pytest.raises(ValueError):
            r.pl_constant_estimate(obj, -1.0, 10)

    def test_any_integral_count_but_a_bool(self):
        # a numpy integer is a count like an int; a bool is neither a count
        # nor a sequence of points, and fails before any evaluation
        P = problem_from_spectrum(packed_spectrum(12, 0.1), 40, seed=6)
        ref = r.pl_constant_estimate(P, P.f_star, 16, seed=2)
        got = r.pl_constant_estimate(P, P.f_star, np.int64(16), seed=2)
        assert (got.samples, got.statistic) == (ref.samples, ref.statistic)
        Q = problem_from_spectrum(packed_spectrum(12, 0.1), 40, seed=6)
        with pytest.raises(ValueError, match="points must be"):
            r.pl_constant_estimate(Q, Q.f_star, True)
        assert Q._A is None


def _charged_tau(P, u, count, seed, radius=math.pi / 4):
    # reference domination estimate: the probe points pl_constant_estimate
    # draws, placed from the known eigenvectors u[:, 0] (center) and u[:, 1]
    # (slow direction) and evaluated by the charged oracle's value/full_rgrad
    man = P.manifold
    center = man.point(u[:, 0])
    rng = np.random.default_rng(seed)
    pts = []
    for _ in range(count):
        rad = float(rng.uniform(0.0, radius))
        pts.append(man.exp(center, man.random_tangent(center, rng, scale=rad)))
    slow = man.tangent(center, u[:, 1])
    for rad in np.linspace(radius / 8.0, radius, 8):
        pts.append(man.exp(center, slow._scaled(rad)))
        pts.append(man.exp(center, slow._scaled(-rad)))
    return max((P.value(p) - P.f_star) / P.full_rgrad(p)._sq for p in pts)


def _gap_instances():
    # (delta, instance, its known U): both spectra share the factors of seed 4
    u, _, _ = _eigenvector_factors(30, 300, 4)
    for delta in (0.2, 0.1):
        yield delta, problem_from_spectrum(packed_spectrum(30, delta), 300, seed=4), u
        yield delta, r.generate_gap_matrix(r.SyntheticSpec(d=30, n=300, delta=delta, seed=4)), u


class TestGramPath:
    # measured: lambda_1 within 9e-16 of the spectrum, u_1 within 1.7e-15 of
    # +-U[:, 0] entrywise, tau within 1.3e-14 (relative) of the charged
    # reference and 3.1e-14 of the closed form 1/(2 delta)
    def test_leading_eigpair_matches_known_factors(self):
        for _, P, u in _gap_instances():
            lam, v = r.leading_eigpair(P)
            sign = math.copysign(1.0, float(v.coords @ u[:, 0]))
            assert abs(lam - P.spectrum[0]) <= 1e-14
            assert np.abs(v.coords - sign * u[:, 0]).max() <= 1e-14

    def test_tau_matches_charged_oracle(self):
        for delta, P, u in _gap_instances():
            tau = r.pl_constant_estimate(P, P.f_star, 64, seed=3).statistic
            _, v = r.leading_eigpair(P)
            ref = _charged_tau(P, u * math.copysign(1.0, float(v.coords @ u[:, 0])), 64, 3)
            assert abs(tau - ref) <= 1e-12 * ref
            assert abs(tau - 1.0 / (2.0 * delta)) <= 1e-12 * tau

    def test_component_objective_gives_the_same_ratios(self):
        # the generic _probe path (value and the full gradient) over the same rows
        class Quadratic(r.FiniteSumObjective):
            L_hint = None

            def _value(self, rows, x):
                w = rows @ x
                return -float(w @ w) / rows.shape[0]

            def _grad(self, rows, x):
                g = -2.0 * (rows @ x) @ rows / rows.shape[0]
                return self.manifold._project_tangent(x, g)

        P = problem_from_spectrum(packed_spectrum(12, 0.1), 40, seed=6)
        obj = Quadratic(Sphere(P.d), P.Z.T)
        rng = np.random.default_rng(11)
        pts = [P.manifold.random_point(rng) for _ in range(20)]
        got = r.pl_constant_estimate(P, P.f_star, pts)
        ref = r.pl_constant_estimate(obj, P.f_star, pts)
        assert got.samples == ref.samples == 20
        for key in ("min_ratio", "mean_ratio"):
            assert got.details[key] == pytest.approx(ref.details[key], rel=1e-12)
        assert got.statistic == pytest.approx(ref.statistic, rel=1e-12)

    def test_counter_untouched(self):
        P = problem_from_spectrum(packed_spectrum(12, 0.1), 40, seed=6)
        r.pl_constant_estimate(P, P.f_star, 16, seed=0)
        assert P.counter.calls == 0
        P.full_rgrad(P.manifold.random_point(np.random.default_rng(0)))
        r.pl_constant_estimate(P, P.f_star, 16, seed=1)
        r.leading_eigpair(P)
        assert P.counter.calls == P.n


def _enumerated_variance(P, st):
    # E|v - grad f(x)|^2 over every ordered draw of s2 indices (all n^s2 of
    # them), each served to the solvers' own estimator step by the run's
    # index stream; a finite-sum batch that reaches n is the one full pass
    x, y, ref = st.x_curr.coords, st.x_prev.coords, st.v_prev.coords
    cap = None if st.sample_only else P.n
    target = P.full_rgrad(st.x_curr).coords
    run = _Run(P, st.x_curr, seed=0, map_mode="exp", checkpoint_every=1.0, max_ifo=None)
    if cap is not None and st.s2 >= cap:
        draws = [()]  # the full pass draws no index
    else:
        draws = itertools.product(range(P.n), repeat=st.s2)
    errs = []
    for idx in draws:
        run.indices = SimpleNamespace(take=lambda size, idx=idx: np.array(idx))
        errs.append(run.estimate(x, y, ref, st.s2, cap)[0] - target)
    return float(np.mean([e @ e for e in errs]))


# n = 4 rows each, so every draw of up to five indices can be enumerated
SMALL_OBJECTIVES = {
    "pca": lambda: r.PcaProblem(np.random.default_rng(12).standard_normal((3, 4))),
    "linear-sum": lambda: LinearSum(np.random.default_rng(13).standard_normal((3, 4))),
    "chordal-mean": lambda: chordal_mean_problem(d=3, n=4, seed=14),
}


class TestVarianceProbe:
    def _state_with_exact_carry(self, P, s2, seed=0):
        # v_prev equal to the exact gradient: the probe sees pure sampling noise
        man = P.manifold
        rng = np.random.default_rng(seed)
        x_prev = man.random_point(rng)
        v_prev = P._exact_grad(x_prev)
        x_curr = man.exp(x_prev, man.random_tangent(x_prev, rng, scale=0.05))
        return FrozenState(k=1, x_prev=x_prev, x_curr=x_curr, v_prev=v_prev,
                           s2=s2, eps=0.05)

    def test_full_batch_correction_with_exact_carry_is_zero(self):
        P = r.generate_gap_matrix(r.SyntheticSpec(d=6, n=20, delta=0.4, seed=6))
        st = self._state_with_exact_carry(P, s2=P.n, seed=1)
        rep = r.variance_probe(P, st)
        assert rep.statistic == 0.0

    @pytest.mark.parametrize("make", SMALL_OBJECTIVES.values(), ids=SMALL_OBJECTIVES)
    def test_equals_enumeration_of_every_draw(self, make):
        # finite-sum draws (s2 < n), sample-only draws (s2 >= n) and the
        # finite-sum full pass (s2 >= n), whose value is the carried term
        P = make()
        man, rng = P.manifold, np.random.default_rng(15)
        st = self._state_with_exact_carry(P, s2=1, seed=16)
        st.x_curr = man.exp(st.x_prev, man.random_tangent(st.x_prev, rng, scale=0.3))
        st.v_prev = st.v_prev + man.random_tangent(st.x_prev, rng, scale=0.1)
        for sample_only, s2 in [(False, 1), (False, 2), (False, 3), (True, 4), (True, 5),
                                (False, 4), (False, 9)]:
            case = dataclasses.replace(st, s2=s2, sample_only=sample_only)
            calls = P.counter.calls  # the charged enumeration below moves it
            rep = r.variance_probe(P, case)
            assert P.counter.calls == calls
            assert rep.statistic == pytest.approx(_enumerated_variance(P, case), rel=1e-12)
            assert rep.statistic == rep.details["carried"] + rep.details["sampling"]
            if s2 >= P.n and not sample_only:
                assert rep.details["sampling"] == 0.0

    def test_two_component_enumeration(self):
        # n=2, s2=1: the exact population variance is the average over both draws
        Z = np.array([[1.0, 0.4], [-0.3, 0.8], [0.2, -0.5]])
        P = r.PcaProblem(Z)
        st = self._state_with_exact_carry(P, s2=1, seed=3)
        man = P.manifold
        target = P.full_rgrad(st.x_curr)
        vals = []
        for i in range(2):
            v = P.minibatch_rgrad([i], st.x_curr) - man.transport(
                st.x_prev, st.x_curr, P.minibatch_rgrad([i], st.x_prev) - st.v_prev
            )
            vals.append((v - target)._sq)
        exact = sum(vals) / 2.0
        assert r.variance_probe(P, st).statistic == pytest.approx(exact, rel=1e-12)

    def test_sample_only_batch_of_n_is_still_sampled(self):
        # a sample-only run draws a correction of s2 >= n as s2 samples with
        # replacement; the probe must take those draws' spread, not the
        # deterministic full-batch correction a finite-sum run takes
        P = r.generate_gap_matrix(r.SyntheticSpec(d=6, n=20, delta=0.4, seed=6))
        st = self._state_with_exact_carry(P, s2=P.n + 5, seed=1)
        assert r.variance_probe(P, st).statistic == 0.0
        st.sample_only = True
        rep = r.variance_probe(P, st)
        assert rep.details["carried"] == 0.0 and rep.statistic > 0.0
        one = r.variance_probe(P, dataclasses.replace(st, s2=1))
        assert rep.statistic == pytest.approx(one.statistic / st.s2, rel=1e-14)

    def test_solver_marks_sample_only_states(self):
        P = r.generate_gap_matrix(r.SyntheticSpec(d=10, n=60, delta=0.4, seed=5))
        x0 = P.manifold.random_point(np.random.default_rng(8))
        sampled, finite = [], []
        cfg = SpiderConfig(L=P.L_hint, eps=0.05, q=8, S1=P.n, T=24, n=None)
        spider_nonconvex(P, x0, cfg, seed=2, on_correction=sampled.append)
        spider_nonconvex(P, x0, params_finite(P.n, 0.04, 1.0, P.L_hint), seed=2,
                         max_ifo=5 * P.n, on_correction=finite.append)
        assert sampled and all(st.sample_only and st.s2 >= P.n for st in sampled)
        assert finite and not any(st.sample_only for st in finite)
        assert r.variance_probe(P, sampled[0]).details["sampling"] > 0.0

    def test_variance_scales_inversely_with_batch(self):
        # the sampling term is one spread over the rows divided by s2, exactly
        P = r.generate_gap_matrix(r.SyntheticSpec(d=8, n=40, delta=0.3, seed=7))
        st = self._state_with_exact_carry(P, s2=1, seed=5)
        st.v_prev = st.v_prev._scaled(0.5)  # a carried error, which s2 leaves alone
        one = r.variance_probe(P, st)
        assert one.details["carried"] > 0.0 and one.details["sampling"] > 0.0
        for s2 in (2, 4, 8, 39):
            rep = r.variance_probe(P, dataclasses.replace(st, s2=s2))
            assert rep.details["carried"] == one.details["carried"]
            assert rep.details["sampling"] * s2 == pytest.approx(one.details["sampling"],
                                                                 rel=1e-14)

    def test_antipodal_state_raises_the_transport_error(self):
        # the probe transports every row in one column call; a flagged row is
        # replayed by the 1-D op, so an antipodal state raises its error, and
        # a state whose points are one array transports by the identity
        P = r.generate_gap_matrix(r.SyntheticSpec(d=6, n=20, delta=0.4, seed=6))
        st = self._state_with_exact_carry(P, s2=2, seed=3)
        with pytest.raises(r.AntipodalError, match="transport undefined for"):
            r.variance_probe(P, dataclasses.replace(st, x_curr=P.manifold.point(
                -st.x_prev.coords)))
        assert r.variance_probe(P, dataclasses.replace(st, x_curr=st.x_prev)).statistic == 0.0

    def test_bound_comes_from_state_eps(self):
        P = r.generate_gap_matrix(r.SyntheticSpec(d=6, n=20, delta=0.4, seed=8))
        st = self._state_with_exact_carry(P, s2=4, seed=7)
        rep = r.variance_probe(P, st)
        assert rep.bound == pytest.approx(2 * 0.05**2)


class TestEpochsToDouble:
    def test_exact_halving(self):
        pairs = [(float(t), -1.0 + 0.5 ** (t / 5.0)) for t in range(0, 31, 1)]
        out = epochs_to_double(pairs, f_star=-1.0, window=5.0, step=1.0)
        assert out[0][1] == pytest.approx(5.0, rel=1e-12)

    def test_quartering(self):
        pairs = [(float(t), -1.0 + 0.25 ** (t / 5.0)) for t in range(0, 11)]
        out = epochs_to_double(pairs, f_star=-1.0, window=5.0, step=1.0)
        assert out[0][1] == pytest.approx(2.5, rel=1e-12)

    def test_drifted_grid_is_measured_on_recorded_epochs(self):
        # checkpoints that land past their nominal epochs (0, 1, 2, 3, 4 on a
        # unit grid) span more epochs than the window: an error that halves
        # every epoch reads 1.0 on each window, not window / span
        epochs = [0.0, 1.25, 2.5, 3.0, 4.5]
        pairs = [(e, -1.0 + 0.5**e) for e in epochs]
        out = epochs_to_double(pairs, f_star=-1.0, window=2.0, step=1.0)
        assert [e for e, _ in out] == epochs[:3]
        assert [v for _, v in out] == pytest.approx([1.0, 1.0, 1.0], rel=1e-12)

    def test_stalled(self):
        pairs = [(float(t), -1.0 + 0.125) for t in range(0, 11)]
        out = epochs_to_double(pairs, f_star=-1.0, window=5.0, step=1.0)
        assert out[0][1] == STALLED

    def test_converged_sentinel(self):
        pairs = [(float(t), -1.0 + (1e-16 if t else 1e-3)) for t in range(0, 11)]
        out = epochs_to_double(pairs, f_star=-1.0, window=5.0, step=1.0)
        assert math.isnan(out[0][1])
        assert math.isnan(CONVERGED)

    def test_too_few_checkpoints(self):
        with pytest.raises(ValueError):
            epochs_to_double([(0.0, -0.5), (1.0, -0.6)], f_star=-1.0, window=5.0, step=1.0)

    def test_accepts_run_trace(self):
        P = r.generate_gap_matrix(r.SyntheticSpec(d=6, n=20, delta=0.4, seed=9))
        x0 = P.manifold.random_point(np.random.default_rng(10))
        cfg = params_finite(P.n, 0.1, 1.0, P.L_hint)
        _, trace = spider_nonconvex(P, x0, cfg, seed=11, checkpoint_every=0.5, max_ifo=8 * P.n)
        out = epochs_to_double(trace, f_star=P.f_star, window=2.0)
        assert len(out) >= 1
        assert all(e >= 0 for e, _ in out)

    def test_pairs_need_their_step(self):
        # a spider run's boundary records drift off the unit grid (13 of them,
        # the last at epoch 12.248), so no spacing can be read from the epochs
        P = r.generate_gap_matrix(r.SyntheticSpec(d=50, n=500, delta=0.1, seed=0))
        x0 = P.manifold.random_point(np.random.default_rng(0))
        cfg = params_finite(P.n, 0.05, P.value(x0) - P.f_star, P.L_hint)
        _, trace = spider_nonconvex(P, x0, cfg, seed=0, max_ifo=12 * P.n)
        pairs = [(rec.epoch, rec.f) for rec in trace.records if rec.boundary is not None]
        with pytest.raises(ValueError, match="step must be given"):
            epochs_to_double(pairs, f_star=P.f_star, window=5.0)
        every = trace.meta["checkpoint_every"]
        assert (epochs_to_double(pairs, f_star=P.f_star, window=5.0, step=every)
                == epochs_to_double(trace, f_star=P.f_star, window=5.0))


@pytest.mark.parametrize("count", [0, -3])
@pytest.mark.parametrize("probe", ["fd_gradient_check", "smoothness_probe",
                                   "pl_constant_estimate"])
def test_count_below_one_rejected_before_any_work(probe, count):
    P = r.generate_gap_matrix(r.SyntheticSpec(d=6, n=20, delta=0.4, seed=6))
    x = P.manifold.random_point(np.random.default_rng(1))
    P.minibatch_rgrad(np.arange(5), x)  # a real charge of 5 calls
    evaluated = []
    grad = P._grad
    P._grad = lambda rows, y: evaluated.append(rows) or grad(rows, y)
    calls = {
        "fd_gradient_check": lambda: r.fd_gradient_check(P, x, trials=count),
        "smoothness_probe": lambda: r.smoothness_probe(P, pairs=count),
        "pl_constant_estimate": lambda: r.pl_constant_estimate(P, P.f_star, count),
    }
    with pytest.raises(ValueError, match="must be an integer >= 1"):
        calls[probe]()
    assert evaluated == [] and P._A is None  # no gradient, no Gram matrix
    assert P.counter.calls == 5


@pytest.mark.parametrize("free", [
    "value", "_probe", "leading_eigpair", "fd_gradient_check", "smoothness_probe",
    "pl_constant_estimate", "variance_bound_estimate", "variance_probe",
])
def test_free_evaluations_leave_the_counter(free):
    # only the charged oracle writes the counter: after a real charge, no
    # free evaluation moves it
    P = r.generate_gap_matrix(r.SyntheticSpec(d=6, n=20, delta=0.4, seed=6))
    man, rng = P.manifold, np.random.default_rng(3)
    x = man.random_point(rng)
    y = man.exp(x, man.random_tangent(x, rng, scale=0.1))
    st = FrozenState(k=1, x_prev=x, x_curr=y, v_prev=P.full_rgrad(x), s2=4, eps=0.05)
    assert P.counter.calls == P.n
    calls = {
        "value": lambda: P.value(y),
        "_probe": lambda: P._probe(y),
        "leading_eigpair": lambda: r.leading_eigpair(P),
        "fd_gradient_check": lambda: r.fd_gradient_check(P, y, trials=4),
        "smoothness_probe": lambda: r.smoothness_probe(P, pairs=4),
        "pl_constant_estimate": lambda: r.pl_constant_estimate(P, P.f_star, 8),
        "variance_bound_estimate": lambda: r.variance_bound_estimate(P, y),
        "variance_probe": lambda: r.variance_probe(P, st),
    }
    calls[free]()
    assert P.counter.calls == P.n


class TestProbeReport:
    def test_pass_rule(self):
        rep = r.ProbeReport(name="x", samples=3, statistic=1.0, bound=2.0)
        assert rep.passed
        rep = r.ProbeReport(name="x", samples=3, statistic=3.0, bound=2.0)
        assert not rep.passed
        rep = r.ProbeReport(name="x", samples=3, statistic=3.0, bound=None)
        assert rep.passed

    def test_text_serialization(self):
        rep = r.ProbeReport(
            name="demo", samples=5, statistic=0.25, bound=1.0, details={"radius": 0.5}
        )
        text = rep.to_text()
        assert "probe=demo" in text
        assert "statistic=0.25" in text
        assert "passed=true" in text
        assert text.endswith("\n")
