import dataclasses
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import rspider as r
import rspider.optim as optim
from rspider.geometry import GeometryError, ManifoldPoint, Sphere, TangentVector
from rspider.oracle import (
    FiniteSumObjective,
    _eigenvector_factors,
    _problem_from_factors,
    packed_spectrum,
)
from rspider.optim import (
    _DRAW_BLOCK,
    GdConfig,
    OptimizerError,
    SpiderConfig,
    _Indices,
    _Run,
    _batch_size,
    _rsvrg_columns,
    _spider_core,
    _uniforms,
    params_finite,
    params_stochastic,
    rsgd,
    rsvrg,
    spider_gd1,
    spider_gd2,
    spider_nonconvex,
)
from problems import chordal_mean_problem, least_squares_problem


def diag21_problem():
    Z = np.array([[2.0, 0.0], [0.0, math.sqrt(2.0)]])
    return r.PcaProblem(Z, spectrum=np.array([2.0, 1.0]))


def desk_problem(d=10, n=60, delta=0.4, seed=5):
    return r.generate_gap_matrix(r.SyntheticSpec(d=d, n=n, delta=delta, seed=seed))


class TestBatchSize:
    # budget 2 eps^2 at eps 0.1: ceil(min(n, q L^2 step^2 / budget)), at least one
    BUDGET = 2.0 * 0.1**2

    def test_hand_example(self):
        assert _batch_size(10, 2.0, 0.05, self.BUDGET, 500) == 5

    def test_cap_at_n(self):
        assert _batch_size(10, 2.0, 10.0, self.BUDGET, 500) == 500

    def test_uncapped_without_n(self):
        assert _batch_size(10, 2.0, 10.0, self.BUDGET, None) == 200000

    def test_zero_step_clamped(self):
        assert _batch_size(10, 2.0, 0.0, self.BUDGET, 500) == 1


class TestSchedules:
    def test_stochastic_hand_values(self):
        cfg = params_stochastic(1.0, 0.1, 1.0, 1.0)
        assert (cfg.S1, cfg.eta, cfg.q, cfg.T) == (200, 0.5, 10, 400)
        assert cfg.n is None

    def test_stochastic_eps_scaling(self):
        t1 = params_stochastic(1.0, 0.1, 1.0, 1.0).T
        t2 = params_stochastic(1.0, 0.05, 1.0, 1.0).T
        assert (t1, t2) == (400, 1600)

    def test_zero_variance_clamped_with_warning(self):
        with pytest.warns(UserWarning):
            cfg = params_stochastic(0.0, 0.1, 1.0, 1.0)
        assert cfg.S1 == 1

    def test_finite_hand_values(self):
        cfg = params_finite(10_000, 0.1, 1.0, 1.0)
        assert (cfg.S1, cfg.q, cfg.eta, cfg.T) == (10_000, 100, 0.5, 400)

    def test_finite_single_component(self):
        assert params_finite(1, 0.1, 1.0, 1.0).q == 1

    def test_finite_second_example(self):
        cfg = params_finite(100, 0.05, 2.0, 3.0)
        assert (cfg.q, cfg.T) == (10, 9600)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SpiderConfig(L=1.0, eps=0.0, q=1, S1=1, T=1)
        with pytest.raises(ValueError):
            SpiderConfig(L=1.0, eps=0.1, q=0, S1=1, T=1)
        with pytest.raises(ValueError):
            GdConfig(M0=1.0, tau=0.0, L=1.0, K=1)
        cfg = SpiderConfig(L=2.0, eps=0.1, q=3, S1=2, T=5)
        assert cfg.eta == 0.25  # always 1/(2L)

    @pytest.mark.parametrize("L", [1e-310, 5e-324])
    def test_config_rejects_a_step_that_overflows(self, L):
        # L is finite and positive, but its step 1/(2L) is not; the restart
        # schemes' config rejects it too, before a run forms anything
        for make in (lambda: SpiderConfig(L=L, eps=0.1, q=1, S1=1, T=1),
                     lambda: GdConfig(M0=1.0, tau=1.0, L=L, K=1)):
            with pytest.raises(ValueError, match="step size must be finite and positive"):
                make()

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("field", ["L", "eps"])
    def test_spider_config_rejects_non_positive(self, field, bad):
        kw = dict(L=1.0, eps=0.1, q=1, S1=1, T=1)
        with pytest.raises(ValueError, match=f"{field} must be finite and positive"):
            SpiderConfig(**{**kw, field: bad})

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("field", ["M0", "tau", "L"])
    def test_gd_config_rejects_non_positive(self, field, bad):
        kw = dict(M0=1.0, tau=1.0, L=1.0, K=1)
        with pytest.raises(ValueError, match=f"{field} must be finite and positive"):
            GdConfig(**{**kw, field: bad})

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("field", ["eps", "M", "L"])
    @pytest.mark.parametrize("schedule", ["finite", "stochastic"])
    def test_schedules_reject_non_positive(self, schedule, field, bad):
        kw = {"eps": 0.1, "M": 1.0, "L": 1.0, field: bad}
        with pytest.raises(ValueError, match=f"{field} must be finite and positive"):
            if schedule == "finite":
                params_finite(100, **kw)
            else:
                params_stochastic(1.0, **kw)

    @pytest.mark.parametrize("sigma_sq", [-1.0, math.nan, math.inf])
    def test_stochastic_schedule_rejects_bad_variance(self, sigma_sq):
        with pytest.raises(ValueError, match="sigma_sq must be finite"):
            params_stochastic(sigma_sq, 0.1, 1.0, 1.0)


class TestSpiderNonconvex:
    def test_zero_budget(self):
        P = diag21_problem()
        x0 = P.manifold.point([0.6, 0.8])
        cfg = SpiderConfig(L=2.0, eps=0.1, q=1, S1=2, T=0, n=2)
        x, trace = spider_nonconvex(P, x0, cfg)
        assert x is x0
        # no step runs, so the run is its start and end records, both at x0
        assert len(trace.records) == 2
        start, end = trace.records
        assert (start.k, start.ifo, start.boundary, start.step_dist, start.batch) == (
            0, 0, 0.0, 0.0, 0)
        assert (end.k, end.ifo, end.boundary, end.step_dist, end.batch) == (0, 0, None, 0.0, 0)
        assert (start.f, start.grad_sq) == (end.f, end.grad_sq) == P._probe(x0)
        assert P.counter.calls == 0 == trace.meta["ifo"]

    def test_reduces_to_gradient_descent_when_single_component(self):
        Z = np.array([[1.4], [0.3], [-0.2]])
        P = r.PcaProblem(Z)
        x0 = P.manifold.random_point(np.random.default_rng(4))
        x_sgd, _ = rsgd(P, x0, eta=0.1, T=15, seed=0)
        cfg = SpiderConfig(L=5.0, eps=0.1, q=1, S1=1, T=15, n=1)  # step 1/(2L) = 0.1
        run = _Run(P, x0, seed=0, map_mode="exp", checkpoint_every=1.0, max_ifo=None)
        x_last = _spider_core(run, x0.coords, cfg, 2.0 * cfg.eps**2, pick=False)
        assert np.array_equal(x_sgd.coords, x_last)

    def test_reservoir_pick_leaves_the_iterates(self):
        # the pick draws from its own stream, so a run that picks and one that
        # does not sample the same batches and visit the same iterates
        P = desk_problem()
        x0 = P.manifold.random_point(np.random.default_rng(1))
        cfg = params_finite(P.n, 0.1, 1.0, P.L_hint)
        runs = []
        for pick in (True, False):
            run = _Run(P, x0, seed=5, map_mode="exp", checkpoint_every=0.25, max_ifo=8 * P.n)
            _spider_core(run, x0.coords, cfg, 2.0 * cfg.eps**2, pick=pick)
            runs.append((run.steps, run.records, dict(run.tallies)))
        assert runs[0] == runs[1]
        assert 0 < runs[0][2]["correction"] < runs[0][0] * 2 * P.n  # drawn batches

    def test_monotone_descent_on_small_instance(self):
        # q=1 with full anchors: the solver is exact gradient descent
        P = diag21_problem()
        s = 1.0 / math.sqrt(2.0)
        x0 = P.manifold.point([s, s])
        cfg = SpiderConfig(L=2.0, eps=0.1, q=1, S1=2, T=12, n=2)
        _, trace = spider_nonconvex(P, x0, cfg, seed=3, checkpoint_every=1.0 / P.n)
        # one value per iterate; the end-of-run record describes the pick
        fs = {rec.k: rec.f for rec in trace.records if rec.boundary is not None}
        vals = [fs[k] for k in sorted(fs)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(-2.0, abs=1e-3)

    def test_final_record_describes_the_returned_pick(self):
        # the run stops on its 30-epoch budget, well after its pick was drawn,
        # and a sweep repeats the final record for the grid rows after that
        P = r.generate_gap_matrix(r.SyntheticSpec(d=20, n=200, delta=0.5, seed=0))
        x0 = P.manifold.random_point(np.random.default_rng(1))
        cfg = params_finite(P.n, 0.05, P.value(x0) - P.f_star, P.L_hint)
        x, trace = spider_nonconvex(P, x0, cfg, max_ifo=30 * P.n)
        last = trace.records[-1]
        assert last.boundary is None and last.k == trace.meta["steps"]
        assert (last.f, last.grad_sq) == P._probe(x)
        assert (last.step_dist, last.batch) == (0.0, 0)

    def test_determinism(self):
        P = desk_problem()
        x0 = P.manifold.random_point(np.random.default_rng(1))
        cfg = params_finite(P.n, 0.1, 1.0, P.L_hint)
        x1, t1 = spider_nonconvex(P, x0, cfg, seed=9)
        calls1 = P.counter.calls
        x2, t2 = spider_nonconvex(P, x0, cfg, seed=9)
        assert np.array_equal(x1.coords, x2.coords)
        assert P.counter.calls - calls1 == calls1
        assert len(t1.records) == len(t2.records)
        for a, b in zip(t1.records, t2.records):
            assert (a.k, a.epoch, a.ifo, a.f, a.grad_sq, a.step_dist, a.batch) == (
                b.k, b.epoch, b.ifo, b.f, b.grad_sq, b.step_dist, b.batch
            )

    def test_ifo_reconciliation(self):
        P = desk_problem()
        x0 = P.manifold.random_point(np.random.default_rng(2))
        cfg = params_finite(P.n, 0.1, 1.0, P.L_hint)
        _, trace = spider_nonconvex(P, x0, cfg, seed=4)
        tallies = trace.meta["ifo_breakdown"]
        assert trace.meta["ifo"] == tallies["anchor"] + tallies["correction"]
        assert P.counter.calls == trace.meta["ifo"]
        ifos = [rec.ifo for rec in trace.records]
        assert all(b >= a for a, b in zip(ifos, ifos[1:]))

    def test_config_n_must_match_the_objective(self):
        P = desk_problem(d=20, n=200, delta=0.5, seed=0)
        x0 = P.manifold.random_point(np.random.default_rng(3))
        cfg = params_finite(500, 0.05, 1.0, P.L_hint)
        with pytest.raises(ValueError, match="n=500"):
            spider_nonconvex(P, x0, cfg)
        assert P.counter.calls == 0

    def test_budget_stop(self):
        P = desk_problem()
        x0 = P.manifold.random_point(np.random.default_rng(5))
        cfg = params_finite(P.n, 0.05, 1.0, P.L_hint)
        spider_nonconvex(P, x0, cfg, seed=7, max_ifo=3 * P.n)
        assert P.counter.calls == 3 * P.n  # the last draw is cut to the calls left

    def test_retraction_mode(self):
        P = desk_problem()
        x0 = P.manifold.random_point(np.random.default_rng(6))
        cfg = params_finite(P.n, 0.1, 1.0, P.L_hint)
        x, _ = spider_nonconvex(P, x0, cfg, seed=8, map_mode="retract", max_ifo=5 * P.n)
        assert abs(np.linalg.norm(x.coords) - 1.0) <= 1e-9

    def test_sample_only_mode(self):
        # n=None: anchors draw S1 with replacement, corrections are uncapped
        P = desk_problem(d=8, n=40, delta=0.4, seed=30)
        x0 = P.manifold.random_point(np.random.default_rng(7))
        sigma_sq = 2.0 * r.variance_bound_estimate(P, x0)
        cfg = params_stochastic(sigma_sq, 0.3, 1.0, P.L_hint)
        assert cfg.n is None
        f0 = P.value(x0)
        x, trace = spider_nonconvex(P, x0, cfg, seed=9, max_ifo=30 * P.n)
        tallies = trace.meta["ifo_breakdown"]
        anchors = tallies["anchor"]
        assert anchors >= cfg.S1 > P.n  # sampled anchors, not full passes of n
        assert P.value(x) < f0


class TestEstimatorStatistics:
    def _frozen_state(self, P, seed=0):
        states = []
        x0 = P.manifold.random_point(np.random.default_rng(seed))
        cfg = params_finite(P.n, 0.05, 1.0, P.L_hint)
        spider_nonconvex(
            P, x0, cfg, seed=seed, max_ifo=40 * P.n,
            on_correction=lambda st: states.append(st) if len(states) < 8 else None,
        )
        return states

    def test_conditional_unbiasedness(self):
        P = desk_problem(d=6, n=20, delta=0.3, seed=11)
        st = self._frozen_state(P, seed=1)[4]
        man = P.manifold
        rng = np.random.default_rng(77)
        target = (
            P.full_rgrad(st.x_curr)
            - man.transport(st.x_prev, st.x_curr, P.full_rgrad(st.x_prev) - st.v_prev)
        )
        draws = np.empty((10_000, P.manifold.d))
        for t in range(draws.shape[0]):
            idx = rng.integers(0, P.n, size=st.s2)
            v = P.minibatch_rgrad(idx, st.x_curr) - man.transport(
                st.x_prev, st.x_curr, P.minibatch_rgrad(idx, st.x_prev) - st.v_prev
            )
            draws[t] = v.coords
        se = draws.std(axis=0, ddof=1) / math.sqrt(draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0) - target.coords) <= 3 * se + 1e-12)

    def test_variance_telescoping_within_epoch(self):
        P = desk_problem(d=10, n=50, delta=0.4, seed=12)
        eps = 0.1
        x0 = P.manifold.random_point(np.random.default_rng(2))
        states = []
        cfg = params_finite(P.n, eps, 1.0, P.L_hint)
        spider_nonconvex(
            P, x0, cfg, seed=3, max_ifo=6 * P.n,
            on_correction=lambda st: states.append(st) if len(states) < 12 else None,
        )
        for st in states:
            rep = r.variance_probe(P, st)
            assert rep.statistic <= 2 * eps**2

    def test_expected_descent(self):
        P = desk_problem(d=8, n=40, delta=0.3, seed=13)
        L = P.L_hint
        st = self._frozen_state(P, seed=9)[2]
        man = P.manifold
        eta = 1.0 / (2 * L)
        rng = np.random.default_rng(55)
        lhs, rhs = [], []
        f_curr = P.value(st.x_curr)
        grad = P.full_rgrad(st.x_curr)
        for _ in range(200):
            idx = rng.integers(0, P.n, size=st.s2)
            v = P.minibatch_rgrad(idx, st.x_curr) - man.transport(
                st.x_prev, st.x_curr, P.minibatch_rgrad(idx, st.x_prev) - st.v_prev
            )
            x_next = man.exp(st.x_curr, v._scaled(-eta))
            lhs.append(P.value(x_next) - f_curr)
            rhs.append(-v._sq / (8 * L) + (grad - v)._sq / (4 * L))
        diff = np.asarray(lhs) - np.asarray(rhs)
        se = diff.std(ddof=1) / math.sqrt(len(diff))
        assert diff.mean() <= 3 * se


class TestGd1:
    def test_stage_accuracies(self):
        # stage accuracy schedule: sqrt(M0 / (2^t * 10 tau))
        P = desk_problem(d=6, n=25, delta=0.4, seed=14)
        x0 = P.manifold.random_point(np.random.default_rng(3))
        cfg = GdConfig(M0=1.0, tau=10.0, L=P.L_hint, K=2)
        _, trace = spider_gd1(P, x0, cfg, seed=1, max_ifo=2 * P.n)
        eps = [s["eps"] for s in trace.meta["stages"]]
        assert eps[0] == pytest.approx(math.sqrt(1.0 / 200.0), abs=1e-12)
        if len(eps) > 1:
            assert eps[1] == pytest.approx(0.05, abs=1e-12)

    def test_inner_budget_is_constant_over_stages(self):
        # T_t = ceil(4 M_t L / eps_t^2) with M_t = M0 / 2^(t-1) collapses to 80 L tau
        P = desk_problem(d=6, n=25, delta=0.4, seed=15)
        x0 = P.manifold.random_point(np.random.default_rng(4))
        cfg = GdConfig(M0=0.7, tau=0.9, L=2.0, K=3)
        _, trace = spider_gd1(P, x0, cfg, seed=2)
        for s in trace.meta["stages"]:
            assert s["T"] == math.ceil(80 * 2.0 * 0.9 - 1e-6)

    def test_zero_stages(self):
        P = diag21_problem()
        x0 = P.manifold.point([0.6, 0.8])
        cfg = GdConfig(M0=1.0, tau=1.0, L=2.0, K=0)
        x, _ = spider_gd1(P, x0, cfg)
        assert x is x0
        assert P.counter.calls == 0


class TestGd2:
    def test_stage_table_adds_up(self):
        # the stage table splits the run: its steps sum to the final record's
        # k, and the last stage ends at the run's charge (no budget binds)
        P = desk_problem(d=6, n=25, delta=0.4, seed=18)
        x0 = P.manifold.random_point(np.random.default_rng(7))
        cfg = GdConfig(M0=0.05, tau=1.0, L=P.L_hint, K=4)
        _, trace = spider_gd2(P, x0, cfg, seed=5, checkpoint_every=0.5)
        stages = trace.meta["stages"]
        assert [s["stage"] for s in stages] == [1, 2, 3, 4]
        assert all(s["T"] == s["steps"] == trace.meta["q"] for s in stages)
        assert sum(s["steps"] for s in stages) == trace.records[-1].k
        assert stages[-1]["ifo_end"] == trace.meta["ifo"] == P.counter.calls
        assert [s["eps"] ** 2 for s in stages] == pytest.approx(
            [trace.meta["delta0"] / 2.0**t for t in range(4)], rel=1e-12
        )

    def test_initial_variance_budget(self):
        P = desk_problem(d=6, n=25, delta=0.4, seed=18)
        x0 = P.manifold.random_point(np.random.default_rng(7))
        cfg = GdConfig(M0=1.0, tau=10.0, L=P.L_hint, K=1)
        _, trace = spider_gd2(P, x0, cfg, seed=5, max_ifo=P.n)
        assert trace.meta["delta0"] == pytest.approx(0.025, abs=1e-15)

    def test_epoch_length_formula(self):
        P = desk_problem(d=6, n=25, delta=0.4, seed=19)
        x0 = P.manifold.random_point(np.random.default_rng(8))
        cfg = GdConfig(M0=1.0, tau=10.0, L=1.0, K=1)
        _, trace = spider_gd2(P, x0, cfg, seed=6, max_ifo=P.n)
        assert trace.meta["q"] == 56  # ceil(40 log 4)

    def test_stationary_step_clamps_batch(self):
        # start at the optimum: the first correction sees a zero-length step
        P = diag21_problem()
        x0 = P.manifold.point([1.0, 0.0])
        seen = []
        cfg = GdConfig(M0=1.0, tau=1.0, L=2.0, K=1)
        spider_gd2(P, x0, cfg, seed=7, on_correction=lambda st: seen.append(st.s2))
        assert seen and seen[0] == 1

    def test_linear_convergence_small(self):
        P = desk_problem(d=8, n=40, delta=0.5, seed=20)
        f_star = P.f_star
        tau = r.pl_constant_estimate(P, f_star, 64, seed=0).statistic
        x0 = P.manifold.random_point(np.random.default_rng(9))
        M0 = P.value(x0) - f_star
        K = 4
        cfg = GdConfig(M0=M0, tau=tau, L=P.L_hint, K=K)
        x, _ = spider_gd2(P, x0, cfg, seed=8)
        assert P.value(x) - f_star <= 1.5 * 2.0**-K * M0


class TestRsgd:
    def test_zero_step_size(self):
        # a constant zero step is rejected up front
        P = desk_problem(d=6, n=25, delta=0.4, seed=21)
        x0 = P.manifold.random_point(np.random.default_rng(10))
        with pytest.raises(ValueError, match="step size"):
            rsgd(P, x0, eta=0.0, T=7, seed=0)
        assert P.counter.calls == 0

    @pytest.mark.parametrize("bad", [0.0, -0.05, math.nan, math.inf])
    def test_schedule_step_must_be_finite_and_positive(self, bad):
        # a schedule's value is checked before its step: unchecked, a zero
        # step stands still, a negative one ascends and nan fails later as a
        # non-finite point
        P = desk_problem(d=10, n=50, delta=0.4, seed=21)
        x0 = P.manifold.random_point(np.random.default_rng(10))
        with pytest.raises(ValueError) as err:
            rsgd(P, x0, eta=lambda k: 0.05 if k < 3 else bad, T=200, seed=0)
        assert str(err.value) == (
            f"step size at iteration 3 must be finite and positive, got {bad!r}")
        assert P.counter.calls == 3

    def test_counter_equals_steps(self):
        P = desk_problem(d=6, n=25, delta=0.4, seed=22)
        x0 = P.manifold.random_point(np.random.default_rng(11))
        rsgd(P, x0, eta=0.01, T=13, seed=1)
        assert P.counter.calls == 13

    def test_eta_schedule_callable(self):
        P = desk_problem(d=6, n=25, delta=0.4, seed=23)
        x0 = P.manifold.random_point(np.random.default_rng(12))
        x, trace = rsgd(P, x0, eta=lambda k: 0.1 / (1 + k), T=5, seed=2)
        assert trace.meta["ifo"] == 5


@pytest.mark.parametrize("solver", ["rsgd", "rsvrg"])
@pytest.mark.parametrize("eta", [0.0, -0.01, math.nan, math.inf])
def test_constant_step_must_be_finite_and_positive(solver, eta):
    P = desk_problem(d=20, n=200, delta=0.5, seed=0)
    x0 = P.manifold.random_point(np.random.default_rng(3))
    with pytest.raises(ValueError, match="step size"):
        if solver == "rsgd":
            rsgd(P, x0, eta=eta, T=10, seed=0)
        else:
            rsvrg(P, x0, eta=eta, epochs=1, seed=0)
    assert P.counter.calls == 0


def test_negative_counts_are_rejected_before_any_call():
    P = desk_problem(d=20, n=200, delta=0.5, seed=0)
    x0 = P.manifold.random_point(np.random.default_rng(3))
    with pytest.raises(ValueError, match="T must be an integer >= 0"):
        rsgd(P, x0, eta=0.01, T=-3, seed=0)
    with pytest.raises(ValueError, match="epochs must be an integer >= 0"):
        rsvrg(P, x0, eta=0.01, epochs=-2, seed=0)
    with pytest.raises(ValueError, match="T must be an integer >= 0"):
        SpiderConfig(L=1.0, eps=0.1, q=1, S1=1, T=-1)
    with pytest.raises(ValueError, match="K must be an integer >= 0"):
        GdConfig(M0=1.0, tau=1.0, L=1.0, K=-1)
    assert P.counter.calls == 0


class TestRsvrg:
    def test_single_component_is_deterministic_descent(self):
        Z = np.array([[1.4], [0.3], [-0.2]])
        P = r.PcaProblem(Z)
        x0 = P.manifold.random_point(np.random.default_rng(13))
        x_ref, _ = rsgd(P, x0, eta=0.1, T=6, seed=0)
        x, _ = rsvrg(P, x0, eta=0.1, epochs=6, inner_len=1, seed=0)
        assert np.allclose(x.coords, x_ref.coords, atol=1e-15)

    def test_snapshot_step_uses_exact_gradient(self):
        P = desk_problem(d=6, n=25, delta=0.4, seed=24)
        x0 = P.manifold.random_point(np.random.default_rng(14))
        mu = P._exact_grad(x0)
        expected = P.manifold.exp(x0, mu._scaled(-0.05))
        x, _ = rsvrg(P, x0, eta=0.05, epochs=1, inner_len=1, seed=3)
        # the control variate cancels up to one rounding per entry
        assert np.allclose(x.coords, expected.coords, atol=1e-15)

    def test_map_mode_discrepancy_is_second_order(self):
        P = desk_problem(d=8, n=40, delta=0.3, seed=25)
        x0 = P.manifold.random_point(np.random.default_rng(15))
        gaps = []
        for eta in (1e-2, 5e-3):
            xe, _ = rsvrg(P, x0, eta=eta, epochs=1, inner_len=3, seed=4)
            xr, _ = rsvrg(P, x0, eta=eta, epochs=1, inner_len=3, seed=4,
                          map_mode="retract")
            # chordal distance: resolves gaps below the arccos floor
            gaps.append(float(np.linalg.norm(xe.coords - xr.coords)))
        # discrepancy within the quadratic envelope: gap / eta^2 stays bounded
        # as eta halves (normalization retraction actually agrees to second
        # order, so the observed decay is cubic)
        assert gaps[1] / (5e-3) ** 2 <= gaps[0] / (1e-2) ** 2 + 1e-12
        assert gaps[0] / gaps[1] >= 3.5

    def test_ifo_accounting(self):
        P = desk_problem(d=6, n=25, delta=0.4, seed=26)
        x0 = P.manifold.random_point(np.random.default_rng(16))
        rsvrg(P, x0, eta=0.02, epochs=2, inner_len=10, seed=5)
        # two snapshots at n each, twenty paired single-sample steps
        assert P.counter.calls == 2 * P.n + 2 * 20

    def test_epoch_column_matches_counter(self):
        P = desk_problem(d=6, n=25, delta=0.4, seed=27)
        x0 = P.manifold.random_point(np.random.default_rng(17))
        _, trace = rsvrg(P, x0, eta=0.02, epochs=3, seed=6)
        for rec in trace.records:
            assert rec.epoch == rec.ifo / P.n


_TALLY_PROBLEM = desk_problem(d=6, n=25, delta=0.4, seed=31)


@settings(max_examples=30, deadline=None)
@given(
    seed=hst.integers(0, 2**16),
    map_mode=hst.sampled_from(("exp", "retract")),
    q=hst.integers(1, 8),
    eps=hst.floats(0.02, 0.5),
)
def test_ifo_tally_property(seed, map_mode, q, eps):
    # every solver built on the shared correction step tallies exactly what
    # the counter charged, and the variance probe charges nothing
    P = _TALLY_PROBLEM
    n, L = P.n, P.L_hint
    x0 = P.manifold.random_point(np.random.default_rng(seed))
    modes = dict(map_mode=map_mode, seed=seed)
    tau = q / (4.0 * L * math.log(4.0))  # spider-gd2 then runs stages of ~q steps
    gd = GdConfig(M0=eps, tau=tau, L=L, K=3)
    states = []
    runs = [
        lambda: spider_nonconvex(
            P, x0, SpiderConfig(L=L, eps=eps, q=q, S1=n, T=60, n=n), **modes,
            max_ifo=8 * n, checkpoint_every=0.5, on_correction=states.append,
        ),
        lambda: spider_gd1(P, x0, gd, **modes, max_ifo=8 * n, checkpoint_every=0.5),
        lambda: spider_gd2(P, x0, gd, **modes, max_ifo=8 * n, checkpoint_every=0.5),
        lambda: rsvrg(P, x0, eta=0.01, epochs=3, inner_len=5 * q, **modes,
                      checkpoint_every=0.5),
        lambda: rsgd(P, x0, eta=0.01, T=10 * q, **modes, checkpoint_every=0.5),
    ]
    for run in runs:
        calls0 = P.counter.calls
        _, trace = run()
        tallies = trace.meta["ifo_breakdown"]
        assert P.counter.calls - calls0 == tallies["anchor"] + tallies["correction"]
        assert all(rec.epoch == rec.ifo / n for rec in trace.records)
    for state in states[:3]:
        calls = P.counter.calls
        r.variance_probe(P, state)
        assert P.counter.calls == calls


_BUDGET_PROBLEM = desk_problem(d=5, n=21, delta=0.4, seed=35)


@settings(max_examples=60, deadline=None)
@given(
    seed=hst.integers(0, 2**16),
    algo=hst.sampled_from(("spider", "spider-sampled", "spider-gd1", "spider-gd2", "rsvrg",
                           "rsgd")),
    map_mode=hst.sampled_from(("exp", "retract")),
    max_ifo=hst.integers(0, 8 * 21),
    q=hst.integers(1, 6),
    size=hst.integers(1, 21 + 3),
    eps=hst.floats(0.02, 0.5),
)
def test_budget_is_exact_property(seed, algo, map_mode, max_ifo, q, size, eps):
    # on a schedule that outlasts the budget, a run charges max_ifo calls, or
    # max_ifo - 1 when a correction is due with one call left; the odd n makes
    # both ends reachable
    P = _BUDGET_PROBLEM
    n, L = P.n, P.L_hint
    x0 = P.manifold.random_point(np.random.default_rng(seed))
    kw = dict(seed=seed, map_mode=map_mode, max_ifo=max_ifo, checkpoint_every=0.5)
    endless = 10**6
    if algo.startswith("spider-gd"):
        gd = GdConfig(M0=eps, tau=q / (4.0 * L * math.log(4.0)), L=L, K=endless)
        x, trace = (spider_gd1 if algo == "spider-gd1" else spider_gd2)(P, x0, gd, **kw)
    elif algo.startswith("spider"):
        cap = None if algo == "spider-sampled" else n
        cfg = SpiderConfig(L=L, eps=eps, q=q, S1=size, T=endless, n=cap)
        x, trace = spider_nonconvex(P, x0, cfg, **kw)
    elif algo == "rsvrg":
        x, trace = rsvrg(P, x0, 0.01, epochs=endless, inner_len=size, **kw)
    else:
        x, trace = rsgd(P, x0, 0.01, T=endless, **kw)
    assert max_ifo - 1 <= trace.meta["ifo"] <= max_ifo
    tallies = trace.meta["ifo_breakdown"]
    assert trace.meta["ifo"] == tallies["anchor"] + tallies["correction"] == trace.records[-1].ifo


def test_one_call_left_for_a_correction_ends_the_run():
    # n = 21: the snapshot and five corrections leave one call of 32 when a
    # sixth correction is due, so the run stops there instead of taking a
    # one-sample snapshot that no correction could follow
    P = _BUDGET_PROBLEM
    x0 = P.manifold.random_point(np.random.default_rng(2))
    _, trace = rsvrg(P, x0, 0.01, epochs=3, inner_len=10, seed=1, max_ifo=32)
    assert trace.meta["ifo"] == 31
    assert trace.meta["ifo_breakdown"] == {"anchor": 21, "correction": 10}


def test_unaffordable_snapshot_leaves_the_rest_to_inner_steps():
    # n = 21: the first epoch spends 21 + 2 * 10 = 41 calls. With 56, the 15
    # left cannot pay a snapshot and one step (n + 2 = 23), so the run keeps
    # its snapshot and takes seven more steps, not a clipped snapshot that
    # buys none; with 64, the 23 left pay a second snapshot and one step
    P = _BUDGET_PROBLEM
    x0 = P.manifold.random_point(np.random.default_rng(2))
    _, trace = rsvrg(P, x0, 0.01, epochs=5, inner_len=10, seed=1, max_ifo=56)
    assert trace.meta["ifo_breakdown"] == {"anchor": 21, "correction": 34}
    assert trace.meta["ifo"] == 55 and trace.records[-1].k == 17
    _, trace = rsvrg(P, x0, 0.01, epochs=5, inner_len=10, seed=1, max_ifo=64)
    assert trace.meta["ifo_breakdown"] == {"anchor": 42, "correction": 22}
    assert trace.meta["ifo"] == 64 and trace.records[-1].k == 11


SOLVERS = {"spider": spider_nonconvex, "spider-gd1": spider_gd1, "spider-gd2": spider_gd2,
           "rsvrg": rsvrg, "rsgd": rsgd}


@pytest.mark.parametrize("algo", SOLVERS)
def test_solvers_share_one_set_of_run_options(algo):
    # every solver takes the same keyword-only run options, with the same
    # defaults, and hands them to its run; on_correction is a hook, not one
    params = inspect.signature(SOLVERS[algo]).parameters.values()
    options = [(p.name, p.default) for p in params
               if p.kind is p.KEYWORD_ONLY and p.name != "on_correction"]
    assert options == [("seed", 0), ("map_mode", "exp"), ("checkpoint_every", 1.0),
                       ("max_ifo", None)]


def short_schedule(algo, P):
    """The positional arguments after ``x0`` of a short run of ``algo`` on ``P``."""
    return {
        "spider": (params_finite(P.n, 0.1, 1.0, P.L_hint),),
        "spider-gd1": (GdConfig(M0=1.0, tau=1.0, L=P.L_hint, K=1),),
        "spider-gd2": (GdConfig(M0=1.0, tau=1.0, L=P.L_hint, K=1),),
        "rsvrg": (0.01, 1),
        "rsgd": (0.01, 5),
    }[algo]


@pytest.mark.parametrize("map_mode", ["exp", "retract"])
@pytest.mark.parametrize("algo", SOLVERS)
def test_meta_carries_the_run_options(algo, map_mode):
    P = desk_problem(d=6, n=25, delta=0.4, seed=21)
    x0 = P.manifold.random_point(np.random.default_rng(10))
    _, trace = SOLVERS[algo](P, x0, *short_schedule(algo, P), seed=3, map_mode=map_mode,
                             checkpoint_every=0.5, max_ifo=2 * P.n)
    meta = trace.meta
    assert (meta["seed"], meta["map_mode"], meta["checkpoint_every"]) == (3, map_mode, 0.5)
    assert not {"seed", "map_mode"} & set(meta["config"])


@pytest.mark.parametrize("start", ["raw array", "point of another sphere"])
@pytest.mark.parametrize("algo", SOLVERS)
def test_start_must_be_a_point_on_the_objectives_manifold(algo, start):
    # a raw coordinate array is refused like a point of another manifold,
    # before any call
    P = desk_problem(d=6, n=25, delta=0.4, seed=21)
    rng = np.random.default_rng(10)
    if start == "raw array":
        x0 = P.manifold.random_point(rng).coords.copy()
    else:
        x0 = Sphere(P.d + 1).random_point(rng)
    with pytest.raises(ValueError, match="x0 must be a point on the objective's manifold"):
        SOLVERS[algo](P, x0, *short_schedule(algo, P))
    assert P.counter.calls == 0


def test_configs_hold_only_the_schedule():
    assert [f.name for f in dataclasses.fields(SpiderConfig)] == ["L", "eps", "q", "S1", "T",
                                                                 "n"]
    assert [f.name for f in dataclasses.fields(GdConfig)] == ["M0", "tau", "L", "K"]
    cfg = params_finite(100, 0.1, 1.0, 2.0)
    with pytest.raises(AttributeError):
        cfg.eta = 0.5  # the step is always 1/(2L)
    for schedule in (lambda: params_finite(100, 0.1, 1.0, 2.0, seed=1),
                     lambda: params_stochastic(1.0, 0.1, 1.0, 2.0, map_mode="exp")):
        with pytest.raises(TypeError):
            schedule()


def test_meta_ifo_is_the_runs_own_charge():
    # back-to-back runs on one instance without a counter reset are each
    # budgeted by, and report, only the calls they charged themselves: the
    # second run repeats the first exactly
    P = desk_problem(d=10, n=60)
    n, L = P.n, P.L_hint
    x0 = P.manifold.random_point(np.random.default_rng(7))
    gd = GdConfig(M0=0.1, tau=4.0 / (4.0 * L * math.log(4.0)), L=L, K=40)
    budget = dict(max_ifo=3 * n, checkpoint_every=0.5)
    runs = {
        "spider": lambda: spider_nonconvex(P, x0, params_finite(n, 0.1, 1.0, L), seed=2,
                                           **budget),
        "spider-gd1": lambda: spider_gd1(P, x0, gd, seed=1, **budget),
        "spider-gd2": lambda: spider_gd2(P, x0, gd, seed=1, **budget),
        "rsvrg": lambda: rsvrg(P, x0, eta=0.01, epochs=5, seed=3, **budget),
        "rsgd": lambda: rsgd(P, x0, 0.01, T=10 * n, seed=4, **budget),
    }
    for algo, run in runs.items():
        outcomes = []
        for _ in range(2):
            before = P.counter.calls
            x, trace = run()
            charged = P.counter.calls - before
            assert 3 * n <= charged < 6 * n, algo  # the budget binds, from zero
            assert trace.records[0].ifo == 0 and trace.records[0].epoch == 0.0, algo
            assert trace.records[-1].ifo == charged == trace.meta["ifo"], algo
            tallies = trace.meta["ifo_breakdown"]
            assert charged == tallies["anchor"] + tallies["correction"], algo
            stages = trace.meta.get("stages", [])
            assert all(s["ifo_end"] <= charged for s in stages), algo
            outcomes.append((x.coords.tobytes(), trace.records, stages))
        assert outcomes[0] == outcomes[1], algo


def test_index_helper_matches_sized_draws():
    # every solver and the variance probe take their indices from pre-drawn
    # blocks; any sequence of sizes, across block boundaries and longer than
    # a block, gives the indices of one sized draw per request
    B = _DRAW_BLOCK
    size_runs = ([1] * (B + 3), [5, B - 6, 2, 3], [B - 1, B + 1, 1], [3, 2 * B + 7, 4],
                 [300, 400, 500, 600])
    for n in (7, 200, 2000, 20000):
        for sizes in size_runs:
            sized, block = np.random.default_rng(n), np.random.default_rng(n)
            indices = _Indices(block, n)
            for size in sizes:
                got = indices.take(size)
                assert got.tolist() == sized.integers(0, n, size=size).tolist()
        # rsgd and rsvrg take one index per step: a run of take(1) across two
        # block boundaries is the stream of one scalar draw per step
        scalar, block = np.random.default_rng(n + 1), np.random.default_rng(n + 1)
        indices = _Indices(block, n)
        for _ in range(2 * B + 5):
            assert indices.take(1).tolist() == [int(scalar.integers(0, n))]
        # a lockstep block takes B single indices at once: from an empty
        # stream, part-way through a block, and after an oversized draw (a
        # clipped first snapshot), take(B) is B successive take(1) calls
        for head in (0, 5, 2 * B + 7):
            ahead, single = (_Indices(np.random.default_rng(n), n) for _ in range(2))
            ahead.take(head)
            single.take(head)
            got = np.concatenate([ahead.take(B) for _ in range(3)])
            assert got.tolist() == [int(single.take(1)[0]) for _ in range(3 * B)]


def test_pick_stream_matches_scalar_draws():
    # the reservoir pick reads one uniform per step from pre-drawn blocks:
    # across two block boundaries, the floats of one scalar draw per step
    scalar = np.random.default_rng(np.random.SeedSequence([3, 0x5A17]))
    picks = _uniforms(np.random.default_rng(np.random.SeedSequence([3, 0x5A17])))
    for _ in range(2 * _DRAW_BLOCK + 5):
        assert next(picks) == scalar.random()


@pytest.mark.parametrize("map_mode", ["exp", "retract"])
@pytest.mark.parametrize("max_ifo", [None, 15, 75])
def test_column_block_runs_equal_lone_runs(map_mode, max_ifo):
    # a block over two objectives that share n and one counter: every column
    # ends at its lone run's point with its records and meta, and the shared
    # counter charges exactly the runs' calls. The budgets clip the first
    # snapshot to a draw (15 < n) or end the second epoch mid-way (75)
    P, Q = desk_problem(d=6, n=25, seed=40), desk_problem(d=6, n=25, delta=0.2, seed=41)
    Q.counter = P.counter
    starts = [(obj, obj.manifold.random_point(np.random.default_rng(10 + s)), s)
              for obj in (P, Q) for s in (0, 1, 2)]
    kw = dict(map_mode=map_mode, checkpoint_every=0.5, max_ifo=max_ifo)
    ends = _rsvrg_columns(starts, 0.05, 4, 10, **kw)
    assert P.counter.calls == sum(trace.meta["ifo"] for _x, trace in ends)
    for (obj, x0, seed), (x, trace) in zip(starts, ends):
        x_alone, alone = rsvrg(obj, x0, 0.05, 4, 10, seed=seed, **kw)
        assert x.coords.tobytes() == x_alone.coords.tobytes()
        assert trace.records == alone.records and trace.meta == alone.meta


@pytest.mark.parametrize("map_mode", ["exp", "retract"])
def test_block_step_is_one_charged_call_per_point_set(monkeypatch, map_mode):
    # a block over three objectives that share one counter: every inner step
    # charges one minibatch call per point set, on the first objective, with
    # one row per column, and every column still ends at its lone run's bits
    objs = [desk_problem(d=6, n=25, delta=delta, seed=40) for delta in (0.4, 0.3, 0.2)]
    for obj in objs[1:]:
        obj.counter = objs[0].counter
    starts = [(obj, obj.manifold.random_point(np.random.default_rng(10 + s)), s)
              for obj in objs for s in (0, 1)]
    kw = dict(map_mode=map_mode, checkpoint_every=0.5)
    alone = [rsvrg(obj, x0, 0.05, 2, 10, seed=seed, **kw) for obj, x0, seed in starts]
    calls, minibatch = [], r.PcaProblem.minibatch_rgrad

    def spy(obj, idx, x):
        calls0 = obj.counter.calls
        out = minibatch(obj, idx, x)
        calls.append((obj, len(idx), obj.counter.calls - calls0))
        return out

    monkeypatch.setattr(r.PcaProblem, "minibatch_rgrad", spy)
    before = objs[0].counter.calls
    ends = _rsvrg_columns(starts, 0.05, 2, 10, **kw)
    # 2 epochs of 10 inner steps, each evaluating x and then the snapshot y
    assert calls == [(objs[0], len(starts), len(starts))] * (2 * 10 * 2)
    assert objs[0].counter.calls - before == sum(trace.meta["ifo"] for _x, trace in ends)
    for (x, trace), (x_alone, trace_alone) in zip(ends, alone):
        assert x.coords.tobytes() == x_alone.coords.tobytes()
        assert trace.records == trace_alone.records


@pytest.mark.parametrize("other", ["counter", "kernel"])
def test_block_over_mixed_counters_or_kernels_is_rejected(monkeypatch, other):
    # the block evaluates every row through the first objective and charges
    # its counter, so objectives that do not share both are refused before
    # any call
    P = desk_problem(d=6, n=25, seed=40)
    if other == "counter":
        Q = desk_problem(d=6, n=25, delta=0.2, seed=41)
    else:
        Q = chordal_mean_problem(d=6, n=25)
        Q.counter = P.counter
    assert Q.manifold == P.manifold and Q.n == P.n

    def charged(*_args):
        raise AssertionError("a mixed block charged a call")

    monkeypatch.setattr(FiniteSumObjective, "_charged", charged)
    starts = [(obj, obj.manifold.random_point(np.random.default_rng(10)), 0) for obj in (P, Q)]
    with pytest.raises(ValueError, match="one counter and one gradient kernel"):
        _rsvrg_columns(starts, 0.05, 2, 10)
    assert P.counter.calls == Q.counter.calls == 0


@pytest.mark.parametrize("map_mode", ["exp", "retract"])
def test_flagged_rows_replayed_without_a_fault_keep_their_bits(monkeypatch, map_mode):
    # a row whose checks flag it is replayed by its run's own correction and
    # move; when nothing is wrong the replay gives the row's value, the step
    # after a snapshot included, where the run transports from x to x itself
    P = desk_problem(d=6, n=25, seed=42)
    starts = [(P, P.manifold.random_point(np.random.default_rng(20 + s)), s) for s in (0, 1)]
    kw = dict(map_mode=map_mode, checkpoint_every=0.5)
    alone = [rsvrg(obj, x0, 0.05, 3, 10, seed=seed, **kw) for obj, x0, seed in starts]
    rows = Sphere._transport_rows

    def flag_every_row(self, X, Y, V):
        out, _bad = rows(self, X, Y, V)
        return out, np.ones(len(V), dtype=bool)

    monkeypatch.setattr(Sphere, "_transport_rows", flag_every_row)
    for (x, trace), (x_alone, trace_alone) in zip(_rsvrg_columns(starts, 0.05, 3, 10, **kw),
                                                  alone):
        assert x.coords.tobytes() == x_alone.coords.tobytes()
        assert trace.records == trace_alone.records


def _gap_instances(buffer=None, n=25, d=6, seed=40):
    # three gaps on one counter, as a sweep task builds them: into the row
    # slices of one buffer, or each into its own array
    factors = _eigenvector_factors(d, n, seed)
    objs = []
    for k, delta in enumerate((0.2, 0.1, 0.05)):
        out = None if buffer is None else buffer[k * n:(k + 1) * n]
        objs.append(_problem_from_factors(packed_spectrum(d, delta), *factors, out=out))
        objs[-1].counter = objs[0].counter
    return objs


@pytest.mark.parametrize("map_mode", ["exp", "retract"])
@pytest.mark.parametrize("case", ["plain", "dropped", "replayed"])
def test_block_over_one_row_buffer_equals_separate_builds_and_lone_runs(monkeypatch, map_mode,
                                                                         case):
    # a block whose gaps live in one row buffer gathers every column's row
    # with one take per inner step, where a block over separately built gaps
    # takes once per gap; both end every column as its lone run does: the
    # point, every record field (the end record's step length included) and
    # the meta. "dropped" gives one component of the middle gap a non-finite
    # gradient, which ends the runs that draw it part-way through the block;
    # "replayed" flags every row, which the runs' own steps then replay
    n = 25
    buffer = np.empty((3 * n, 6))
    shared, apart = _gap_instances(buffer, n), _gap_instances(None, n)

    def starts(objs):
        return [(obj, obj.manifold.random_point(np.random.default_rng(10 + s)), s)
                for obj in objs for s in (0, 1)]

    kw = dict(map_mode=map_mode, checkpoint_every=0.5)
    if case == "dropped":
        # a component that neither run draws in its first three inner steps
        # but seed 1 draws later
        early = {int(i) for s in (0, 1) for i in np.random.default_rng(s).integers(0, n, 3)}
        late = np.random.default_rng(1).integers(0, n, 20)[3:].tolist()
        z_bad = apart[1]._rows[next(i for i in late if i not in early)].copy()
        grads, grad = r.PcaProblem._grads, r.PcaProblem._grad

        def nan_grads(self, rows, X):
            g = grads(self, rows, X)
            g[(rows == z_bad).all(axis=1)] = np.nan
            return g

        def nan_row_grad(self, rows, x):
            g = grad(self, rows, x)
            return g * np.nan if len(rows) == 1 and np.array_equal(rows[0], z_bad) else g

        monkeypatch.setattr(r.PcaProblem, "_grads", nan_grads)
        monkeypatch.setattr(r.PcaProblem, "_grad", nan_row_grad)
    elif case == "replayed":
        transport_rows = Sphere._transport_rows

        def flag_every_row(self, X, Y, V):
            return transport_rows(self, X, Y, V)[0], np.ones(len(V), dtype=bool)

        monkeypatch.setattr(Sphere, "_transport_rows", flag_every_row)
    alone = []
    for obj, x0, seed in starts(apart):
        try:
            alone.append(rsvrg(obj, x0, 0.05, 2, 10, seed=seed, **kw))
        except (GeometryError, OptimizerError) as e:
            alone.append(e)
    gathers, prepare = [], optim._prepare_columns

    def spy(parts):
        gathers.append([home for home, _idx in parts])
        return prepare(parts)

    monkeypatch.setattr(optim, "_prepare_columns", spy)
    ends = {}
    for name, objs in (("shared", shared), ("apart", apart)):
        gathers.clear()
        ends[name] = _rsvrg_columns(starts(objs), 0.05, 2, 10, **kw)
        homes = gathers[:]
        assert len(homes) == 2 * 10  # one column step per inner step
        if name == "shared":
            assert all(len(h) == 1 and h[0] is buffer for h in homes)
        elif case != "dropped":
            assert all(len(h) == 3 for h in homes)
    for end_shared, end_apart, end_alone in zip(ends["shared"], ends["apart"], alone):
        for end in (end_shared, end_apart):
            if isinstance(end_alone, Exception):
                assert type(end) is type(end_alone) and str(end) == str(end_alone)
                continue
            (x, trace), (x_alone, trace_alone) = end, end_alone
            assert x.coords.tobytes() == x_alone.coords.tobytes()
            assert trace.records == trace_alone.records and trace.meta == trace_alone.meta
            assert trace.records[-1].step_dist > 0.0 and trace.records[-1].batch == 1
    failed = [isinstance(end, Exception) for end in alone]
    assert (any(failed) and not all(failed)) if case == "dropped" else not any(failed)


def test_one_run_block_steps_as_a_lone_run(monkeypatch):
    # a block of one column takes every inner step by its run's own step,
    # the ops of the other lone solvers: no column batch is gathered
    P = desk_problem(d=6, n=25, seed=40)
    x0 = P.manifold.random_point(np.random.default_rng(3))
    steps, step = [], _Run.step

    def counted(run, *args):
        steps.append(args[3])  # the batch size
        return step(run, *args)

    def no_columns(parts):
        raise AssertionError("a one-run block gathered a column batch")

    monkeypatch.setattr(_Run, "step", counted)
    monkeypatch.setattr(optim, "_prepare_columns", no_columns)
    rsvrg(P, x0, 0.05, 3, 10, seed=1)
    assert steps == [1] * 30


@pytest.mark.parametrize("bad", [0, 1])
def test_block_run_that_raises_ends_alone(bad):
    # f = -2 x_1^2: from 45 degrees a step of pi/2 lands exp on -x0, so that
    # column's next correction cannot transport; the other columns go on and
    # every column ends as its lone run does, with a record at every step
    P = r.PcaProblem(np.array([[math.sqrt(2.0)], [0.0]]))
    corners = [[1.0, 0.3], [0.2, 1.0]]
    corners.insert(bad, [1.0, 1.0])
    starts = [(P, P.manifold.point(c), 0) for c in corners]
    ends = _rsvrg_columns(starts, math.pi / 2, 1, 2, checkpoint_every=0.5)
    assert str(ends[bad]).startswith("transport failed at iteration 1")
    for (obj, x0, seed), end in zip(starts, ends):
        try:
            x, trace = rsvrg(obj, x0, math.pi / 2, 1, 2, seed=seed, checkpoint_every=0.5)
        except OptimizerError as e:
            assert type(end) is OptimizerError and str(end) == str(e)
        else:
            assert end[0].coords.tobytes() == x.coords.tobytes()
            assert end[1].records == trace.records
    assert sum(isinstance(end, Exception) for end in ends) == 1


@pytest.mark.parametrize("map_mode", ["exp", "retract"])
def test_block_run_whose_correction_overflows_ends_alone(monkeypatch, map_mode):
    # a finite correction whose squared norm overflows ends its run with the
    # lone step's message, even where a step of 1e-150 retracts it finitely
    P = desk_problem(d=6, n=25, seed=40)
    starts = [(P, P.manifold.random_point(np.random.default_rng(10 + s)), s) for s in range(3)]
    x_bad = starts[1][1].coords
    rows, one = Sphere._transport_rows, Sphere._transport

    def transport_rows(self, X, Y, V):
        out, bad = rows(self, X, Y, V)
        out = out.copy()
        out[(X == x_bad).all(axis=1)] = 1e160
        return out, bad

    def transport(self, x, y, v):
        return np.full_like(v, 1e160) if np.array_equal(x, x_bad) else one(self, x, y, v)

    monkeypatch.setattr(Sphere, "_transport_rows", transport_rows)
    monkeypatch.setattr(Sphere, "_transport", transport)
    with np.errstate(over="ignore"):  # else the replayed check's overflow warns first
        ends = _rsvrg_columns(starts, 1e-150, 1, 3, map_mode=map_mode)
    assert isinstance(ends[1], OptimizerError)
    assert str(ends[1]) == "transport failed at iteration 0: tangent coordinates must be finite"
    assert not isinstance(ends[0], Exception) and not isinstance(ends[2], Exception)


def test_block_retract_row_that_dist_rejects_ends_alone(monkeypatch):
    # a retract-mode block computes its step lengths only for a record, but
    # checks every step against _dist's antipodal bound: a step that lands
    # on -x ends that column at that step with its lone run's message
    P = desk_problem(d=6, n=25, seed=40)
    starts = [(P, P.manifold.random_point(np.random.default_rng(10 + s)), s) for s in range(3)]
    x_bad = starts[1][1].coords
    rows, one = Sphere._retract_rows, Sphere._retract

    def retract_rows(self, X, V):
        out, bad = rows(self, X, V)
        hit = (X == x_bad).all(axis=1)
        out = out.copy()
        out[hit] = -X[hit]
        return out, bad

    def retract(self, x, v):
        return -x if np.array_equal(x, x_bad) else one(self, x, v)

    monkeypatch.setattr(Sphere, "_retract_rows", retract_rows)
    monkeypatch.setattr(Sphere, "_retract", retract)
    kw = dict(map_mode="retract", checkpoint_every=0.5)
    ends = _rsvrg_columns(starts, 0.05, 1, 3, **kw)
    for (obj, x0, seed), end in zip(starts, ends):
        try:
            x, trace = rsvrg(obj, x0, 0.05, 1, 3, seed=seed, **kw)
        except OptimizerError as e:
            assert type(end) is OptimizerError and str(end) == str(e)
        else:
            assert end[0].coords.tobytes() == x.coords.tobytes()
            assert end[1].records == trace.records
    assert isinstance(ends[1], OptimizerError)
    assert str(ends[1]).startswith("degenerate step at iteration 0: distance ill-conditioned")
    assert not isinstance(ends[0], Exception) and not isinstance(ends[2], Exception)


@pytest.mark.parametrize("make", [chordal_mean_problem, least_squares_problem])
@pytest.mark.parametrize("algo", ["spider", "spider-gd1", "spider-gd2", "rsvrg", "rsgd"])
def test_solvers_run_off_the_pca_path(monkeypatch, make, algo):
    # every solver dispatches through the objective's manifold: on R^d the
    # iterates leave the unit sphere and least squares descends
    move = _Run.move
    last = []  # the raw iterate of the latest step, whatever the solver returns

    def moved(run, *args):
        out = move(run, *args)
        last[:] = [out[0]]
        return out

    monkeypatch.setattr(_Run, "move", moved)
    P = make()
    n, L = P.n, P.L_hint
    x0 = P.manifold.point(np.random.default_rng(1).standard_normal(P.manifold.d))
    f0 = P.value(x0)
    kw = dict(seed=2, max_ifo=20 * n, checkpoint_every=0.5)
    gd = GdConfig(M0=f0, tau=1.0, L=L, K=5)
    if algo == "spider":
        x, trace = spider_nonconvex(P, x0, params_finite(n, 0.05, f0, L), **kw)
    elif algo == "spider-gd1":
        x, trace = spider_gd1(P, x0, gd, **kw)
    elif algo == "spider-gd2":
        x, trace = spider_gd2(P, x0, gd, **kw)
    elif algo == "rsvrg":
        x, trace = rsvrg(P, x0, eta=0.1 / L, epochs=5, **kw)
    else:
        x, trace = rsgd(P, x0, 0.1 / L, T=10 * n, **kw)
    assert trace.meta["ifo"] == P.counter.calls > 0
    tallies = trace.meta["ifo_breakdown"]
    assert tallies["anchor"] + tallies["correction"] == trace.meta["ifo"]
    norm = math.sqrt(float(x.coords @ x.coords))
    if isinstance(P.manifold, Sphere):
        assert norm == pytest.approx(1.0, abs=1e-9)
    else:
        f0 = trace.records[0].f
        if algo in ("spider", "spider-gd1"):
            # the returned point is a uniform pick over the iterates (the
            # final record describes it) and may be an early one; the last
            # iterate has descended as far as the other solvers' results
            x_last = P.manifold.point(last[0])
            f_last = P.value(x_last)
            assert f_last < 0.5 * f0
            assert math.sqrt(float(x_last.coords @ x_last.coords)) > 2.0
            assert trace.records[-1].f < f0 and norm != pytest.approx(1.0)
        else:
            assert trace.records[-1].f < 0.5 * f0 and norm > 2.0


_EDGE_PROBLEM = desk_problem(d=20, n=200, delta=0.5, seed=0)


def _assert_no_checked_values(monkeypatch, P, x0, algo, map_mode):
    # checked points and tangents exist only at the edges: x0 is checked
    # before the run, and what a run builds (iterates, oracle arguments,
    # records, FrozenState, the returned point) is a trusted wrap
    n, L = P.n, P.L_hint
    checked = {ManifoldPoint: 0, TangentVector: 0}
    for cls in checked:
        def counted(self, *args, cls=cls, init=cls.__init__):
            checked[cls] += 1
            init(self, *args)

        monkeypatch.setattr(cls, "__init__", counted)
    states = []
    kw = dict(seed=1, map_mode=map_mode, max_ifo=4 * n, checkpoint_every=0.5)
    gd = GdConfig(M0=0.1, tau=4.0 / (4.0 * L * math.log(4.0)), L=L, K=3)
    if algo == "spider":
        cfg = params_finite(n, 0.1, 1.0, L)
        spider_nonconvex(P, x0, cfg, on_correction=states.append, **kw)
    elif algo == "spider-gd1":
        spider_gd1(P, x0, gd, **kw)
    elif algo == "spider-gd2":
        spider_gd2(P, x0, gd, on_correction=states.append, **kw)
    elif algo == "rsvrg":
        rsvrg(P, x0, eta=0.01, epochs=3, **kw)
    else:
        rsgd(P, x0, 0.01, T=2 * n, **kw)
    assert P.counter.calls > 0
    assert bool(states) == (algo in ("spider", "spider-gd2"))
    assert checked == {ManifoldPoint: 0, TangentVector: 0}


@pytest.mark.parametrize("map_mode", ["exp", "retract"])
@pytest.mark.parametrize("algo", ["spider", "spider-gd1", "spider-gd2", "rsvrg", "rsgd"])
def test_runs_construct_no_checked_values(monkeypatch, algo, map_mode):
    P = _EDGE_PROBLEM
    x0 = P.manifold.random_point(np.random.default_rng(3))
    _assert_no_checked_values(monkeypatch, P, x0, algo, map_mode)


@pytest.mark.parametrize("make", [chordal_mean_problem, least_squares_problem])
@pytest.mark.parametrize("algo", ["spider", "spider-gd1", "spider-gd2", "rsvrg", "rsgd"])
def test_off_pca_runs_construct_no_checked_values(monkeypatch, make, algo):
    # the charged path of any row-kernel objective, not only PcaProblem's
    P = make()
    x0 = P.manifold.point(np.random.default_rng(1).standard_normal(P.manifold.d))
    _assert_no_checked_values(monkeypatch, P, x0, algo, "exp")


class TestDegenerateSteps:
    def test_exp_step_onto_the_antipode(self):
        # f = -2 x_1^2 at 45 degrees: the gradient has norm 2, so a step of
        # pi/2 (spider's 1/(2L) at L = 1/pi) lands exp on -x0, and the next
        # correction cannot transport
        P = r.PcaProblem(np.array([[math.sqrt(2.0)], [0.0]]))
        x0 = P.manifold.point([1.0, 1.0])
        eta = math.pi / 2
        cfg = SpiderConfig(L=1.0 / math.pi, eps=0.1, q=2, S1=1, T=3, n=1)
        assert cfg.eta == eta
        with pytest.raises(OptimizerError, match=r"transport failed at iteration 1: .*antipodal"):
            spider_nonconvex(P, x0, cfg)
        with pytest.raises(OptimizerError, match=r"transport failed at iteration 1: .*antipodal"):
            rsvrg(P, x0, eta=eta, epochs=1, inner_len=2)

    def test_retract_through_the_origin(self):
        # a faulty kernel returns the point itself as its gradient, so a
        # step of 0.5 from x reaches x + v = 0
        class Radial(FiniteSumObjective):
            L_hint = 1.0

            def _value(self, rows, x):
                return 0.0

            def _grad(self, rows, x):
                return 2.0 * x

        P = Radial(Sphere(3), np.zeros((4, 1)))
        x0 = P.manifold.point([1.0, 2.0, 2.0])
        with pytest.raises(OptimizerError, match=r"degenerate step at iteration 3: retraction"):
            rsgd(P, x0, lambda k: 0.1 if k < 3 else 0.5, T=5, map_mode="retract")
        cfg = SpiderConfig(L=1.0, eps=0.1, q=2, S1=4, T=3, n=4)  # step 1/(2L) = 0.5
        with pytest.raises(OptimizerError, match=r"degenerate step at iteration 0: retraction"):
            spider_nonconvex(P, x0, cfg, map_mode="retract")


_TRACE_PROBLEM = desk_problem(d=5, n=20, delta=0.4, seed=33)


@settings(max_examples=25, deadline=None)
@given(
    seed=hst.integers(0, 2**16),
    algo=hst.sampled_from(("spider", "spider-gd1", "spider-gd2", "rsvrg", "rsgd")),
    map_mode=hst.sampled_from(("exp", "retract")),
)
def test_tracing_never_touches_the_counter(seed, algo, map_mode):
    # a checkpoint after every oracle call and a single checkpoint at the
    # start give the same calls, the same tallies and the same returned point
    P = _TRACE_PROBLEM
    n, L = P.n, P.L_hint
    x0 = P.manifold.random_point(np.random.default_rng(seed))
    gd = GdConfig(M0=0.1, tau=4.0 / (4.0 * L * math.log(4.0)), L=L, K=3)

    def run(every):
        calls0 = P.counter.calls
        kw = dict(seed=seed, map_mode=map_mode, checkpoint_every=every, max_ifo=6 * n)
        if algo == "spider":
            cfg = SpiderConfig(L=L, eps=0.1, q=4, S1=n, T=60, n=n)
            x, trace = spider_nonconvex(P, x0, cfg, **kw)
        elif algo == "spider-gd1":
            x, trace = spider_gd1(P, x0, gd, **kw)
        elif algo == "spider-gd2":
            x, trace = spider_gd2(P, x0, gd, **kw)
        elif algo == "rsvrg":
            x, trace = rsvrg(P, x0, eta=0.01, epochs=3, inner_len=10, **kw)
        else:
            x, trace = rsgd(P, x0, 0.01, T=60, **kw)
        boundaries = sum(rec.boundary is not None for rec in trace.records)
        return (P.counter.calls - calls0, trace.meta.get("ifo_breakdown"),
                x.coords.tobytes()), boundaries

    dense, dense_marks = run(1.0 / n)
    single, single_marks = run(1e9)
    assert dense == single
    assert single_marks == 1 and dense_marks > 1


@pytest.mark.parametrize("solver", [spider_gd1, spider_gd2])
def test_zero_restart_stages_return_x0(solver):
    # K = 0: no stage runs, so the run is its start and end records, both at x0
    P = diag21_problem()
    x0 = P.manifold.point([0.6, 0.8])
    x, trace = solver(P, x0, GdConfig(M0=1.0, tau=1.0, L=2.0, K=0))
    assert x is x0
    assert P.counter.calls == 0 == trace.meta["ifo"]
    assert len(trace.records) == 2
    start, end = trace.records
    assert (start.k, start.ifo, start.boundary, start.batch) == (0, 0, 0.0, 0)
    assert (end.k, end.ifo, end.boundary, end.batch) == (0, 0, None, 0)
    assert (start.f, start.grad_sq) == (end.f, end.grad_sq) == P._probe(x0)
    assert trace.meta["stages"] == []


def _count_calls():
    # each call passes one count, seed or dimension that is not an integer of
    # the least allowed size, or one map mode that is not a mode
    from rspider.bench import ExperimentConfig

    P = desk_problem(d=6, n=30, delta=0.4, seed=21)
    x0 = P.manifold.random_point(np.random.default_rng(3))
    spider = dict(L=1.0, eps=0.1, q=2, S1=5, T=10, n=30)
    bad = {f"spider-{k}={v!r}": (lambda k=k, v=v: SpiderConfig(**{**spider, k: v}))
           for k, v in (("q", 2.5), ("q", True), ("S1", 2.5), ("S1", True), ("T", 2.5),
                        ("T", True))}
    bad.update({
        "gd-K=2.5": lambda: GdConfig(M0=1.0, tau=1.0, L=1.0, K=2.5),
        "rsgd-T=2.5": lambda: rsgd(P, x0, 0.01, T=2.5),
        "rsvrg-epochs=2.5": lambda: rsvrg(P, x0, 0.01, epochs=2.5),
        "rsvrg-inner_len=2.5": lambda: rsvrg(P, x0, 0.01, epochs=1, inner_len=2.5),
        "rsvrg-inner_len='3'": lambda: rsvrg(P, x0, 0.01, epochs=1, inner_len="3"),
        "rsvrg-inner_len=0": lambda: rsvrg(P, x0, 0.01, epochs=1, inner_len=0),
        "experiment-n=40.5": lambda: ExperimentConfig(d=6, n=40.5),
        "experiment-d=6.0": lambda: ExperimentConfig(d=6.0, n=40),
        "experiment-seeds=(0.7, 1)": lambda: ExperimentConfig(d=6, n=40, seeds=(0.7, 1)),
        "experiment-seeds=(-1,)": lambda: ExperimentConfig(d=6, n=40, seeds=(-1,)),
        "experiment-data_seed=-1": lambda: ExperimentConfig(d=6, n=40, data_seed=-1),
        "experiment-workers=1.5": lambda: ExperimentConfig(d=6, n=40, workers=1.5),
        "fd-trials=2.5": lambda: r.fd_gradient_check(P, x0, trials=2.5),
        "smoothness-pairs=2.5": lambda: r.smoothness_probe(P, pairs=2.5),
        "pl-points=2.5": lambda: r.pl_constant_estimate(P, P.f_star, 2.5),
        "sphere-d=2.5": lambda: Sphere(2.5),
        "sphere-d=True": lambda: Sphere(True),
        "euclidean-d=True": lambda: r.Euclidean(True),
        "spec-n=200.5": lambda: r.SyntheticSpec(d=6, n=200.5, delta=0.4, seed=7),
        "problem_from_spectrum-n=200.7":
            lambda: r.problem_from_spectrum(r.packed_spectrum(6, 0.1), 200.7, 0),
        "problem_from_spectrum-d=1": lambda: r.problem_from_spectrum([1.0], 30, 0),
        "problem_from_spectrum-d=0": lambda: r.problem_from_spectrum([], 30, 0),
        "params_finite-n=200.5": lambda: params_finite(200.5, 0.1, 1.0, 1.0),
        "params_finite-n=True": lambda: params_finite(True, 0.1, 1.0, 1.0),
        "spider-n=200.5": lambda: SpiderConfig(**{**spider, "n": 200.5}),
        "spider-n=0": lambda: SpiderConfig(**{**spider, "n": 0}),
    })
    gd = dict(M0=1.0, tau=1.0, L=1.0, K=1)
    solvers = {
        "spider": lambda kw: spider_nonconvex(P, x0, SpiderConfig(**spider), **kw),
        "spider-gd1": lambda kw: spider_gd1(P, x0, GdConfig(**gd), **kw),
        "spider-gd2": lambda kw: spider_gd2(P, x0, GdConfig(**gd), **kw),
        "rsgd": lambda kw: rsgd(P, x0, 0.01, T=5, **kw),
        "rsvrg": lambda kw: rsvrg(P, x0, 0.01, epochs=1, **kw),
    }
    probes = {
        "fd": lambda kw: r.fd_gradient_check(P, x0, **kw),
        "smoothness": lambda kw: r.smoothness_probe(P, **kw),
        "pl": lambda kw: r.pl_constant_estimate(P, P.f_star, 8, **kw),
    }
    for name, call in {**solvers, **probes}.items():
        for seed in (-1, 2.5, True):
            bad[f"{name}-seed={seed!r}"] = lambda call=call, seed=seed: call(dict(seed=seed))
    for name, call in solvers.items():
        bad[f"{name}-map_mode='bogus'"] = lambda call=call: call(dict(map_mode="bogus"))
    for seed in (7.9, -1, True):
        bad[f"spec-seed={seed!r}"] = lambda seed=seed: r.SyntheticSpec(d=6, n=30, delta=0.4,
                                                                       seed=seed)
    return P, bad


@pytest.mark.parametrize("case", list(_count_calls()[1]))
def test_count_options_must_be_integers(case):
    # a fractional, boolean, text or too small count, seed or dimension, or
    # an unknown map mode, fails with ValueError before any oracle call, Gram
    # matrix, instance build or run
    P, bad = _count_calls()
    with pytest.raises(ValueError, match="must be"):
        bad[case]()
    assert P.counter.calls == 0 and P._A is None


def test_count_message_states_the_rule_once():
    from rspider._checks import _check_count

    cases = {
        "seed must be an integer >= 0, got -1": lambda: _check_count("seed", -1, 0),
        "d must be an integer >= 2, got 1": lambda: Sphere(1),
        "max_ifo must be None or an integer >= 0, got 2.5":
            lambda: _check_count("max_ifo", 2.5, 0, or_none=True),
    }
    for message, call in cases.items():
        with pytest.raises(ValueError) as e:
            call()
        assert str(e.value) == message


def test_numpy_integer_counts_are_accepted():
    from rspider.bench import ExperimentConfig

    P = desk_problem(d=6, n=30, delta=0.4, seed=21)
    x0 = P.manifold.random_point(np.random.default_rng(3))
    i = np.int64
    cfg = SpiderConfig(L=P.L_hint, eps=0.1, q=i(2), S1=i(30), T=i(4), n=30)
    ref = SpiderConfig(L=P.L_hint, eps=0.1, q=2, S1=30, T=4, n=30)
    assert np.array_equal(spider_nonconvex(P, x0, cfg)[0].coords,
                          spider_nonconvex(P, x0, ref)[0].coords)
    x, trace = rsvrg(P, x0, 0.01, epochs=i(1), inner_len=i(3), max_ifo=i(100))
    assert trace.meta["config"]["inner_len"] == 3
    exp = ExperimentConfig(d=i(6), n=i(40), seeds=(i(0), i(2)), data_seed=i(1), workers=i(1))
    assert exp.seeds == (0, 2) and all(type(s) is int for s in exp.seeds)


@pytest.mark.parametrize("max_ifo", [-5, 2.5, True, math.nan, "10"])
@pytest.mark.parametrize("algo", ["spider", "spider-gd1", "spider-gd2", "rsvrg", "rsgd"])
def test_budget_must_be_none_or_a_whole_count(algo, max_ifo):
    # a negative, fractional, boolean, nan or text budget fails before any call
    P = desk_problem(d=6, n=25, delta=0.4, seed=21)
    x0 = P.manifold.random_point(np.random.default_rng(10))
    gd = GdConfig(M0=1.0, tau=1.0, L=P.L_hint, K=1)
    solvers = {
        "spider": lambda kw: spider_nonconvex(P, x0, params_finite(P.n, 0.1, 1.0, P.L_hint), **kw),
        "spider-gd1": lambda kw: spider_gd1(P, x0, gd, **kw),
        "spider-gd2": lambda kw: spider_gd2(P, x0, gd, **kw),
        "rsvrg": lambda kw: rsvrg(P, x0, 0.01, epochs=1, **kw),
        "rsgd": lambda kw: rsgd(P, x0, 0.01, T=5, **kw),
    }
    with pytest.raises(ValueError, match="max_ifo must be None or an integer >= 0"):
        solvers[algo](dict(max_ifo=max_ifo))
    assert P.counter.calls == 0
    # the accepted budgets: none, zero and any integral count
    for ok in (None, 0, np.int64(3)):
        _, trace = solvers[algo](dict(max_ifo=ok))
        assert ok is None or trace.meta["ifo"] <= ok + 2 * P.n


@pytest.mark.parametrize("every", [0.0, -1.0, math.nan, math.inf])
def test_checkpoint_interval_must_be_finite_and_positive(every):
    P = desk_problem(d=6, n=25, delta=0.4, seed=21)
    x0 = P.manifold.random_point(np.random.default_rng(10))
    runs = [
        lambda: rsgd(P, x0, 0.01, T=5, checkpoint_every=every),
        lambda: rsvrg(P, x0, 0.01, epochs=1, checkpoint_every=every),
        lambda: spider_nonconvex(P, x0, params_finite(P.n, 0.1, 1.0, P.L_hint),
                                 checkpoint_every=every),
        lambda: spider_gd1(P, x0, GdConfig(M0=1.0, tau=1.0, L=P.L_hint, K=1),
                           checkpoint_every=every),
    ]
    for run in runs:
        with pytest.raises(ValueError, match="checkpoint interval must be finite and positive"):
            run()
    assert P.counter.calls == 0


def _lone_runs():
    # (run, charged kernel call the fault hits, that call's batch size) on the
    # desk instance: a run's kernel calls follow its schedule, so the m-th is
    # a known evaluation (x before y in a correction)
    P = desk_problem()
    x0 = P.manifold.random_point(np.random.default_rng(3))
    L = P.L_hint
    spider = SpiderConfig(L=L, eps=0.1, q=4, S1=P.n, T=12, n=P.n)  # sizes 60, 8, 8, 8, 8, ...
    sample_only = SpiderConfig(L=L, eps=0.1, q=3, S1=7, T=10)  # sizes 7, 45, 45, 46, 46, 7, ...
    gd = GdConfig(M0=0.1, tau=1.0 / (L * math.log(4.0)), L=L, K=3)  # q = 4: 60, 1 x 6, 60, ...
    return {
        "spider-correction-x": (lambda: spider_nonconvex(P, x0, spider, seed=1), 1, 8),
        "spider-correction-y": (lambda: spider_nonconvex(P, x0, spider, seed=1), 2, 8),
        "spider-gd2-full-anchor": (lambda: spider_gd2(P, x0, gd, seed=1), 7, P.n),
        "spider-sample-only-anchor": (lambda: spider_nonconvex(P, x0, sample_only, seed=1),
                                      5, 7),
        "rsgd-step": (lambda: rsgd(P, x0, 0.01, T=10, seed=1), 3, 1),
    }


@pytest.mark.parametrize("bad", ["nan", "inf", "one-entry-inf"])
@pytest.mark.parametrize("case", list(_lone_runs()))
def test_non_finite_gradient_fails_a_lone_run_as_the_oracle_does(monkeypatch, case, bad):
    # a non-finite gradient, at an anchor or at either point of a correction,
    # ends the run with the checked oracle's error, not an optimizer error,
    # and warns of nothing on the way (the suite turns warnings into errors)
    run, m, size = _lone_runs()[case]
    grad, sizes = r.PcaProblem._grad, []

    def faulty(self, rows, x):
        sizes.append(rows.shape[0])
        g = grad(self, rows, x)
        if len(sizes) != m + 1:
            return g
        if bad == "one-entry-inf":
            g = g.copy()
            g[1] = -math.inf
            return g
        return np.full_like(g, float(bad))

    monkeypatch.setattr(r.PcaProblem, "_grad", faulty)
    with pytest.raises(r.GeometryError) as err:
        run()
    assert type(err.value) is r.GeometryError
    assert str(err.value) == "tangent coordinates must be finite"
    assert sizes[m] == size


def _wraps_per_run(monkeypatch, algo, map_mode, scale):
    # the wraps of checked and trusted values a run makes, and its steps
    counts = dict.fromkeys(("ManifoldPoint._raw", "TangentVector._raw", "TangentVector.__init__"),
                           0)

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(ManifoldPoint, "_raw",
                        staticmethod(counted("ManifoldPoint._raw", ManifoldPoint._raw)))
    monkeypatch.setattr(TangentVector, "_raw",
                        staticmethod(counted("TangentVector._raw", TangentVector._raw)))
    monkeypatch.setattr(TangentVector, "__init__",
                        counted("TangentVector.__init__", TangentVector.__init__))
    P = _EDGE_PROBLEM
    x0 = P.manifold.random_point(np.random.default_rng(3))
    L = P.L_hint
    kw = dict(seed=1, map_mode=map_mode, checkpoint_every=1e9)  # the start and end records only
    if algo == "spider":
        cfg = dataclasses.replace(params_finite(P.n, 0.1, 1.0, L), T=40 * scale)
        _, trace = spider_nonconvex(P, x0, cfg, **kw)
    elif algo == "spider-gd2":
        gd = GdConfig(M0=0.1, tau=4.0 / (4.0 * L * math.log(4.0)), L=L, K=2 * scale)
        _, trace = spider_gd2(P, x0, gd, **kw)
    else:
        _, trace = rsgd(P, x0, 0.01, T=40 * scale, **kw)
    monkeypatch.undo()
    return counts, trace.records[-1].k


@pytest.mark.parametrize("map_mode", ["exp", "retract"])
@pytest.mark.parametrize("algo", ["spider", "spider-gd2", "rsgd"])
def test_lone_runs_wrap_no_value_per_step(monkeypatch, algo, map_mode):
    # the loop carries raw arrays: a run wraps points only for its records
    # and its returned point, so four times the steps make no more wraps
    short, steps = _wraps_per_run(monkeypatch, algo, map_mode, 1)
    long, more_steps = _wraps_per_run(monkeypatch, algo, map_mode, 4)
    assert more_steps >= 4 * steps > 0
    assert long == short
    assert short["TangentVector._raw"] == short["TangentVector.__init__"] == 0
