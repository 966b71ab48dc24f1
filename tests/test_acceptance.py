"""Acceptance suite: one test per release criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion (a failed assertion marks the criterion FAIL). Desk-scale
configurations keep the full suite in the minutes range.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

import rspider as r
from rspider.bench import ExperimentConfig, cli_main, fit_line, run_sweep
from rspider.geometry import Sphere
from rspider.optim import GdConfig, params_finite, spider_gd1, spider_gd2, spider_nonconvex


def _report(num, name, elapsed):
    print(f"\nACCEPTANCE {num} {name}: PASS ({elapsed:.1f}s)")


@pytest.fixture(scope="module")
def desk_instance():
    # shared d=20, n=200 instance for the estimator and restart criteria
    return r.generate_gap_matrix(r.SyntheticSpec(d=20, n=200, delta=0.5, seed=7))


def _valid_pair(man, rng):
    # transport and log exclude (nearly) antipodal pairs by contract
    while True:
        x, y = man.random_point(rng), man.random_point(rng)
        if float(x.coords @ y.coords) > -1.0 + 1e-6:
            return x, y


def test_criterion_1_geometry_axioms():
    t0 = time.perf_counter()
    per_cell = 11_200  # 3 check families x 3 dimensions ~ 1e5 randomized checks
    for d in (2, 3, 100):
        man = Sphere(d)
        rng = np.random.default_rng(d)
        for _ in range(per_cell):  # exp/log round trip
            x = man.random_point(rng)
            v = man.random_tangent(x, rng, scale=rng.uniform(0.0, math.pi / 2))
            w = man.log(x, man.exp(x, v))
            assert np.linalg.norm(w.coords - v.coords) <= 1e-9 * (1.0 + v.norm())
        for _ in range(per_cell):  # transport isometry
            x, y = _valid_pair(man, rng)
            u = man.random_tangent(x, rng, scale=rng.uniform(0.1, 2.0))
            v = man.random_tangent(x, rng, scale=rng.uniform(0.1, 2.0))
            tu, tv = man.transport(x, y, u), man.transport(x, y, v)
            assert abs(man.inner(tu, tv) - man.inner(u, v)) <= 1e-10
            assert abs(tu.norm() - u.norm()) <= 1e-10
        for _ in range(per_cell):  # transport reversal
            x, y = _valid_pair(man, rng)
            fwd = man.transport(x, y, man.log(x, y))
            assert np.linalg.norm(fwd.coords + man.log(y, x).coords) <= 1e-9
    _report(1, "geometry axioms", time.perf_counter() - t0)


def test_criterion_2_gradient_correctness():
    t0 = time.perf_counter()
    instances = {
        2: r.PcaProblem(np.array([[2.0, 0.0], [0.0, math.sqrt(2.0)]]),
                        spectrum=np.array([2.0, 1.0])),
        50: r.generate_gap_matrix(r.SyntheticSpec(d=50, n=150, delta=0.3, seed=4)),
    }
    for d, P in instances.items():
        rng = np.random.default_rng(d + 100)
        for trial in range(5):
            x = P.manifold.random_point(rng)
            rep = r.fd_gradient_check(P, x, trials=10, t_step=1e-6, seed=trial)
            assert rep.statistic <= 1e-5
        x = P.manifold.random_point(rng)
        e3 = r.fd_gradient_check(P, x, trials=20, t_step=1e-3, seed=0).statistic
        e4 = r.fd_gradient_check(P, x, trials=20, t_step=1e-4, seed=0).statistic
        assert 50.0 <= e3 / e4 <= 200.0  # second-order decay over one decade
    _report(2, "gradient correctness", time.perf_counter() - t0)


def test_criterion_3_variance_bound(desk_instance):
    t0 = time.perf_counter()
    P = desk_instance
    eps = 0.05
    x0 = P.manifold.random_point(np.random.default_rng(11))
    gap = P.value(x0) - P.f_star
    cfg = params_finite(P.n, eps, gap, P.L_hint, seed=5)
    states = []

    def hook(st):
        if st.k % cfg.q == 7 and len(states) < 10:  # mid-epoch snapshots
            states.append(st)

    spider_nonconvex(P, x0, cfg, on_correction=hook)
    assert len(states) == 10
    for i, st in enumerate(states):
        rep = r.variance_probe(P, st)
        assert rep.statistic <= 2.0 * eps**2, f"state {i}: {rep.statistic}"
    _report(3, "estimator variance bound", time.perf_counter() - t0)


def test_criterion_4_nonconvex_guarantees(desk_instance):
    t0 = time.perf_counter()
    P = desk_instance
    eps, seeds = 0.05, 30
    L = P.L_hint
    grad_sqs, ifo_ok = [], []
    for seed in range(seeds):
        x0 = P.manifold.random_point(np.random.default_rng(1000 + seed))
        gap = P.value(x0) - P.f_star
        cfg = params_finite(P.n, eps, gap, L, seed=seed)
        x_out, trace = spider_nonconvex(P, x0, cfg)
        grad_sqs.append(P._exact_grad(x_out)._sq)
        bound = P.n + 8.0 * gap * L * (3.0 + math.sqrt(P.n)) / eps**2
        ifo_ok.append(trace.meta["ifo"] <= bound)
    assert float(np.mean(grad_sqs)) <= 10.0 * eps**2 * 1.2
    assert all(ifo_ok)
    _report(4, "nonconvex output and oracle cost", time.perf_counter() - t0)


def test_criterion_5_gradient_dominated(desk_instance):
    t0 = time.perf_counter()
    P = desk_instance
    f_star = P.f_star
    tau = r.pl_constant_estimate(P, f_star, 128, seed=0).statistic
    L = P.L_hint
    K, seeds = 5, 20
    for runner, check_ifo in ((spider_gd1, False), (spider_gd2, True)):
        ratios = []
        for seed in range(seeds):
            x0 = P.manifold.random_point(np.random.default_rng(2000 + seed))
            m0 = P.value(x0) - f_star
            cfg = GdConfig(M0=m0, tau=tau, L=L, K=K, seed=seed)
            x, trace = runner(P, x0, cfg)
            ratios.append((P.value(x) - f_star) / m0)
            if check_ifo:
                assert trace.meta["ifo"] <= K * (P.n + 100.0 * L**2 * tau**2)
        assert float(np.mean(ratios)) <= 1.5 * 2.0**-K
    _report(5, "restart linear convergence", time.perf_counter() - t0)


def test_criterion_6_gap_sweep_trend(tmp_path):
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        algo=("rsvrg",),
        d=100,
        n=2000,
        delta_list=tuple(1e-2 / k for k in range(1, 9)),
        seeds=(0, 1, 2, 3, 4),
        epochs=30.0,
        out_path=str(tmp_path / "sweep.csv"),
    )
    res = run_sweep(cfg)
    assert not res.failures
    meds = {}
    for row in res.summary_rows:  # column 5 is the window starting at epoch 10
        meds[float(row[1])] = float(row[5])
    deltas = sorted(meds, reverse=True)
    values = [meds[dl] for dl in deltas]
    nondecreasing = sum(1 for a, b in zip(values, values[1:]) if b >= a)
    assert nondecreasing >= len(values) - 2, values  # >= 7 of 8 gaps in order
    _, _, corr = fit_line([1.0 / dl for dl in deltas], values)
    assert corr >= 0.9, (values, corr)
    _report(6, "epochs-to-double grows linearly with inverse gap",
            time.perf_counter() - t0)


def test_criterion_7_snapshot_vs_normalized_update():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(algo=("rsvrg",), d=100, n=2000, delta_list=(1e-2,),
                           seeds=(3,), epochs=30.0)
    rows_exp = run_sweep(cfg).rows
    rows_ret = run_sweep(dataclasses.replace(cfg, algo=("vrpca",))).rows
    for j in range(5, 31):
        a, b = rows_exp[j].accuracy, rows_ret[j].accuracy
        assert b > 0
        ratio = a / b
        assert 0.5 <= ratio <= 2.0, (j, ratio)
    _report(7, "exponential-map and normalized updates stay close",
            time.perf_counter() - t0)


def test_criterion_8_domination_scaling():
    t0 = time.perf_counter()
    for delta in (1.0, 0.5, 0.25):  # two-dimensional closed form
        lam = np.array([1.0, 1.0 - delta])
        P = r.PcaProblem(np.diag(np.sqrt(2.0 * lam)), spectrum=lam)
        for t in (0.3, math.pi / 4, 1.0):
            x = P.manifold.point([math.cos(t), math.sin(t)])
            rep = r.pl_constant_estimate(P, -1.0, [x])
            closed = 1.0 / (4.0 * delta * math.cos(t) ** 2)
            assert abs(rep.statistic - closed) <= 1e-9
    taus = {}
    for delta in (0.2, 0.1, 0.05):  # empirical constant doubles as the gap halves
        P = r.generate_gap_matrix(r.SyntheticSpec(d=50, n=200, delta=delta, seed=21))
        taus[delta] = r.pl_constant_estimate(P, P.f_star, 256, seed=5).statistic
    for big, small in ((0.2, 0.1), (0.1, 0.05)):
        ratio = taus[small] / taus[big]
        assert 1.6 <= ratio <= 2.4, (big, small, ratio)
    _report(8, "domination constant scales with inverse gap",
            time.perf_counter() - t0)


def test_criterion_9_determinism(tmp_path):
    t0 = time.perf_counter()
    args = [
        "bench", "--algo", "rsvrg,spider", "--d", "20", "--n", "60",
        "--delta-list", "0.2,0.1", "--epochs", "4", "--seeds", "0,1",
        "--eta", "0.02",
    ]
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert cli_main(args + ["--out", str(out1)]) == 0
    assert cli_main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert (
        (tmp_path / "r1.csv.summary.csv").read_bytes()
        == (tmp_path / "r2.csv.summary.csv").read_bytes()
    )
    _report(9, "byte-identical reruns", time.perf_counter() - t0)
