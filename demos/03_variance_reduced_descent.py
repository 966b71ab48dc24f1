#!/usr/bin/env python3
"""The recursive variance-reduced solver on a desk-scale instance.

Shows both parameter schedules (finite-sum and sample-only), the run trace
with exact oracle accounting, and a mid-run probe of the correction
estimator's variance against its analytic budget.
"""

import numpy as np

import rspider as r
from rspider.optim import params_finite, params_stochastic, spider_nonconvex

P = r.generate_gap_matrix(r.SyntheticSpec(d=20, n=200, delta=0.5, seed=7))
x0 = P.manifold.random_point(np.random.default_rng(11))
gap0 = P.value(x0) - P.f_star
print(f"instance d={P.d}, n={P.n}; initial optimality gap {gap0:.4f}")

# finite-sum schedule: full-gradient anchors every ceil(sqrt(n)) steps
eps = 0.05
cfg = params_finite(P.n, eps, gap0, P.L_hint)
print(f"\nfinite-sum schedule: eta={cfg.eta:.4f}, q={cfg.q}, S1={cfg.S1}, T={cfg.T}")

states = []
x_out, trace = spider_nonconvex(
    P, x0, cfg, seed=5, checkpoint_every=100.0,
    on_correction=lambda st: states.append(st) if st.s2 < P.n and len(states) < 3 else None,
)
print(f"{'epoch':>7} {'calls':>8} {'f':>12} {'|grad|^2':>11} {'batch':>6}")
for rec in trace.records:
    if rec.boundary is not None and rec.boundary % 500 == 0:
        print(f"{rec.epoch:7.2f} {rec.ifo:8d} {rec.f:12.8f} {rec.grad_sq:11.2e} {rec.batch:6d}")
f_out, g_sq = P._probe(x_out)  # uncharged
print(f"returned (randomized) iterate: f = {f_out:.8f}, |grad|^2 = {g_sq:.2e}")
print(f"oracle calls {trace.meta['ifo']} = anchors {trace.meta['ifo_breakdown']['anchor']}"
      f" + corrections {trace.meta['ifo_breakdown']['correction']}")

# the correction estimator's conditional variance stays within its budget
print(f"\nvariance probe at mid-epoch states (budget 2 eps^2 = {2 * eps**2}):")
for st in states:
    rep = r.variance_probe(P, st)
    print(f"  step {st.k:4d}: batch {st.s2:3d}, statistic {rep.statistic:.2e}, "
          f"pass={rep.passed}")

# sample-only schedule: anchors re-draw S1 components instead of enumerating
sigma_sq = 2.0 * r.variance_bound_estimate(P, x0)  # safety factor 2
scfg = params_stochastic(sigma_sq, 0.2, gap0, P.L_hint)
print(f"\nsample-only schedule (2 sigma^2 = {sigma_sq:.3f}): "
      f"S1={scfg.S1}, q={scfg.q}, T={scfg.T}")
x_sto, st_trace = spider_nonconvex(P, x0, scfg, seed=6, max_ifo=40 * P.n)
print(f"after {st_trace.meta['ifo']} calls: f = {P.value(x_sto):.6f} "
      f"(started at {P.value(x0):.6f})")
