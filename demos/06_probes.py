#!/usr/bin/env python3
"""Diagnostic probes: checking the assumptions the solvers rely on.

Every probe evaluates the objective without charging the oracle counter and
serializes to the flat key=value block that gets appended to run logs.
"""

import numpy as np

import rspider as r
from rspider.optim import rsvrg

P = r.generate_gap_matrix(r.SyntheticSpec(d=15, n=90, delta=0.4, seed=9))
x = P.manifold.random_point(np.random.default_rng(2))

# gradients against geodesic central differences (error decays as t^2)
rep = r.fd_gradient_check(P, x, trials=40, t_step=1e-6, seed=0)
print(rep.to_text())

# empirical gradient-Lipschitz constant vs the certified hint
rep = r.smoothness_probe(P, pairs=80, radius=0.6, seed=1)
print(rep.to_text())

# gradient-domination constant around the optimum
rep = r.pl_constant_estimate(P, P.f_star, 128, seed=2)
print(rep.to_text())

# rate statistic from a run trace: epochs to double the accuracy
x0 = P.manifold.random_point(np.random.default_rng(5))
_, trace = rsvrg(P, x0, eta=0.02, epochs=20, seed=3, max_ifo=30 * P.n)
series = r.epochs_to_double(trace, P.f_star, window=5.0)
print("epochs_to_double per window:")
for epoch, est in series[: 10]:
    print(f"  window starting at epoch {epoch:5.2f}: {est:.2f}")
