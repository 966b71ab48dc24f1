#!/usr/bin/env python3
"""Synthetic leading-eigenvector instances with a controlled eigengap.

Builds Z = U D V^T from a seed, checks the spectrum of A = (1/n) Z Z^T
against the target, recovers the ground truth from one symmetric
eigendecomposition of A, and shows the oracle-call accounting plus the
binary dump round trip.
"""

import tempfile
from pathlib import Path

import numpy as np

import rspider as r

spec = r.SyntheticSpec(d=12, n=60, delta=0.25, seed=2024)
P = r.generate_gap_matrix(spec)
A = P.Z @ P.Z.T / P.n
evals = np.sort(np.linalg.eigvalsh(A))[::-1]

print(f"instance: d={spec.d}, n={spec.n}, eigengap delta={spec.delta}, seed={spec.seed}")
print(f"target spectrum head : {np.round(P.spectrum[:5], 6)}")
print(f"actual spectrum head : {np.round(evals[:5], 6)}")
print(f"max eigenvalue error : {np.abs(evals - P.spectrum).max():.2e}")

lam1, x_star = r.leading_eigpair(P)
print(f"\neigendecomposition   : lambda_1 = {lam1:.12f}")
print(f"objective at optimum : f(x*) = {P.value(x_star):.12f}  (known f* = {P.f_star})")

# gradient access is metered; values are free
# (the counter only grows, so calls are read as deltas from a first reading)
x = P.manifold.random_point(np.random.default_rng(0))
calls0 = P.counter.calls
P.value(x)
print(f"\ncalls after value          : {P.counter.calls - calls0}")
P.component_rgrad(3, x)
print(f"calls after one component  : {P.counter.calls - calls0}")
P.minibatch_rgrad([0, 5, 5, 9], x)
print(f"calls after a 4-batch      : {P.counter.calls - calls0}")
P.full_rgrad(x)
print(f"calls after a full gradient: {P.counter.calls - calls0}  (+n = {P.n})")

sigma_sq = r.variance_bound_estimate(P, x)
print(f"\ngradient variance at x0: {sigma_sq:.4f} "
      f"(counter untouched: {P.counter.calls - calls0})")

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "instance.rspd"
    r.save_problem(P, path)
    Q = r.load_problem(path)
    print(f"\nbinary dump round trip: {path.stat().st_size} bytes, "
          f"Z identical: {np.array_equal(P.Z, Q.Z)}")
