"""Golden digests: the numbers the solvers, the sweep and the probe produce.

Each test hashes exact output (CSV bytes, ``repr`` of every float, raw point
coordinates) and compares it with a digest recorded from a known-good
version. A refactor that is meant to keep behavior must keep every digest;
a change that moves any number, even in the last bit, fails here. The
digests hold for any BLAS thread count at these sizes;
``test_tau_sweeps_hold_with_two_blas_threads`` rechecks the sweeps that
estimate tau on a Gram matrix (a GEMM) with ``OPENBLAS_NUM_THREADS=2``, and
``test_instance_factors_hold_with_two_blas_threads`` checks that the
instances' orthonormal factors have the same bits at one and two threads.

Sweep and solver digests are keyed ``<case>/paired/<map mode>``: every
correction step charges the oracle for both of its evaluations, and the
keys keep naming that accounting so a digest can be traced back to the
recorded history.

To print the current digests after an intended change of behavior, run
``python tests/test_golden.py``.
"""

import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rspider as r
from rspider.bench import ALGORITHMS, ExperimentConfig, run_sweep
from rspider.optim import (
    GdConfig,
    params_finite,
    params_stochastic,
    rsgd,
    rsvrg,
    spider_gd1,
    spider_gd2,
    spider_nonconvex,
)

MAP_MODES = ("exp", "retract")

def _sha(chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c if isinstance(c, bytes) else repr(c).encode())
        h.update(b"\0")
    return h.hexdigest()


def _problem(d=10, n=60, delta=0.4, seed=5):
    return r.generate_gap_matrix(r.SyntheticSpec(d=d, n=n, delta=delta, seed=seed))


def _x0(P, seed):
    return P.manifold.random_point(np.random.default_rng(seed))


# -- sweeps -------------------------------------------------------------------


def sweep_digest(algo, map_mode, tmp_dir) -> str:
    out = f"{tmp_dir}/{algo}-{map_mode}.csv"
    cfg = ExperimentConfig(
        algo=(algo,),
        d=20,
        n=60,
        delta_list=(0.2, 0.1),
        epochs=6.0,
        seeds=(0, 1),
        map_mode=map_mode,
        window=2.0,
        out_path=out,
    )
    res = run_sweep(cfg)
    assert not res.failures
    with open(out, "rb") as fh, open(out + ".summary.csv", "rb") as fs:
        return _sha([fh.read(), fs.read()])


# -- solver traces -------------------------------------------------------------


def _trace_chunks(x, trace):
    yield x.coords.tobytes()
    for rec in trace.records:
        yield (rec.k, rec.epoch, rec.ifo, rec.f, rec.grad_sq, rec.step_dist,
               rec.batch, rec.boundary)


def _gd_config(P, M0, tau, K, map_mode, seed):
    return GdConfig(M0=M0, tau=tau, L=P.L_hint, K=K, seed=seed, map_mode=map_mode)


def trace_digest(solver, map_mode) -> str:
    P = _problem()
    x0 = _x0(P, 3)
    if solver == "spider":
        cfg = params_finite(P.n, 0.04, 1.0, P.L_hint, seed=4, map_mode=map_mode)
        x, trace = spider_nonconvex(P, x0, cfg, checkpoint_every=0.25,
                                    max_ifo=12 * P.n)
    elif solver == "spider-sampled":
        cfg = params_stochastic(0.5, 0.3, 1.0, P.L_hint, seed=4, map_mode=map_mode)
        x, trace = spider_nonconvex(P, x0, cfg, checkpoint_every=0.25,
                                    max_ifo=12 * P.n)
    elif solver == "spider-gd1":
        cfg = _gd_config(P, 0.5, 0.01, 3, map_mode, seed=6)
        x, trace = spider_gd1(P, x0, cfg, checkpoint_every=0.25, max_ifo=12 * P.n)
    elif solver == "spider-gd2":
        cfg = _gd_config(P, 0.02, 0.05, 5, map_mode, seed=6)
        x, trace = spider_gd2(P, x0, cfg, checkpoint_every=0.25)
    elif solver == "rsgd":
        # T crosses two index-block boundaries
        x, trace = rsgd(P, x0, eta=0.01, T=2500, seed=7, map_mode=map_mode,
                        checkpoint_every=0.25)
    else:
        x, trace = rsvrg(P, x0, eta=0.01, epochs=3, inner_len=40, seed=7,
                         map_mode=map_mode, checkpoint_every=0.25)
    return _sha(_trace_chunks(x, trace))


# -- estimator state and the variance probe ------------------------------------


def _frozen_states(solver):
    P = _problem()
    x0 = _x0(P, 8)
    states = []
    if solver.startswith("spider-eps"):
        eps = float(solver[len("spider-eps"):])
        cfg = params_finite(P.n, eps, 1.0, P.L_hint, seed=2)
        spider_nonconvex(P, x0, cfg, max_ifo=20 * P.n, on_correction=states.append)
    else:
        spider_gd2(P, x0, _gd_config(P, 0.02, 0.05, 5, "exp", seed=2),
                   on_correction=states.append)
    return P, states


def frozen_digest(solver) -> str:
    _P, states = _frozen_states(solver)
    return _sha(
        (st.k, st.s2, st.eps, st.x_prev.coords.tobytes(), st.x_curr.coords.tobytes(),
         st.v_prev.coords.tobytes())
        for st in states
    )


def probe_digest(solver) -> str:
    P, states = _frozen_states(solver)
    chunks = []
    for i, st in enumerate(states[:6]):
        rep = r.variance_probe(P, st, resamples=40, seed=i)
        chunks.append((rep.samples, rep.statistic, rep.bound, sorted(rep.details.items())))
    return _sha(chunks)


# -- the recorded digests --------------------------------------------------------

SWEEP_CASES = list(itertools.product(ALGORITHMS, MAP_MODES))
TRACE_CASES = list(itertools.product(
    ("spider", "spider-sampled", "spider-gd1", "spider-gd2", "rsvrg", "rsgd"), MAP_MODES,
))


def _key(case, map_mode) -> str:
    return f"{case}/paired/{map_mode}"


def _ids(cases):
    return [_key(*c).replace("/", "-") for c in cases]


# at eps 0.05 every correction batch stays below n; at 0.04 every one is full
STATE_CASES = ("spider-eps0.05", "spider-eps0.04", "spider-gd2")

SWEEP_GOLDEN = {
    "rsgd/paired/exp": "2918af99ad2298108e9b8cb11bf8b3f8e40141e503344f277bf3addf0bc5db74",
    "rsgd/paired/retract": "0e6253eb2b54c6200f7eda4783043a7f11dda028f20609bda1d0334f86bd1527",
    "rsvrg/paired/exp": "86dd6a7df545614493f87c3ffb2eaee2324aedfd74ddd7d9bd89a3e9ddfc97e9",
    "rsvrg/paired/retract": "dac1626f680974a41bd15f3d96f7f054d811e56e54ef83b4555dc6c464a01666",
    "vrpca/paired/exp": "bb6663b70a3451084d4e69ad0602b07930989998677f3aee868faf0fb454ca69",
    "vrpca/paired/retract": "bb6663b70a3451084d4e69ad0602b07930989998677f3aee868faf0fb454ca69",
    "spider/paired/exp": "bcaa1d08664899848e90500583272d28dbb09b21a8a49cd8f2f0b575f0c7d2ec",
    "spider/paired/retract": "f5d30ff3229810cc6a63a650ee9079968414dc604304ae21add31ad1c108341b",
    "spider-gd1/paired/exp": "643aa9cd935ef956961507a8ddacb406e682e0972b873633f3f68b8930a5e400",
    "spider-gd1/paired/retract": "e02e82abab19ca5e4efcd6333d8bf750435dad692785aab587c4fdf59cdede8a",
    "spider-gd2/paired/exp": "920f92d31fbb8b225730f7da50f83805485ba248d8f23198cf73edc3b3e4b1af",
    "spider-gd2/paired/retract": "0fe477c183e7d53f1ded593d3709878e3050d50bde693c81505278ce886ee6fc",
}
TRACE_GOLDEN = {
    "spider/paired/exp": "63ed116ba8e5aa3ce07b60ec731e2ada046ec0378f6d17c5a9167f7c39b29a8e",
    "spider/paired/retract": "6eb10742fcbe045f63ab1ebdc99fe867a89ad8ca1531e0e4142dfbfd5545f0d1",
    "spider-sampled/paired/exp": "f574c27172e53a26c37620afe485e2594dc5f129f4d75fab5ac01dc74b657e9a",
    "spider-sampled/paired/retract": "f45e1823800b16e06d1b2f8442f0686c3356647f930c9add6b4dd5c21e8b68c4",
    "spider-gd1/paired/exp": "95c0042690421023e10df9dfb81bf460dcbde601660319cb1294918e193cd613",
    "spider-gd1/paired/retract": "94b8d18ca07322cefbab4aa25935f3616bbfec10abdf9b0401dadbbe6b868a15",
    "spider-gd2/paired/exp": "218d4b5d04b97cedb7584c8147e740812c8a396ceaa7fc046bd2ffb822b3d4e3",
    "spider-gd2/paired/retract": "10c8aac2c01f18e47502af96919ac672d5357e8d385aec73bbe483b1b1ef164f",
    "rsvrg/paired/exp": "9c853454d52169d6a61285687e3eca9a4a5ba7c59ee42158382da7d927af139a",
    "rsvrg/paired/retract": "7303965fbc69b63e16e2b93cf2a096b1538616abc54545f89c8d890d3a88e20d",
    "rsgd/paired/exp": "02a23a64916240e68e453c151dcfe08bed31f83867af01f677ac96827bfaa2b8",
    "rsgd/paired/retract": "0d3a1cecb8dff6724443d67dc5ea9ebe9ef324c24fddb846f1b7b8538c2f0f5d",
}
FROZEN_GOLDEN = {
    "spider-eps0.05": "2e6bd45eb7b9153b5bae1c519e9bd7f5a3965a039e2dd9fc6607b49c8f94ea7a",
    "spider-eps0.04": "d398e81dea9d3a09c5564b7dc1c8bb98a9216ef8f23b560ff2d0c8450cc8e88f",
    "spider-gd2": "2a48330c73201a423787bd77f9d0c5f7855b5c7e9b3c429cb7ddf314061a192f",
}
PROBE_GOLDEN = {
    "spider-eps0.05": "4552bd70d01095d525533214253bc9cd4fc907ad7eb0935dcbe7ed356b1db879",
    "spider-eps0.04": "0ca782aa4d8f56b070d3a9650bfd43b87df2e0ece82cc6a3a5dbac0ed95cecdb",
    "spider-gd2": "3c0fec170c8180c9af797b816df54626688971a2f18497654552c2a3fc87eefa",
}


@pytest.mark.parametrize("algo,map_mode", SWEEP_CASES, ids=_ids(SWEEP_CASES))
def test_sweep_csv_and_summary(algo, map_mode, tmp_path):
    got = sweep_digest(algo, map_mode, tmp_path)
    assert got == SWEEP_GOLDEN[_key(algo, map_mode)]


@pytest.mark.parametrize("solver,map_mode", TRACE_CASES, ids=_ids(TRACE_CASES))
def test_solver_trace_records(solver, map_mode):
    got = trace_digest(solver, map_mode)
    assert got == TRACE_GOLDEN[_key(solver, map_mode)]


@pytest.mark.parametrize("solver", STATE_CASES)
def test_frozen_state_stream(solver):
    assert frozen_digest(solver) == FROZEN_GOLDEN[solver]


@pytest.mark.parametrize("solver", STATE_CASES)
def test_variance_probe_statistics(solver):
    assert probe_digest(solver) == PROBE_GOLDEN[solver]


_TAU_CASES = [c for c in SWEEP_CASES if c[0] in ("spider-gd1", "spider-gd2")]
_TWO_THREADS = """
import json, sys, tempfile
sys.path[:0] = sys.argv[1:3]
import test_golden as g
with tempfile.TemporaryDirectory() as tmp:
    print(json.dumps([g.sweep_digest(a, m, tmp) for a, m in g._TAU_CASES]))
"""


def _with_blas_threads(script, threads):
    # the thread count must be set before numpy loads, hence a new process;
    # the script prints its result as JSON on its last line
    here = Path(__file__).resolve().parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    out = subprocess.run(
        [sys.executable, "-c", script, str(here.parent / "src"), str(here)],
        env=env, capture_output=True, text=True, check=True, timeout=600,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_tau_sweeps_hold_with_two_blas_threads():
    got = _with_blas_threads(_TWO_THREADS, 2)
    assert got == [SWEEP_GOLDEN[_key(*c)] for c in _TAU_CASES]


# (d, n, data seed) of the sweep and solver instances above, and of the
# d=10, n=30 sweeps in test_bench.py
_FACTOR_CASES = [(20, 60, ExperimentConfig.data_seed), (10, 60, 5),
                 (10, 30, ExperimentConfig.data_seed)]
_FACTOR_BITS = """
import hashlib, json, sys
sys.path[:0] = sys.argv[1:3]
import test_golden as g
from rspider.oracle import _eigenvector_factors
print(json.dumps([hashlib.sha256(b"".join(f.tobytes() for f in _eigenvector_factors(*c)))
                  .hexdigest() for c in g._FACTOR_CASES]))
"""


def test_instance_factors_hold_with_two_blas_threads():
    # the goldens rely on U and V having the same bits at any thread count
    assert _with_blas_threads(_FACTOR_BITS, 1) == _with_blas_threads(_FACTOR_BITS, 2)


def _current_digests():
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        sweeps = {_key(*c): sweep_digest(*c, tmp) for c in SWEEP_CASES}
    return {
        "SWEEP_GOLDEN": sweeps,
        "TRACE_GOLDEN": {_key(*c): trace_digest(*c) for c in TRACE_CASES},
        "FROZEN_GOLDEN": {s: frozen_digest(s) for s in STATE_CASES},
        "PROBE_GOLDEN": {s: probe_digest(s) for s in STATE_CASES},
    }


def _print_digests():
    # prints the tables to paste over the recorded ones, then the keys that
    # differ from the recorded digests (the list an intended change declares)
    differ, total = [], 0
    for name, digests in _current_digests().items():
        recorded = globals()[name]
        print(f"{name} = {{")
        for key, digest in digests.items():
            print(f'    "{key}": "{digest}",')
            total += 1
            if recorded.get(key) != digest:
                differ.append(f"{name}[{key}]")
        print("}")
    print(f"# {len(differ)} of {total} recorded digests differ")
    for key in differ:
        print(f"#   {key}")


if __name__ == "__main__":
    _print_digests()
