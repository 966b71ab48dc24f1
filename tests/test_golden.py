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
``test_probe_command_output`` hashes the ``rspider probe`` report at one and
two threads.

Sweep and solver digests are keyed ``<case>/paired/<map mode>``: every
correction step charges the oracle for both of its evaluations, and the
keys keep naming that accounting so a digest can be traced back to the
recorded history.

To print the current digests after an intended change of behavior, run
``python tests/test_golden.py``.
"""

import dataclasses
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
    elif solver == "spider-subsampled":
        # finite-sum mode with drawn anchors (S1 < n); corrections are both
        # drawn and full passes
        cfg = dataclasses.replace(
            params_finite(P.n, 0.1, 1.0, P.L_hint, seed=4, map_mode=map_mode), S1=P.n // 4,
        )
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
    ("spider", "spider-subsampled", "spider-sampled", "spider-gd1", "spider-gd2", "rsvrg",
     "rsgd"),
    MAP_MODES,
))


def _key(case, map_mode) -> str:
    return f"{case}/paired/{map_mode}"


def _ids(cases):
    return [_key(*c).replace("/", "-") for c in cases]


# at eps 0.05 every correction batch stays below n; at 0.04 every one is full
STATE_CASES = ("spider-eps0.05", "spider-eps0.04", "spider-gd2")

SWEEP_GOLDEN = {
    "rsgd/paired/exp": "b47ed3071ade91e4bce11f6f469713412d8a8577e71ad54db0a2e00f42bb09ea",
    "rsgd/paired/retract": "3822d5d096fb634cd4b5cc429c3d41908aeba8f19930622053a77e93377246eb",
    "rsvrg/paired/exp": "db75c1b163a347fb97a25578a4a88af45f31d256d34a53f27f69791ec71f7c15",
    "rsvrg/paired/retract": "7e59286becfbbee047e91b9f84869008e45c554417d52277a0a575838c08661f",
    "vrpca/paired/exp": "87164ca52e240c09859bd25ba856c054aac9b6a65bda81b7636dfc31686fe3d6",
    "vrpca/paired/retract": "87164ca52e240c09859bd25ba856c054aac9b6a65bda81b7636dfc31686fe3d6",
    "spider/paired/exp": "17bfca36a8a85c111944845ac57019c4fab75bbc4841f16709f8c206112e9972",
    "spider/paired/retract": "bda048a68684c330127f49d2685d565155fdf091879b66d53215e11c6d219fb4",
    "spider-gd1/paired/exp": "048a190aa5e980fe6985aded75943bb2c69c99c9b5ae5ddee6717ee53fc0be68",
    "spider-gd1/paired/retract": "99064faeb3a6fa9741c1671a8af2d764af1f45d4f5fa88a841fabb22d2eac9b6",
    "spider-gd2/paired/exp": "0e6c31adf4ec5a37c632e907714a814ace0bba86e63bf5c743b4f8db82dc326d",
    "spider-gd2/paired/retract": "2dc070d453eb4650d6dd7fe55a9ac1e49aa9726433eb31bdd5dbd132c6cbd8ba",
}
TRACE_GOLDEN = {
    "spider/paired/exp": "2efc51427bc9b82662f568f26a80bf6efe4bceec723cb960e504edc7e136f547",
    "spider/paired/retract": "5e65b27f37498c0a978d1cb0240286918949c9db226e2cd664d9bf35d29c4003",
    "spider-subsampled/paired/exp": "e5eb1c961a0cc295509e58171bba7f2c8608dd9f132ba508ed49dba588716101",
    "spider-subsampled/paired/retract": "e73d501ebf53643363a4881a9fd9d0797943c2c2af22280d3b35f292f181dc09",
    "spider-sampled/paired/exp": "1c6105a2c5bad97e57f040bbc4730feb2d33f8d78d7b9f6e3b8ff0f12d1f46d3",
    "spider-sampled/paired/retract": "00976c318c352d71140a809b2fc6bae76887b203adf82ceb0d5802a33d1eb887",
    "spider-gd1/paired/exp": "44d9beeaa8b530bf9c92dc068665db4c35aa0807b32bb0d274f0cffdd53ee28e",
    "spider-gd1/paired/retract": "b41e608df9c647cd02cf78e80ab178ea006e365e0152b6ec6e6585795444ae44",
    "spider-gd2/paired/exp": "4e15a08761fb1eb114736e94baf39eeffa7fdd3f1a67114633f28650b9a639b6",
    "spider-gd2/paired/retract": "9324d9860d50daae0c063367a94e32ed165c5b0a64432d173ffffb7896cb5c50",
    "rsvrg/paired/exp": "c52a793c9da2eb596ef3eeddef487000541cbc50346e127ce48f7b69fe06ec7e",
    "rsvrg/paired/retract": "acdae3bbdde91856dfb3d8b403b0cf180f4f1d3f3ff13ec0758330eaad3470c1",
    "rsgd/paired/exp": "1276f5914977152edecdfb0e624c80ab68cfab031ad1184474701ad505a55567",
    "rsgd/paired/retract": "11ba6c040d824e52c54d73e73efe3bff3d11c0cc7437661355848fd26c74f682",
}
FROZEN_GOLDEN = {
    "spider-eps0.05": "6d66e7c5677aa8d27f7e1d44fef3da4a547f60a84f32566affc550621b9573cd",
    "spider-eps0.04": "3cefc7e3547e0e42e5443a2888e444072d4646d319cebd97bc55168bd3173f7e",
    "spider-gd2": "ba87cc0f077197a776e5f72130059509c05fa302218e614b399568ef45d1c020",
}
PROBE_GOLDEN = {
    "spider-eps0.05": "ef7940dd2763d33df5c3d4792cb9eda0fafb46d79e86034f7684fec507e44fe3",
    "spider-eps0.04": "0ca782aa4d8f56b070d3a9650bfd43b87df2e0ece82cc6a3a5dbac0ed95cecdb",
    "spider-gd2": "3e4aa04cd4d8c6307f40a97b804554588d17494603b2d506f78ab5110d977a5f",
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


# the README quick-start instance; tau's walk and the probe values run on
# the Gram matrix (a GEMM) and its one symmetric eigendecomposition
PROBE_ARGS = ["probe", "--d", "20", "--n", "200", "--delta", "0.5", "--seed", "1"]
PROBE_OUTPUT_GOLDEN = "6951d0ec87e77318415d78921ec90baa3a31e4cdfdd8e4c1e5146cb382face94"
_PROBE_OUTPUT = """
import contextlib, hashlib, io, json, sys
sys.path[:0] = sys.argv[1:3]
import test_golden as g
from rspider.bench import cli_main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    assert cli_main(g.PROBE_ARGS) == 0
print(json.dumps(hashlib.sha256(out.getvalue().encode()).hexdigest()))
"""


@pytest.mark.parametrize("threads", [1, 2])
def test_probe_command_output(threads):
    assert _with_blas_threads(_PROBE_OUTPUT, threads) == PROBE_OUTPUT_GOLDEN


# (d, n, data seed) of the sweep and solver instances above, of the
# d=10, n=30 sweeps in test_bench.py, and the two larger sizes README lists
# as thread-invariant
_FACTOR_CASES = [(20, 60, ExperimentConfig.data_seed), (10, 60, 5),
                 (10, 30, ExperimentConfig.data_seed), (20, 200, 0), (50, 500, 0)]
_FACTOR_BITS = """
import hashlib, json, sys
sys.path[:0] = sys.argv[1:3]
import test_golden as g
from rspider.oracle import SyntheticSpec, _eigenvector_factors, _problem_from_factors
digests = []
for d, n, seed in g._FACTOR_CASES:
    factors = _eigenvector_factors(d, n, seed)
    lam = SyntheticSpec(d=d, n=n, delta=0.1, seed=seed).target_spectrum()
    rows = _problem_from_factors(lam, *factors, seed)._rows
    digests.append(hashlib.sha256(b"".join(f.tobytes() for f in (*factors, rows)))
                   .hexdigest())
print(json.dumps(digests))
"""


def test_instance_factors_hold_with_two_blas_threads():
    # the goldens rely on the factors (U, q, m) and the instance rows built
    # from them, q @ (m @ (U D)^T), having the same bits at any thread count
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
