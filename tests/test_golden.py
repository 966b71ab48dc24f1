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
two threads. ``test_off_pca_trace_records`` pins spider and rsvrg on the two
row-kernel problems of ``problems.py`` (a chordal mean on the sphere, least
squares on R^d), the goldens that do not run ``PcaProblem``.

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
from problems import chordal_mean_problem, least_squares_problem

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


# the two row-kernel problems of problems.py: a chordal mean on the sphere and
# least squares on R^d, whose iterates leave the unit sphere
OFF_PCA_PROBLEMS = {"chordal-mean": chordal_mean_problem,
                    "least-squares": least_squares_problem}


def off_pca_digest(solver, problem, map_mode) -> str:
    P = OFF_PCA_PROBLEMS[problem]()
    n, L = P.n, P.L_hint
    x0 = P.manifold.point(np.random.default_rng(1).standard_normal(P.manifold.d))
    kw = dict(max_ifo=20 * n, checkpoint_every=0.5)
    if solver == "spider":
        f0 = P.value(x0)
        cfg = params_finite(n, 0.05, f0, L, seed=2, map_mode=map_mode)
        x, trace = spider_nonconvex(P, x0, cfg, **kw)
    else:
        x, trace = rsvrg(P, x0, eta=0.1 / L, epochs=5, seed=2, map_mode=map_mode, **kw)
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
    for st in states[:6]:
        rep = r.variance_probe(P, st)
        chunks.append((rep.samples, rep.statistic, rep.bound, sorted(rep.details.items())))
    return _sha(chunks)


# -- the recorded digests --------------------------------------------------------

SWEEP_CASES = list(itertools.product(ALGORITHMS, MAP_MODES))
TRACE_CASES = list(itertools.product(
    ("spider", "spider-subsampled", "spider-sampled", "spider-gd1", "spider-gd2", "rsvrg",
     "rsgd"),
    MAP_MODES,
))

OFF_PCA_CASES = [(f"{s}/{p}", m) for s, p, m in itertools.product(
    ("spider", "rsvrg"), OFF_PCA_PROBLEMS, MAP_MODES)]


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
    "spider/paired/exp": "15908e6dd931a1d55595635470d56dde9b920fd3e9c882ad13acf26d9a4abcd6",
    "spider/paired/retract": "2c917162215937faedbcb2d07625f5919620e4cda670e75e8a15852bcdbb6e23",
    "spider-gd1/paired/exp": "cd8bd1d5b8f215291bd763d5897cce2208cc6f708763e87b010ea76301381b8a",
    "spider-gd1/paired/retract": "e35a036c891026977624ec3509b7df2a0dd4b92f23a3743c23694f8f63cda4b4",
    "spider-gd2/paired/exp": "0e6c31adf4ec5a37c632e907714a814ace0bba86e63bf5c743b4f8db82dc326d",
    "spider-gd2/paired/retract": "2dc070d453eb4650d6dd7fe55a9ac1e49aa9726433eb31bdd5dbd132c6cbd8ba",
}
TRACE_GOLDEN = {
    "spider/paired/exp": "431535bce077735cf7197ab91fa87e670bae323fd4ac86e73fdccf25926f7204",
    "spider/paired/retract": "f196033ac94b246811424b99ed55d527ba86400db6bc124a6b8c6a5928e64de0",
    "spider-subsampled/paired/exp": "6a335b0dabb07b02937346a041d104eaaaa0c48c3018bf577cd4bd7c0e1e87ef",
    "spider-subsampled/paired/retract": "316ef17a84ca98af628f707ebdd91efe3cf09fbdf97826f639aefc72c712d658",
    "spider-sampled/paired/exp": "8a5f4574342087e77d94e67370a84eb9cdc556e96be87c9ff1ba959d0b365a5b",
    "spider-sampled/paired/retract": "98ca8fadf7a8e2c4d4f0adef89424bdc95e24ddc59b1a8863423ee1f90db335d",
    "spider-gd1/paired/exp": "bb7af15e00efc86d5f113b5feb86f6c0bb3264c11451f92a287c417e4722b027",
    "spider-gd1/paired/retract": "806e838a9899934170cea5f0a3c61e10ec59e2eaa821181a78679760c0e51a5e",
    "spider-gd2/paired/exp": "4e15a08761fb1eb114736e94baf39eeffa7fdd3f1a67114633f28650b9a639b6",
    "spider-gd2/paired/retract": "9324d9860d50daae0c063367a94e32ed165c5b0a64432d173ffffb7896cb5c50",
    "rsvrg/paired/exp": "c52a793c9da2eb596ef3eeddef487000541cbc50346e127ce48f7b69fe06ec7e",
    "rsvrg/paired/retract": "acdae3bbdde91856dfb3d8b403b0cf180f4f1d3f3ff13ec0758330eaad3470c1",
    "rsgd/paired/exp": "1276f5914977152edecdfb0e624c80ab68cfab031ad1184474701ad505a55567",
    "rsgd/paired/retract": "11ba6c040d824e52c54d73e73efe3bff3d11c0cc7437661355848fd26c74f682",
}
OFF_PCA_GOLDEN = {
    "spider/chordal-mean/paired/exp": "48ec486f7ccd6af14e899b62c7a954d93965b988bf35f563dd0e975857d162da",
    "spider/chordal-mean/paired/retract": "b22fac13d88cace898b185343cc0346c37b815184997ba09263cba571c977f83",
    "spider/least-squares/paired/exp": "07e2a77faa63a1fe200a7d57c6b8530775892916518b1bf5647782d9e81609c5",
    "spider/least-squares/paired/retract": "855fb5a0baf8fda5281b6b434bde04466452c867c94601ea35707344fa1e9baf",
    "rsvrg/chordal-mean/paired/exp": "7c1e5b65a37c0922f9809148ee3539d9990abd49e60038e0d76c7c2e54dde477",
    "rsvrg/chordal-mean/paired/retract": "9e1493dc3ed33cc59e1aa75f50e4fb919f87f45144fd6e203bbac38efc0042e5",
    "rsvrg/least-squares/paired/exp": "994eafa7920e13549a73e3628bbfcd67383d761f0d6a607e5a27160a2ce69d3e",
    "rsvrg/least-squares/paired/retract": "624b9ad40fea39871154ac3740809050f19aad65f42d58bf1581d7e7cae96bc3",
}
FROZEN_GOLDEN = {
    "spider-eps0.05": "651b5ec585333f893ac2910f4da60f06aba3e6c1979d44eb568c300df18e7004",
    "spider-eps0.04": "3cefc7e3547e0e42e5443a2888e444072d4646d319cebd97bc55168bd3173f7e",
    "spider-gd2": "ba87cc0f077197a776e5f72130059509c05fa302218e614b399568ef45d1c020",
}
PROBE_GOLDEN = {
    "spider-eps0.05": "80f7a92ebd6e97658dc686ad6f6a130fe0ba4c84c9a801eefb3983275a6697a5",
    "spider-eps0.04": "36b9c7249dbd36de6f04a65e87bba63f3624213d6b866c65c5a1a5893dd4d04e",
    "spider-gd2": "86e05e4802c402f6bf9d562653f2d4cb24c05e1069f37e3d12d42b3e91c51ee1",
}


@pytest.mark.parametrize("algo,map_mode", SWEEP_CASES, ids=_ids(SWEEP_CASES))
def test_sweep_csv_and_summary(algo, map_mode, tmp_path):
    got = sweep_digest(algo, map_mode, tmp_path)
    assert got == SWEEP_GOLDEN[_key(algo, map_mode)]


@pytest.mark.parametrize("solver,map_mode", TRACE_CASES, ids=_ids(TRACE_CASES))
def test_solver_trace_records(solver, map_mode):
    got = trace_digest(solver, map_mode)
    assert got == TRACE_GOLDEN[_key(solver, map_mode)]


@pytest.mark.parametrize("case,map_mode", OFF_PCA_CASES, ids=_ids(OFF_PCA_CASES))
def test_off_pca_trace_records(case, map_mode):
    got = off_pca_digest(*case.split("/"), map_mode)
    assert got == OFF_PCA_GOLDEN[_key(case, map_mode)]


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
PROBE_OUTPUT_GOLDEN = "d5cbc3fa2ac9add917614d30407705c56a1771b0a733f68865191a95ce9bb941"
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
        "OFF_PCA_GOLDEN": {_key(c, m): off_pca_digest(*c.split("/"), m)
                           for c, m in OFF_PCA_CASES},
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
