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
    "rsgd/paired/exp": "137f0bfd7baa02e4fe180611579a3f2729a5302badf21a3d301f600b38866663",
    "rsgd/paired/retract": "30676d3ea9224fd57304e4828a9a431804657a6d2d4568a4ec51944d28f5a4f9",
    "rsvrg/paired/exp": "47cd93fd8bca929e0e37d97a77c1ae881305f24dd6d408d1818044c789c64fea",
    "rsvrg/paired/retract": "522f0eac2807a2c4d09e07cdbe5edeed1459090da47b420b064491e4fddf8bd7",
    "vrpca/paired/exp": "52dcdabeb3e58fac653437f9035c7d617d9d18f04961dcf8f43650c5e378463d",
    "vrpca/paired/retract": "52dcdabeb3e58fac653437f9035c7d617d9d18f04961dcf8f43650c5e378463d",
    "spider/paired/exp": "77aac682107ac5472f7fd46c5e7305ce94b64f40651670fd9fe21e0ceb9a6c40",
    "spider/paired/retract": "32d9030e01996e288721d874001e66ba343de58d07d00eee62ed617680aa4b34",
    "spider-gd1/paired/exp": "9135a82f4e4c56f7135857bcaa31351095637807906b66bb5d7633e1bd61bf06",
    "spider-gd1/paired/retract": "b4e24e51e7cc2787ce0d2cfc73e046de50fb0fcddb6b58935df5188638ef0ded",
    "spider-gd2/paired/exp": "299244a3aeac3cedec7a78eb94a2df4e72a517a0a1e4e8c2d5e2f647c4365e77",
    "spider-gd2/paired/retract": "fb8659e34aacd763ecaf337e4346319696bc7ef87b6f6479e17f21d261e6f771",
}
TRACE_GOLDEN = {
    "spider/paired/exp": "1f1449f0816e86a1967b9d1d3821399eb4982b6e4475c5a27c6de85389855dc7",
    "spider/paired/retract": "25a539f91ea85217cbecc5bdd48dc236cbca0d2812795891ef80286758fbba1e",
    "spider-subsampled/paired/exp": "6a88123d9c06c010b6e7af173d80611fab79d07f0c41ba999ef70ab2a92ff7f6",
    "spider-subsampled/paired/retract": "9630fe08ab6200dec294525066f784e30791ed3f295bd2649b49b3f29758cfbb",
    "spider-sampled/paired/exp": "56bf20a3fc54fa9f275127974677cfff828360e7fc3c2c15d6caf5a8b427a051",
    "spider-sampled/paired/retract": "f87a0f2aabb0e1dedb996255395a205465938023dd108dac7465fcfbaac3b99f",
    "spider-gd1/paired/exp": "adae289e527726361f7d9f06bc38af505da943a3d082b90496567f5c102765b0",
    "spider-gd1/paired/retract": "a1b87781ab53f9f7b286dd769a25644b691fa333aeb996fa26e7b79f03b8fd52",
    "spider-gd2/paired/exp": "eff66733defbc04df9d19de82706f8072d8b20c42c198ee5330943fbd393bfd1",
    "spider-gd2/paired/retract": "561f7f0c7f9c0c04998efca833953c42fb04a7db38d8c665ab22eb73d9bd6bbc",
    "rsvrg/paired/exp": "0190c2d1fe8e3e00b6922e11d021a586042da0b03dd4048933b30a7e071838ca",
    "rsvrg/paired/retract": "295d5d5469511b3751fe8428fcf4f8ebd237d83c8bb07348a0d33ee47a9178f9",
    "rsgd/paired/exp": "12496f79775445b2c19a0126ea6cee7545bb5c2d87e75e62c9cdd2fc29c1937d",
    "rsgd/paired/retract": "75de1b358e5b635be933e14a1d4310b11d3942c9c81116c139207e2d20b96041",
}
OFF_PCA_GOLDEN = {
    "spider/chordal-mean/paired/exp": "48ec486f7ccd6af14e899b62c7a954d93965b988bf35f563dd0e975857d162da",
    "spider/chordal-mean/paired/retract": "4e910cd10707043ed469cdece22470453425bc2d0643ee4a4cb841767bf82f91",
    "spider/least-squares/paired/exp": "07e2a77faa63a1fe200a7d57c6b8530775892916518b1bf5647782d9e81609c5",
    "spider/least-squares/paired/retract": "855fb5a0baf8fda5281b6b434bde04466452c867c94601ea35707344fa1e9baf",
    "rsvrg/chordal-mean/paired/exp": "7c1e5b65a37c0922f9809148ee3539d9990abd49e60038e0d76c7c2e54dde477",
    "rsvrg/chordal-mean/paired/retract": "452c00c696e8e0e3c018545b3b1970ccf754a23ff76e756f1fd3a5312a7d955c",
    "rsvrg/least-squares/paired/exp": "994eafa7920e13549a73e3628bbfcd67383d761f0d6a607e5a27160a2ce69d3e",
    "rsvrg/least-squares/paired/retract": "624b9ad40fea39871154ac3740809050f19aad65f42d58bf1581d7e7cae96bc3",
}
FROZEN_GOLDEN = {
    "spider-eps0.05": "bffa914c1423e69bbda433705409fd3640902de0b15b90486ee484024b56c25b",
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
PROBE_OUTPUT_GOLDEN = "2714cbba533f4c9c3acfa5a0193cbbbff8d74a3bff534c2e07bafc7c52f1733a"
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
