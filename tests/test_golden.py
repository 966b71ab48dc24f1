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


def _gd_config(P, M0, tau, K):
    return GdConfig(M0=M0, tau=tau, L=P.L_hint, K=K)


def trace_digest(solver, map_mode) -> str:
    P = _problem()
    x0 = _x0(P, 3)
    kw = dict(map_mode=map_mode, checkpoint_every=0.25)
    spider = dict(seed=4, max_ifo=12 * P.n, **kw)
    if solver == "spider":
        cfg = params_finite(P.n, 0.04, 1.0, P.L_hint)
        x, trace = spider_nonconvex(P, x0, cfg, **spider)
    elif solver == "spider-subsampled":
        # finite-sum mode with drawn anchors (S1 < n); corrections are both
        # drawn and full passes
        cfg = dataclasses.replace(params_finite(P.n, 0.1, 1.0, P.L_hint), S1=P.n // 4)
        x, trace = spider_nonconvex(P, x0, cfg, **spider)
    elif solver == "spider-sampled":
        cfg = params_stochastic(0.5, 0.3, 1.0, P.L_hint)
        x, trace = spider_nonconvex(P, x0, cfg, **spider)
    elif solver == "spider-gd1":
        cfg = _gd_config(P, 0.5, 0.01, 3)
        x, trace = spider_gd1(P, x0, cfg, seed=6, max_ifo=12 * P.n, **kw)
    elif solver == "spider-gd2":
        cfg = _gd_config(P, 0.02, 0.05, 5)
        x, trace = spider_gd2(P, x0, cfg, seed=6, **kw)
    elif solver == "rsgd":
        # T crosses two index-block boundaries
        x, trace = rsgd(P, x0, eta=0.01, T=2500, seed=7, **kw)
    else:
        x, trace = rsvrg(P, x0, eta=0.01, epochs=3, inner_len=40, seed=7, **kw)
    return _sha(_trace_chunks(x, trace))


# the two row-kernel problems of problems.py: a chordal mean on the sphere and
# least squares on R^d, whose iterates leave the unit sphere
OFF_PCA_PROBLEMS = {"chordal-mean": chordal_mean_problem,
                    "least-squares": least_squares_problem}


def off_pca_digest(solver, problem, map_mode) -> str:
    P = OFF_PCA_PROBLEMS[problem]()
    n, L = P.n, P.L_hint
    x0 = P.manifold.point(np.random.default_rng(1).standard_normal(P.manifold.d))
    kw = dict(seed=2, map_mode=map_mode, max_ifo=20 * n, checkpoint_every=0.5)
    if solver == "spider":
        f0 = P.value(x0)
        cfg = params_finite(n, 0.05, f0, L)
        x, trace = spider_nonconvex(P, x0, cfg, **kw)
    else:
        x, trace = rsvrg(P, x0, eta=0.1 / L, epochs=5, **kw)
    return _sha(_trace_chunks(x, trace))


# -- estimator state and the variance probe ------------------------------------


def _frozen_states(solver):
    P = _problem()
    x0 = _x0(P, 8)
    states = []
    if solver.startswith("spider-eps"):
        eps = float(solver[len("spider-eps"):])
        cfg = params_finite(P.n, eps, 1.0, P.L_hint)
        spider_nonconvex(P, x0, cfg, seed=2, max_ifo=20 * P.n, on_correction=states.append)
    else:
        spider_gd2(P, x0, _gd_config(P, 0.02, 0.05, 5), seed=2, on_correction=states.append)
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
    "rsgd/paired/exp": "8331f6c330afb15d523b0fe76af057abb469690443625171aa4deee56465c4f1",
    "rsgd/paired/retract": "9abad3e676c012e0561b2aced32e6f5a7e927eec89b80310885596a68477fef8",
    "rsvrg/paired/exp": "5ea9795215f89450c9fc97608bb32f5e4c3be9f633528045b6e6bc43fa90ad59",
    "rsvrg/paired/retract": "080e8a5c1818a11a4fd43afe91779acc6e507ea9f61ba90edc1397c9b7478ce3",
    "vrpca/paired/exp": "0a0d2c252c5a058842b585a8daed77471d513ee4b5b3166f3a982a2ea3883c80",
    "vrpca/paired/retract": "0a0d2c252c5a058842b585a8daed77471d513ee4b5b3166f3a982a2ea3883c80",
    "spider/paired/exp": "6dfe8c83692f0d0fa3bd69c04fa26ec31b95f1466c725f1b0779c2ac3642c938",
    "spider/paired/retract": "972fddcff8acf30f5c7ff34ce7f14ae6a32f75fedeca9f41f65688fcf9e1faf7",
    "spider-gd1/paired/exp": "46c1498146d7e3467647afc3bb4188024d7b26de977e8e4bd9a09cc245217f78",
    "spider-gd1/paired/retract": "774d5c11272e0bc1ba57a57cf3d9ab3c3ccef2afa5fd0b06dfdf16e0f0047596",
    "spider-gd2/paired/exp": "97268bac3ef953fb7dfc29480825573850639037de04610612da6466be6aa97a",
    "spider-gd2/paired/retract": "30c4bb24321bab15806f641dd17e19f2d4e19f57524c2831d346ffcde46a9f09",
}
TRACE_GOLDEN = {
    "spider/paired/exp": "d0098ab2ebaa4af72127c4f03307aca8bb1ee193f9d0f1992ca3de7c4ef98cbf",
    "spider/paired/retract": "031632b625fb7b730877f0f7d98add9b28f0934a853c9da1ea4e7c3ed7006df4",
    "spider-subsampled/paired/exp": "66a607c958c81da7dd70351e9ef9bf1d2e99611cec76ec576bb003b0e55d5841",
    "spider-subsampled/paired/retract": "0d15622896c5dba6e7cafbd65aa48eb6454126254b81fcea234b49fe468bf855",
    "spider-sampled/paired/exp": "ed655134808d8b421d8d2202003527ed6ba3c5f142d332f4e2dceb87f9b57a4e",
    "spider-sampled/paired/retract": "93fe4c8b24440de8d81d9de01a7fff52ac3fc2d030fcea8dfc1456efaf4de798",
    "spider-gd1/paired/exp": "f41a81913c443e51173a0131437044adf7d4a9287e0c673331079f04614ccca0",
    "spider-gd1/paired/retract": "05d6182852846af34ded4da8c0ed00a7a4d48c12f311e6f460f711b383a1e4c7",
    "spider-gd2/paired/exp": "c2b4a635885da61fd62f4ff9640d8ae86fa5f6cf025680a6177446e98ca9911f",
    "spider-gd2/paired/retract": "6c310ffa7303563e79160f8d02465630351a1e37e626ba8cb9b465f20ab4548b",
    "rsvrg/paired/exp": "4ad96bde002899041177aa45e09688992677abc47bd239565d541b0e98d9b334",
    "rsvrg/paired/retract": "d27f49ff43ad5461ec767078cf156fbf6060477896fdee71b439e52f7af9082b",
    "rsgd/paired/exp": "10e7834879477ff89d556f7000a420e5a1db524d1903a6745f97bb35a4b234e5",
    "rsgd/paired/retract": "da1e85aa77a55f2feedd4c4abde3f9da685e76d66f032fdaa8e442333deb2b5b",
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
    "spider-eps0.05": "1a19d16a7d4247b80fc39006462e19184c24e5b20b418e8a7935177951624619",
    "spider-eps0.04": "97ee6518c18eea7878d6b57358c6a4f4caf7668fb1bb81d18ad264a19c20cb00",
    "spider-gd2": "ed9ebf7dc1b73d234aae4638b766f2279f0a7f38eb69ada8360153d98af66057",
}
PROBE_GOLDEN = {
    "spider-eps0.05": "59d892f5b3953ad3d24e26d52ae1b1077e0d151ee22323dfa8c4ed934344aed3",
    "spider-eps0.04": "36b9c7249dbd36de6f04a65e87bba63f3624213d6b866c65c5a1a5893dd4d04e",
    "spider-gd2": "e73cc48d391fdca9af69fab974e47cfee05ab16a70d4afb612e2aff08e125a33",
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
PROBE_OUTPUT_GOLDEN = "de88a272352e4e9a17a49784e30ade73a05d56d72b686451add201aac35f074b"
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
    rows = _problem_from_factors(lam, *factors)._rows
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
