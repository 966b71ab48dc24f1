"""Golden digests: the numbers the solvers, the sweep and the probe produce.

Each test hashes exact output (CSV bytes, ``repr`` of every float, raw point
coordinates) and compares it with a digest recorded from a known-good
version. A refactor that is meant to keep behavior must keep every digest;
a change that moves any number, even in the last bit, fails here. The
digests hold for any BLAS thread count at these sizes;
``test_tau_sweeps_hold_with_two_blas_threads`` rechecks the sweeps that
estimate tau on a Gram matrix (a GEMM) with ``OPENBLAS_NUM_THREADS=2``.

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

CONVENTIONS = ("paired", "single")
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


def sweep_digest(algo, convention, map_mode, tmp_dir) -> str:
    out = f"{tmp_dir}/{algo}-{convention}-{map_mode}.csv"
    cfg = ExperimentConfig(
        algo=(algo,),
        d=20,
        n=60,
        delta_list=(0.2, 0.1),
        epochs=6.0,
        seeds=(0, 1),
        map_mode=map_mode,
        ifo_convention=convention,
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


def _gd_config(P, M0, tau, K, convention, map_mode, seed):
    return GdConfig(M0=M0, tau=tau, L=P.L_hint, K=K, seed=seed,
                    map_mode=map_mode, ifo_convention=convention)


def trace_digest(solver, convention, map_mode) -> str:
    P = _problem()
    x0 = _x0(P, 3)
    if solver == "spider":
        cfg = params_finite(P.n, 0.04, 1.0, P.L_hint, seed=4, map_mode=map_mode,
                            ifo_convention=convention)
        x, trace = spider_nonconvex(P, x0, cfg, checkpoint_every=0.25,
                                    max_ifo=12 * P.n)
    elif solver == "spider-sampled":
        cfg = params_stochastic(0.5, 0.3, 1.0, P.L_hint, seed=4,
                                map_mode=map_mode, ifo_convention=convention)
        x, trace = spider_nonconvex(P, x0, cfg, checkpoint_every=0.25,
                                    max_ifo=12 * P.n)
    elif solver == "spider-gd1":
        cfg = _gd_config(P, 0.5, 0.01, 3, convention, map_mode, seed=6)
        x, trace = spider_gd1(P, x0, cfg, checkpoint_every=0.25, max_ifo=12 * P.n)
    elif solver == "spider-gd2":
        cfg = _gd_config(P, 0.02, 0.05, 5, convention, map_mode, seed=6)
        x, trace = spider_gd2(P, x0, cfg, checkpoint_every=0.25)
    elif solver == "rsgd":
        # T crosses two index-block boundaries; rsgd has one IFO convention
        x, trace = rsgd(P, x0, eta=0.01, T=2500, seed=7, map_mode=map_mode,
                        checkpoint_every=0.25)
    else:
        x, trace = rsvrg(P, x0, eta=0.01, epochs=3, inner_len=40, seed=7,
                         map_mode=map_mode, checkpoint_every=0.25,
                         ifo_convention=convention)
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
        spider_gd2(P, x0, _gd_config(P, 0.02, 0.05, 5, "paired", "exp", seed=2),
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

SWEEP_CASES = list(itertools.product(ALGORITHMS, CONVENTIONS, MAP_MODES))
TRACE_CASES = list(itertools.product(
    ("spider", "spider-sampled", "spider-gd1", "spider-gd2", "rsvrg", "rsgd"),
    CONVENTIONS, MAP_MODES,
))
# at eps 0.05 every correction batch stays below n; at 0.04 every one is full
STATE_CASES = ("spider-eps0.05", "spider-eps0.04", "spider-gd2")

SWEEP_GOLDEN = {
    "rsgd/paired/exp": "9c45d7c84fd9a1ff4fb0131219c340b18033c424dc9c1b48e2f7f40e1b93af95",
    "rsgd/paired/retract": "999347462f5b5a7a8a3a6e9d419a3fcbb87ca96926f449c6ca95c159b1bc8772",
    "rsgd/single/exp": "9c45d7c84fd9a1ff4fb0131219c340b18033c424dc9c1b48e2f7f40e1b93af95",
    "rsgd/single/retract": "999347462f5b5a7a8a3a6e9d419a3fcbb87ca96926f449c6ca95c159b1bc8772",
    "rsvrg/paired/exp": "3a7fd10ecf92ccae6ffeca1e78466594d187421b02bb03ec5ddff9f1ceafa064",
    "rsvrg/paired/retract": "b1978ef1379f314c1aec2859ca4d9f727912726ba95a26f551ddd572eb6c7656",
    "rsvrg/single/exp": "171ce2e283fc28fc6c18f602e8fb28126d16ca35cf60ca42821ff6c1eabfe5fb",
    "rsvrg/single/retract": "e6b8b1a01e7845ce2d5a79121b262760fb53bdf494a721953e0d1ebba7b99680",
    "vrpca/paired/exp": "7e762a79a9c19058c5567cf66d85aeddfd31fde4f621a5689a2cdba6d8ce1f6e",
    "vrpca/paired/retract": "7e762a79a9c19058c5567cf66d85aeddfd31fde4f621a5689a2cdba6d8ce1f6e",
    "vrpca/single/exp": "0e5519221698c9c6f1ddbf35304e6223cbb89f76b4b089ecddb6e6a50f9cc04e",
    "vrpca/single/retract": "0e5519221698c9c6f1ddbf35304e6223cbb89f76b4b089ecddb6e6a50f9cc04e",
    "spider/paired/exp": "c5f9d3f90a8694d8faeae9b9cb2e3934cd6aa44b9d94790cf92f647cc4f17319",
    "spider/paired/retract": "0c779dbc30b9384bae7117206b45b3e71eeafeb64ab0ec03f78dd575a2705f93",
    "spider/single/exp": "d3ac06fedc1d72910542f0a7e8540441b322a3ed77a512f7c068378902e08602",
    "spider/single/retract": "f90c55ca92221586a3e4422ca0d389be4840c8a33a81168987c6d2421194cb03",
    "spider-gd1/paired/exp": "7ed6438e1bef16f81bde44b6590401ac1d49f281f2ddfdaca18434b25aa30a1f",
    "spider-gd1/paired/retract": "9460d0d4b60484fc18e8299fcda65f06d62e1a67292d424098b3ff3be53490bc",
    "spider-gd1/single/exp": "250a45a06f36de1758871506a6bb9c268463a4be0953ebbc48b9441d5c47b82d",
    "spider-gd1/single/retract": "9bafb94dff4bc06cdbe3ad88f72b1391b651bb5f05d7bdd839fd653560a5cf5d",
    "spider-gd2/paired/exp": "c2c5d50e73c56bb26d98ff51130b021e9005121313bd5ea9b0c166005126d455",
    "spider-gd2/paired/retract": "d95224c651876e4b1c097f6f3014a9ee7760a22ef529f9b3dc8de7bbc4e198a0",
    "spider-gd2/single/exp": "b7e6b7fe67c821c412cc371262048ac647bacd953bd6aabf9a8e342c09acb03f",
    "spider-gd2/single/retract": "9acc1b720dfd90e8ae72852fb27ec2a1a285e6080f33cc6af124b5abb9135b04",
}
TRACE_GOLDEN = {
    "spider/paired/exp": "a7f071174aa5a81e470dff8d018def249d55f810e696e6dc834fff562a015d8b",
    "spider/paired/retract": "88d4959a4be7fdd1eea5544cd46efb6715e0f870b2dd526020cded31b13e428a",
    "spider/single/exp": "99466c9b5f77c2dff66c070057881e58addc9f73ca4c173a22edde9275e40f19",
    "spider/single/retract": "51ea19c6281cfb570166dec8d9ee37bcb718ce673f7fee0a7f2187afbee7dd0e",
    "spider-sampled/paired/exp": "7e29af52e0acf5eb4ceecfe1001fb10c5b7725a2207579b1d487ea75800e3c5a",
    "spider-sampled/paired/retract": "0664390d15eb6b3d5328cb2c901b269266187c5750a2545bc7ae2df48eb15bc7",
    "spider-sampled/single/exp": "67bbf1fe5616dec737b9c558ecab0f00744a3a2586cb444e233199bac2c4c346",
    "spider-sampled/single/retract": "5ea6006d736a3eb1e03717baa0192cd94eed57d0caab2cb17cdbf7cc4adcb292",
    "spider-gd1/paired/exp": "582bbc3abc42e468440a2a5e4a1146b8bc733d7494fdc82cb9789c9f9d825ec8",
    "spider-gd1/paired/retract": "9476fe45fdb14248e682bb574b9172b529dc54fe30d4ece3a2baa547912f8330",
    "spider-gd1/single/exp": "10eb4164473b99ad1fea1280b2b3a51e081b3b3e77c7e6c7b33a024db12ae4bf",
    "spider-gd1/single/retract": "2ecb7eb8041c755151f524b93eef219f5f77a0bcd2ec1503c78b226cf1268892",
    "spider-gd2/paired/exp": "061ab9a382bd78bfbb0296af9cbb654b18de20038c6356ca0d8b968a4109b8d3",
    "spider-gd2/paired/retract": "8d579a4b187e624393773b0c8a676598ffbf7890fd3f10078d16b706404a3114",
    "spider-gd2/single/exp": "1451ad6745d8236ec6db490cf48aff402151d6d0fc7fcbdc0b4aca6a0646a037",
    "spider-gd2/single/retract": "739285942cc529efbb583876944c4c83f37a0ee4be964d0c5740f2f510d1fa8b",
    "rsvrg/paired/exp": "48d5981e69132591512ad44963cff0965411a57f50c66fe06ef3a9f391a3755d",
    "rsvrg/paired/retract": "c7639e7de690112f0f270687b14466f0687278d98914dbf997c5a153ec2ea485",
    "rsvrg/single/exp": "1c7b2a95fd58708fd8f34911d4597cff3004a989dd8d9473c91e2ddafe407f29",
    "rsvrg/single/retract": "c56052492dbdf10d38bee52eadc8ea2853744f655ab5b86b6d249af8148bb20d",
    "rsgd/paired/exp": "27bcd7339ff79e904434dfa4107063fec79ed5e0865478891fe6d65187480ab0",
    "rsgd/paired/retract": "53a6b7f3b02d3429310da18a72e79cdee4de870e3bab441a2158a3a7d4fc1bd6",
    "rsgd/single/exp": "27bcd7339ff79e904434dfa4107063fec79ed5e0865478891fe6d65187480ab0",
    "rsgd/single/retract": "53a6b7f3b02d3429310da18a72e79cdee4de870e3bab441a2158a3a7d4fc1bd6",
}
FROZEN_GOLDEN = {
    "spider-eps0.05": "8a21526d72d4c8669a7437221d654bbcf9f3c9c15abddf252f429e8f99747009",
    "spider-eps0.04": "876a70eea5cb4108ed57efd3ce17549f86a890291771b284cb3285af0ffd369f",
    "spider-gd2": "3a130bc364db0bf1b41a2bfcbaaef05953d49fa416930ef0ef3f912c44a10ad0",
}
PROBE_GOLDEN = {
    "spider-eps0.05": "123429278421f91a4df20a25dea69f3c69cedd58d68f3557040067a452351fee",
    "spider-eps0.04": "0ca782aa4d8f56b070d3a9650bfd43b87df2e0ece82cc6a3a5dbac0ed95cecdb",
    "spider-gd2": "6c5eb70fefb694ec5efb5f0c41ca39cdf0e503274a03fbb11d48ccd325b6f260",
}


@pytest.mark.parametrize("algo,convention,map_mode", SWEEP_CASES)
def test_sweep_csv_and_summary(algo, convention, map_mode, tmp_path):
    got = sweep_digest(algo, convention, map_mode, tmp_path)
    assert got == SWEEP_GOLDEN[f"{algo}/{convention}/{map_mode}"]


@pytest.mark.parametrize("solver,convention,map_mode", TRACE_CASES)
def test_solver_trace_records(solver, convention, map_mode):
    got = trace_digest(solver, convention, map_mode)
    assert got == TRACE_GOLDEN[f"{solver}/{convention}/{map_mode}"]


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
    print(json.dumps([g.sweep_digest(a, c, m, tmp) for a, c, m in g._TAU_CASES]))
"""


def test_tau_sweeps_hold_with_two_blas_threads():
    # the thread count must be set before numpy loads, hence a new process
    here = Path(__file__).resolve().parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
    out = subprocess.run(
        [sys.executable, "-c", _TWO_THREADS, str(here.parent / "src"), str(here)],
        env=env, capture_output=True, text=True, check=True, timeout=600,
    )
    got = json.loads(out.stdout.strip().splitlines()[-1])
    assert got == [SWEEP_GOLDEN["/".join(c)] for c in _TAU_CASES]


def _print_digests():
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        print("SWEEP_GOLDEN = {")
        for a, c, m in SWEEP_CASES:
            print(f'    "{a}/{c}/{m}": "{sweep_digest(a, c, m, tmp)}",')
        print("}")
    print("TRACE_GOLDEN = {")
    for s, c, m in TRACE_CASES:
        print(f'    "{s}/{c}/{m}": "{trace_digest(s, c, m)}",')
    print("}")
    print("FROZEN_GOLDEN = {")
    for s in STATE_CASES:
        print(f'    "{s}": "{frozen_digest(s)}",')
    print("}")
    print("PROBE_GOLDEN = {")
    for s in STATE_CASES:
        print(f'    "{s}": "{probe_digest(s)}",')
    print("}")


if __name__ == "__main__":
    _print_digests()
