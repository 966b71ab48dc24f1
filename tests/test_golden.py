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
    "rsvrg/paired/exp": "d4f4b2b9cab7e4b73f3c208efb9f66d117f29defc300ada02200490a61808916",
    "rsvrg/paired/retract": "7a395c40975f34d2c8c2017fed48d7d1a0ff07d31b6060b18edb40fd49b075b3",
    "rsvrg/single/exp": "fba6339a532468204980b62176a3f22be4be5da1e37778350e26bb7d9cd0198d",
    "rsvrg/single/retract": "bfb284db47a8fe159d97dafe115985802abd4341abe134715851983eb582e548",
    "vrpca/paired/exp": "823128b35a7321bc43a1af37014c955261c88395cad72bca24496812f7935e6d",
    "vrpca/paired/retract": "823128b35a7321bc43a1af37014c955261c88395cad72bca24496812f7935e6d",
    "vrpca/single/exp": "cbfbb1b0cfcb4e792a22da6a1939bd45be56b962907e56590e057c534074bddb",
    "vrpca/single/retract": "cbfbb1b0cfcb4e792a22da6a1939bd45be56b962907e56590e057c534074bddb",
    "spider/paired/exp": "ec2624754a0ec7a3c68e4e88c0a80c92199664b9d47d19b0669fbd2194469b14",
    "spider/paired/retract": "3738475b109879d9f3696e34d8e06627273f311f91d5316fc858cb5d6dd1d96c",
    "spider/single/exp": "54e1103c475e2da1cfeb32d5d069c81bbf83018da82a2fbf19f7171a8a791978",
    "spider/single/retract": "c4231be5f0a99220d72048d89dde2372584514e2cf51d328608d3ead19fb7352",
    "spider-gd1/paired/exp": "3cb8191d20499b365f9b6e07ff4260569e4fb3a1d641720ada70dc3199f9a28b",
    "spider-gd1/paired/retract": "4bdea687574288fde1992822d14f10e27a8198cef342e550397b93cfe4df4261",
    "spider-gd1/single/exp": "f041d858642fd2b0fb1c616268dc880f1c81a7d14c45e6d3e1267dc54e311c41",
    "spider-gd1/single/retract": "35f5e2025465728bcb40ef682e829b290f632bd2735b0b325cddcfa716d0f93a",
    "spider-gd2/paired/exp": "c2c5d50e73c56bb26d98ff51130b021e9005121313bd5ea9b0c166005126d455",
    "spider-gd2/paired/retract": "3f399447612a782ddf73cc32fd71d5019b4f576a3824f50d5b595b34c177491f",
    "spider-gd2/single/exp": "a34cfe944e5c92eed60c6a353b219938204f97fe50b8cdfdd6673cf3a05ad3b2",
    "spider-gd2/single/retract": "50801f17ef969aeacc5eb7db3b87ddf3670dbca6f0749449e53092719fcf62ff",
}
TRACE_GOLDEN = {
    "spider/paired/exp": "a7f071174aa5a81e470dff8d018def249d55f810e696e6dc834fff562a015d8b",
    "spider/paired/retract": "88d4959a4be7fdd1eea5544cd46efb6715e0f870b2dd526020cded31b13e428a",
    "spider/single/exp": "99466c9b5f77c2dff66c070057881e58addc9f73ca4c173a22edde9275e40f19",
    "spider/single/retract": "51ea19c6281cfb570166dec8d9ee37bcb718ce673f7fee0a7f2187afbee7dd0e",
    "spider-sampled/paired/exp": "d800367cb269b02baa7ec2d46045cbb1b7f7020cbe271eb5bda167d56fe36f7c",
    "spider-sampled/paired/retract": "5faedc4ab4a710d40db38dff564ec26018b8a53430c651b3a76a8afe5ed2f102",
    "spider-sampled/single/exp": "c7c7e117595b3b5a881867b75e01ceceee58f7eacb4bf96312171e9333d3212a",
    "spider-sampled/single/retract": "587425e7035e70a4e6b31f8889675cde2f9aaa0994b9d1efec3ae71701f334fd",
    "spider-gd1/paired/exp": "edf07e34d90a177f06187b04d2e49dc1eeb4e4a3c2b3f6c1753ac1a0d3c9eb5e",
    "spider-gd1/paired/retract": "6cce52fde89a4c889ea690dc213b1634a98374084d00f63b02858075759ae73f",
    "spider-gd1/single/exp": "59f7a11cf14b8a1fc6b556f8f47ba4572928954b88fc5887f555c6f9b9bbb6cb",
    "spider-gd1/single/retract": "f3e0b9fabf2e7e4c2cd9b3fb5af48ce0c8c8fb1bda9b2e6b5dbbf35f90507971",
    "spider-gd2/paired/exp": "60a267469b71f1a73bca73b1421590342509d36cb4306481debb5aecd41c485a",
    "spider-gd2/paired/retract": "ff9ab816ed37b8f5377c3c3d529d549e22d392932f3d030b13e77f665cc1d111",
    "spider-gd2/single/exp": "b8453c5b5a933aab77d33e105a8773281ec8b5ab83e0461a450d89bd4d8ac98a",
    "spider-gd2/single/retract": "4f12ca0161bc44f75575080b9ad15ef978239de303b2ea4cd45c0aea5a48ae8b",
    "rsvrg/paired/exp": "ed8b34ec644b1af62d255cbdc05dd3ab41a9ec9a319211838b86bbb2132829b5",
    "rsvrg/paired/retract": "fe3b30c84e90eac76e74047cf6c7d7a243c7c3789030c064234d3befce90b00a",
    "rsvrg/single/exp": "86759100915c95c86623619f3724b5326d286658d41a9e5132cde9ce5f447791",
    "rsvrg/single/retract": "7e9a067aa9be75dce21cc49bbbc8faa952530b08675b91538457980b8de21ad4",
    "rsgd/paired/exp": "27bcd7339ff79e904434dfa4107063fec79ed5e0865478891fe6d65187480ab0",
    "rsgd/paired/retract": "53a6b7f3b02d3429310da18a72e79cdee4de870e3bab441a2158a3a7d4fc1bd6",
    "rsgd/single/exp": "27bcd7339ff79e904434dfa4107063fec79ed5e0865478891fe6d65187480ab0",
    "rsgd/single/retract": "53a6b7f3b02d3429310da18a72e79cdee4de870e3bab441a2158a3a7d4fc1bd6",
}
FROZEN_GOLDEN = {
    "spider-eps0.05": "eb11b3003deeaaaf99b398092adbd26b8ac73973e88f156a1d81ab79f3cbbaa2",
    "spider-eps0.04": "876a70eea5cb4108ed57efd3ce17549f86a890291771b284cb3285af0ffd369f",
    "spider-gd2": "7747b4f8da1966d912f15a9c62d467e40d0e5e1d55fd10fb481eb7f23783cf24",
}
PROBE_GOLDEN = {
    "spider-eps0.05": "897ed4e80954b0c41714924b3fcd5a6a22c9ebc08daacf9c13cb5e22ea8732aa",
    "spider-eps0.04": "0ca782aa4d8f56b070d3a9650bfd43b87df2e0ece82cc6a3a5dbac0ed95cecdb",
    "spider-gd2": "33611d64603c8bf86191a37870877e2befb7d8d160061fc082ba57bc1c6411ac",
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


def _current_digests():
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        sweeps = {"/".join(c): sweep_digest(*c, tmp) for c in SWEEP_CASES}
    return {
        "SWEEP_GOLDEN": sweeps,
        "TRACE_GOLDEN": {"/".join(c): trace_digest(*c) for c in TRACE_CASES},
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
