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
    "rsgd/paired/exp": "daac9d2a3d4afd9c0d5689f26f9c34a2d526984aa9c5e15797d9905035e04579",
    "rsgd/paired/retract": "4583db092865ad8c9e7027c91eadfc28817ada67f7d2c557a75536681b89b86f",
    "rsgd/single/exp": "daac9d2a3d4afd9c0d5689f26f9c34a2d526984aa9c5e15797d9905035e04579",
    "rsgd/single/retract": "4583db092865ad8c9e7027c91eadfc28817ada67f7d2c557a75536681b89b86f",
    "rsvrg/paired/exp": "f23be5822008a003e1a1276c58e9e1d8b16f3efcfa971163ec4551b57099dce6",
    "rsvrg/paired/retract": "1ce9abf5a6183b8697e32cbc203d4680e6845dbf401035c0ff53a1ecc9e5236c",
    "rsvrg/single/exp": "f305eacc2ebc5960bc1d09343692733a3ee6a956412a0141110b48559f61eaa0",
    "rsvrg/single/retract": "23cc7f759c2fd53c69834decc09ebbb6b2e7f9e41d8d77b118c2eb54cb332bb9",
    "vrpca/paired/exp": "c0b334ec78638b53ff61248aa920cf4ebc6cf69b38e72edfd16afe7a946d66a8",
    "vrpca/paired/retract": "c0b334ec78638b53ff61248aa920cf4ebc6cf69b38e72edfd16afe7a946d66a8",
    "vrpca/single/exp": "306542710b61c75a4ac5b4a1028165ef0a3a60694808a5d64d5233f8425bff79",
    "vrpca/single/retract": "306542710b61c75a4ac5b4a1028165ef0a3a60694808a5d64d5233f8425bff79",
    "spider/paired/exp": "70741117c299e150dd7dc2d9f01593aae10f65ffc84e90dbf9a6f50e9dc5c9d7",
    "spider/paired/retract": "dc0d9fdc29c37f978ffe4f791a8ce0364ff978b4b022c96beb19faccd77947b6",
    "spider/single/exp": "455f9edca244b7ba4521e55a5f6fb8047dd28e8c0ffad2aa73e3808c6287cb10",
    "spider/single/retract": "7e8aa4b9003c1e48f77700a71e6a42f5d936abc5b2608262a94a3b1207b8a7be",
    "spider-gd1/paired/exp": "1b68a59d44ce05bb5a0535a08cd6626f7db286279485e95f87e64da06d10b9dc",
    "spider-gd1/paired/retract": "fd4c81b0d6d90ed2a644c41a90151e85fd5e932e5c0d31fd4d7d5e7460a76646",
    "spider-gd1/single/exp": "aeaa9a0b2bc0a4c1aff1e5f453d32cc5f219c27c34dc1da464015b6648b00017",
    "spider-gd1/single/retract": "878481e9fbfffd856d3fa6d16acf377209509bf6baabe703eb9e34aed2a1dfd4",
    "spider-gd2/paired/exp": "d1e5f423086fd66cde84bd190f7183a8eaaa8bdee173ea9d58e3b65661591b09",
    "spider-gd2/paired/retract": "d0350a7f26ce1f7f586a6de6742c26343f729cbc802caa58852d5e68f802a5d4",
    "spider-gd2/single/exp": "80561acaa3f146484048135267a20f1fac209a4502abbcc7de7b72e83ca579cc",
    "spider-gd2/single/retract": "ec768be6440a440b7a365a27e30c82981d7ccc1a028af05383d3bd36c83e7d1d",
}
TRACE_GOLDEN = {
    "spider/paired/exp": "63ed116ba8e5aa3ce07b60ec731e2ada046ec0378f6d17c5a9167f7c39b29a8e",
    "spider/paired/retract": "6eb10742fcbe045f63ab1ebdc99fe867a89ad8ca1531e0e4142dfbfd5545f0d1",
    "spider/single/exp": "fddb445782123b7e744564b66ac31727a862ce3a68f05637f9b2481cd47a84d5",
    "spider/single/retract": "0ffe9d9a623d16c9856e782460843b4fa6abcea10f2652436666478e76ec2c72",
    "spider-sampled/paired/exp": "f574c27172e53a26c37620afe485e2594dc5f129f4d75fab5ac01dc74b657e9a",
    "spider-sampled/paired/retract": "f45e1823800b16e06d1b2f8442f0686c3356647f930c9add6b4dd5c21e8b68c4",
    "spider-sampled/single/exp": "2274d89e24a0e7a9c526d7b4c3a0e5ae0b351e09ccd13f74430a058df8668f19",
    "spider-sampled/single/retract": "f904c4b9cc86273b05a1e4ddfb8c2cf44478ad6e847dc99522a795ab18d5337c",
    "spider-gd1/paired/exp": "95c0042690421023e10df9dfb81bf460dcbde601660319cb1294918e193cd613",
    "spider-gd1/paired/retract": "94b8d18ca07322cefbab4aa25935f3616bbfec10abdf9b0401dadbbe6b868a15",
    "spider-gd1/single/exp": "028ba1bfb29fed4fe467f7c46267923a7e0e0e73dc26819ad142786d067a546c",
    "spider-gd1/single/retract": "58990d4fe5bc4509f46774432fed72080040e4f12e982a0efafc812a52f2a603",
    "spider-gd2/paired/exp": "218d4b5d04b97cedb7584c8147e740812c8a396ceaa7fc046bd2ffb822b3d4e3",
    "spider-gd2/paired/retract": "10c8aac2c01f18e47502af96919ac672d5357e8d385aec73bbe483b1b1ef164f",
    "spider-gd2/single/exp": "fa49a145fc25742727289b50d329b44ac67918e68db556a69dd55bf5a37ed96b",
    "spider-gd2/single/retract": "94f1fa227d4efe4d0e55a35d8ded250e63dbc2489bcbf6f0bf8fb4448ad1325a",
    "rsvrg/paired/exp": "9c853454d52169d6a61285687e3eca9a4a5ba7c59ee42158382da7d927af139a",
    "rsvrg/paired/retract": "7303965fbc69b63e16e2b93cf2a096b1538616abc54545f89c8d890d3a88e20d",
    "rsvrg/single/exp": "4342287b8d37f6b6afe4b00844505669f2b1d10c159286a28d055456cb9e7440",
    "rsvrg/single/retract": "d9d2fd7768a19e9878e475240b76e65c1e382067a1e11f96e4c71aa2d0da699b",
    "rsgd/paired/exp": "02a23a64916240e68e453c151dcfe08bed31f83867af01f677ac96827bfaa2b8",
    "rsgd/paired/retract": "0d3a1cecb8dff6724443d67dc5ea9ebe9ef324c24fddb846f1b7b8538c2f0f5d",
    "rsgd/single/exp": "02a23a64916240e68e453c151dcfe08bed31f83867af01f677ac96827bfaa2b8",
    "rsgd/single/retract": "0d3a1cecb8dff6724443d67dc5ea9ebe9ef324c24fddb846f1b7b8538c2f0f5d",
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
    assert got == [SWEEP_GOLDEN["/".join(c)] for c in _TAU_CASES]


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
