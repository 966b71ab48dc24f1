"""The benchmark's span tracer still sees every charged oracle call.

``perfbench/tracing.py`` wraps oracle methods found by name in
``PcaProblem.__dict__`` and counts solver spans whose counter delta the
wrapped oracle calls do not account for. The module is loaded by path and
left unedited, so a change to the program that breaks its contract fails here.
"""

import importlib.util
from pathlib import Path

import numpy as np

from rspider.bench import ExperimentConfig, run_sweep

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def traced_sweep(cfg):
    """Run ``cfg`` plain and traced; check the tracer accounted for every call."""
    tracing = load_tracing()
    plain = run_sweep(cfg).rows
    log = tracing.SpanLog()
    with tracing.traced(log):
        traced = run_sweep(cfg).rows
    final_ifo = {}
    for row in traced:
        final_ifo[(row.algo, row.delta, row.seed)] = row.ifo
    assert len(final_ifo) == len(cfg.algo) * len(cfg.delta_list) * len(cfg.seeds)
    assert log.counter_mismatches == 0
    assert log.charged == sum(final_ifo.values()) > 0
    assert traced == plain
    return log


def oracle_spans(log, method):
    """(charged, uncharged) span counts of one oracle entry point."""
    nid = log._ids.get(f"oracle.{method}", -1)
    mine = np.frombuffer(log.name, dtype=np.int32) == nid
    charged = np.frombuffer(log.ifo, dtype=np.int64) > 0
    return int((mine & charged).sum()), int((mine & ~charged).sum())


def test_traced_sweep_accounts_for_every_charged_call():
    cfg = ExperimentConfig(algo=("spider", "rsvrg"), d=10, n=30, delta_list=(0.2,),
                           epochs=2.0, seeds=(0, 1), eta=0.05)
    traced_sweep(cfg)


def test_traced_sweep_covers_every_charging_path():
    # the six algorithms reach every charging path of the solver loops:
    # full-gradient anchors and capped full corrections, and prepared
    # minibatches, single-sample steps included; every correction charges
    # both of its evaluations, and no solver charges through component_rgrad.
    # Two gaps make each rsvrg and vrpca column block span two instances.
    cfg = ExperimentConfig(
        algo=("rsgd", "spider", "spider-gd1", "spider-gd2", "rsvrg", "vrpca"),
        d=10, n=30, delta_list=(0.2, 0.1), epochs=2.0, seeds=(0, 1), eta=0.05,
    )
    log = traced_sweep(cfg)
    minibatch = oracle_spans(log, "minibatch_rgrad")
    assert minibatch[0] > 0 and minibatch[1] == 0
    assert oracle_spans(log, "component_rgrad") == (0, 0)


def test_block_step_is_one_charged_span_per_point_set():
    # a sweep's instances share one counter, so each inner step of its rsvrg
    # block is one charged minibatch call per point set over all its columns:
    # 3 gaps x 2 seeds, every span of size 6, charging 6
    cfg = ExperimentConfig(algo=("rsvrg",), d=10, n=30, delta_list=(0.2, 0.1, 0.05),
                           epochs=2.0, seeds=(0, 1), eta=0.05)
    log = traced_sweep(cfg)
    columns = len(cfg.delta_list) * len(cfg.seeds)
    mine = np.frombuffer(log.name, dtype=np.int32) == log._ids["oracle.minibatch_rgrad"]
    ifo = np.frombuffer(log.ifo, dtype=np.int64)[mine]
    size = np.frombuffer(log.size, dtype=np.int64)[mine]
    assert mine.sum() > 0 and (ifo > 0).all()
    assert (size == columns).all() and (ifo == columns).all()
