"""The benchmark's span tracer still sees every charged oracle call.

``perfbench/tracing.py`` wraps oracle methods found by name in
``PcaProblem.__dict__`` and counts solver spans whose counter delta the
wrapped oracle calls do not account for. The module is loaded by path and
left unedited, so a change to the program that breaks its contract fails here.
"""

import importlib.util
from pathlib import Path

from rspider.bench import ExperimentConfig, run_sweep

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_sweep_accounts_for_every_charged_call():
    tracing = load_tracing()
    cfg = ExperimentConfig(algo=("spider", "rsvrg"), d=10, n=30, delta_list=(0.2,),
                           epochs=2.0, seeds=(0, 1), eta=0.05)
    plain = run_sweep(cfg).rows
    log = tracing.SpanLog()
    with tracing.traced(log):
        traced = run_sweep(cfg).rows
    final_ifo = {}
    for row in traced:
        final_ifo[(row.algo, row.delta, row.seed)] = row.ifo
    assert len(final_ifo) == 4
    assert log.counter_mismatches == 0
    assert log.charged == sum(final_ifo.values()) > 0
    assert traced == plain
