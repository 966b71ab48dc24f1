"""rspider benchmark: one workload, end-to-end metrics or a traced per-layer run.

    python3 perfbench/run.py --workload gap-sweep --seed 0 --seconds 25 --trace 0

Run from the repository root; the package is imported from ``src/``. Set-up
(import plus building every distinct instance) is repeated and its median
reported; each instance's optimum is then checked by power iteration,
untimed. The workload's sweep is cut into short parts (see ``workloads.py``),
each one ``run_sweep`` call with tracing off; rounds over all parts repeat
until ``--seconds`` have passed and every part's output is checked. A fixed
calibration loop that does not touch rspider runs after every set-up and
every part, and times are reported in calibrated seconds (see
``calibrate.py``), because the host's speed drifts by more than the bounds.
``--trace 1`` adds one traced round (see ``tracing.py``) whose CSV digest
and IFO total must equal the untraced ones, and prints per-layer metrics
instead of end-to-end ones. ``NOTES.md`` defines every metric. The last line
of standard output is one JSON object with the result.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy loads: the spider-large CSV bytes
# differ between one and two OpenBLAS threads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 5       # at least this many set-ups,
SETUP_SECONDS = 2.0  # and more until this long has passed
ACCURACY_FLOOR = -1e-12  # relative accuracy below this means f went under f*
EIG_TOL = 1e-8           # power-iteration lambda_1 vs the declared spectrum

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import rspider; print(time.perf_counter() - t)"
)


def _parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0, help="workload seed (>= 0)")
    p.add_argument("--seconds", type=float, default=25.0, help="measuring time")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = p.parse_args(argv)
    if ns.seed < 0 or ns.seconds <= 0:
        p.error("need --seed >= 0 and --seconds > 0")
    return ns, WORKLOADS[ns.workload]


def _import_rspider():
    sys.path.insert(0, str(SRC))
    import rspider

    if not Path(rspider.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"rspider resolved to {rspider.__file__}, not under {SRC}")
    return rspider


def _environment(np):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": BLAS_THREADS,
    }


def _import_seconds():
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(out.stdout.strip().splitlines()[-1])


def _build_instances(oracle, cfg):
    """Build each distinct instance of the sweep as ``run_cell`` does."""
    built = []
    for delta in cfg.delta_list:
        if cfg.spectrum == "packed":
            lam = oracle.packed_spectrum(cfg.d, delta, tail=cfg.tail)
            built.append(oracle.problem_from_spectrum(lam, cfg.n, cfg.data_seed))
        else:
            spec = oracle.SyntheticSpec(cfg.d, cfg.n, delta, seed=cfg.data_seed, tail=cfg.tail)
            built.append(oracle.generate_gap_matrix(spec))
    return built


def _check_optima(oracle, built):
    """Power iteration must agree with each instance's declared optimum."""
    problems = []
    for P in built:
        lam1, _ = oracle.leading_eigpair(P)
        if not abs(lam1 + P.f_star) <= EIG_TOL:
            problems.append(f"power iteration gives lambda_1={lam1!r}, spectrum says {-P.f_star!r}")
    return problems


def _csv_bytes(bench, rows):
    lines = [",".join(bench.CSV_COLUMNS)] + [r.to_line() for r in rows]
    return ("\n".join(lines) + "\n").encode()


def _check_sweep(cfg, res):
    """Output checks per cell; returns (cells, failed cell keys, messages)."""
    cells = {}
    for r in res.rows:
        cells.setdefault((r.algo, r.delta, r.seed), []).append(r)
    grid = int(round(cfg.epochs / cfg.checkpoint_every)) + 1
    failed, msgs = set(), []
    for algo, delta, seed, msg in res.failures:
        failed.add((algo, delta, seed))
        msgs.append(f"cell {algo} delta={delta} seed={seed} raised: {msg}")
    for key in ((a, float(dl), s) for a in cfg.algo for dl in cfg.delta_list for s in cfg.seeds):
        rows = cells.get(key, [])
        bad = []
        if len(rows) != grid:
            bad.append(f"{len(rows)} rows, expected {grid}")
        for prev, r in zip([None] + rows, rows):
            if r.epoch != r.ifo / r.n:  # epoch * n == ifo, without rounding
                bad.append(f"epoch != ifo/n at epoch {r.epoch!r}")
            if prev is not None and r.ifo < prev.ifo:
                bad.append(f"ifo decreased at epoch {r.epoch!r}")
            if not r.accuracy >= ACCURACY_FLOOR:
                bad.append(f"accuracy {r.accuracy!r} at epoch {r.epoch!r}")
        if bad and key not in failed:
            failed.add(key)
            msgs.append(f"cell {key}: {bad[0]}")
    return cells, failed, msgs


def _epochs_to_target(cells, target, censored):
    """Median over cells of the epoch at which accuracy first reaches ``target``.

    Within the grid step where it crosses, the epoch is interpolated in log
    accuracy, so the figure moves smoothly instead of by whole grid steps.
    """
    hits = []
    for rows in cells.values():
        hit = censored
        if rows[0].accuracy <= target:
            hit = rows[0].epoch
        for a, b in zip(rows, rows[1:]):
            if a.accuracy > target >= b.accuracy:
                hi, lo = math.log(a.accuracy), math.log(max(b.accuracy, 1e-300))
                hit = a.epoch + (hi - math.log(target)) / (hi - lo) * (b.epoch - a.epoch)
                break
        hits.append(hit)
    return statistics.median(hits) if hits else censored


def _fit_corr(results):
    """Lowest over algorithms of the summary's epochs-to-double vs 1/delta fit.

    Defined only for sweeps over several gaps; nan otherwise.
    """
    corrs = [float(row[-1]) for res in results for row in res.summary_rows]
    return min(corrs) if corrs else math.nan


def _overshoot(cfg, cells):
    step = cfg.checkpoint_every
    return max((r.epoch - j * step for rows in cells.values() for j, r in enumerate(rows)), default=0.0)


def _run_round(bench, parts):
    """One ``run_sweep`` per part, in order; returns the results."""
    return [bench.run_sweep(part) for part in parts]


def _check_round(bench, parts, results):
    """Checks every part; returns (cells, failed count, messages, digest, ifo)."""
    cells, failed, msgs, rows = {}, 0, [], []
    for part, res in zip(parts, results):
        part_cells, part_failed, part_msgs = _check_sweep(part, res)
        cells.update(part_cells)
        failed += len(part_failed)
        msgs += part_msgs
        rows += res.rows
    digest = hashlib.sha256(_csv_bytes(bench, rows)).hexdigest()
    return cells, failed, msgs, digest, sum(r[-1].ifo for r in cells.values())


def main(argv=None) -> int:
    ns, wl = _parse_args(argv)
    try:
        rspider = _import_rspider()
    except ImportError as e:
        print(f"error: cannot import rspider from {SRC}: {e}", file=sys.stderr)
        return 2
    import numpy as np

    import tracing
    from calibrate import REF_S, Calibration

    bench = rspider.bench
    cfg = wl.config(bench, ns.seed)
    parts = wl.parts(bench, ns.seed)
    cells_per_round = len(cfg.algo) * len(cfg.delta_list) * len(cfg.seeds)
    print("env " + json.dumps(_environment(np)))
    problems: list[str] = []
    # One core for everything, child processes included: the calibration
    # loop must see the same core, and the same contention, as what it brackets.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    cal = Calibration()

    setup_t, setup_c = [], []
    started = time.perf_counter()
    while len(setup_t) < SETUP_REPS or time.perf_counter() - started < SETUP_SECONDS:
        t_import = _import_seconds()
        t0 = time.perf_counter()
        built = _build_instances(rspider.oracle, cfg)
        t, c = cal.bracket(t_import + time.perf_counter() - t0)
        setup_t.append(t)
        setup_c.append(c)
    problems += _check_optima(rspider.oracle, built)

    # warm-up round, untimed; its outputs are the reference for every later round
    first = _run_round(bench, parts)
    cells, failed_cells, msgs, digest, ifo_total = _check_round(bench, parts, first)
    attempted = cells_per_round
    problems += msgs
    cal.last = cal.time()

    part_t = [0.0] * len(parts)   # summed measured seconds per part
    part_c = [0.0] * len(parts)   # summed bracketing calibration seconds per part
    rounds, digests = 0, set()
    started = time.perf_counter()
    while rounds < 2 or time.perf_counter() - started < ns.seconds:
        res = []
        for j, part in enumerate(parts):
            t0 = time.perf_counter()
            res.append(bench.run_sweep(part))
            t, c = cal.bracket(time.perf_counter() - t0)
            part_t[j] += t
            part_c[j] += c
        rounds += 1
        _c, failed, msgs, round_digest, _ifo = _check_round(bench, parts, res)
        attempted += cells_per_round
        failed_cells += failed
        problems += msgs
        digests.add(round_digest)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if digests != {digest}:
        problems.append(f"rounds gave {len(digests | {digest})} different CSV digests")
    # per part: measured time over calibration time, both summed over the run
    wall_s = REF_S * sum(t / c for t, c in zip(part_t, part_c))
    raw_wall_s = sum(part_t) / rounds
    # a set-up is short next to one calibration loop, so each set-up's own
    # bracket is noisy; the medians over all of them are not
    setup_s = REF_S * statistics.median(setup_t) / statistics.median(setup_c)

    e2e = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "ifo_per_s": (ifo_total / wall_s, "calls/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "failed_share": (failed_cells / attempted, "ratio"),
        "epochs_to_target": (
            _epochs_to_target(cells, wl.target, cfg.epochs + cfg.checkpoint_every), "epochs"),
        "fit_corr": (_fit_corr(first), "ratio"),
    }
    print(f"workload {wl.name} seed={ns.seed} data_seed={cfg.data_seed} seeds={list(cfg.seeds)} "
          f"parts={len(parts)} rounds={rounds} setups={len(setup_t)} cells={attempted}")
    print(f"csv_sha256 {digest} ifo_total {ifo_total}")
    print(f"raw_wall_s {raw_wall_s!r} host_slowdown {sum(part_c) / (rounds * len(parts)) / REF_S!r}")
    for k, (v, u) in e2e.items():
        print(f"{k} = {v!r} {u}")
    # failed_share (0 on a healthy run) travels as the result's attempted and
    # failed counts; fit_corr swings with the seed (see NOTES.md). Both are
    # printed above but carry no bound.
    metrics = {k: e2e[k] for k in ("setup_s", "wall_s", "ifo_per_s", "peak_rss_mb",
                                   "epochs_to_target")}

    if ns.trace:
        log = tracing.SpanLog()
        cal.last = cal.time()
        with tracing.traced(log):
            with log.span("perfbench.setup"):
                _check_optima(rspider.oracle, _build_instances(rspider.oracle, cfg))
            charged0 = log.charged
            with log.span("perfbench.sweep") as sweep:
                traced_res = _run_round(bench, parts)
        _t, traced_c = cal.bracket(0.0)
        attempted += cells_per_round
        traced_cells, failed, msgs, traced_digest, _ifo = _check_round(bench, parts, traced_res)
        failed_cells += failed
        problems += msgs
        traced_ifo = log.charged - charged0
        print(f"traced csv_sha256 {traced_digest} ifo_total {traced_ifo} spans {len(log.name)}")
        if traced_digest != digest:
            problems.append("traced run changed the CSV digest")
        if traced_ifo != ifo_total:
            problems.append(f"traced oracle spans charged {traced_ifo} IFO, untraced rows say {ifo_total}")
        if log.counter_mismatches:
            problems.append(f"{log.counter_mismatches} solver calls charged IFO outside oracle spans")
        metrics = tracing.layer_metrics(
            log, sweep_span=sweep, d=cfg.d,
            # the untraced sweep's time at the host speed the traced round saw
            untraced_wall=wall_s * traced_c / REF_S,
            overshoot=_overshoot(cfg, traced_cells),
        )
        for k, (v, u) in metrics.items():
            print(f"{k} = {v!r} {u}")

    for k, (v, _u) in metrics.items():
        if not math.isfinite(v):
            problems.append(f"metric {k} is not finite")
            metrics[k] = (0.0, metrics[k][1])
    for msg in dict.fromkeys(problems):
        print(f"check failed: {msg}")
    result = {
        "correct": not problems and failed_cells == 0,
        "attempted": attempted,
        "failed": failed_cells,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
