"""Experiment runner: synthetic eigengap sweeps with deterministic CSV output.

Builds seeded instances, runs the configured algorithm over a grid of
(eigengap, seed) cells with checkpoints on an epoch grid (epochs measured
in oracle calls / n), and writes one CSV row per checkpoint plus a summary
CSV with per-gap epochs-to-double medians and a least-squares fit against
the inverse gap. For a fixed BLAS thread count the entire output is a pure
function of the configuration; across thread counts the BLAS reductions may
sum in a different order and change the last bits.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import math
import sys
import time
import typing
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import epochs_to_double, pl_constant_estimate
from .geometry import ManifoldPoint
from .oracle import (
    PcaProblem,
    SyntheticSpec,
    _check_samples,
    _eigenvector_factors,
    _problem_from_factors,
    generate_gap_matrix,
    leading_eigpair,
    packed_spectrum,
    problem_from_spectrum,
    save_problem,
    variance_bound_estimate,
)
from .optim import (
    IFO_CONVENTIONS,
    MAP_MODES,
    GdConfig,
    OptimizerError,
    RunTrace,
    _check_modes,
    params_finite,
    rsgd,
    rsvrg,
    spider_gd1,
    spider_gd2,
    spider_nonconvex,
)
from . import diagnostics

__all__ = [
    "ALGORITHMS",
    "CSV_COLUMNS",
    "CsvRow",
    "ExperimentConfig",
    "SweepResult",
    "cli_main",
    "fit_line",
    "main",
    "run_cell",
    "run_sweep",
]

ALGORITHMS = ("rsgd", "rsvrg", "vrpca", "spider", "spider-gd1", "spider-gd2")

CSV_COLUMNS = (
    "algo",
    "map_mode",
    "d",
    "n",
    "delta",
    "seed",
    "epoch",
    "ifo",
    "f_value",
    "accuracy",
    "grad_sq",
    "epochs_to_double",
    "wall_ms",
)

# step size that keeps the snapshot-based runs stable across the default
# desk-scale gap sweep while leaving measurable progress per window
DEFAULT_SVRG_ETA = 0.003

_X0_TAG = 0x9E37  # distinguishes the initializer stream from the sampling stream

_TAU_ALGOS = ("spider-gd1", "spider-gd2")  # the restart schemes that need tau


def _default_deltas() -> tuple[float, ...]:
    return tuple(1e-2 / k for k in range(1, 9))


@dataclass
class ExperimentConfig:
    """Sweep description; every field has a desk-scale default.

    ``data_seed`` drives the instance's eigenvector geometry (shared by all
    gaps of a sweep); the per-cell ``seeds`` drive the initializer and the
    sampling stream. ``timing`` opts into real wall-clock values in the
    ``wall_ms`` column, which breaks byte-level reproducibility.
    """

    algo: tuple[str, ...] = ("rsvrg",)
    d: int = 100
    n: int = 2000
    delta_list: tuple[float, ...] = field(default_factory=_default_deltas)
    epochs: float = 30.0
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    map_mode: str = "exp"
    eta: float | None = None
    checkpoint_every: float = 1.0
    out_path: str | None = None
    spectrum: str = "packed"
    tail: float | None = None
    workers: int = 1
    ifo_convention: str = "paired"
    data_seed: int = 12345
    eps: float = 0.05
    window: float = 5.0
    fit_window: float | None = None
    timing: bool = False
    L: float | None = None
    tau: float | None = None
    M0: float | None = None
    K: int | None = None

    def __post_init__(self):
        if isinstance(self.algo, str):
            self.algo = tuple(a.strip() for a in self.algo.split(",") if a.strip())
        else:
            self.algo = tuple(self.algo)
        for a in self.algo:
            if a not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {a!r}; choose from {ALGORITHMS}")
        if not self.algo:
            raise ValueError("need at least one algorithm")
        self.delta_list = tuple(float(x) for x in self.delta_list)
        if not self.delta_list:
            raise ValueError("need at least one eigengap")
        self.seeds = tuple(int(s) for s in self.seeds)
        if not self.seeds:
            raise ValueError("need at least one seed")
        if self.epochs < 0:
            raise ValueError("epoch budget must be >= 0")
        if self.checkpoint_every <= 0:
            raise ValueError("checkpoint interval must be positive")
        _check_modes(self.map_mode, self.ifo_convention)
        if self.spectrum not in ("packed", "geometric"):
            raise ValueError("spectrum must be 'packed' or 'geometric'")
        if self.tail is None:
            self.tail = 0.5 if self.spectrum == "packed" else 0.9
        _check_samples(self.d, self.n)
        for delta in self.delta_list:
            _spectrum(self, delta)  # raises on a gap its spectrum cannot hold
        if self.workers < 1:
            raise ValueError("need at least one worker")
        if self.window <= 0:
            raise ValueError("window must be positive")

    @property
    def fit_window_start(self) -> float:
        return 2.0 * self.window if self.fit_window is None else self.fit_window


@dataclass
class CsvRow:
    algo: str
    map_mode: str
    d: int
    n: int
    delta: float
    seed: int
    epoch: float
    ifo: int
    f_value: float
    accuracy: float
    grad_sq: float
    epochs_to_double: float
    wall_ms: float

    def to_line(self) -> str:
        vals = (
            self.algo,
            self.map_mode,
            self.d,
            self.n,
            self.delta,
            self.seed,
            self.epoch,
            self.ifo,
            self.f_value,
            self.accuracy,
            self.grad_sq,
            self.epochs_to_double,
            self.wall_ms,
        )
        return ",".join(repr(v) if isinstance(v, float) else str(v) for v in vals)


@dataclass
class SweepResult:
    rows: list[CsvRow]
    summary_header: list[str]
    summary_rows: list[list[str]]
    failures: list[tuple[str, float, int, str]]


def _draw_x0(P: PcaProblem, seed: int) -> ManifoldPoint:
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), _X0_TAG]))
    return P.manifold.random_point(rng)


def _spectrum(cfg: ExperimentConfig, delta: float) -> np.ndarray:
    if cfg.spectrum == "packed":
        return packed_spectrum(cfg.d, delta, tail=cfg.tail)
    spec = SyntheticSpec(cfg.d, cfg.n, delta, seed=cfg.data_seed, tail=cfg.tail)
    return spec.target_spectrum()


def _build_instance(cfg: ExperimentConfig, delta: float) -> PcaProblem:
    return problem_from_spectrum(_spectrum(cfg, delta), cfg.n, cfg.data_seed)


def _ground_truth(P: PcaProblem) -> float:
    if P.f_star is not None:
        return P.f_star
    lam1, _ = leading_eigpair(P)
    return -lam1


def _tau(cfg: ExperimentConfig, P: PcaProblem, f_star: float) -> float:
    """Gradient-domination constant for the restart schemes; depends on the gap only."""
    if cfg.tau is not None:
        return cfg.tau
    return pl_constant_estimate(P, f_star, 128, seed=0).statistic


def _run_algo(cfg: ExperimentConfig, algo: str, P: PcaProblem, f_star: float, x0,
              seed: int, max_ifo: int, tau: float | None) -> RunTrace:
    ckpt = cfg.checkpoint_every
    smooth = cfg.L if cfg.L is not None else P.L_hint
    if algo == "rsgd":
        eta = cfg.eta if cfg.eta is not None else 1.0 / (2.0 * smooth)
        _, trace = rsgd(
            P, x0, eta, T=max_ifo, seed=seed, map_mode=cfg.map_mode,
            checkpoint_every=ckpt, max_ifo=max_ifo,
        )
    elif algo in ("rsvrg", "vrpca"):
        eta = cfg.eta if cfg.eta is not None else DEFAULT_SVRG_ETA
        mode = "retract" if algo == "vrpca" else cfg.map_mode
        outer = max(1, math.ceil(max_ifo / P.n) + 1)
        _, trace = rsvrg(
            P, x0, eta, epochs=outer, map_mode=mode, seed=seed,
            checkpoint_every=ckpt, max_ifo=max_ifo,
            ifo_convention=cfg.ifo_convention,
        )
    elif algo == "spider":
        gap = max(P.value(x0) - f_star, 1e-12)
        scfg = params_finite(
            P.n, cfg.eps, gap, smooth, seed=seed, map_mode=cfg.map_mode,
            ifo_convention=cfg.ifo_convention,
        )
        _, trace = spider_nonconvex(
            P, x0, scfg, checkpoint_every=ckpt, max_ifo=max_ifo
        )
    elif algo in _TAU_ALGOS:
        gap = max(P.value(x0) - f_star, 1e-12)
        gcfg = GdConfig(
            M0=cfg.M0 if cfg.M0 is not None else gap,
            tau=tau,
            L=smooth,
            K=cfg.K if cfg.K is not None else 20,
            map_mode=cfg.map_mode,
            seed=seed,
            ifo_convention=cfg.ifo_convention,
        )
        runner = spider_gd1 if algo == "spider-gd1" else spider_gd2
        _, trace = runner(P, x0, gcfg, checkpoint_every=ckpt, max_ifo=max_ifo)
    else:
        raise ValueError(f"unknown algorithm {algo!r}")
    return trace


def run_cell(cfg: ExperimentConfig, delta: float, seed: int,
             algo: str | None = None) -> list[CsvRow]:
    """Run one (algorithm, gap, seed) cell and return its checkpoint rows.

    The row grid covers nominal epochs 0, step, ..., epochs; if the run ends
    before the budget, trailing grid rows repeat the final state. Identical
    inputs produce identical rows (``timing`` off).
    """
    algo = cfg.algo[0] if algo is None else algo
    t0 = time.perf_counter() if cfg.timing else None
    P = _build_instance(cfg, float(delta))
    f_star = _ground_truth(P)
    tau = _tau(cfg, P, f_star) if algo in _TAU_ALGOS else None
    return _run_cell(cfg, P, f_star, tau, delta, seed, algo, t0)


def _run_cell(cfg: ExperimentConfig, P: PcaProblem, f_star: float, tau: float | None,
              delta: float, seed: int, algo: str, t0: float | None) -> list[CsvRow]:
    """``run_cell`` on a built instance; the instance's counter restarts at zero."""
    P.counter.reset()
    x0 = _draw_x0(P, seed)
    max_ifo = int(math.ceil(cfg.epochs * P.n - 1e-9))
    map_mode = "retract" if algo == "vrpca" else cfg.map_mode
    trace = _run_algo(cfg, algo, P, f_star, x0, seed, max_ifo, tau)

    by_boundary = {}
    for r in trace.records:
        if r.boundary is not None and r.boundary not in by_boundary:
            by_boundary[r.boundary] = r
    last = trace.records[-1]
    grid = int(round(cfg.epochs / cfg.checkpoint_every)) + 1
    recs = [by_boundary.get(j * cfg.checkpoint_every, last) for j in range(grid)]

    m = max(1, round(cfg.window / cfg.checkpoint_every))
    if len(recs) > m:
        ests = epochs_to_double(
            [(r.epoch, r.f) for r in recs], f_star, window=cfg.window,
            step=cfg.checkpoint_every,
        )
    else:
        ests = []
    wall = (time.perf_counter() - t0) * 1e3 if cfg.timing else 0.0

    rows = []
    for j, r in enumerate(recs):
        etd = ests[j][1] if j < len(ests) else math.nan
        rows.append(
            CsvRow(
                algo=algo,
                map_mode=map_mode,
                d=cfg.d,
                n=cfg.n,
                delta=float(delta),
                seed=int(seed),
                epoch=r.epoch,
                ifo=r.ifo,
                f_value=r.f,
                accuracy=(r.f - f_star) / abs(f_star),
                grad_sq=r.grad_sq,
                epochs_to_double=etd,
                wall_ms=wall,
            )
        )
    return rows


def fit_line(xs, ys) -> tuple[float, float, float]:
    """Least-squares line fit with Pearson correlation; ignores non-finite pairs."""
    pts = [(x, y) for x, y in zip(xs, ys) if math.isfinite(x) and math.isfinite(y)]
    if len(pts) < 2:
        return math.nan, math.nan, math.nan
    mx = sum(p[0] for p in pts) / len(pts)
    my = sum(p[1] for p in pts) / len(pts)
    sxx = sum((p[0] - mx) ** 2 for p in pts)
    sxy = sum((p[0] - mx) * (p[1] - my) for p in pts)
    syy = sum((p[1] - my) ** 2 for p in pts)
    if sxx <= 0:
        return math.nan, math.nan, math.nan
    slope = sxy / sxx
    intercept = my - slope * mx
    corr = sxy / math.sqrt(sxx * syy) if syy > 0 else math.nan
    return slope, intercept, corr


def _window_starts(cfg: ExperimentConfig) -> list[float]:
    count = int(math.floor(cfg.epochs / cfg.window + 1e-9))
    return [s * cfg.window for s in range(count)]


def _summarize(cfg: ExperimentConfig, rows: list[CsvRow]):
    starts = _window_starts(cfg)
    header = (
        ["algo", "delta", "inv_delta"]
        + [f"median_epochs_to_double_w{i + 1}" for i in range(len(starts))]
        + ["fit_slope", "fit_corr"]
    )
    cells: dict[tuple[str, float, int], list[CsvRow]] = {}
    for r in rows:
        cells.setdefault((r.algo, r.delta, r.seed), []).append(r)

    def median_at(algo, delta, start):
        idx = int(round(start / cfg.checkpoint_every))
        vals = []
        for (a, dl, _s), cr in cells.items():
            if a == algo and dl == delta and idx < len(cr):
                vals.append(cr[idx].epochs_to_double)
        vals = [v for v in vals if not math.isnan(v)]
        return float(np.median(vals)) if vals else math.nan

    out = []
    algos = sorted({r.algo for r in rows})
    deltas = sorted({r.delta for r in rows}, reverse=True)
    fits = {}
    for algo in algos:
        med_fit = [median_at(algo, dl, cfg.fit_window_start) for dl in deltas]
        fits[algo] = fit_line([1.0 / dl for dl in deltas], med_fit)
    for algo in algos:
        slope, _icept, corr = fits[algo]
        for dl in deltas:
            meds = [median_at(algo, dl, s) for s in starts]
            out.append(
                [algo, repr(dl), repr(1.0 / dl)]
                + [repr(v) for v in meds]
                + [repr(slope), repr(corr)]
            )
    return header, out


def _failure(e: Exception) -> str:
    return f"{type(e).__name__}: {e}"


def _run_gap(cfg: ExperimentConfig, P: PcaProblem, delta: float, cells) -> dict:
    """Run one gap's ``(index, algo, seed)`` cells on that gap's instance.

    Tau is estimated once and shared by the gap's restart-scheme cells. An
    exception in a cell, or in the tau estimate for the cells that need it,
    becomes that cell's failure message; the other cells still run. Returns
    {index: rows or failure message}.
    """
    f_star = _ground_truth(P)
    tau = tau_failure = None
    if any(algo in _TAU_ALGOS for _i, algo, _s in cells):
        try:
            tau = _tau(cfg, P, f_star)
        except Exception as e:
            tau_failure = _failure(e)
    out = {}
    for i, algo, seed in cells:
        if algo in _TAU_ALGOS and tau_failure is not None:
            out[i] = tau_failure
            continue
        t0 = time.perf_counter() if cfg.timing else None
        try:
            out[i] = _run_cell(cfg, P, f_star, tau, delta, seed, algo, t0)
        except Exception as e:
            out[i] = _failure(e)
    return out


# set by the pool initializer, so only in the worker processes of a parallel
# sweep; each worker computes the factors once and reuses them for its gaps
_worker_factors = None


def _init_worker(cfg: ExperimentConfig):
    global _worker_factors
    _worker_factors = _eigenvector_factors(cfg.d, cfg.n, cfg.data_seed)


def _gap_task(cfg: ExperimentConfig, delta: float, cells) -> dict:
    P = _problem_from_factors(_spectrum(cfg, delta), *_worker_factors, cfg.data_seed)
    return _run_gap(cfg, P, delta, cells)


def run_sweep(cfg: ExperimentConfig) -> SweepResult:
    """Execute every (algo, delta, seed) cell and write the CSV outputs.

    The eigenvector factors are computed once per sweep (once per worker
    process with ``workers > 1``) and each gap's instance is built once from
    them; the cells run grouped by gap, with one instance alive at a time.
    A cell that raises is reported on stderr and skipped; the remaining
    cells are emitted in deterministic (algo, delta, seed) order regardless
    of worker scheduling.
    """
    keys = []  # (algo, delta, seed) in CSV order
    gaps = [[] for _ in cfg.delta_list]  # per gap: (index into keys, algo, seed)
    for algo in cfg.algo:
        for k, delta in enumerate(cfg.delta_list):
            for seed in cfg.seeds:
                gaps[k].append((len(keys), algo, seed))
                keys.append((algo, delta, seed))
    outcomes: dict[int, list[CsvRow] | str] = {}
    if cfg.workers > 1:
        # with fewer gaps than workers, a gap's cells are split over several
        # tasks, each of which builds the instance (and tau) for itself
        split = -(-cfg.workers // len(gaps))
        tasks = [(delta, cells[j::split]) for delta, cells in zip(cfg.delta_list, gaps)
                 for j in range(min(split, len(cells)))]
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=min(cfg.workers, len(tasks)),
            initializer=_init_worker, initargs=(cfg,),
        ) as pool:
            futs = [pool.submit(_gap_task, cfg, delta, cells) for delta, cells in tasks]
            for fut, (_delta, cells) in zip(futs, tasks):
                try:
                    outcomes.update(fut.result())
                except Exception as e:
                    outcomes.update((i, _failure(e)) for i, _a, _s in cells)
    else:
        factors = _eigenvector_factors(cfg.d, cfg.n, cfg.data_seed)
        for k, (delta, cells) in enumerate(zip(cfg.delta_list, gaps)):
            try:
                P = _problem_from_factors(_spectrum(cfg, delta), *factors, cfg.data_seed)
                if k == len(gaps) - 1:
                    factors = None  # built the last gap: release U and V
                outcomes.update(_run_gap(cfg, P, delta, cells))
            except Exception as e:
                outcomes.update((i, _failure(e)) for i, _a, _s in cells)
            P = None  # drop this gap's instance before the next one is built
    failures = [(*keys[i], msg) for i, msg in sorted(outcomes.items())
                if isinstance(msg, str)]
    for algo, delta, seed, msg in failures:
        print(
            f"cell failed: algo={algo} delta={delta} seed={seed}: {msg}",
            file=sys.stderr,
        )
    rows = [row for _i, out in sorted(outcomes.items()) if not isinstance(out, str)
            for row in out]
    header, summary = _summarize(cfg, rows)
    if cfg.out_path:
        _write_csv(cfg.out_path, CSV_COLUMNS, (r.to_line() for r in rows))
        _write_csv(
            cfg.out_path + ".summary.csv", header, (",".join(r) for r in summary)
        )
    return SweepResult(rows, header, summary, failures)


def _write_csv(path, header, lines):
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for line in lines:
            fh.write(line + "\n")


# ----------------------------------------------------------------------------
# command line


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _add_instance_flags(p):
    p.add_argument("--d", type=int, default=None, help="ambient dimension")
    p.add_argument("--n", type=int, default=None, help="number of data columns")
    p.add_argument("--delta", type=float, default=None, help="eigengap of the instance")
    p.add_argument("--tail", type=float, default=None, help="spectrum decay below the gap")


def _add_run_flags(p):
    p.add_argument("--algo", default=None, help="algorithm(s), comma separated")
    p.add_argument("--delta-list", default=None, help="comma-separated eigengaps")
    p.add_argument("--epochs", type=float, default=None, help="budget in oracle epochs")
    p.add_argument("--seed", type=int, default=None, help="single run seed")
    p.add_argument("--seeds", default=None, help="comma-separated run seeds")
    p.add_argument("--eta", type=float, default=None, help="step size override")
    p.add_argument("--map-mode", choices=MAP_MODES, default=None)
    p.add_argument("--checkpoint-every", type=float, default=None)
    p.add_argument("--config", default=None, help="key=value config file")
    p.add_argument("--out", default=None, help="output CSV path")
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--ifo-convention", choices=IFO_CONVENTIONS, default=None)


def _build_parser() -> _Parser:
    p = _Parser(prog="rspider", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd")
    pb = sub.add_parser("bench", help="run a sweep and write CSV + summary")
    _add_instance_flags(pb)
    _add_run_flags(pb)
    pr = sub.add_parser("run", help="run a single cell and write CSV")
    _add_instance_flags(pr)
    _add_run_flags(pr)
    pp = sub.add_parser("probe", help="run diagnostic probes on an instance")
    _add_instance_flags(pp)
    pp.add_argument("--seed", type=int, default=None)
    pp.add_argument("--out", default=None, help="append probe reports to this file")
    pg = sub.add_parser("gen", help="generate an instance and dump its matrix")
    _add_instance_flags(pg)
    pg.add_argument("--seed", type=int, default=None)
    pg.add_argument("--out", default=None, help="binary dump path")
    return p


_BOOL_STRINGS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _value_parser(tp):
    """Config-file parser for one annotated field type (``X | None`` parses X)."""
    args = [a for a in typing.get_args(tp) if a is not type(None)]
    if typing.get_origin(tp) is tuple:
        item = args[0]
        return lambda s: tuple(item(x.strip()) for x in s.split(",") if x.strip())
    tp = args[0] if args else tp
    return (lambda s: _BOOL_STRINGS[s.strip().lower()]) if tp is bool else tp


# every ExperimentConfig field, plus the single-value aliases of the CLI
_CONFIG_PARSERS = {
    **{k: _value_parser(tp) for k, tp in typing.get_type_hints(ExperimentConfig).items()},
    "delta": float,
    "seed": int,
    "out": str,
}


def _read_config_file(path) -> dict:
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise _UsageError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            key = key.replace("-", "_")
            if key not in _CONFIG_PARSERS:
                raise _UsageError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                out[key] = _CONFIG_PARSERS[key](val)
            except (ValueError, KeyError) as e:
                raise _UsageError(f"{path}:{lineno}: bad value for {key}: {e}")
    return out


def _build_config(ns) -> ExperimentConfig:
    """Merge defaults, config file, then explicit flags (flags win)."""
    merged: dict = {}
    if getattr(ns, "config", None):
        merged.update(_read_config_file(ns.config))
    flags = {
        "algo": ns.algo,
        "d": ns.d,
        "n": ns.n,
        "epochs": ns.epochs,
        "eta": ns.eta,
        "map_mode": ns.map_mode,
        "checkpoint_every": ns.checkpoint_every,
        "out": ns.out,
        "tail": ns.tail,
        "workers": ns.workers,
        "ifo_convention": ns.ifo_convention,
    }
    for key, val in flags.items():
        if val is not None:
            merged[key] = val
    if ns.delta_list is not None:
        merged["delta_list"] = _CONFIG_PARSERS["delta_list"](ns.delta_list)
    elif ns.delta is not None:
        merged["delta_list"] = (ns.delta,)
    elif "delta" in merged and "delta_list" not in merged:
        merged["delta_list"] = (merged["delta"],)
    merged.pop("delta", None)
    if ns.seeds is not None:
        merged["seeds"] = _CONFIG_PARSERS["seeds"](ns.seeds)
    elif ns.seed is not None:
        merged["seeds"] = (ns.seed,)
    elif "seed" in merged and "seeds" not in merged:
        merged["seeds"] = (merged["seed"],)
    merged.pop("seed", None)
    if "out" in merged:
        merged["out_path"] = merged.pop("out")
    try:
        return ExperimentConfig(**merged)
    except (TypeError, ValueError) as e:
        raise _UsageError(str(e))


def _cmd_bench(ns) -> int:
    cfg = _build_config(ns)
    if not cfg.out_path:
        raise _UsageError("bench requires --out")
    result = run_sweep(cfg)
    algos = sorted({r.algo for r in result.rows})
    for algo in algos:
        line = next(r for r in result.summary_rows if r[0] == algo)
        print(f"{algo}: fit slope={line[-2]} corr={line[-1]}")
    print(f"wrote {cfg.out_path} and {cfg.out_path}.summary.csv")
    return 0 if result.rows else 2


def _cmd_run(ns) -> int:
    cfg = _build_config(ns)
    if not cfg.out_path:
        raise _UsageError("run requires --out")
    if len(cfg.algo) != 1 or len(cfg.delta_list) != 1 or len(cfg.seeds) != 1:
        raise _UsageError("run expects a single algo, delta and seed")
    rows = run_cell(cfg, cfg.delta_list[0], cfg.seeds[0])
    _write_csv(cfg.out_path, CSV_COLUMNS, (r.to_line() for r in rows))
    print(f"wrote {cfg.out_path} ({len(rows)} rows)")
    return 0


def _probe_instance(d, n, delta, tail, seed):
    spec = SyntheticSpec(d, n, delta, seed=seed, tail=tail)
    P = generate_gap_matrix(spec)
    f_star = _ground_truth(P)
    x = _draw_x0(P, seed)
    reports = [
        diagnostics.fd_gradient_check(P, x, trials=100, t_step=1e-6, seed=seed),
        diagnostics.smoothness_probe(P, pairs=64, radius=0.5, seed=seed),
        diagnostics.pl_constant_estimate(P, f_star, 128, seed=seed),
    ]
    sigma_sq = variance_bound_estimate(P, x, m=2000, seed=seed)
    return reports, sigma_sq


def _cmd_probe(ns) -> int:
    d = ns.d if ns.d is not None else 100
    n = ns.n if ns.n is not None else 2000
    delta = ns.delta if ns.delta is not None else 1e-2
    tail = ns.tail if ns.tail is not None else 0.9
    seed = ns.seed if ns.seed is not None else 0
    reports, sigma_sq = _probe_instance(d, n, delta, tail, seed)
    text = "\n".join(r.to_text() for r in reports)
    text += f"\nsigma_sq_estimate={sigma_sq!r}\n"
    if ns.out:
        with open(ns.out, "a", newline="\n") as fh:
            fh.write(text)
        print(f"appended probe reports to {ns.out}")
    else:
        print(text, end="")
    return 0


def _cmd_gen(ns) -> int:
    if not ns.out:
        raise _UsageError("gen requires --out")
    d = ns.d if ns.d is not None else 100
    n = ns.n if ns.n is not None else 2000
    delta = ns.delta if ns.delta is not None else 1e-2
    tail = ns.tail if ns.tail is not None else 0.9
    seed = ns.seed if ns.seed is not None else 0
    P = generate_gap_matrix(SyntheticSpec(d, n, delta, seed=seed, tail=tail))
    save_problem(P, ns.out)
    print(f"wrote {ns.out} (d={d}, n={n}, delta={delta}, seed={seed})")
    return 0


_COMMANDS = {"bench": _cmd_bench, "run": _cmd_run, "probe": _cmd_probe, "gen": _cmd_gen}


def cli_main(argv=None) -> int:
    """Entry point; returns 0 on success, 1 on usage errors, 2 on failures."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        print(parser.format_usage(), end="", file=sys.stderr)
        return 1
    except SystemExit as e:  # --help
        return 0 if (e.code or 0) == 0 else 1
    if ns.cmd is None:
        print(parser.format_usage(), end="", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[ns.cmd](ns)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (OptimizerError, RuntimeError, OSError) as e:
        print(f"failure: {e}", file=sys.stderr)
        return 2


def main():
    raise SystemExit(cli_main(sys.argv[1:]))
