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
import functools
import math
import sys
import typing
from dataclasses import dataclass, field, fields

import numpy as np

from .diagnostics import _checkpoint_steps, epochs_to_double, pl_constant_estimate
from .geometry import ManifoldPoint
from .oracle import (
    PcaProblem,
    SyntheticSpec,
    _check_samples,
    _eigenvector_factors,
    _problem_from_factors,
    generate_gap_matrix,
    packed_spectrum,
    save_problem,
    variance_bound_estimate,
)
from .optim import (
    MAP_MODES,
    GdConfig,
    OptimizerError,
    RunTrace,
    _check_modes,
    _check_positive,
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

# step size that keeps the snapshot-based runs stable across the default
# desk-scale gap sweep while leaving measurable progress per window
DEFAULT_SVRG_ETA = 0.003

_X0_TAG = 0x9E37  # distinguishes the initializer stream from the sampling stream

_TAU_ALGOS = ("spider-gd1", "spider-gd2")  # the restart schemes that need tau

_SPIDER_EPS = 0.05  # gradient-norm target of the nonconvex solver
_GD_STAGES = 20  # restart stages of spider-gd1 and spider-gd2


def _check_algo(algo: str):
    if algo not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algo!r}; choose from {ALGORITHMS}")


def _default_deltas() -> tuple[float, ...]:
    return tuple(1e-2 / k for k in range(1, 9))


@dataclass
class ExperimentConfig:
    """Sweep description; every field has a desk-scale default.

    ``data_seed`` drives the instance's eigenvector geometry (shared by all
    gaps of a sweep); the per-cell ``seeds`` drive the initializer and the
    sampling stream. ``window`` is the span of the epochs-to-double statistic
    and ``fit_window`` the start of the window the summary fits against the
    inverse gap (default ``2 * window``); both are whole numbers of
    ``checkpoint_every`` steps. The solvers get eps 0.05, 20 restart stages,
    the instance's smoothness hint, the estimated domination constant tau and
    the initial gap as M0.
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
    data_seed: int = 12345
    window: float = 5.0
    fit_window: float | None = None

    def __post_init__(self):
        if isinstance(self.algo, str):
            self.algo = tuple(a.strip() for a in self.algo.split(",") if a.strip())
        else:
            self.algo = tuple(self.algo)
        for a in self.algo:
            _check_algo(a)
        if not self.algo:
            raise ValueError("need at least one algorithm")
        self.delta_list = tuple(float(x) for x in self.delta_list)
        if not self.delta_list:
            raise ValueError("need at least one eigengap")
        self.seeds = tuple(int(s) for s in self.seeds)
        if not self.seeds:
            raise ValueError("need at least one seed")
        if not (math.isfinite(self.epochs) and self.epochs >= 0):
            raise ValueError(f"epoch budget must be finite and >= 0, got {self.epochs!r}")
        _check_positive("checkpoint interval", self.checkpoint_every)
        _check_modes(self.map_mode)
        if self.eta is not None:
            _check_positive("step size", self.eta)
        if self.spectrum not in ("packed", "geometric"):
            raise ValueError("spectrum must be 'packed' or 'geometric'")
        if self.tail is None:
            self.tail = 0.5 if self.spectrum == "packed" else 0.9
        _check_samples(self.d, self.n)
        for delta in self.delta_list:
            _spectrum(self, delta)  # raises on a gap its spectrum cannot hold
        if self.workers < 1:
            raise ValueError("need at least one worker")
        _checkpoint_steps(self.window, self.checkpoint_every)
        if self.fit_window is not None:
            _checkpoint_steps(self.fit_window, self.checkpoint_every, "fit_window", least=0)

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

    def to_line(self) -> str:
        vals = (getattr(self, c) for c in CSV_COLUMNS)
        return ",".join(repr(v) if isinstance(v, float) else str(v) for v in vals)


CSV_COLUMNS = tuple(f.name for f in fields(CsvRow))


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


def _run_algo(cfg: ExperimentConfig, algo: str, P: PcaProblem, f_star: float, x0,
              seed: int, max_ifo: int, tau: float | None, map_mode: str) -> RunTrace:
    ckpt = cfg.checkpoint_every
    if algo == "rsgd":
        eta = cfg.eta if cfg.eta is not None else 1.0 / (2.0 * P.L_hint)
        _, trace = rsgd(
            P, x0, eta, T=max_ifo, seed=seed, map_mode=map_mode,
            checkpoint_every=ckpt, max_ifo=max_ifo,
        )
    elif algo in ("rsvrg", "vrpca"):
        eta = cfg.eta if cfg.eta is not None else DEFAULT_SVRG_ETA
        outer = max(1, math.ceil(max_ifo / P.n) + 1)
        _, trace = rsvrg(
            P, x0, eta, epochs=outer, map_mode=map_mode, seed=seed,
            checkpoint_every=ckpt, max_ifo=max_ifo,
        )
    else:  # spider, spider-gd1, spider-gd2: M0 is the initial gap
        gap = max(P.value(x0) - f_star, 1e-12)
        if algo == "spider":
            scfg = params_finite(P.n, _SPIDER_EPS, gap, P.L_hint, seed=seed, map_mode=map_mode)
            _, trace = spider_nonconvex(P, x0, scfg, checkpoint_every=ckpt, max_ifo=max_ifo)
        else:
            gcfg = GdConfig(M0=gap, tau=tau, L=P.L_hint, K=_GD_STAGES, map_mode=map_mode,
                            seed=seed)
            runner = spider_gd1 if algo == "spider-gd1" else spider_gd2
            _, trace = runner(P, x0, gcfg, checkpoint_every=ckpt, max_ifo=max_ifo)
    return trace


def run_cell(cfg: ExperimentConfig, delta: float, seed: int,
             algo: str | None = None) -> list[CsvRow]:
    """Run one (algorithm, gap, seed) cell and return its checkpoint rows.

    The row grid covers the nominal epochs 0, step, 2 step, ... that do not
    pass the budget ``epochs``; if the run ends before the budget, trailing
    grid rows repeat the final state. Identical inputs produce identical
    rows. The cell runs on the path a sweep takes, and an exception in it is
    raised here.
    """
    algo = cfg.algo[0] if algo is None else algo
    delta = float(delta)
    _check_algo(algo)
    _spectrum(cfg, delta)  # raises on a gap its spectrum cannot hold
    factors = _eigenvector_factors(cfg.d, cfg.n, cfg.data_seed)
    out = _gap_outcomes(cfg, factors, delta, [(0, algo, seed)])[0]
    if isinstance(out, Exception):
        raise out
    return out


def _run_cell(cfg: ExperimentConfig, P: PcaProblem, f_star: float, tau: float | None,
              delta: float, seed: int, algo: str) -> list[CsvRow]:
    """One cell on a built instance; its run counts the oracle calls from its own zero."""
    x0 = _draw_x0(P, seed)
    max_ifo = int(math.ceil(cfg.epochs * P.n - 1e-9))
    map_mode = "retract" if algo == "vrpca" else cfg.map_mode
    trace = _run_algo(cfg, algo, P, f_star, x0, seed, max_ifo, tau, map_mode)

    # boundary records come in order, one per grid epoch from 0 up to the budget
    grid = int(math.floor(cfg.epochs / cfg.checkpoint_every + 1e-9)) + 1
    recs = [r for r in trace.records if r.boundary is not None][:grid]
    recs += [trace.records[-1]] * (grid - len(recs))

    if len(recs) > round(cfg.window / cfg.checkpoint_every):
        ests = epochs_to_double(
            [(r.epoch, r.f) for r in recs], f_star, window=cfg.window,
            step=cfg.checkpoint_every,
        )
    else:
        ests = []

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


def _gap_outcomes(cfg: ExperimentConfig, factors, delta: float, cells) -> dict:
    """Run one gap's ``(index, algo, seed)`` cells on that gap's instance.

    Builds the instance from the sweep's eigenvector ``factors`` and finds
    its optimum; tau is estimated once and shared by the gap's restart-scheme
    cells. Returns {index: rows, or the exception that failed the cell}. An
    exception in the build fails every cell, one in the tau estimate fails
    the cells that need tau, and one in a cell fails only that cell.
    """
    try:
        P = _problem_from_factors(_spectrum(cfg, delta), *factors, cfg.data_seed)
        f_star = P.f_star
    except Exception as e:
        return {i: e for i, _a, _s in cells}
    tau = None
    if any(algo in _TAU_ALGOS for _i, algo, _s in cells):
        try:
            tau = pl_constant_estimate(P, f_star, 128, seed=0).statistic
        except Exception as e:
            tau = e
    out = {}
    for i, algo, seed in cells:
        try:
            if algo in _TAU_ALGOS and isinstance(tau, Exception):
                raise tau
            out[i] = _run_cell(cfg, P, f_star, tau, delta, seed, algo)
        except Exception as e:
            out[i] = e
    return out


def run_sweep(cfg: ExperimentConfig) -> SweepResult:
    """Execute every (algo, delta, seed) cell and write the CSV outputs.

    The eigenvector factors are computed once per sweep and each gap's
    instance is built once from them; the cells run grouped by gap, in this
    process or, with ``workers > 1``, in a process pool. A cell that raises
    is reported on stderr and skipped; the remaining cells are emitted in
    deterministic (algo, delta, seed) order regardless of worker scheduling.
    """
    keys = []  # (algo, delta, seed) in CSV order
    gaps = [[] for _ in cfg.delta_list]  # per gap: (index into keys, algo, seed)
    for algo in cfg.algo:
        for k, delta in enumerate(cfg.delta_list):
            for seed in cfg.seeds:
                gaps[k].append((len(keys), algo, seed))
                keys.append((algo, delta, seed))
    # with fewer gaps than workers, a gap's cells are split over several
    # tasks, each of which builds the instance (and tau) for itself
    split = -(-cfg.workers // len(gaps))
    tasks = [(delta, cells[j::split]) for delta, cells in zip(cfg.delta_list, gaps)
             for j in range(min(split, len(cells)))]
    gap_task = functools.partial(
        _gap_outcomes, cfg, _eigenvector_factors(cfg.d, cfg.n, cfg.data_seed)
    )
    if cfg.workers > 1:
        with concurrent.futures.ProcessPoolExecutor(min(cfg.workers, len(tasks))) as pool:
            gap_outs = list(pool.map(gap_task, *zip(*tasks)))
    else:
        gap_outs = map(gap_task, *zip(*tasks))  # lazy: one instance alive at a time
    outcomes = {i: _failure(out) if isinstance(out, Exception) else out
                for gap_out in gap_outs for i, out in gap_out.items()}
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


def _value_parser(tp):
    """Config-file parser for one annotated field type (``X | None`` parses X)."""
    args = [a for a in typing.get_args(tp) if a is not type(None)]
    if typing.get_origin(tp) is tuple:
        item = args[0]
        return lambda s: tuple(item(x.strip()) for x in s.split(",") if x.strip())
    return args[0] if args else tp


_FIELD_TYPES = typing.get_type_hints(ExperimentConfig)

# the single-value aliases of the CLI and the config file: alias -> (field, type)
_ALIASES = {"delta": ("delta_list", float), "seed": ("seeds", int), "out": ("out_path", str)}

_CONFIG_PARSERS = {
    **{k: _value_parser(tp) for k, tp in _FIELD_TYPES.items()},
    **{alias: tp for alias, (_field, tp) in _ALIASES.items()},
}


def _add_instance_flags(p):
    p.add_argument("--d", type=int, default=None, help="ambient dimension")
    p.add_argument("--n", type=int, default=None, help="number of data columns")
    p.add_argument("--delta", type=float, default=None, help="eigengap of the instance")
    p.add_argument("--tail", type=float, default=None, help="spectrum decay below the gap")


def _add_run_flags(p):
    p.add_argument("--algo", default=None, help="algorithm(s), comma separated")
    p.add_argument("--delta-list", type=_CONFIG_PARSERS["delta_list"], default=None,
                   help="comma-separated eigengaps")
    p.add_argument("--epochs", type=float, default=None, help="budget in oracle epochs")
    p.add_argument("--seed", type=int, default=None, help="single run seed")
    p.add_argument("--seeds", type=_CONFIG_PARSERS["seeds"], default=None,
                   help="comma-separated run seeds")
    p.add_argument("--eta", type=float, default=None, help="step size override")
    p.add_argument("--map-mode", choices=MAP_MODES, default=None)
    p.add_argument("--checkpoint-every", type=float, default=None)
    p.add_argument("--config", default=None, help="key=value config file")
    p.add_argument("--out", default=None, help="output CSV path")
    p.add_argument("--workers", type=int, default=None)


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
    for sp in (pp, pg):
        sp.set_defaults(d=100, n=2000, delta=1e-2, tail=0.9, seed=0)
    return p


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
            except ValueError as e:
                raise _UsageError(f"{path}:{lineno}: bad value for {key}: {e}")
    return out


def _resolve_aliases(values: dict) -> dict:
    """Move each alias onto its field; the field itself wins within one source."""
    for alias, (name, _tp) in _ALIASES.items():
        if alias in values:
            val = values.pop(alias)
            is_tuple = typing.get_origin(_FIELD_TYPES[name]) is tuple
            values.setdefault(name, (val,) if is_tuple else val)
    return values


def _build_config(ns) -> ExperimentConfig:
    """Merge defaults, config file, then explicit flags (flags win)."""
    merged = _resolve_aliases(_read_config_file(ns.config)) if ns.config else {}
    flags = {k: v for k, v in vars(ns).items() if v is not None and k not in ("cmd", "config")}
    merged.update(_resolve_aliases(flags))
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
    fit_end = cfg.fit_window_start + cfg.window
    if fit_end > cfg.epochs * (1.0 + 1e-9):
        print(f"note: the fit window (epochs {cfg.fit_window_start!r} to {fit_end!r}) ends past "
              f"the {cfg.epochs!r}-epoch budget, so the fit has no data", file=sys.stderr)
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


def _cmd_probe(ns) -> int:
    P = generate_gap_matrix(SyntheticSpec(ns.d, ns.n, ns.delta, seed=ns.seed, tail=ns.tail))
    x = _draw_x0(P, ns.seed)
    reports = [
        diagnostics.fd_gradient_check(P, x, trials=100, t_step=1e-6, seed=ns.seed),
        diagnostics.smoothness_probe(P, pairs=64, radius=0.5, seed=ns.seed),
        diagnostics.pl_constant_estimate(P, P.f_star, 128, seed=ns.seed),
    ]
    text = "\n".join(r.to_text() for r in reports)
    sigma_sq = variance_bound_estimate(P, x)
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
    P = generate_gap_matrix(SyntheticSpec(ns.d, ns.n, ns.delta, seed=ns.seed, tail=ns.tail))
    save_problem(P, ns.out)
    print(f"wrote {ns.out} (d={ns.d}, n={ns.n}, delta={ns.delta}, seed={ns.seed})")
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
    except (_UsageError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (OptimizerError, RuntimeError, OSError) as e:
        print(f"failure: {e}", file=sys.stderr)
        return 2


def main():
    raise SystemExit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    sys.exit("error: rspider.bench is not a command; run the command line as "
             "`python -m rspider`")
