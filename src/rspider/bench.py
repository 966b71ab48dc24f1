"""Experiment runner: synthetic eigengap sweeps with deterministic CSV output.

Builds seeded instances, runs the configured algorithms over a grid of
(eigengap, seed) cells, each cell once, with checkpoints on an epoch grid
(epochs measured in oracle calls / n), and writes one CSV row per
checkpoint plus a summary CSV with per-gap epochs-to-double medians and a
least-squares fit against the inverse gap. For a fixed BLAS thread count
the entire output is a pure function of the configuration; across thread
counts the BLAS reductions may sum in a different order and change the
last bits.

A task (with one worker, the whole sweep) walks its gaps one by one and
builds each gap's instance once. Its rsvrg and vrpca cells run as one
lockstep column block per algorithm, every (gap, seed) cell a row of one
iterate array, so the task holds the instances of all their gaps at once:
G·n·d·8 bytes for G gaps, 12.8 MB for the default sweep. A task's
instances share one oracle counter, so each inner step of a block is one
charged gradient call per point set across all its gaps. A task without
such cells holds one instance at a time. Each cell still gets the rows it
gets alone, to the bit. An algorithm, gap or seed listed twice is refused
before any work.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import functools
import itertools
import math
import sys
import typing
from dataclasses import dataclass, field, fields

import numpy as np

from ._checks import _check_count, _check_modes, _check_positive
from .diagnostics import _accuracy, _checkpoint_steps, epochs_to_double, pl_constant_estimate
from .geometry import ManifoldPoint
from .oracle import (
    IfoCounter,
    PcaProblem,
    SyntheticSpec,
    _check_samples,
    _eigenvector_factors,
    _problem_from_factors,
    generate_gap_matrix,
    packed_spectrum,
    variance_bound_estimate,
)
from .optim import (
    GdConfig,
    OptimizerError,
    RunTrace,
    _rsvrg_columns,
    params_finite,
    rsgd,
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
    "run_sweep",
]

ALGORITHMS = ("rsgd", "rsvrg", "vrpca", "spider", "spider-gd1", "spider-gd2")

# step size that keeps the snapshot-based runs stable across the default
# desk-scale gap sweep while leaving measurable progress per window
DEFAULT_SVRG_ETA = 0.003

_X0_TAG = 0x9E37  # distinguishes the initializer stream from the sampling stream

_TAU_ALGOS = {"spider-gd1", "spider-gd2"}  # the restart schemes that need tau
_BLOCK_ALGOS = {"rsvrg", "vrpca"}  # run as one column block per task

_SPIDER_EPS = 0.05  # gradient-norm target of the nonconvex solver
_GD_STAGES = 20  # restart stages of spider-gd1 and spider-gd2


def _default_deltas() -> tuple[float, ...]:
    return tuple(1e-2 / k for k in range(1, 9))


@dataclass
class ExperimentConfig:
    """Sweep description; every field has a desk-scale default and is one
    ``bench`` flag, ``--<field-name>`` (``--out`` for ``out_path``). A single
    cell runs as a one-cell sweep: one algorithm, one gap and one seed.

    ``data_seed`` drives the instance's eigenvector geometry (shared by all
    gaps of a sweep); the per-cell ``seeds`` drive the initializer and the
    sampling stream. An algorithm, gap or seed listed twice is refused,
    since it would repeat cells. ``window`` is the span of the
    epochs-to-double statistic and ``fit_window`` the start of the window
    the summary fits against the inverse gap (default ``2 * window``); both
    are whole numbers of ``checkpoint_every`` steps. The solvers get eps
    0.05, 20 restart stages, the instance's smoothness hint, the estimated
    domination constant tau and the initial gap as M0.
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
        self.algo = tuple(self.algo)
        for a in self.algo:
            if a not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {a!r}; choose from {ALGORITHMS}")
        if not self.algo:
            raise ValueError("need at least one algorithm")
        self.delta_list = tuple(float(x) for x in self.delta_list)
        if not self.delta_list:
            raise ValueError("need at least one eigengap")
        self.seeds = tuple(self.seeds)
        if not self.seeds:
            raise ValueError("need at least one seed")
        for seed in self.seeds:
            _check_count("seed", seed, 0)
        _check_count("data_seed", self.data_seed, 0)
        self.seeds = tuple(int(s) for s in self.seeds)  # numpy integers as ints
        for what, items in (("algorithm", self.algo), ("gap", self.delta_list),
                            ("seed", self.seeds)):
            repeated = [x for x in items if items.count(x) > 1]
            if repeated:
                raise ValueError(f"{what} {repeated[0]!r} is listed twice; "
                                 "a sweep runs each cell once")
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
        _check_count("d", self.d, 2)
        _check_count("n", self.n, 1)
        _check_samples(self.d, self.n)
        for delta in self.delta_list:
            _spectrum(self, delta)  # raises on a gap its spectrum cannot hold
        _check_count("workers", self.workers, 1)
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


def _max_ifo(cfg: ExperimentConfig) -> int:
    return int(math.ceil(cfg.epochs * cfg.n - 1e-9))


def _run_cell(cfg: ExperimentConfig, P: PcaProblem, tau: float | None, algo: str,
              delta: float, seed: int) -> list[CsvRow]:
    """One lone cell on a built instance; its run counts its own oracle calls."""
    x0, max_ifo = _draw_x0(P, seed), _max_ifo(cfg)
    opts = dict(seed=seed, map_mode=cfg.map_mode, checkpoint_every=cfg.checkpoint_every,
                max_ifo=max_ifo)
    if algo == "rsgd":
        eta = cfg.eta if cfg.eta is not None else 1.0 / (2.0 * P.L_hint)
        _, trace = rsgd(P, x0, eta, T=max_ifo, **opts)
    else:  # spider, spider-gd1, spider-gd2: M0 is the initial gap
        gap = max(P.value(x0) - P.f_star, 1e-12)
        if algo == "spider":
            scfg = params_finite(P.n, _SPIDER_EPS, gap, P.L_hint)
            _, trace = spider_nonconvex(P, x0, scfg, **opts)
        else:
            gcfg = GdConfig(M0=gap, tau=tau, L=P.L_hint, K=_GD_STAGES)
            runner = spider_gd1 if algo == "spider-gd1" else spider_gd2
            _, trace = runner(P, x0, gcfg, **opts)
    return _cell_rows(cfg, P, algo, delta, trace)


def _run_block(cfg: ExperimentConfig, algo: str, cells) -> dict:
    """One algorithm's ``((algo, delta, seed), P)`` rsvrg or vrpca cells as
    one column block (:func:`optim._rsvrg_columns`); every run spends the
    cell budget, in ceil(budget / n) + 1 outer epochs at most, and a vrpca
    run moves by retraction.

    Returns {cell: rows, or the exception that failed the cell}. A run that
    raises fails only its cell, and an exception that ends the whole block
    fails all of them.
    """
    eta = cfg.eta if cfg.eta is not None else DEFAULT_SVRG_ETA
    max_ifo = _max_ifo(cfg)
    try:
        ends = _rsvrg_columns(
            [(P, _draw_x0(P, seed), seed) for (_a, _dl, seed), P in cells], eta,
            max(1, math.ceil(max_ifo / cfg.n) + 1),
            map_mode="retract" if algo == "vrpca" else cfg.map_mode,
            checkpoint_every=cfg.checkpoint_every, max_ifo=max_ifo)
    except Exception as e:
        ends = [e] * len(cells)
    return {cell: end if isinstance(end, Exception)
            else _attempt(_cell_rows, cfg, P, algo, cell[1], end[1])
            for (cell, P), end in zip(cells, ends)}


def _cell_rows(cfg: ExperimentConfig, P: PcaProblem, algo: str, delta: float,
               trace: RunTrace) -> list[CsvRow]:
    """A cell's CSV rows: the grid epochs 0, step, 2 step, ... inside the
    budget; the end record fills the grid rows after a run that ends early.
    The seed and map mode are the ones the run records in its meta.
    """
    # boundary records come in order, one per grid epoch from 0 up to the budget
    grid = int(math.floor(cfg.epochs / cfg.checkpoint_every + 1e-9)) + 1
    recs = [r for r in trace.records if r.boundary is not None][:grid]
    recs += [trace.records[-1]] * (grid - len(recs))

    if len(recs) > _checkpoint_steps(cfg.window, cfg.checkpoint_every):
        ests = epochs_to_double(
            [(r.epoch, r.f) for r in recs], P.f_star, window=cfg.window,
            step=cfg.checkpoint_every,
        )
    else:
        ests = []

    meta = trace.meta
    return [CsvRow(algo=algo, map_mode=meta["map_mode"], d=cfg.d, n=cfg.n, delta=delta,
                   seed=meta["seed"], epoch=r.epoch, ifo=r.ifo, f_value=r.f,
                   accuracy=_accuracy(r.f, P.f_star), grad_sq=r.grad_sq,
                   epochs_to_double=ests[j][1] if j < len(ests) else math.nan)
            for j, r in enumerate(recs)]


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


def _summarize(cfg: ExperimentConfig, cells: dict):
    """The summary lines of the ``{(algo, delta, seed): rows}`` cells that
    ran: per algorithm and gap, the median epochs-to-double of each window
    over the gap's seeds, and the algorithm's fit against the inverse gap."""
    count = int(math.floor(cfg.epochs / cfg.window + 1e-9))  # whole windows
    header = (
        ["algo", "delta", "inv_delta"]
        + [f"median_epochs_to_double_w{i + 1}" for i in range(count)]
        + ["fit_slope", "fit_corr"]
    )
    seeds: dict[tuple[str, float], list[list[CsvRow]]] = {}
    for (algo, delta, _seed), rows in cells.items():
        seeds.setdefault((algo, delta), []).append(rows)

    def median_at(algo, delta, start):
        idx = int(round(start / cfg.checkpoint_every))
        vals = [rows[idx].epochs_to_double for rows in seeds.get((algo, delta), ())
                if idx < len(rows) and not math.isnan(rows[idx].epochs_to_double)]
        return float(np.median(vals)) if vals else math.nan

    out = []
    deltas = sorted({dl for _a, dl in seeds}, reverse=True)
    for algo in sorted({algo for algo, _dl in seeds}):
        med_fit = [median_at(algo, dl, cfg.fit_window_start) for dl in deltas]
        slope, _icept, corr = fit_line([1.0 / dl for dl in deltas], med_fit)
        for dl in deltas:
            meds = [median_at(algo, dl, k * cfg.window) for k in range(count)]
            out.append(
                [algo, repr(dl), repr(1.0 / dl)]
                + [repr(v) for v in meds]
                + [repr(slope), repr(corr)]
            )
    return header, out


def _attempt(fn, *args):
    """``fn(*args)``, or the exception it raised: what ends one cell's work.
    The exception is kept without its traceback, whose frames would hold
    the cell's instance until the task ends."""
    try:
        return fn(*args)
    except Exception as e:
        return e.with_traceback(None)


def _task_outcomes(cfg: ExperimentConfig, factors, cells) -> dict:
    """Run one task's ``(algo, delta, seed)`` cells, which come gap by gap,
    each gap once.

    Per gap: build the instance once from the sweep's eigenvector
    ``factors``; estimate tau once if a restart-scheme cell needs it; run
    the gap's rsgd and spider-family cells one at a time, and queue its
    rsvrg and vrpca cells. Once every gap is walked, the queued cells run as
    one column block per algorithm (:func:`_run_block`), so the task holds
    the instances of their gaps until then. Those gaps are built into one
    row buffer, gap after gap, so a block step gathers the rows of all its
    runs with one ``take``. An instance no block holds is let go when its
    gap is done. Every instance gets the task's one counter, so a block's
    inner step is one charged call per point set across its gaps; each run
    still counts and budgets only its own calls.
    Returns {cell: rows, or the exception that failed the cell}. An
    exception in a build fails that gap's cells, one in the tau estimate
    fails the cells that need tau, and one in a cell fails only that cell.
    """
    counter, blocks, out = IfoCounter(), {}, {}
    blocked = {delta for algo, delta, _s in cells if algo in _BLOCK_ALGOS}
    # the k-th blocked gap's rows are rows k*n:(k+1)*n of the buffer
    buffer = np.empty((len(blocked) * cfg.n, cfg.d))
    slots = (buffer[k * cfg.n:(k + 1) * cfg.n] for k in itertools.count())
    for delta, gap in itertools.groupby(cells, key=lambda cell: cell[1]):
        gap = list(gap)
        algos = {algo for algo, _dl, _s in gap}
        P = _attempt(_problem_from_factors, _spectrum(cfg, delta), *factors,
                     next(slots) if algos & _BLOCK_ALGOS else None)
        if isinstance(P, Exception):
            out.update(dict.fromkeys(gap, P))
            continue
        P.counter = counter
        tau = None
        if algos & _TAU_ALGOS:
            tau = _attempt(pl_constant_estimate, P, P.f_star, 128, 0)
            tau = tau if isinstance(tau, Exception) else tau.statistic
        for cell in gap:
            if cell[0] in _BLOCK_ALGOS:
                blocks.setdefault(cell[0], []).append((cell, P))
            elif cell[0] in _TAU_ALGOS and isinstance(tau, Exception):
                out[cell] = tau
            else:
                out[cell] = _attempt(_run_cell, cfg, P, tau, *cell)
    for algo, block in blocks.items():
        out.update(_run_block(cfg, algo, block))
    return out


def run_sweep(cfg: ExperimentConfig) -> SweepResult:
    """Execute every (algo, delta, seed) cell and write the CSV outputs.

    The eigenvector factors are computed once per sweep, and the cells run
    as tasks, in this process or, with ``workers > 1``, in a process pool.
    With one worker a single task holds the whole sweep; otherwise the gaps
    are dealt over ``workers`` tasks, and with fewer gaps than workers each
    gap's cells are split over several. A task walks its gaps one by one,
    builds each gap's instance once and runs its rsvrg and vrpca cells as
    one column block per algorithm (:func:`_task_outcomes`). A cell that
    raises is reported on stderr and skipped; the remaining cells are
    emitted in deterministic (algo, delta, seed) order regardless of worker
    scheduling.
    """
    gaps = [[(algo, delta, seed) for algo in cfg.algo for seed in cfg.seeds]
            for delta in cfg.delta_list]
    deal = min(cfg.workers, len(gaps))  # tasks that hold whole gaps
    split = -(-cfg.workers // len(gaps))  # tasks per gap
    tasks = [[cell for k in range(t, len(gaps), deal) for cell in gaps[k][j::split]]
             for t in range(deal) for j in range(split)]
    task = functools.partial(
        _task_outcomes, cfg, _eigenvector_factors(cfg.d, cfg.n, cfg.data_seed)
    )
    tasks = [cells for cells in tasks if cells]
    if cfg.workers > 1:
        with concurrent.futures.ProcessPoolExecutor(min(cfg.workers, len(tasks))) as pool:
            task_outs = list(pool.map(task, tasks))
    else:
        task_outs = map(task, tasks)
    outcomes = {cell: out for task_out in task_outs for cell, out in task_out.items()}
    cells, failures = {}, []
    for cell in itertools.product(cfg.algo, cfg.delta_list, cfg.seeds):  # CSV order
        out = outcomes[cell]
        if isinstance(out, Exception):
            failures.append((*cell, f"{type(out).__name__}: {out}"))
            print(f"cell failed: algo={cell[0]} delta={cell[1]} seed={cell[2]}: "
                  f"{failures[-1][3]}", file=sys.stderr)
        else:
            cells[cell] = out
    rows = [row for out in cells.values() for row in out]
    header, summary = _summarize(cfg, cells)
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
    def error(self, message):  # a flag error ends with the usage line of its parser
        raise _UsageError(f"{message}\n{self.format_usage().rstrip()}")


class _Command(_Parser):
    """A subcommand's parser. It rejects the arguments it does not know
    itself, so that error carries its usage line, not the top-level one."""

    def parse_known_args(self, args=None, namespace=None):
        ns, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error("unrecognized arguments: " + " ".join(extra))
        return ns, extra


def _value_parser(tp):
    """Flag parser for one annotated field type (``X | None`` parses X); a
    tuple field takes a comma list, named for argparse's error messages."""
    args = [a for a in typing.get_args(tp) if a is not type(None)]
    if typing.get_origin(tp) is not tuple:
        return args[0] if args else tp
    item = args[0]

    def parse(s):
        return tuple(item(x.strip()) for x in s.split(",") if x.strip())
    parse.__name__ = f"comma-separated {item.__name__} list"
    return parse


# the fields not spelled just --<field-name>; a field's spellings share its one dest
_SPELLINGS = {"delta_list": ("--delta-list", "--delta"), "seeds": ("--seeds", "--seed"),
              "out_path": ("--out",)}


def _add_field_flags(p, cls):
    """One flag per field of the dataclass ``cls``; the last spelling given wins."""
    hints = typing.get_type_hints(cls)
    for f in fields(cls):
        names = _SPELLINGS.get(f.name, ("--" + f.name.replace("_", "-"),))
        p.add_argument(*names, dest=f.name, type=_value_parser(hints[f.name]), default=None)


def _build_parser() -> _Parser:
    p = _Parser(prog="rspider", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", parser_class=_Command)
    _add_field_flags(sub.add_parser("bench", help="run a sweep and write CSV + summary"),
                     ExperimentConfig)
    pp = sub.add_parser("probe", help="run diagnostic probes on an instance")
    _add_field_flags(pp, SyntheticSpec)
    pp.set_defaults(d=100, n=2000, delta=1e-2, seed=0)
    pp.add_argument("--out", default=None, help="append probe reports to this file")
    return p


def _build(cls, ns):
    """The dataclass ``cls`` from the flags given, over its defaults.

    A value the dataclass rejects is a usage error.
    """
    given = {f.name: getattr(ns, f.name) for f in fields(cls) if getattr(ns, f.name) is not None}
    try:
        return cls(**given)
    except (TypeError, ValueError) as e:
        raise _UsageError(str(e))


def _cmd_bench(ns) -> int:
    cfg = _build(ExperimentConfig, ns)
    if not cfg.out_path:
        raise _UsageError("bench requires --out")
    result = run_sweep(cfg)
    for algo, line in {line[0]: line for line in result.summary_rows}.items():
        print(f"{algo}: fit slope={line[-2]} corr={line[-1]}")  # one fit per algorithm
    fit_end = cfg.fit_window_start + cfg.window
    if fit_end > cfg.epochs * (1.0 + 1e-9):
        print(f"note: the fit window (epochs {cfg.fit_window_start!r} to {fit_end!r}) ends past "
              f"the {cfg.epochs!r}-epoch budget, so the fit has no data", file=sys.stderr)
    print(f"wrote {cfg.out_path} and {cfg.out_path}.summary.csv")
    return 0 if result.rows else 2


def _cmd_probe(ns) -> int:
    spec = _build(SyntheticSpec, ns)
    P = generate_gap_matrix(spec)
    x = _draw_x0(P, spec.seed)
    reports = [
        diagnostics.fd_gradient_check(P, x, trials=100, t_step=1e-6, seed=spec.seed),
        diagnostics.smoothness_probe(P, pairs=64, radius=0.5, seed=spec.seed),
        diagnostics.pl_constant_estimate(P, P.f_star, 128, seed=spec.seed),
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


_COMMANDS = {"bench": _cmd_bench, "probe": _cmd_probe}


def cli_main(argv=None) -> int:
    """Entry point; returns 0 on success, 1 on usage errors, 2 on failures."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        if ns.cmd is None:
            print(parser.format_usage(), end="", file=sys.stderr)
            return 1
        return _COMMANDS[ns.cmd](ns)
    except SystemExit as e:  # --help
        return 0 if (e.code or 0) == 0 else 1
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (OptimizerError, RuntimeError, OSError, ValueError) as e:
        print(f"failure: {e}", file=sys.stderr)
        return 2


def main():
    raise SystemExit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    sys.exit("error: rspider.bench is not a command; run the command line as "
             "`python -m rspider`")
