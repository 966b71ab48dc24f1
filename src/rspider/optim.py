"""Variance-reduced stochastic optimizers on geodesic manifolds.

Every variance-reduced solver here is a schedule around one estimator step,
:meth:`_Run.estimate`: the transported difference g(x) - transport(y -> x,
g(y) - ref) of one sampled gradient evaluated at two points. The recursive
solver takes y = the previous iterate and ref = its running surrogate,
re-anchored every ``q`` steps; SVRG takes y = a snapshot and ref = the
snapshot's full gradient. Two restart schemes give linear convergence on
gradient-dominated objectives; both are stage schedules for one driver,
:func:`_restarts`, around the recursive solver. Every solver, the SGD
baseline included, runs on one :class:`_Run`, which keeps its index stream,
oracle tallies, step count, budget and records (the start, each checkpoint
and the end) and takes every step (:meth:`_Run.step`: sample, estimate,
tally, move, record); an SGD step is a one-sample anchor, and SVRG's
snapshot gradient is a full-pass anchor without the move. SVRG's batches
and budget do not depend on its iterates, so it runs many runs in lockstep
as the rows of one array (:func:`_rsvrg_columns`); :func:`rsvrg` is the
one-run case, and every row has the bits of a lone run's :meth:`_Run.step`.

The loops carry iterates, gradients and the surrogate as raw coordinate
arrays: the oracle's kernels take and return them, and the manifold's raw
operations (``_exp``, ``_retract``, ``_transport``, ``_dist``) move them.
``x0`` is checked once on entry. A point is wrapped, as a trusted point, only
where it leaves the loop: in a checkpoint record, in the :class:`FrozenState`
handed to an ``on_correction`` hook, and as the returned point.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from ._checks import _check_count, _check_modes, _check_positive
from .geometry import GeometryError, ManifoldPoint, TangentVector, _tangent_sq
from .oracle import FiniteSumObjective, _prepare_columns, _row_home

__all__ = [
    "FrozenState",
    "GdConfig",
    "OptimizerError",
    "RunTrace",
    "SpiderConfig",
    "TraceRecord",
    "params_finite",
    "params_stochastic",
    "rsgd",
    "rsvrg",
    "spider_gd1",
    "spider_gd2",
    "spider_nonconvex",
]


class OptimizerError(RuntimeError):
    """An optimizer run aborted (degenerate geometry or invalid state)."""


def _ceil_tol(x: float) -> int:
    """Ceiling with a relative guard against float noise just above an integer."""
    return math.ceil(x - 1e-9 * max(1.0, abs(x)))


def _batch_size(q, L, step_len, budget, n):
    """Samples for one correction step: ceil(min(n, q L^2 step^2 / budget)).

    Clamped to at least one sample; a zero-length step would otherwise skip
    the correction and break the estimator recursion.
    """
    raw = q * L**2 * step_len**2 / budget
    if n is not None:
        raw = min(float(n), raw)
    return max(1, _ceil_tol(raw))


@dataclass
class SpiderConfig:
    """Schedule for the recursive variance-reduced solver.

    ``n = None`` selects sample-only mode: anchors draw ``S1`` components
    with replacement and correction batches are not capped at n. The step
    size is the read-only :attr:`eta`, 1/(2L).
    """

    L: float
    eps: float
    q: int
    S1: int
    T: int
    n: int | None = None

    def __post_init__(self):
        _check_positive("L", self.L)
        _check_positive("eps", self.eps)
        _check_count("q", self.q, 1)
        _check_count("S1", self.S1, 1)
        _check_count("T", self.T, 0)
        _check_count("n", self.n, 1, or_none=True)
        _check_positive("step size", self.eta)  # 1/(2L) overflows for a subnormal L

    @property
    def eta(self) -> float:
        """The step size of every solver step, 1/(2L)."""
        return 1.0 / (2.0 * self.L)


@dataclass
class GdConfig:
    """Restart schedule for gradient-dominated objectives.

    ``tau`` is the gradient-domination constant, ``M0`` an upper bound on the
    initial optimality gap. Both restart schemes step with 1/(2L).
    """

    M0: float
    tau: float
    L: float
    K: int

    def __post_init__(self):
        for what in ("M0", "tau", "L"):
            _check_positive(what, getattr(self, what))
        _check_count("K", self.K, 0)
        # the stages' step, SpiderConfig.eta, overflows for a subnormal L
        _check_positive("step size", 1.0 / (2.0 * self.L))


@dataclass
class TraceRecord:
    """One checkpoint: iteration, cost so far, and free objective probes.

    ``boundary`` is the nominal checkpoint epoch this record was emitted for,
    or None for the end-of-run record.
    """

    k: int
    epoch: float
    ifo: int
    f: float
    grad_sq: float
    step_dist: float
    batch: int
    boundary: float | None = None


@dataclass
class RunTrace:
    records: list[TraceRecord] = field(default_factory=list)
    meta: dict = field(default_factory=dict)


@dataclass
class FrozenState:
    """Mid-run estimator state captured just before a correction step."""

    k: int
    x_prev: ManifoldPoint
    x_curr: ManifoldPoint
    v_prev: TangentVector
    s2: int
    eps: float
    sample_only: bool = False  # the run draws s2 samples even if s2 >= n (n=None)


class _Run:
    """What every solver run shares: the checked start ``x0``, the map mode of
    its steps, the sampled index stream ``indices``, the calls it has charged
    (``spent``, ``anchored`` of them by anchors), the budget ``max_ifo``, the
    count of steps taken ``steps`` and the records: one at the start, one
    per crossed checkpoint boundary and one at the end (:meth:`trace`), all
    free evaluations. It checks the run options of every solver, ``seed``
    and ``map_mode`` among them, before any work. Every estimator evaluation
    is :meth:`estimate` and every solver step is :meth:`step`, both on raw
    coordinate arrays; records, :class:`FrozenState` and error messages take
    their iteration number from ``steps``.

    ``seed`` feeds two streams: ``indices`` serves every sampled index from
    ``default_rng(seed)``, and ``picks``, seeded from ``(seed, _PICK_TAG)``,
    serves the recursive solver's reservoir pick (:func:`_uniforms`), so
    picking an iterate leaves the indices as they are.

    A run counts its own calls, never on the objective's counter, so a run
    on an objective that has already been charged, or that other runs
    share, reports and is budgeted by only its own calls. The budget is
    exact: :meth:`clip` cuts the last draw to the calls left, and a run with
    one call left when a correction is due stops there (:meth:`exhausted`),
    so a run charges ``max_ifo - 1`` or ``max_ifo`` calls when it runs out.
    """

    def __init__(self, obj, x0, seed, map_mode, checkpoint_every, max_ifo):
        if not isinstance(x0, ManifoldPoint) or x0.manifold != obj.manifold:
            raise ValueError("x0 must be a point on the objective's manifold")
        _check_positive("checkpoint interval", checkpoint_every)
        _check_count("max_ifo", max_ifo, 0, or_none=True)
        _check_count("seed", seed, 0)
        _check_modes(map_mode)
        self.obj, self.x0 = obj, x0
        self.seed = seed
        self.map_mode = map_mode
        self.indices = _Indices(np.random.default_rng(seed), obj.n)
        self.picks = _uniforms(np.random.default_rng(np.random.SeedSequence([seed, _PICK_TAG])))
        self.spent = self.anchored = 0
        self.max_ifo = max_ifo
        self.every = float(checkpoint_every)
        self.records: list[TraceRecord] = []
        self.steps = 0
        self._last = (0.0, 0)  # (length, batch) of the latest step
        self.over = False  # set by exhausted() once the budget refuses an estimate
        self._next_idx = 0
        self.due = -1e-12  # the epoch from which the next checkpoint, at 0, is due
        self.after_step(x0.coords, 0.0, 0)  # the start record

    @property
    def tallies(self) -> dict:
        """The calls charged by anchors and by corrections."""
        return {"anchor": self.anchored, "correction": self.spent - self.anchored}

    def exhausted(self, paired=False) -> bool:
        """Whether the run is over: its budget cannot pay one sample of the
        next estimate (one call, two if ``paired``), now or at an earlier
        check, so a refused correction also ends the loops around it."""
        if not self.over and self.max_ifo is not None:
            self.over = self.max_ifo - self.spent < (2 if paired else 1)
        return self.over

    def clip(self, size, paired) -> int:
        """``size`` cut to what the budget can still pay: all the calls left
        for an anchor, half of them for a ``paired`` correction."""
        if self.max_ifo is None:
            return size
        left = self.max_ifo - self.spent
        return min(size, left // 2 if paired else left)

    def point(self, x) -> ManifoldPoint:
        """The raw point ``x`` handed back as a trusted point: ``x0`` itself
        when no step moved the run."""
        return self.x0 if x is self.x0.coords else ManifoldPoint._raw(self.obj.manifold, x)

    def estimate(self, x, y, ref, size, cap):
        """The estimator step g(x) - transport(y -> x, g(y) - ref), tallied.

        ``x`` and ``y`` are raw points, ``ref`` tangent coordinates at ``y``;
        an anchor has no previous point (``y=None``) and is g(x) alone. g is
        one sample's mean gradient: the deterministic full pass when ``cap``
        (n in finite-sum mode) is not None and ``size >= cap``, else the mean
        over the next ``size`` uniform draws with replacement from
        ``indices``, prepared once for both evaluations. ``size`` is first
        cut by :meth:`clip`, so a full pass the budget cannot pay becomes a
        draw. Every evaluation is charged, and comes back raw: an anchor's
        squared norm and :meth:`correct` make the finiteness check of the
        checked oracle, so a non-finite gradient still raises its
        GeometryError. Returns the estimate's coordinates at x, their
        squared norm and the samples charged per evaluation.
        """
        obj = self.obj
        size = self.clip(size, y is not None)
        if cap is not None and size >= cap:
            rows, batch = None, obj.n
        else:
            rows, batch = obj._prepare(self.indices.take(size)), size
        g_x = obj.full_rgrad(x) if rows is None else obj.minibatch_rgrad(rows, x)
        if y is None:
            v_sq = _tangent_sq(g_x)
            self.spent += batch
            self.anchored += batch
            return g_x, v_sq, batch
        g_y = obj.full_rgrad(y) if rows is None else obj.minibatch_rgrad(rows, y)
        v, v_sq = self.correct(x, y, g_x, g_y, ref)
        self.spent += 2 * batch
        return v, v_sq, batch

    def correct(self, x, y, g_x, g_y, ref):
        """The correction g_x - transport(y -> x, g_y - ref) on raw arrays, and
        its squared norm.

        A non-finite gradient raises the checked oracle's GeometryError, not
        an OptimizerError: g_y before the transport's products, which warn on
        an infinite entry, and g_x when the transport or the correction fails.
        """
        d = g_y - ref
        if not math.isfinite(float(d.dot(d))):
            _tangent_sq(g_y)
        try:
            v = g_x - self.obj.manifold._transport(y, x, d)
        except GeometryError as e:
            _tangent_sq(g_x)
            raise OptimizerError(f"transport failed at iteration {self.steps}: {e}") from e
        v_sq = float(v.dot(v))
        if not math.isfinite(v_sq):  # also a non-finite g(y) - ref or transport, carried into v
            _tangent_sq(g_x)
            raise OptimizerError(
                f"transport failed at iteration {self.steps}: tangent coordinates must be finite"
            )
        return v, v_sq

    def step(self, x, y, ref, size, cap, eta):
        """One solver step from the raw point ``x``: the :meth:`estimate` v,
        then a move along ``-eta v`` by the run's map mode, counted in
        ``steps`` and recorded if a checkpoint is due. Returns the new raw
        point, the geodesic step length and v."""
        v, v_sq, batch = self.estimate(x, y, ref, size, cap)
        x_next, step_len = self.move(x, v, v_sq, eta)
        self.steps += 1
        self._last = (step_len, batch)
        if self.spent / self.obj.n >= self.due:
            self.after_step(x_next, step_len, batch)
        return x_next, step_len, v

    def move(self, x, v, v_sq, eta):
        """The raw point reached from ``x`` along ``-eta v`` by the run's map
        mode, and the geodesic step length."""
        man, s = self.obj.manifold, -eta
        step = v * s
        try:
            if self.map_mode == "exp":
                return man._exp(x, step, v_sq * (s * s)), eta * math.sqrt(v_sq)
            x_next = man._retract(x, step)
            return x_next, man._dist(x, x_next)
        except GeometryError as e:
            raise OptimizerError(f"degenerate step at iteration {self.steps}: {e}") from e

    def _snap(self, x, step_dist, batch, boundary):
        f, g_sq = self.obj._probe(x)
        self.records.append(TraceRecord(self.steps, self.spent / self.obj.n, self.spent, f, g_sq,
                                        step_dist, batch, boundary))

    def after_step(self, x, step_dist, batch):
        """Record the raw point ``x`` at each checkpoint boundary the run's
        calls have reached since the last record."""
        while self.spent / self.obj.n >= self.due:
            self._snap(ManifoldPoint._raw(self.obj.manifold, x), step_dist, batch,
                       self._next_idx * self.every)
            self._next_idx += 1
            self.due = self._next_idx * self.every - 1e-12

    def trace(self, x, algo, config, picked=False, **extra) -> RunTrace:
        """The end record at the returned point ``x``, then the records and
        the run's meta: the common keys, ``extra``, and ``ifo_breakdown``
        last. The end record carries the latest step's length and batch, or
        0.0 and 0 for a uniform pick (``picked``), which no single step ends
        at."""
        self._snap(x, *((0.0, 0) if picked else self._last), None)
        meta = {"algo": algo, "config": config, "seed": self.seed, "map_mode": self.map_mode,
                "n": self.obj.n, "checkpoint_every": self.every, "ifo": self.spent, **extra,
                "ifo_breakdown": self.tallies}
        return RunTrace(records=self.records, meta=meta)


_DRAW_BLOCK = 1024
_PICK_TAG = 0x5A17  # distinguishes the reservoir-pick stream from the sampling stream


class _Indices:
    """Uniform indices in [0, n) served from blocks drawn ``_DRAW_BLOCK`` at
    a time. Successive :meth:`take` calls return the indices that successive
    sized ``rng.integers(0, n, size=size)`` draws would, at the cost of a
    slice; the generator only runs ahead of them by the unserved rest of the
    current block."""

    def __init__(self, rng, n):
        self.rng, self.n = rng, n
        self._block = np.empty(0, dtype=np.int64)
        self._at = 0

    def take(self, size):
        at, end = self._at, self._at + size
        if end <= self._block.size:
            self._at = end
            return self._block[at:end]
        # the rest of this block, then one fresh block that covers the shortfall
        rest = self._block[at:]
        short = size - rest.size
        self._block = self.rng.integers(0, self.n, size=max(_DRAW_BLOCK, short))
        self._at = short
        return np.concatenate((rest, self._block[:short]))


def _uniforms(rng):
    """The values of successive ``rng.random()`` calls, drawn ``_DRAW_BLOCK``
    at a time: a block draw gives the same floats as that many scalar draws,
    and costs about as much as one."""
    while True:
        yield from rng.random(_DRAW_BLOCK).tolist()


def _spider_core(run, x0, cfg: SpiderConfig, budget, *, on_correction=None, pick=True):
    """Run up to ``cfg.T`` steps of the recursive estimator from the raw
    point ``x0`` on ``run``, which counts, tallies and records them and moves
    by its own map mode.

    Every ``q``-th step re-anchors the surrogate ``v`` on ``S1`` samples;
    the others correct it with ceil(min(n, q L^2 step^2 / budget)) samples.
    Returns the raw point handed on: a uniform pick over the produced
    iterates with ``pick``, else the last iterate. The batches come from
    ``run.indices`` and the pick from ``run.picks``, so ``pick`` does not
    change the iterates.
    """
    sample_only = cfg.n is None
    cap = None if sample_only else run.obj.n
    eta, q, limit = cfg.eta, cfg.q, run.max_ifo
    x = x_out = x0
    x_prev = v = None
    step_len = 0.0
    for k in range(cfg.T):
        corrects = k % q != 0
        if limit is not None and limit - run.spent < (2 if corrects else 1):  # run.exhausted()
            run.over = True
            break
        if corrects:
            y, size = x_prev, _batch_size(q, cfg.L, step_len, budget, cap)
            if on_correction is not None:  # the state holds the batch drawn, cut to the budget
                man = run.obj.manifold
                frozen_prev = ManifoldPoint._raw(man, x_prev)
                on_correction(FrozenState(run.steps, frozen_prev, ManifoldPoint._raw(man, x),
                                          TangentVector._raw(frozen_prev, v),
                                          run.clip(size, True), cfg.eps, sample_only))
        else:
            y, size = None, cfg.S1  # an anchor: no previous point
        x_next, step_len, v = run.step(x, y, v, size, cap, eta)
        if pick and next(run.picks) * (k + 1) < 1.0:
            x_out = x_next  # reservoir pick: uniform over produced iterates
        x_prev, x = x, x_next
    return x_out if pick else x


def spider_nonconvex(
    obj: FiniteSumObjective,
    x0: ManifoldPoint,
    cfg: SpiderConfig,
    *,
    seed: int = 0,
    map_mode: str = "exp",
    checkpoint_every: float = 1.0,
    max_ifo: int | None = None,
    on_correction=None,
) -> tuple[ManifoldPoint, RunTrace]:
    """Recursive variance-reduced descent for smooth nonconvex objectives.

    Every ``q``-th step re-anchors the gradient surrogate (full gradient when
    ``S1 >= n`` in finite-sum mode, an S1-sample mean otherwise); the other
    steps apply a transported paired-minibatch correction whose size adapts
    to the squared length of the previous step. Returns a uniformly random
    iterate from the produced sequence plus the run trace, whose final record
    describes that iterate (step length 0, batch 0). ``seed`` seeds both
    the index draws and, through a separate stream, that pick, so the pick
    does not change which batches are drawn.

    ``on_correction``, when given, receives a :class:`FrozenState` right
    before each correction step is sampled.
    """
    if cfg.n is not None and cfg.n != obj.n:
        raise ValueError(f"config n={cfg.n} does not match the objective's n={obj.n}")
    run = _Run(obj, x0, seed, map_mode, checkpoint_every, max_ifo)
    x_rand = run.point(_spider_core(run, x0.coords, cfg, 2.0 * cfg.eps**2,
                                    on_correction=on_correction))
    return x_rand, run.trace(x_rand, "spider", asdict(cfg), picked=True, steps=run.steps)


def params_stochastic(sigma_sq, eps, M, L) -> SpiderConfig:
    """Sample-only schedule: S1 = ceil(2 sigma^2/eps^2), eta = 1/(2L),
    q = ceil(1/eps), T = ceil(4 M L / eps^2)."""
    if not (math.isfinite(sigma_sq) and sigma_sq >= 0):
        raise ValueError(f"sigma_sq must be finite and >= 0, got {sigma_sq!r}")
    for what, value in (("eps", eps), ("M", M), ("L", L)):
        _check_positive(what, value)
    s1 = _ceil_tol(2.0 * sigma_sq / eps**2)
    if s1 < 1:
        warnings.warn("anchor batch size 0 (zero variance); clamping to 1")
        s1 = 1
    return SpiderConfig(
        L=L,
        eps=eps,
        q=max(1, _ceil_tol(1.0 / eps)),
        S1=s1,
        T=_ceil_tol(4.0 * M * L / eps**2),
        n=None,
    )


def params_finite(n, eps, M, L) -> SpiderConfig:
    """Finite-sum schedule: full-gradient anchors, q = ceil(sqrt(n)),
    eta = 1/(2L), T = ceil(4 M L / eps^2)."""
    _check_count("n", n, 1)
    for what, value in (("eps", eps), ("M", M), ("L", L)):
        _check_positive(what, value)
    return SpiderConfig(
        L=L,
        eps=eps,
        q=max(1, _ceil_tol(math.sqrt(n))),
        S1=n,
        T=_ceil_tol(4.0 * M * L / eps**2),
        n=n,
    )


def _restarts(run, x0, cfg: GdConfig, q, stage, *, pick, on_correction=None):
    """Run the ``cfg.K`` restart stages of the recursive solver from ``x0``.

    ``stage(t)`` gives stage t's (eps, T, variance budget); every stage
    anchors on the full gradient, steps with 1/(2L) and starts from the
    previous stage's output: its uniform pick with ``pick``, else its last
    iterate. The stages share ``run``, so its step count runs on across
    them. Returns the last stage's output, as a point, and the stage table.
    """
    n = run.obj.n
    x, stages = x0.coords, []
    for t in range(1, cfg.K + 1):
        if run.exhausted():
            break
        eps, T, budget = stage(t)
        inner = SpiderConfig(L=cfg.L, eps=eps, q=q, S1=n, T=T, n=n)
        start = run.steps
        x = _spider_core(run, x, inner, budget, on_correction=on_correction, pick=pick)
        stages.append(
            {"stage": t, "eps": eps, "eta": inner.eta, "T": T, "steps": run.steps - start,
             "ifo_end": run.spent}
        )
    return run.point(x), stages


def spider_gd1(
    obj: FiniteSumObjective,
    x0: ManifoldPoint,
    cfg: GdConfig,
    *,
    seed: int = 0,
    map_mode: str = "exp",
    checkpoint_every: float = 1.0,
    max_ifo: int | None = None,
) -> tuple[ManifoldPoint, RunTrace]:
    """Restarted solver: stage t runs the nonconvex solver to accuracy
    eps_t = sqrt(M0 / (2^t * 10 tau)) and chains its output.

    Stage budgets follow the halved gap bound M_t = M0 / 2^(t-1), giving
    T_t = ceil(4 M_t L / eps_t^2) inner iterations. The trace concatenates
    stage traces; stage boundaries are recorded in ``meta["stages"]``.
    """
    run = _Run(obj, x0, seed, map_mode, checkpoint_every, max_ifo)

    def stage(t):
        eps = math.sqrt(cfg.M0 / (2.0**t * 10.0 * cfg.tau))
        m_t = cfg.M0 / 2.0 ** (t - 1)
        return eps, _ceil_tol(4.0 * m_t * cfg.L / eps**2), 2.0 * eps**2

    q = max(1, _ceil_tol(math.sqrt(obj.n)))
    x, stages = _restarts(run, x0, cfg, q, stage, pick=True)
    return x, run.trace(x, "spider-gd1", asdict(cfg), picked=True, stages=stages)


def spider_gd2(
    obj: FiniteSumObjective,
    x0: ManifoldPoint,
    cfg: GdConfig,
    *,
    seed: int = 0,
    map_mode: str = "exp",
    checkpoint_every: float = 1.0,
    max_ifo: int | None = None,
    on_correction=None,
) -> tuple[ManifoldPoint, RunTrace]:
    """Single-loop variant for gradient-dominated objectives.

    Runs K stages of q = ceil(4 L tau log 4) recursive steps with step
    1/(2L), each opened by a full-gradient anchor and handing its last
    iterate to the next. Stage t sizes its corrections by
    ceil(min(n, q L^2 (step length)^2 / delta_t)), where the variance budget
    delta_t = delta0 / 2^(t-1), delta0 = M0 / (4 tau), halves every stage;
    the stage table in ``meta["stages"]`` lists eps_t = sqrt(delta_t).
    Returns the final iterate.
    """
    run = _Run(obj, x0, seed, map_mode, checkpoint_every, max_ifo)
    q = max(1, _ceil_tol(4.0 * cfg.L * cfg.tau * math.log(4.0)))
    delta0 = cfg.M0 / (4.0 * cfg.tau)

    def stage(t):
        delta = delta0 / 2.0 ** (t - 1)
        return math.sqrt(delta), q, delta

    x, stages = _restarts(run, x0, cfg, q, stage, pick=False, on_correction=on_correction)
    return x, run.trace(x, "spider-gd2", asdict(cfg), q=q, delta0=delta0, stages=stages)


def rsgd(
    obj: FiniteSumObjective,
    x0: ManifoldPoint,
    eta,
    T: int,
    *,
    seed: int = 0,
    map_mode: str = "exp",
    checkpoint_every: float = 1.0,
    max_ifo: int | None = None,
) -> tuple[ManifoldPoint, RunTrace]:
    """Baseline stochastic gradient descent: one sampled component per step.

    ``eta`` is a constant or a callable k -> step size. A constant is
    checked up front, a schedule's value at iteration k before step k: each
    must be finite and positive.
    """
    schedule = callable(eta)
    if not schedule:
        _check_positive("step size", eta)
    _check_count("T", T, 0)
    run = _Run(obj, x0, seed, map_mode, checkpoint_every, max_ifo)
    step = None if schedule else float(eta)
    x = x0.coords
    for k in range(T):
        if max_ifo is not None and max_ifo - run.spent < 1:  # run.exhausted()
            break
        if schedule:
            step = float(eta(k))
            if not 0.0 < step < math.inf:  # format the message only for a bad value
                _check_positive(f"step size at iteration {k}", step)
        x, _, _ = run.step(x, None, None, 1, None, step)
    x = run.point(x)
    config = {"eta": repr(eta) if schedule else eta, "T": T}
    return x, run.trace(x, "rsgd", config)


def rsvrg(
    obj: FiniteSumObjective,
    x0: ManifoldPoint,
    eta: float,
    epochs: int,
    inner_len: int | None = None,
    *,
    seed: int = 0,
    map_mode: str = "exp",
    checkpoint_every: float = 1.0,
    max_ifo: int | None = None,
) -> tuple[ManifoldPoint, RunTrace]:
    """Snapshot-based variance reduction.

    Each outer epoch takes a full gradient at a snapshot point, then runs
    ``inner_len`` single-sample steps whose estimator subtracts the
    transported snapshot correction. Past the first epoch, a snapshot the
    budget cannot pay with one step after it (n + 2 calls) is not taken:
    the epoch keeps the current snapshot, so the calls left buy inner steps.
    In "retract" mode the update is the normalization (x + v)/|x + v|, the
    classical power-method-flavored approximation of the exponential update.
    The run is the one-column case of :func:`_rsvrg_columns`.
    """
    (end,) = _rsvrg_columns([(obj, x0, seed)], eta, epochs, inner_len, map_mode=map_mode,
                            checkpoint_every=checkpoint_every, max_ifo=max_ifo)
    if isinstance(end, Exception):
        raise end
    return end


def _rsvrg_columns(starts, eta, epochs, inner_len=None, *, map_mode="exp",
                   checkpoint_every=1.0, max_ifo=None) -> list:
    """:func:`rsvrg` from every ``(obj, x0, seed)`` of ``starts`` at once, as
    one lockstep column block.

    The schedule's batch sizes (n per snapshot, one per inner step) and its
    budget do not depend on the iterates, so all the runs spend alike and
    one schedule advances them together (:class:`_Lockstep`). Each run keeps
    its own :class:`_Run`: index stream, tallies and records. The objectives
    share n, the manifold, the counter and the gradient kernels (``_grad``
    and ``_grads``), so each point set of a step is one charged call for the
    whole block; a block that mixes them raises ``ValueError`` before any
    call. The rows of runs that are consecutive in ``starts`` and whose
    objectives' rows live in one array are gathered together: one gather per
    step for objectives built into one buffer. Returns, per start, its
    ``(point, trace)`` or the exception that ended that run alone.
    """
    _check_positive("step size", eta)
    _check_count("epochs", epochs, 0)
    _check_count("inner_len", inner_len, 1, or_none=True)
    if not starts:
        return []
    first = starts[0][0]
    if any(obj.n != first.n or obj.manifold != first.manifold for obj, _x, _s in starts):
        raise ValueError("a column block needs one n and one manifold")
    kernels = (type(first)._grad, type(first)._grads)
    if any(obj.counter is not first.counter or (type(obj)._grad, type(obj)._grads) != kernels
           for obj, _x, _s in starts):
        raise ValueError("a column block needs one counter and one gradient kernel")
    n = first.n
    m = n if inner_len is None else inner_len
    block = _Lockstep(starts, eta, map_mode, checkpoint_every, max_ifo)
    for s in range(epochs):
        if not block.runs or block.runs[0].exhausted():
            break
        if s == 0 or max_ifo is None or max_ifo - block.runs[0].spent >= n + 2:
            block.snapshot()
        for _i in range(m):
            if not block.runs or block.runs[0].exhausted(paired=True):
                break
            block.step()
    return block.ends({"eta": eta, "epochs": epochs, "inner_len": m})


class _Lockstep:
    """The live runs of an rsvrg column block, advanced one schedule step at
    a time: row j of the S x d arrays ``x`` (iterates), ``y`` (snapshots) and
    ``mu`` (the snapshots' full gradients) belongs to ``runs[j]``.

    A snapshot is each run's own full-pass :meth:`_Run.estimate`. An inner
    step draws each run's next index from its own stream, ``_DRAW_BLOCK``
    steps ahead (one ``take(_DRAW_BLOCK)``, the indices of as many
    ``take(1)`` calls), offset by the first row of the run's objective in
    the array its rows live in (:func:`oracle._row_home`). One ``take`` per
    stretch of runs on one such array gathers the column batch: one for a
    sweep task's block, whose gaps were built into one row buffer. The step
    makes one charged ``minibatch_rgrad`` call per point set on the first
    run's objective, whose kernel and counter every run shares, and moves by
    the manifold's column forms. Every row gets the bits of its run's own
    :meth:`_Run.step`. A row that a check flags (a non-finite gradient or
    correction, or a column form's mask) is replayed by the run's own
    :meth:`_Run.correct` and :meth:`_Run.move` on the same gradients: that
    raises as a lone run would, and ends that run alone, or gives the row
    its value. Step lengths are computed only for a record, at a checkpoint
    and in :meth:`ends`, from the step's start ``prev``, its end ``x`` and
    its squared estimate norms ``v_sq``. Every run spends alike, so
    ``runs[0]`` answers for all of them whether the budget is exhausted and
    whether a checkpoint is due. A block down to one run, with no indices
    drawn ahead, steps by that run's own :meth:`_Run.step`, the ops of the
    lone solvers.
    """

    def __init__(self, starts, eta, map_mode, checkpoint_every, max_ifo):
        self.man, self.eta, self.exp = starts[0][0].manifold, eta, map_mode == "exp"
        self.failed = {}  # index into starts -> the exception that ended it
        self.cols, self.runs, x = [], [], []
        for c, (obj, x0, seed) in enumerate(starts):
            try:
                self.runs.append(_Run(obj, x0, seed, map_mode, checkpoint_every, max_ifo))
            except Exception as e:
                self.failed[c] = e
                continue
            self.cols.append(c)
            x.append(x0.coords)
        self.x = np.array(x)
        self.y = self.mu = self.prev = self.v_sq = self._draws = None
        self._regroup()

    def _regroup(self):
        # each run's first row in its home row array, and (home, run slice)
        # for each stretch of runs whose rows share a home: one gather each
        self.first = np.empty(len(self.runs), dtype=np.intp)
        homes = []
        for j, run in enumerate(self.runs):
            home, self.first[j] = _row_home(run.obj._rows)
            if not homes or homes[-1][0] is not home:
                homes.append((home, j))
        stops = [j for _home, j in homes[1:]] + [len(self.runs)]
        self.groups = [(home, slice(j, k)) for (home, j), k in zip(homes, stops)]

    def _drop(self, failed):
        """End the runs at the rows of ``failed`` ({row: exception})."""
        keep = [j for j in range(len(self.runs)) if j not in failed]
        for j, e in failed.items():
            self.failed[self.cols[j]] = e
        self.cols = [self.cols[j] for j in keep]
        self.runs = [self.runs[j] for j in keep]
        same = self.y is self.x  # right after a snapshot
        self.x, self.mu = self.x[keep], self.mu[keep]
        self.y = self.x if same else self.y[keep]
        if self.prev is not None:
            self.prev, self.v_sq = self.prev[keep], self.v_sq[keep]
        if self._draws is not None:
            self._draws = self._draws[:, keep]
        self._regroup()

    def _lens(self) -> np.ndarray:
        """The geodesic lengths of the latest column step, row by row."""
        if self.exp:
            return self.eta * np.sqrt(self.v_sq)
        return self.man._dist_rows(self.prev, self.x)[0]

    def snapshot(self):
        mu, failed = np.empty_like(self.x), {}
        for j, run in enumerate(self.runs):
            x = self.x[j]
            try:
                mu[j], _, batch = run.estimate(x, None, None, run.obj.n, run.obj.n)
                run.after_step(x, 0.0, batch)
            except Exception as e:
                failed[j] = e
        self.y, self.mu = self.x, mu
        if failed:
            self._drop(failed)

    def step(self):
        if self._draws is None or self._at == len(self._draws):
            if len(self.runs) == 1:
                self._draws = None
                return self._lone_step()
            self._draws = np.stack([run.indices.take(_DRAW_BLOCK) for run in self.runs], 1)
            self._draws += self.first
            self._at = 0
        idx = self._draws[self._at]
        self._at += 1
        x, y, man, s = self.x, self.y, self.man, -self.eta
        obj = self.runs[0].obj
        batch = _prepare_columns([(home, idx[rows]) for home, rows in self.groups])
        g_x = obj.minibatch_rgrad(batch, x)
        g_y = obj.minibatch_rgrad(batch, y)
        # a flagged row is replayed below, and raises or warns there as a run
        # does; here its meaningless values must not warn
        with np.errstate(all="ignore"):
            t, flagged = man._transport_rows(y, x, g_y - self.mu)
            v = g_x - t
            v_sq = np.vecdot(v, v)
            # a non-finite gradient of either point set carries into v, so the
            # check of v_sq covers the oracle's too; the exp mask holds it.
            # The retract mask is _dist's, whose lengths wait for a record
            if self.exp:
                x_next, bad = man._exp_rows(x, v * s, v_sq * (s * s))
            else:
                x_next, bad = man._retract_rows(x, v * s)
                bad = bad | man._dist_mask(x, x_next) | ~np.isfinite(v_sq)
        failed = {}
        for j in (flagged | bad).nonzero()[0].tolist():
            run, x_j = self.runs[j], x[j]
            # on the step after a snapshot a run's y is its x, the very array,
            # which transport returns v for
            y_j = x_j if y is x else y[j]
            try:
                v_j, v_sq_j = run.correct(x_j, y_j, g_x[j], g_y[j], self.mu[j])
                x_next[j] = run.move(x_j, v_j, v_sq_j, self.eta)[0]
            except Exception as e:
                failed[j] = e
            else:
                v_sq[j] = v_sq_j
        for run in self.runs:
            run.spent += 2
            run.steps += 1
        self.prev, self.x, self.v_sq = x, x_next, v_sq
        if failed:
            self._drop(failed)
        # every run spends alike: the first tells whether a checkpoint is due
        if self.runs and self.runs[0].spent / self.runs[0].obj.n >= self.runs[0].due:
            for j, (run, step_len) in enumerate(zip(self.runs, self._lens().tolist())):
                run.after_step(self.x[j], step_len, 1)

    def _lone_step(self):
        run, x = self.runs[0], self.x[0]
        # right after a snapshot the run's y is its x, the very array, which
        # transport returns v for
        y = x if self.y is self.x else self.y[0]
        try:
            x_next, _len, _v = run.step(x, y, self.mu[0], 1, None, self.eta)
        except Exception as e:
            self._drop({0: e})
            return
        # the run keeps its own latest step length: no column step to read
        self.x, self.prev = x_next[None], None

    def ends(self, config) -> list:
        """Per start of the block: its ``(point, trace)`` or its exception."""
        out = dict(self.failed)
        lens = None if self.prev is None else self._lens().tolist()
        for j, run in enumerate(self.runs):
            if lens is not None:  # the latest column step's length and batch
                run._last = (lens[j], 1)
            x = ManifoldPoint._raw(self.man, self.x[j].copy())
            out[self.cols[j]] = (x, run.trace(x, "rsvrg", config))
        return [out[c] for c in sorted(out)]
