"""Variance-reduced stochastic optimizers on geodesic manifolds.

Every variance-reduced solver here is a schedule around one estimator step,
:func:`_correct`: the transported difference g(x) - transport(y -> x,
g(y) - ref) of one sampled gradient evaluated at two points. The recursive
solver takes y = the previous iterate and ref = its running surrogate,
re-anchored every ``q`` steps; SVRG takes y = a snapshot and ref = the
snapshot's full gradient. Two restart schemes built on the recursive solver
give linear convergence on gradient-dominated objectives. An SGD baseline
shares the same tracing and accounting machinery.

The loops run on raw coordinate arrays through the manifold's raw operations
(``_exp``, ``_retract``, ``_transport``, ``_dist``). Iterates are wrapped as
trusted points only to be handed to the oracle, the tracer and
:class:`FrozenState`; ``x0`` is checked once on entry.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from .geometry import GeometryError, ManifoldPoint, TangentVector
from .oracle import FiniteSumObjective

__all__ = [
    "FrozenState",
    "GdConfig",
    "OptimizerError",
    "RunTrace",
    "SpiderConfig",
    "TraceRecord",
    "correction_batch_size",
    "params_finite",
    "params_stochastic",
    "rsgd",
    "rsvrg",
    "spider_gd1",
    "spider_gd2",
    "spider_nonconvex",
]

MAP_MODES = ("exp", "retract")


class OptimizerError(RuntimeError):
    """An optimizer run aborted (degenerate geometry or invalid state)."""


def _check_modes(map_mode: str):
    if map_mode not in MAP_MODES:
        raise ValueError(f"map_mode must be one of {MAP_MODES}")


def _check_step(eta):
    if not (math.isfinite(eta) and eta > 0):
        raise ValueError(f"step size must be finite and positive, got {eta!r}")


def _ceil_tol(x: float) -> int:
    """Ceiling with a relative guard against float noise just above an integer."""
    return math.ceil(x - 1e-9 * max(1.0, abs(x)))


def _batch_size(q, L, step_len, budget, n):
    raw = q * L**2 * step_len**2 / budget
    if n is not None:
        raw = min(float(n), raw)
    return max(1, _ceil_tol(raw))


def correction_batch_size(
    q: int, L: float, step_len: float, eps: float, n: int | None = None
) -> int:
    """Samples for one correction step: ceil(min(n, q L^2 step^2 / (2 eps^2))).

    Clamped to at least one sample; a zero-length step would otherwise skip
    the correction and break the estimator recursion.
    """
    return _batch_size(q, L, step_len, 2.0 * eps**2, n)


@dataclass
class SpiderConfig:
    """Schedule for the recursive variance-reduced solver.

    ``n = None`` selects sample-only mode: anchors draw ``S1`` components
    with replacement and correction batches are not capped at n.
    """

    L: float
    eps: float
    q: int
    S1: int
    T: int
    eta: float | None = None  # defaults to 1/(2L)
    n: int | None = None
    map_mode: str = "exp"
    seed: int = 0

    def __post_init__(self):
        if self.L <= 0 or self.eps <= 0:
            raise ValueError("L and eps must be positive")
        if self.q < 1 or self.S1 < 1 or self.T < 0:
            raise ValueError("need q >= 1, S1 >= 1, T >= 0")
        if self.eta is None:
            self.eta = 1.0 / (2.0 * self.L)
        _check_step(self.eta)
        _check_modes(self.map_mode)


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
    map_mode: str = "exp"
    seed: int = 0

    def __post_init__(self):
        if self.M0 <= 0 or self.tau <= 0 or self.L <= 0:
            raise ValueError("M0, tau and L must be positive")
        if self.K < 0:
            raise ValueError("need K >= 0")
        _check_modes(self.map_mode)


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


class _Tracer:
    """Emits one record per crossed checkpoint boundary (free evaluations).

    ``calls0`` is the counter when the run starts, so a run on an objective
    that has already been charged still reports, and is budgeted by, only its
    own calls (:meth:`spent`).
    """

    def __init__(self, obj: FiniteSumObjective, every: float):
        if every <= 0:
            raise ValueError("checkpoint interval must be positive")
        self.obj = obj
        self.calls0 = obj.counter.calls
        self.every = float(every)
        self.records: list[TraceRecord] = []
        self._next_idx = 0

    def spent(self) -> int:
        """Calls charged since the run started."""
        return self.obj.counter.calls - self.calls0

    def exhausted(self, max_ifo) -> bool:
        """Whether the run has spent its budget ``max_ifo`` (None: no budget)."""
        return max_ifo is not None and self.spent() >= max_ifo

    def _snap(self, k, x, step_dist, batch, boundary):
        calls = self.spent()
        f, g_sq = self.obj._probe(x)
        self.records.append(
            TraceRecord(
                k=k,
                epoch=calls / self.obj.n,
                ifo=calls,
                f=f,
                grad_sq=g_sq,
                step_dist=step_dist,
                batch=batch,
                boundary=boundary,
            )
        )

    def after_step(self, k, x, step_dist, batch):
        epoch = self.spent() / self.obj.n
        while epoch >= self._next_idx * self.every - 1e-12:
            self._snap(k, x, step_dist, batch, self._next_idx * self.every)
            self._next_idx += 1

    def final(self, k, x, step_dist, batch):
        self._snap(k, x, step_dist, batch, None)


def _check_start(obj, x0: ManifoldPoint):
    if x0.manifold != obj.manifold:
        raise ValueError("x0 does not live on the objective's manifold")


def _update(man, x, v, v_sq, eta, map_mode, k):
    """One descent step from the point ``x`` along ``-eta v`` (``v`` tangent
    coordinates, ``v_sq = v @ v``); returns the new point and the geodesic
    step length."""
    s = -eta
    step = v * s
    try:
        if map_mode == "exp":
            x_next = man._exp(x.coords, step, v_sq * (s * s))
            step_len = eta * math.sqrt(v_sq)
        else:
            x_next = man._retract(x.coords, step)
            step_len = man._dist(x.coords, x_next)
    except GeometryError as e:
        raise OptimizerError(f"degenerate step at iteration {k}: {e}") from e
    return ManifoldPoint._raw(man, x_next), step_len


_DRAW_BLOCK = 1024


def _draws(rng, n, count):
    """``count`` uniform indices in [0, n), drawn ``_DRAW_BLOCK`` at a time:
    the same indices and generator state as ``count`` scalar draws."""
    for start in range(0, count, _DRAW_BLOCK):
        yield from rng.integers(0, n, size=min(_DRAW_BLOCK, count - start)).tolist()


def _run_trace(obj, tracer, algo, config, seed, **extra) -> RunTrace:
    meta = {
        "algo": algo,
        "config": config,
        "seed": seed,
        "n": obj.n,
        "checkpoint_every": tracer.every,
        "ifo": tracer.spent(),
        **extra,
    }
    return RunTrace(records=tracer.records, meta=meta)


def _correct(obj, grad, x, y, ref, k, *idx):
    """The estimator step: grad(x) - transport(y -> x, grad(y) - ref).

    ``x`` and ``y`` are points, ``ref`` tangent coordinates at ``y``.
    ``grad(*idx, p)`` evaluates one sample at p: ``obj.full_rgrad`` with no
    index, ``obj.minibatch_rgrad`` with an index multiset (or the batch
    ``obj._prepare`` made of one) or ``obj.component_rgrad`` with one index.
    Both evaluations are charged. Returns the estimate's coordinates at x
    and their squared norm.
    """
    g_x = grad(*idx, x)
    g_y = grad(*idx, y)
    try:
        v = g_x.coords - obj.manifold._transport(y.coords, x.coords, g_y.coords - ref)
    except GeometryError as e:
        raise OptimizerError(f"transport failed at iteration {k}: {e}") from e
    v_sq = float(v.dot(v))
    if not math.isfinite(v_sq):  # also a non-finite g(y) - ref or transport, carried into v
        raise OptimizerError(
            f"transport failed at iteration {k}: tangent coordinates must be finite"
        )
    return v, v_sq


def _spider_core(
    obj, x0, cfg: SpiderConfig, budget, rng, tracer, tallies, *,
    max_ifo=None, on_correction=None, k_offset=0, pick=True,
):
    """Run up to ``cfg.T`` steps of the recursive estimator from ``x0``.

    Every ``q``-th step re-anchors the surrogate ``v``; the others correct it
    with ceil(min(n, q L^2 step^2 / budget)) samples. Charged calls go to
    ``tallies``, iterates to ``tracer``. Returns (a uniform pick over the
    produced iterates, or x0 without ``pick``; the last iterate; steps done;
    the last step length; the last batch size).
    """
    _check_start(obj, x0)
    if cfg.n is not None and cfg.n != obj.n:
        raise ValueError(f"config n={cfg.n} does not match the objective's n={obj.n}")
    man = obj.manifold
    full_anchor = cfg.n is not None and cfg.S1 >= obj.n
    cap = obj.n if cfg.n is not None else None
    x = x_out = x0
    x_prev = v = None
    v_sq = step_len = 0.0
    batch = done = 0
    for k in range(cfg.T):
        if tracer.exhausted(max_ifo):
            break
        if k % cfg.q == 0:
            if full_anchor:
                g = obj.full_rgrad(x)  # deterministic anchor
                batch = obj.n
            else:
                g = obj.minibatch_rgrad(obj._prepare(rng.integers(0, obj.n, size=cfg.S1)), x)
                batch = cfg.S1
            v, v_sq = g.coords, g._sq
            tallies["anchor"] += batch
        else:
            s2 = _batch_size(cfg.q, cfg.L, step_len, budget, cap)
            if on_correction is not None:
                frozen_v = TangentVector._raw(x_prev, v)
                on_correction(FrozenState(k_offset + k, x_prev, x, frozen_v, s2, cfg.eps))
            if cap is not None and s2 >= cap:
                batch = obj.n
                v, v_sq = _correct(obj, obj.full_rgrad, x, x_prev, v, k_offset + k)
            else:
                batch = s2
                idx = obj._prepare(rng.integers(0, obj.n, size=s2))
                v, v_sq = _correct(obj, obj.minibatch_rgrad, x, x_prev, v, k_offset + k, idx)
            tallies["correction"] += 2 * batch

        x_next, step_len = _update(man, x, v, v_sq, cfg.eta, cfg.map_mode, k_offset + k)
        if pick and rng.random() * (k + 1) < 1.0:
            x_out = x_next  # reservoir pick: uniform over produced iterates
        x_prev = x
        x = x_next
        done = k + 1
        tracer.after_step(k_offset + done, x, step_len, batch)
    return x_out, x, done, step_len, batch


def spider_nonconvex(
    obj: FiniteSumObjective,
    x0: ManifoldPoint,
    cfg: SpiderConfig,
    *,
    checkpoint_every: float = 1.0,
    max_ifo: int | None = None,
    on_correction=None,
) -> tuple[ManifoldPoint, RunTrace]:
    """Recursive variance-reduced descent for smooth nonconvex objectives.

    Every ``q``-th step re-anchors the gradient surrogate (full gradient when
    ``S1 >= n`` in finite-sum mode, an S1-sample mean otherwise); the other
    steps apply a transported paired-minibatch correction whose size adapts
    to the squared length of the previous step. Returns a uniformly random
    iterate from the produced sequence (seeded) plus the run trace.

    ``on_correction``, when given, receives a :class:`FrozenState` right
    before each correction step is sampled.
    """
    rng = np.random.default_rng(cfg.seed)
    tracer = _Tracer(obj, checkpoint_every)
    tallies = {"anchor": 0, "correction": 0}
    if cfg.T >= 1:
        tracer.after_step(0, x0, 0.0, 0)
    x_rand, x_last, steps, step_len, batch = _spider_core(
        obj, x0, cfg, 2.0 * cfg.eps**2, rng, tracer, tallies,
        max_ifo=max_ifo, on_correction=on_correction,
    )
    if cfg.T >= 1:
        tracer.final(steps, x_last, step_len, batch)
    return x_rand, _run_trace(
        obj, tracer, "spider", asdict(cfg), cfg.seed,
        steps=steps, ifo_breakdown=tallies,
    )


def params_stochastic(sigma_sq, eps, M, L, **kwargs) -> SpiderConfig:
    """Sample-only schedule: S1 = ceil(2 sigma^2/eps^2), eta = 1/(2L),
    q = ceil(1/eps), T = ceil(4 M L / eps^2)."""
    if sigma_sq < 0 or eps <= 0 or M <= 0 or L <= 0:
        raise ValueError("need sigma_sq >= 0 and positive eps, M, L")
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
        eta=1.0 / (2.0 * L),
        n=None,
        **kwargs,
    )


def params_finite(n, eps, M, L, **kwargs) -> SpiderConfig:
    """Finite-sum schedule: full-gradient anchors, q = ceil(sqrt(n)),
    eta = 1/(2L), T = ceil(4 M L / eps^2)."""
    if n < 1 or eps <= 0 or M <= 0 or L <= 0:
        raise ValueError("need n >= 1 and positive eps, M, L")
    return SpiderConfig(
        L=L,
        eps=eps,
        q=max(1, _ceil_tol(math.sqrt(n))),
        S1=int(n),
        T=_ceil_tol(4.0 * M * L / eps**2),
        eta=1.0 / (2.0 * L),
        n=int(n),
        **kwargs,
    )


def _stage(cfg: GdConfig, n: int, eps: float, q: int, T: int) -> SpiderConfig:
    """One restart stage: full-gradient anchors and the step 1/(2L)."""
    return SpiderConfig(
        L=cfg.L, eps=eps, q=q, S1=n, T=T, n=n, map_mode=cfg.map_mode, seed=cfg.seed,
    )


def spider_gd1(
    obj: FiniteSumObjective,
    x0: ManifoldPoint,
    cfg: GdConfig,
    *,
    checkpoint_every: float = 1.0,
    max_ifo: int | None = None,
) -> tuple[ManifoldPoint, RunTrace]:
    """Restarted solver: stage t runs the nonconvex solver to accuracy
    eps_t = sqrt(M0 / (2^t * 10 tau)) and chains its output.

    Stage budgets follow the halved gap bound M_t = M0 / 2^(t-1), giving
    T_t = ceil(4 M_t L / eps_t^2) inner iterations. The trace concatenates
    stage traces; stage boundaries are recorded in ``meta["stages"]``.
    """
    rng = np.random.default_rng(cfg.seed)
    tracer = _Tracer(obj, checkpoint_every)
    tallies = {"anchor": 0, "correction": 0}
    n = obj.n
    q = max(1, _ceil_tol(math.sqrt(n)))
    x = x0
    k_off = 0
    stages = []
    tracer.after_step(0, x0, 0.0, 0)
    for t in range(1, cfg.K + 1):
        if tracer.exhausted(max_ifo):
            break
        eps_t = math.sqrt(cfg.M0 / (2.0**t * 10.0 * cfg.tau))
        m_t = cfg.M0 / 2.0 ** (t - 1)
        t_t = _ceil_tol(4.0 * m_t * cfg.L / eps_t**2)
        inner = _stage(cfg, n, eps_t, q, t_t)
        x, _last, steps, _, _ = _spider_core(
            obj, x, inner, 2.0 * eps_t**2, rng, tracer, tallies,
            max_ifo=max_ifo, k_offset=k_off,
        )
        k_off += steps
        stages.append(
            {
                "stage": t,
                "eps": eps_t,
                "eta": inner.eta,
                "T": t_t,
                "steps": steps,
                "ifo_end": tracer.spent(),
            }
        )
    tracer.final(k_off, x, 0.0, 0)
    return x, _run_trace(
        obj, tracer, "spider-gd1", asdict(cfg), cfg.seed,
        stages=stages, ifo_breakdown=tallies,
    )


def spider_gd2(
    obj: FiniteSumObjective,
    x0: ManifoldPoint,
    cfg: GdConfig,
    *,
    checkpoint_every: float = 1.0,
    max_ifo: int | None = None,
    on_correction=None,
) -> tuple[ManifoldPoint, RunTrace]:
    """Single-loop variant for gradient-dominated objectives.

    Runs K stages of q = ceil(4 L tau log 4) recursive steps with step
    1/(2L), each opened by a full-gradient anchor and handing its last
    iterate to the next. Stage t sizes its corrections by
    ceil(min(n, q L^2 (step length)^2 / delta_t)), where the variance budget
    delta_t = M0 / (4 tau) / 2^t halves every stage. Returns the final iterate.
    """
    rng = np.random.default_rng(cfg.seed)
    n = obj.n
    q = max(1, _ceil_tol(4.0 * cfg.L * cfg.tau * math.log(4.0)))
    delta0 = cfg.M0 / (4.0 * cfg.tau)
    tracer = _Tracer(obj, checkpoint_every)
    tallies = {"anchor": 0, "correction": 0}
    x = x0
    done = batch = 0
    step_len = 0.0
    if cfg.K >= 1:
        tracer.after_step(0, x0, 0.0, 0)
    for t in range(cfg.K):
        if tracer.exhausted(max_ifo):
            break
        delta = delta0 / 2.0**t
        _, x, steps, step_len, batch = _spider_core(
            obj, x, _stage(cfg, n, math.sqrt(delta), q, q), delta, rng, tracer, tallies, max_ifo=max_ifo,
            on_correction=on_correction, k_offset=done, pick=False,
        )
        done += steps
    tracer.final(done, x, step_len, batch)
    return x, _run_trace(
        obj, tracer, "spider-gd2", asdict(cfg), cfg.seed, q=q, delta0=delta0,
        ifo_breakdown=tallies,
    )


def rsgd(
    obj: FiniteSumObjective,
    x0: ManifoldPoint,
    eta,
    T: int,
    seed: int = 0,
    *,
    map_mode: str = "exp",
    checkpoint_every: float = 1.0,
    max_ifo: int | None = None,
) -> tuple[ManifoldPoint, RunTrace]:
    """Baseline stochastic gradient descent: one sampled component per step.

    ``eta`` is a constant or a callable k -> step size; only a constant is
    checked up front.
    """
    _check_modes(map_mode)
    if not callable(eta):
        _check_step(eta)
    _check_start(obj, x0)
    eta_fn = eta if callable(eta) else (lambda k: eta)
    rng = np.random.default_rng(seed)
    man = obj.manifold
    tracer = _Tracer(obj, checkpoint_every)
    x = x0
    step_len = 0.0
    done = 0
    if T >= 1:
        tracer.after_step(0, x0, 0.0, 0)
    for k, i in enumerate(_draws(rng, obj.n, T)):
        if tracer.exhausted(max_ifo):
            break
        g = obj.component_rgrad(i, x)
        x, step_len = _update(man, x, g.coords, g._sq, float(eta_fn(k)), map_mode, k)
        done = k + 1
        tracer.after_step(done, x, step_len, 1)
    tracer.final(done, x, step_len, 0 if done == 0 else 1)
    config = {"eta": eta if not callable(eta) else repr(eta), "T": T}
    return x, _run_trace(obj, tracer, "rsgd", config, seed, map_mode=map_mode)


def rsvrg(
    obj: FiniteSumObjective,
    x0: ManifoldPoint,
    eta: float,
    epochs: int,
    inner_len: int | None = None,
    *,
    map_mode: str = "exp",
    seed: int = 0,
    checkpoint_every: float = 1.0,
    max_ifo: int | None = None,
) -> tuple[ManifoldPoint, RunTrace]:
    """Snapshot-based variance reduction.

    Each outer epoch takes a full gradient at a snapshot point, then runs
    ``inner_len`` single-sample steps whose estimator subtracts the
    transported snapshot correction. In "retract" mode the update is the
    normalization (x + v)/|x + v|, the classical power-method-flavored
    approximation of the exponential update.
    """
    _check_modes(map_mode)
    _check_step(eta)
    _check_start(obj, x0)
    m = obj.n if inner_len is None else int(inner_len)
    if m < 1:
        raise ValueError("inner loop length must be >= 1")
    rng = np.random.default_rng(seed)
    man = obj.manifold
    tracer = _Tracer(obj, checkpoint_every)
    tallies = {"anchor": 0, "correction": 0}
    x = x0
    step_len = 0.0
    k_global = 0
    if epochs >= 1:
        tracer.after_step(0, x0, 0.0, 0)
    for _s in range(epochs):
        if tracer.exhausted(max_ifo):
            break
        x_snap = x
        mu = obj.full_rgrad(x_snap).coords
        tallies["anchor"] += obj.n
        tracer.after_step(k_global, x, 0.0, obj.n)
        for i in _draws(rng, obj.n, m):
            if tracer.exhausted(max_ifo):
                break
            v, v_sq = _correct(obj, obj.component_rgrad, x, x_snap, mu, k_global, i)
            tallies["correction"] += 2
            x, step_len = _update(man, x, v, v_sq, eta, map_mode, k_global)
            k_global += 1
            tracer.after_step(k_global, x, step_len, 1)
    tracer.final(k_global, x, step_len, 1 if k_global else 0)
    config = {"eta": eta, "epochs": epochs, "inner_len": m, "map_mode": map_mode}
    return x, _run_trace(obj, tracer, "rsvrg", config, seed, ifo_breakdown=tallies)
