"""Runtime verification probes for objectives and estimator state.

Checks the analytic regularity quantities the optimizers rely on: gradient
correctness against geodesic finite differences, smoothness and
gradient-domination constants, the exact correction-estimator variance at
frozen mid-run states, and the epochs-to-double-accuracy rate statistic
used by the benchmark. No probe charges the oracle counter.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from ._checks import _check_count, _check_positive
from .geometry import ManifoldPoint
from .oracle import FiniteSumObjective, PcaProblem, _row_grads
from .optim import FrozenState, RunTrace

__all__ = [
    "CONVERGED",
    "STALLED",
    "ProbeReport",
    "epochs_to_double",
    "fd_gradient_check",
    "pl_constant_estimate",
    "smoothness_probe",
    "variance_probe",
]

#: Sentinels produced by :func:`epochs_to_double`.
STALLED = math.inf  # no error reduction in the window
CONVERGED = math.nan  # error already at (or below) the measurement floor

_PL_RADIUS = math.pi / 4  # geodesic radius of pl_constant_estimate's sampling ball
_MIN_GRAD_SQ = 1e-12  # |grad f|^2 below this gives no domination ratio (0/0 at optima)
# variance_probe's bound, in units of eps^2: the variance lemma's own bound on
# a finite-sum epoch (see variance_probe), not room for noise
_VARIANCE_BOUND = 2.0


@dataclass
class ProbeReport:
    """Outcome of one probe: a scalar statistic and an optional bound."""

    name: str
    samples: int
    statistic: float
    bound: float | None = None
    passed: bool = True
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.bound is not None:
            self.passed = self.statistic <= self.bound

    def to_text(self) -> str:
        """Flat key=value block for appending to run logs."""
        lines = [
            f"probe={self.name}",
            f"samples={self.samples}",
            f"statistic={self.statistic!r}",
            f"bound={'none' if self.bound is None else repr(self.bound)}",
            f"passed={str(self.passed).lower()}",
        ]
        lines.extend(f"{k}={v!r}" for k, v in sorted(self.details.items()))
        return "\n".join(lines) + "\n"


def fd_gradient_check(
    obj: FiniteSumObjective,
    x: ManifoldPoint,
    trials: int = 32,
    t_step: float = 1e-6,
    seed: int = 0,
    bound: float | None = None,
) -> ProbeReport:
    """Compare directional derivatives with central geodesic differences.

    For random unit tangents v, checks <grad f(x), v> against
    (f(exp(x, t v)) - f(exp(x, -t v))) / (2 t). The statistic is the largest
    absolute error; central differencing makes it decay as t^2.
    """
    _check_count("trials", trials, 1)
    _check_count("seed", seed, 0)
    if not 0.0 < t_step <= 1e-3:
        raise ValueError("t_step must lie in (0, 1e-3]")
    man = obj.manifold
    rng = np.random.default_rng(seed)
    g = obj._exact_grad(x)
    errs = []
    for _ in range(trials):
        v = man.random_tangent(x, rng)
        lhs = man.inner(g, v)
        fp = obj.value(man.exp(x, v._scaled(t_step)))
        fm = obj.value(man.exp(x, v._scaled(-t_step)))
        errs.append(abs(lhs - (fp - fm) / (2.0 * t_step)))
    return ProbeReport(
        name="fd_gradient_check",
        samples=trials,
        statistic=max(errs),
        bound=bound,
        details={"mean_error": sum(errs) / len(errs), "t_step": t_step},
    )


def smoothness_probe(
    obj: FiniteSumObjective,
    pairs: int = 64,
    radius: float = 0.5,
    seed: int = 0,
    bound: float | None = None,
) -> ProbeReport:
    """Empirical lower bound on the gradient Lipschitz constant.

    Over random geodesic pairs (x, y) with dist <= radius, measures
    |grad f(x) - transport(grad f(y))| / dist(x, y). Passes when the maximum
    stays below ``bound`` (default: the objective's smoothness hint). Raises
    ValueError unless ``radius`` is finite and positive, and when every pair
    is too close to measure.
    """
    _check_count("pairs", pairs, 1)
    _check_positive("radius", radius)
    _check_count("seed", seed, 0)
    if bound is None:
        bound = obj.L_hint
    man = obj.manifold
    rng = np.random.default_rng(seed)
    worst = 0.0
    used = 0
    for _ in range(pairs):
        x = man.random_point(rng)
        r = float(rng.uniform(0.0, radius))
        if r < 1e-12:
            continue
        y = man.exp(x, man.random_tangent(x, rng, scale=r))
        gx = obj._exact_grad(x)
        gy = obj._exact_grad(y)
        den = man.dist(x, y)
        if den < 1e-12:
            continue
        num = (gx - man.transport(y, x, gy)).norm()
        worst = max(worst, num / den)
        used += 1
    if used == 0:
        raise ValueError("every probe pair is too close to measure: no smoothness ratio")
    return ProbeReport(
        name="smoothness_probe",
        samples=used,
        statistic=worst,
        bound=bound,
        details={"radius": radius},
    )


def pl_constant_estimate(
    obj: FiniteSumObjective,
    f_star: float,
    points,
    seed: int = 0,
) -> ProbeReport:
    """Empirical gradient-domination constant: max of (f(x) - f*) / |grad f(x)|^2.

    ``points`` is either an explicit sequence of points or, for a
    :class:`PcaProblem`, a sample count (any number is taken for one, and
    must be an integer of at least 1, not a bool, else ValueError): points
    are then drawn in the geodesic ball of radius pi/4 around the top
    eigenvector u_1. Uniform directions alone dilute the flat mode in high
    dimension, so sampling also walks the second eigendirection u_2, where
    the ratio peaks. Points with |grad|^2 below 1e-12 carry no information
    (0/0 at optima) and are excluded.

    Every point is evaluated by the objective's uncharged ``_probe``, the
    one that serves the checkpoint records. For a :class:`PcaProblem`, u_1
    and u_2 come from the one cached eigendecomposition of the instance's
    d x d Gram matrix A, and ``_probe`` reads A, so no pass streams Z. The
    oracle counter is never charged.
    """
    _check_count("seed", seed, 0)
    man = obj.manifold
    if isinstance(points, numbers.Number):
        _check_count("points", points, 1)
        if not isinstance(obj, PcaProblem):
            raise ValueError("sampling needs a PcaProblem; pass explicit points instead")
        _, u1, u2 = obj._top_eigs()
        center = man.point(u1)
        rng = np.random.default_rng(seed)
        pts = []
        for _ in range(points):
            r = float(rng.uniform(0.0, _PL_RADIUS))
            pts.append(man.exp(center, man.random_tangent(center, rng, scale=r)))
        u = man.tangent(center, u2)
        for r in np.linspace(_PL_RADIUS / 8.0, _PL_RADIUS, 8):
            pts.append(man.exp(center, u._scaled(r)))
            pts.append(man.exp(center, u._scaled(-r)))
    else:
        pts = list(points)
    ratios = []
    excluded = 0
    for p in pts:
        f, g_sq = obj._probe(p)
        if g_sq < _MIN_GRAD_SQ:
            excluded += 1
            continue
        ratios.append((f - f_star) / g_sq)
    if not ratios:
        raise ValueError("all probe points are near-critical: no domination ratio")
    return ProbeReport(
        name="pl_constant_estimate",
        samples=len(ratios),
        statistic=max(ratios),
        bound=None,
        details={
            "excluded": excluded,
            "min_ratio": min(ratios),
            "mean_ratio": sum(ratios) / len(ratios),
            "radius": _PL_RADIUS,
        },
    )


def variance_probe(obj: FiniteSumObjective, frozen: FrozenState) -> ProbeReport:
    """The correction estimator's conditional mean squared error, exactly.

    Given the past, the correction v_k = g_S(x_k) - G(g_S(x_{k-1}) - v_{k-1})
    over s = ``frozen.s2`` uniform draws S has

        E|v_k - grad f(x_k)|^2 = |v_{k-1} - grad f(x_{k-1})|^2
                                 + (1/s) (1/n) sum_i |d_i - mean(d)|^2,

    with d_i = g_i(x_k) - G g_i(x_{k-1}) and G the parallel transport (a
    linear isometry). The probe reports the two terms (``carried``,
    ``sampling``) and their sum, evaluated on the rows without a charge. A
    finite-sum batch with s >= n is the deterministic full pass, whose
    sampling term is 0; a sample-only state (``frozen.sample_only``) is
    always a draw with replacement.

    The bound 2 eps^2 is the lemma's own, not room for noise. For components
    whose mean squared smoothness is at most the schedule's L^2, the batch
    formula gives each correction at most 2 eps^2 / q, an epoch holds at
    most q - 1 of them, and a full-gradient anchor is exact, so no state of
    an epoch that opens on a full anchor exceeds 2 eps^2. A sampled anchor
    adds up to sigma^2 / S1 on top, which the sample-only schedule keeps at
    most eps^2 / 2.
    """
    man = obj.manifold
    x, y = frozen.x_curr.coords, frozen.x_prev.coords
    err = frozen.v_prev.coords - obj._exact_grad(frozen.x_prev).coords
    carried = float(err.dot(err))
    sampling = 0.0
    if frozen.sample_only or frozen.s2 < obj.n:
        gy = _row_grads(obj, frozen.x_prev)
        d = _row_grads(obj, frozen.x_curr)
        # every row moves from y to x in one column call; when y is x, one
        # array passed twice keeps the 1-D op's identity shortcut
        X = np.broadcast_to(x, gy.shape)
        Y = X if y is x else np.broadcast_to(y, gy.shape)
        with np.errstate(all="ignore"):  # a flagged row's values are replaced below
            t, flagged = man._transport_rows(Y, X, gy)
        for i in flagged.nonzero()[0].tolist():
            t[i] = man._transport(y, x, gy[i])  # raises as the 1-D op does
        d -= t
        d -= d.mean(axis=0)
        sampling = float(np.einsum("ij,ij->", d, d)) / (obj.n * frozen.s2)
    return ProbeReport(
        name="variance_probe",
        samples=obj.n,
        statistic=carried + sampling,
        bound=_VARIANCE_BOUND * frozen.eps**2,
        details={"s2": frozen.s2, "k": frozen.k, "carried": carried, "sampling": sampling},
    )


def _accuracy(f: float, f_star: float) -> float:
    return (f - f_star) / abs(f_star)


def _checkpoint_steps(span: float, step: float, what: str = "window", least: int = 1) -> int:
    """Number of checkpoint steps in ``span`` epochs.

    Raises ValueError unless ``span`` is a whole number, at least ``least``,
    of steps of ``step`` epochs (relative tolerance 1e-9).
    """
    ratio = span / step
    k = round(ratio) if math.isfinite(ratio) else -1
    if k < least or not math.isclose(ratio, k, rel_tol=1e-9):
        raise ValueError(
            f"{what} {span!r} must be a whole number (at least {least}) of "
            f"checkpoint steps of {step!r} epochs"
        )
    return k


def epochs_to_double(
    trace,
    f_star: float,
    window: float = 5.0,
    step: float | None = None,
) -> list[tuple[float, float]]:
    """Per-window estimate of how many epochs the run needs to halve its error.

    ``trace`` is a :class:`RunTrace` (its checkpoint records are used, on
    the spacing in ``meta["checkpoint_every"]``) or an iterable of (epoch,
    objective value) pairs recorded on a checkpoint grid of spacing ``step``,
    which is then required: recorded epochs drift off the nominal grid, so
    the spacing cannot be read from them. ``window`` must be a whole number
    of those steps. With c the multiplicative error factor over one window,
    the estimate is log(2) / log(1/c) * (e1 - e0), where e0 and e1 are the
    epochs recorded at the window's two ends: a solver whose checkpoints land
    past their nominal epochs (a capped correction costs 2n calls) is
    measured on the epochs it spent, not on ``window``. Windows without
    progress (c >= 1) give STALLED (inf); windows starting at or crossing the
    measurement floor give CONVERGED (nan).
    """
    if f_star == 0:
        raise ValueError("the optimum value must be nonzero for relative accuracy")
    if isinstance(trace, RunTrace):
        pairs = [(r.epoch, r.f) for r in trace.records if r.boundary is not None]
        if step is None:
            step = float(trace.meta.get("checkpoint_every", 1.0))
    else:
        if step is None:
            raise ValueError("step must be given with (epoch, f) pairs: their checkpoint "
                             "spacing in epochs")
        pairs = [(float(e), float(f)) for e, f in trace]
    _check_positive("step", step)
    m = _checkpoint_steps(window, step)
    if len(pairs) < m + 1:
        raise ValueError(
            f"need at least {m + 1} checkpoints to span a {window}-epoch window"
        )
    out = []
    for i in range(len(pairs) - m):
        e0, f0 = pairs[i]
        e1, f1 = pairs[i + m]
        a0 = _accuracy(f0, f_star)
        a1 = _accuracy(f1, f_star)
        if a0 <= 1e-15:
            out.append((e0, CONVERGED))
            continue
        c = a1 / a0
        if c <= 0.0 or a1 <= 1e-15:
            out.append((e0, CONVERGED))
        elif c >= 1.0:
            out.append((e0, STALLED))
        else:
            out.append((e0, math.log(2.0) / math.log(1.0 / c) * (e1 - e0)))
    return out
