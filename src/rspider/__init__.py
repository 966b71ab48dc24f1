"""Variance-reduced stochastic optimization on geodesic manifolds.

Modules:
    geometry    -- sphere / flat-space geodesic primitives
    oracle      -- finite-sum objectives with oracle-call accounting
    optim       -- the variance-reduced solvers and baselines
    diagnostics -- regularity probes and rate statistics
    bench       -- sweep runner and command-line interface
"""

from importlib import import_module

from .geometry import (
    AntipodalError,
    Euclidean,
    GeometryError,
    Manifold,
    ManifoldPoint,
    Sphere,
    TangentVector,
)
from .oracle import (
    FiniteSumObjective,
    IfoCounter,
    PcaProblem,
    SyntheticSpec,
    generate_gap_matrix,
    leading_eigpair,
    load_problem,
    packed_spectrum,
    problem_from_spectrum,
    save_problem,
    variance_bound_estimate,
)
from .optim import (
    FrozenState,
    GdConfig,
    OptimizerError,
    RunTrace,
    SpiderConfig,
    TraceRecord,
    params_finite,
    params_stochastic,
    rsgd,
    rsvrg,
    spider_gd1,
    spider_gd2,
    spider_nonconvex,
)
from .diagnostics import (
    CONVERGED,
    STALLED,
    ProbeReport,
    epochs_to_double,
    fd_gradient_check,
    pl_constant_estimate,
    smoothness_probe,
    variance_probe,
)

__version__ = "0.1.0"

# the command-line module loads on first use, so ``python -m rspider.bench``
# finds it unimported and can point to ``python -m rspider`` instead
_BENCH_NAMES = ("ExperimentConfig", "cli_main", "run_sweep")


def __getattr__(name):
    if name == "bench" or name in _BENCH_NAMES:
        bench = import_module(".bench", __name__)
        return bench if name == "bench" else getattr(bench, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
