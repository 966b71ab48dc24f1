"""The benchmark's workloads: fixed sweeps whose inputs derive from one seed.

Every workload runs in one process with ``workers=1``. ``--seed s`` sets the
instance geometry (``data_seed = base_data_seed + s``) and the cell seeds
(``s * 100 + j``); seed 0 reproduces the README quick-start geometry for
``spider-desk`` and the ``ExperimentConfig`` default geometry elsewhere.

A workload's sweep is timed in parts: each part is one ``run_sweep`` call
over the cells that share the ``split`` value (one algorithm, or one cell
seed). Parts are short, so repeating them many times in a run samples the
host's contention finely. Every gap of ``gap-sweep`` stays in one part, so
running cells in lockstep or building each instance once per sweep still
shows. The reason each workload exists is in ``BENCHMARK.json``;
``NOTES.md`` maps each layer to the end-to-end metric it should move.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Workload:
    name: str
    algos: tuple[str, ...]
    d: int
    n: int
    deltas: tuple[float, ...]
    spectrum: str
    epochs: float
    n_seeds: int
    base_data_seed: int
    target: float  # relative accuracy that epochs_to_target waits for
    split: str     # "algo" or "seed": what one timed part holds
    window: float = 5.0
    fit_window: float | None = None

    def config(self, bench, seed: int):
        return bench.ExperimentConfig(
            algo=self.algos,
            d=self.d,
            n=self.n,
            delta_list=self.deltas,
            spectrum=self.spectrum,
            epochs=self.epochs,
            seeds=tuple(seed * 100 + j for j in range(self.n_seeds)),
            data_seed=self.base_data_seed + seed,
            window=self.window,
            fit_window=self.fit_window,
            workers=1,
        )

    def parts(self, bench, seed: int):
        """The sweep's configuration cut into the parts that are timed."""
        cfg = self.config(bench, seed)
        if self.split == "algo":
            return [replace(cfg, algo=(a,)) for a in cfg.algo]
        return [replace(cfg, seeds=(s,)) for s in cfg.seeds]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="gap-sweep",
            algos=("rsvrg", "vrpca"),
            d=100,
            n=2000,
            deltas=tuple(1e-2 / k for k in range(1, 9)),
            spectrum="packed",
            epochs=2.0,
            n_seeds=3,
            base_data_seed=12345,
            target=0.1,
            split="algo",
            window=1.0,
            fit_window=1.0,
        ),
        Workload(
            name="spider-desk",
            algos=("spider", "spider-gd1", "spider-gd2"),
            d=20,
            n=200,
            deltas=(0.5,),
            spectrum="geometric",
            epochs=300.0,
            n_seeds=6,
            base_data_seed=7,
            target=1e-6,
            split="seed",
        ),
        Workload(
            name="spider-large",
            algos=("spider", "spider-gd2"),
            d=200,
            n=20000,
            deltas=(0.1,),
            spectrum="geometric",
            epochs=20.0,
            n_seeds=1,
            base_data_seed=12345,
            target=0.7,
            split="algo",
        ),
    )
}
