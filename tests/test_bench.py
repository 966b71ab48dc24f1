import argparse
import hashlib
import math
import multiprocessing
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import rspider as r
from rspider.bench import (
    CSV_COLUMNS,
    ExperimentConfig,
    _spectrum,
    cli_main,
    fit_line,
    run_sweep,
)
from rspider.diagnostics import epochs_to_double
from rspider.oracle import _eigenvector_factors, _problem_from_factors


def tiny_cfg(**kw):
    base = dict(
        algo=("rsvrg",),
        d=10,
        n=30,
        delta_list=(0.2,),
        epochs=4.0,
        seeds=(0,),
        eta=0.05,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def sweep_instance(cfg, delta):
    """The instance a sweep builds for one gap."""
    factors = _eigenvector_factors(cfg.d, cfg.n, cfg.data_seed)
    return _problem_from_factors(_spectrum(cfg, delta), *factors, cfg.data_seed)


class TestRunCell:
    def test_zero_epoch_budget(self):
        rows = run_sweep(tiny_cfg(epochs=0.0)).rows
        assert len(rows) == 1
        assert rows[0].epoch == 0.0
        assert rows[0].ifo == 0
        assert rows[0].accuracy > 0.0  # random initializer is not optimal

    def test_row_count_matches_grid(self):
        rows = run_sweep(tiny_cfg(epochs=4.0, checkpoint_every=1.0)).rows
        assert len(rows) == 5

    @pytest.mark.parametrize("epochs,count", [(2.5, 3), (3.5, 4), (3.7, 4)])
    def test_fractional_budget_rows_stop_at_the_budget(self, epochs, count):
        # one row per whole checkpoint step inside the budget, none past it
        rows = run_sweep(tiny_cfg(epochs=epochs, checkpoint_every=1.0)).rows
        assert len(rows) == count
        assert [row.epoch for row in rows] == [float(k) for k in range(count)]

    def test_rows_deterministic(self):
        cfg = tiny_cfg()
        lines1 = [row.to_line() for row in run_sweep(cfg).rows]
        lines2 = [row.to_line() for row in run_sweep(cfg).rows]
        assert lines1 == lines2

    def test_epoch_equals_ifo_over_n(self):
        cfg = tiny_cfg(algo=("spider",), epochs=3.0, seeds=(1,))
        for row in run_sweep(cfg).rows:
            assert abs(row.epoch - row.ifo / cfg.n) <= 1e-12

    def test_accuracy_nonnegative(self):
        res = run_sweep(tiny_cfg(algo=("rsgd", "rsvrg", "spider", "spider-gd1", "spider-gd2"),
                                 epochs=3.0, seeds=(2,)))
        assert not res.failures
        assert all(row.accuracy >= -1e-12 for row in res.rows)

    def test_rsvrg_close_to_vrpca(self):
        rows = run_sweep(tiny_cfg(algo=("rsvrg", "vrpca"), d=20, n=80, epochs=6.0, eta=0.02,
                                  seeds=(3,))).rows
        a = [row for row in rows if row.algo == "rsvrg"]
        b = [row for row in rows if row.algo == "vrpca"]
        ratio = a[5].accuracy / b[5].accuracy
        assert 0.5 <= ratio <= 2.0

    def test_instances_share_geometry_across_gaps(self):
        cfg = tiny_cfg()
        p1 = sweep_instance(cfg, 0.2)
        p2 = sweep_instance(cfg, 0.05)
        _, v1 = r.leading_eigpair(p1)
        _, v2 = r.leading_eigpair(p2)
        assert abs(v1.coords @ v2.coords) >= 1.0 - 1e-8

    def test_geometric_spectrum_option(self):
        cfg = tiny_cfg(spectrum="geometric")
        assert cfg.tail == 0.9
        P = sweep_instance(cfg, 0.2)
        assert P.spectrum[1] == pytest.approx(0.8)
        assert P.spectrum[2] == pytest.approx(0.72)

    @pytest.mark.parametrize("algo,delta,msg", [
        ("nope", 0.2, "unknown algorithm"),
        ("rsvrg", 0.3, "packed spectrum needs"),  # the packed spectrum holds delta < 0.25
    ])
    def test_bad_input_fails_before_any_build(self, monkeypatch, algo, delta, msg):
        import rspider.bench as bench

        builds = []
        real = bench._eigenvector_factors
        monkeypatch.setattr(bench, "_eigenvector_factors",
                            lambda *a: builds.append(a) or real(*a))
        with pytest.raises(ValueError, match=msg):
            run_sweep(tiny_cfg(algo=(algo,), delta_list=(delta,)))
        assert builds == []

    def test_all_algorithms_produce_rows(self):
        algos = ("rsgd", "rsvrg", "vrpca", "spider", "spider-gd1", "spider-gd2")
        res = run_sweep(tiny_cfg(algo=algos, epochs=2.0, seeds=(4,)))
        assert not res.failures
        assert [row.algo for row in res.rows] == [algo for algo in algos for _ in range(3)]


class TestWindows:
    def test_window_off_the_checkpoint_grid_is_rejected(self):
        # 5 epochs are 2.5 steps of 2: the statistic would span 2 steps (4
        # epochs) but scale its estimate by 5
        with pytest.raises(ValueError, match="window 5.0 must be a whole number"):
            tiny_cfg(checkpoint_every=2.0, epochs=10.0)
        pairs = [(float(e), -1.0 + 0.5 ** (e / 4.0)) for e in range(0, 11, 2)]
        with pytest.raises(ValueError, match="window 5.0 must be a whole number"):
            epochs_to_double(pairs, f_star=-1.0, window=5.0, step=2.0)
        with pytest.raises(ValueError, match="whole number"):
            tiny_cfg(checkpoint_every=2.0, window=1.0, epochs=10.0)

    def test_window_of_whole_checkpoint_steps_is_accepted(self):
        cfg = tiny_cfg(checkpoint_every=2.0, window=4.0, epochs=10.0)
        assert len(run_sweep(cfg).rows) == 6
        pairs = [(float(e), -1.0 + 0.5 ** (e / 4.0)) for e in range(0, 11, 2)]
        out = epochs_to_double(pairs, f_star=-1.0, window=4.0, step=2.0)
        assert [e for e, _ in out] == [0.0, 2.0, 4.0, 6.0]
        assert out[0][1] == pytest.approx(4.0, rel=1e-12)
        # a ratio that rounding leaves just off a whole number still counts
        tiny_cfg(checkpoint_every=0.1, window=0.3, fit_window=0.7, epochs=1.0)

    @pytest.mark.parametrize("fit_window", [-10.0, -1.0, 2.5])
    def test_negative_or_off_grid_fit_window_is_rejected(self, fit_window):
        with pytest.raises(ValueError, match="fit_window"):
            tiny_cfg(epochs=30.0, window=5.0, fit_window=fit_window)

    def test_fit_window_at_epoch_zero_is_accepted(self):
        assert tiny_cfg(fit_window=0.0).fit_window_start == 0.0


class TestFit:
    def test_exact_inverse_law(self):
        deltas = [1e-2 / k for k in range(1, 9)]
        xs = [1.0 / dl for dl in deltas]
        ys = [3.0 / dl for dl in deltas]
        slope, intercept, corr = fit_line(xs, ys)
        assert slope == pytest.approx(3.0, abs=1e-12)
        assert corr == pytest.approx(1.0, abs=1e-12)
        assert intercept == pytest.approx(0.0, abs=1e-9)

    def test_nonfinite_pairs_dropped(self):
        slope, _, corr = fit_line([1, 2, 3, 4], [2, 4, math.inf, 8])
        assert slope == pytest.approx(2.0)
        assert corr == pytest.approx(1.0)

    def test_degenerate(self):
        slope, intercept, corr = fit_line([1.0], [2.0])
        assert math.isnan(slope)


class TestRunSweep:
    def test_cell_grid_and_summary(self, tmp_path):
        out = tmp_path / "sweep.csv"
        cfg = tiny_cfg(
            algo=("rsgd", "rsvrg"),
            delta_list=(0.2, 0.1),
            seeds=(0, 1),
            epochs=2.0,
            out_path=str(out),
        )
        res = run_sweep(cfg)
        assert len(res.rows) == 2 * 2 * 2 * 3  # algos x deltas x seeds x rows
        assert len(res.summary_rows) == 4  # algos x deltas
        text = out.read_text()
        assert text.splitlines()[0] == ",".join(CSV_COLUMNS)
        assert (tmp_path / "sweep.csv.summary.csv").exists()

    def test_cell_count_full_grid(self):
        # 8 gaps x 5 seeds x 2 algorithms = 80 cells
        cfg = tiny_cfg(
            algo=("rsgd", "rsvrg"),
            delta_list=tuple(0.2 / k for k in range(1, 9)),
            seeds=tuple(range(5)),
            epochs=0.0,
        )
        res = run_sweep(cfg)
        cells = {(row.algo, row.delta, row.seed) for row in res.rows}
        assert len(cells) == 80
        assert len(res.rows) == 80  # one row per cell at a zero-epoch budget

    def test_sweep_deterministic_bytes(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            run_sweep(tiny_cfg(epochs=2.0, seeds=(0, 1), out_path=str(out)))
        assert out1.read_bytes() == out2.read_bytes()
        assert (
            (tmp_path / "a.csv.summary.csv").read_bytes()
            == (tmp_path / "b.csv.summary.csv").read_bytes()
        )

    def test_failed_cell_is_reported_and_skipped(self, monkeypatch, capsys):
        import rspider.bench as bench
        from rspider.optim import OptimizerError

        real = bench._run_cell

        def flaky(cfg, P, f_star, tau, delta, *args):
            if delta == 0.1:
                raise OptimizerError("degenerate step at iteration 3")
            return real(cfg, P, f_star, tau, delta, *args)

        monkeypatch.setattr(bench, "_run_cell", flaky)
        res = run_sweep(tiny_cfg(delta_list=(0.2, 0.1), epochs=2.0))
        assert len(res.failures) == 1
        assert res.failures[0][1] == 0.1
        assert res.failures[0][3] == "OptimizerError: degenerate step at iteration 3"
        assert {row.delta for row in res.rows} == {0.2}
        assert "delta=0.1" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", [1, 2])
    def test_cells_match_one_cell_sweeps(self, workers):
        # the shared instance, counter and tau give every cell the rows it
        # gets when run alone, as a one-cell sweep
        cfg = tiny_cfg(
            algo=("rsvrg", "spider", "spider-gd1", "spider-gd2"),
            delta_list=(0.2, 0.1), seeds=(0, 1), epochs=3.0, workers=workers,
        )
        res = run_sweep(cfg)
        assert not res.failures
        swept = {}
        for row in res.rows:
            swept.setdefault((row.algo, row.delta, row.seed), []).append(row.to_line())
        assert len(swept) == 4 * 2 * 2
        for (algo, delta, seed), lines in swept.items():
            alone = run_sweep(replace(cfg, algo=(algo,), delta_list=(delta,), seeds=(seed,),
                                      workers=1))
            assert lines == [row.to_line() for row in alone.rows]

    def test_cells_spend_no_more_than_their_budget(self, monkeypatch):
        # a 12-epoch cell at d=50, n=500 where a full anchor or a capped
        # correction at the end of a run used to overspend by up to 2n calls
        import rspider.optim as optim

        traces = []
        trace = optim._Run.trace
        monkeypatch.setattr(optim._Run, "trace",
                            lambda run, *a, **k: traces.append(trace(run, *a, **k)) or traces[-1])
        res = run_sweep(ExperimentConfig(
            algo=("spider", "spider-gd1", "spider-gd2", "rsvrg"), d=50, n=500,
            delta_list=(0.1,), spectrum="geometric", data_seed=0, seeds=(0,), epochs=12.0,
        ))
        assert not res.failures
        assert [t.meta["algo"] for t in traces] == ["spider", "spider-gd1", "spider-gd2", "rsvrg"]
        for t in traces:
            assert t.meta["ifo"] <= 6000, t.meta["algo"]
            assert sum(rec.boundary is not None for rec in t.records) == 13, t.meta["algo"]

    def test_factors_once_per_sweep_and_tau_once_per_gap(self, monkeypatch):
        import rspider.bench as bench
        import rspider.oracle as oracle

        calls = {"qr": 0, "tau": 0}
        qr, tau = oracle._orthonormal, bench.pl_constant_estimate

        def counted_qr(*a):
            calls["qr"] += 1
            return qr(*a)

        def counted_tau(*a, **k):
            calls["tau"] += 1
            return tau(*a, **k)

        monkeypatch.setattr(oracle, "_orthonormal", counted_qr)
        monkeypatch.setattr(bench, "pl_constant_estimate", counted_tau)
        res = run_sweep(tiny_cfg(
            algo=("rsvrg", "spider-gd1", "spider-gd2"),
            delta_list=(0.2, 0.1, 0.05), seeds=(0, 1), epochs=1.0,
        ))
        assert not res.failures
        assert calls == {"qr": 2, "tau": 3}  # one U and one V; one tau per gap

    def test_gram_formed_once_per_gap(self, monkeypatch):
        # tau and every checkpoint of every cell of a gap read one Gram matrix
        import rspider.oracle as oracle

        formed = []
        gram = oracle.PcaProblem._gram

        def counted_gram(self):
            if self._A is None:
                formed.append(self.f_star)
            return gram(self)

        monkeypatch.setattr(oracle.PcaProblem, "_gram", counted_gram)
        res = run_sweep(tiny_cfg(
            algo=("rsvrg", "spider-gd1", "spider-gd2"),
            delta_list=(0.2, 0.1), seeds=(0, 1), epochs=1.0,
        ))
        assert not res.failures
        assert len(formed) == 2  # one Gram matrix per gap
        res = run_sweep(tiny_cfg(algo=("rsvrg", "spider"), delta_list=(0.2, 0.1),
                                 seeds=(0, 1), epochs=1.0))
        assert not res.failures
        assert len(formed) == 4  # a sweep without tau forms one per gap too

    def test_cell_exception_fails_only_that_cell(self, monkeypatch):
        import rspider.bench as bench

        real = bench._run_cell

        def flaky(cfg, P, f_star, tau, delta, seed, *args):
            if seed == 1:
                raise ValueError("all probe points are near-critical")
            return real(cfg, P, f_star, tau, delta, seed, *args)

        monkeypatch.setattr(bench, "_run_cell", flaky)
        res = run_sweep(tiny_cfg(delta_list=(0.2, 0.1), seeds=(0, 1), epochs=1.0))
        assert [(f[1], f[2], f[3]) for f in res.failures] == [
            (0.2, 1, "ValueError: all probe points are near-critical"),
            (0.1, 1, "ValueError: all probe points are near-critical"),
        ]
        assert {(row.delta, row.seed) for row in res.rows} == {(0.2, 0), (0.1, 0)}

    @pytest.mark.parametrize("workers", [
        1,
        pytest.param(2, marks=pytest.mark.skipif(
            multiprocessing.get_start_method() != "fork",
            reason="the patch reaches worker processes only when they fork")),
    ])
    def test_tau_failure_fails_only_the_cells_that_need_it(self, monkeypatch, capsys,
                                                           workers):
        import rspider.bench as bench

        def no_tau(*a, **k):
            raise RuntimeError("tau estimate failed")

        monkeypatch.setattr(bench, "pl_constant_estimate", no_tau)
        res = run_sweep(tiny_cfg(
            algo=("spider", "spider-gd1"), delta_list=(0.2, 0.1), seeds=(0, 1),
            epochs=1.0, workers=workers,
        ))
        assert [f[:3] for f in res.failures] == [
            ("spider-gd1", dl, s) for dl in (0.2, 0.1) for s in (0, 1)
        ]
        assert {f[3] for f in res.failures} == {
            "RuntimeError: tau estimate failed"
        }
        assert {row.algo for row in res.rows} == {"spider"}
        assert len(res.rows) == 2 * 2 * 2
        assert "RuntimeError" in capsys.readouterr().err

    def test_rows_ordered_by_cell_then_epoch(self, tmp_path):
        cfg = tiny_cfg(delta_list=(0.2, 0.1), seeds=(1, 0), epochs=2.0)
        res = run_sweep(cfg)
        keys = [(row.algo, row.delta, row.seed) for row in res.rows]
        assert keys == sorted(keys, key=lambda k: (k[0], -k[1], 0)) or keys
        # within a cell, epochs are nondecreasing
        for i in range(1, len(res.rows)):
            a, b = res.rows[i - 1], res.rows[i]
            if (a.algo, a.delta, a.seed) == (b.algo, b.delta, b.seed):
                assert b.epoch >= a.epoch


class TestCli:
    def test_help_exits_zero(self, capsys):
        assert cli_main(["--help"]) == 0
        assert "usage" in capsys.readouterr().out.lower()

    def test_unknown_flag_exits_one(self, capsys):
        assert cli_main(["bench", "--bogus"]) == 1

    def test_bad_list_value_names_the_list(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert cli_main(["bench", "--seeds", "1,x", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            "error: argument --seeds/--seed: invalid comma-separated int list value: '1,x'\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv,usage", [
        (["bench", "--seeds", "1,x"], "usage: rspider bench [-h] [--algo ALGO]"),
        (["bench", "--bogus", "1"], "usage: rspider bench [-h] [--algo ALGO]"),
        (["probe", "--delta", "x"], "usage: rspider probe [-h] [--d D]"),
        (["gen", "--bogus"], "usage: rspider gen [-h] [--d D]"),
        (["--bogus", "bench"], "usage: rspider [-h] {bench,probe,gen} ..."),
    ])
    def test_flag_error_prints_the_usage_of_its_command(self, capsys, argv, usage):
        assert cli_main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("error: ") and err[1].startswith(usage)

    def test_readme_documents_exactly_the_subcommands(self):
        import rspider.bench as bench

        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("\n## Command line\n", 1)[1].split("```sh\n", 1)[1].split("```")[0]
        documented = {line.split()[1] for line in block.splitlines()
                      if line.startswith("rspider ")}
        sub = next(a for a in bench._build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert documented == set(sub.choices) == {"bench", "probe", "gen"}

    def test_missing_subcommand_exits_one(self):
        assert cli_main([]) == 1

    def test_bench_smoke(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        code = cli_main(
            [
                "bench", "--algo", "spider", "--d", "10", "--n", "30",
                "--delta", "0.2", "--epochs", "2", "--seed", "7",
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + 3
        assert (tmp_path / "o.csv.summary.csv").exists()

    def test_fit_window_past_budget_is_explained(self, tmp_path, capsys):
        # window 5 puts the fit at epochs 10 to 15, past the 10-epoch budget
        out = tmp_path / "short.csv"
        code = cli_main(
            ["bench", "--algo", "rsvrg", "--d", "10", "--n", "30",
             "--delta-list", "0.2,0.1", "--epochs", "10", "--seeds", "0,1",
             "--eta", "0.05", "--out", str(out)]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "rsvrg: fit slope=nan corr=nan" in captured.out
        note = [line for line in captured.err.splitlines() if "fit window" in line]
        assert len(note) == 1
        assert "10.0 to 15.0" in note[0] and "10.0-epoch budget" in note[0]
        assert len(out.read_text().splitlines()) == 1 + 2 * 2 * 11
        assert (tmp_path / "short.csv.summary.csv").exists()

    def test_fit_window_inside_budget_prints_no_note(self, tmp_path, capsys):
        out = tmp_path / "long.csv"
        code = cli_main(
            ["bench", "--algo", "rsvrg", "--d", "10", "--n", "30",
             "--delta-list", "0.2", "--epochs", "15", "--seeds", "0",
             "--eta", "0.05", "--out", str(out)]
        )
        assert code == 0
        assert "fit window" not in capsys.readouterr().err

    def test_bench_requires_out(self):
        assert cli_main(["bench", "--algo", "rsgd"]) == 1

    # sha256 of the CSVs that the former single-cell command `run` wrote for
    # these two cells, which a one-cell sweep wrote as well; the spider-gd2
    # digest was re-recorded when the budget became exact, which moved its
    # last row (12.05 -> 12.0 epochs) and one epochs_to_double
    @pytest.mark.parametrize("flags,digest", [
        (["--algo", "spider-gd2", "--d", "20", "--n", "200", "--spectrum", "geometric",
          "--delta", "0.5", "--data-seed", "7", "--epochs", "12", "--seed", "3"],
         "f62af792bd6ef45caff168247abf52daf6b0c0ce55400a421f0ab7354b8123e6"),
        (["--algo", "vrpca", "--d", "10", "--n", "30", "--delta", "0.2", "--epochs", "3",
          "--seed", "1"],
         "ec097e181ecac55002772606bd9f53d8f6aef11cc1e0f532ecc99b4d3a2060d0"),
    ], ids=["spider-gd2", "vrpca"])
    def test_one_cell_sweep_csv(self, tmp_path, flags, digest):
        out = tmp_path / "cell.csv"
        assert cli_main(["bench", *flags, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_run_is_not_a_command(self, tmp_path, capsys):
        out = tmp_path / "cell.csv"
        assert cli_main(["run", "--d", "10", "--n", "30", "--out", str(out)]) == 1
        assert "invalid choice: 'run'" in capsys.readouterr().err
        assert not out.exists()

    def test_gen_writes_loadable_dump(self, tmp_path):
        out = tmp_path / "data.rspd"
        code = cli_main(
            ["gen", "--d", "8", "--n", "20", "--delta", "0.2", "--seed", "5",
             "--out", str(out)]
        )
        assert code == 0
        P = r.load_problem(out)
        assert P.Z.shape == (8, 20)
        assert P.seed == 5

    def test_probe_prints_reports(self, capsys):
        code = cli_main(["probe", "--d", "8", "--n", "24", "--delta", "0.2",
                         "--seed", "1"])
        assert code == 0
        text = capsys.readouterr().out
        assert "probe=fd_gradient_check" in text
        assert "sigma_sq_estimate=" in text

    def test_probe_appends_to_file(self, tmp_path):
        out = tmp_path / "log.txt"
        for _ in range(2):
            assert cli_main(
                ["probe", "--d", "8", "--n", "24", "--delta", "0.2",
                 "--seed", "1", "--out", str(out)]
            ) == 0
        text = out.read_text()
        assert text.count("probe=fd_gradient_check") == 2

    @pytest.mark.parametrize("cmd", ["bench"])
    def test_one_flag_per_config_field(self, cmd):
        import rspider.bench as bench

        sub = next(a for a in bench._build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        dests = [a.dest for a in sub.choices[cmd]._actions if a.dest != "help"]
        assert sorted(dests) == sorted(f.name for f in fields(ExperimentConfig))

    def test_every_flag_reaches_the_config(self, monkeypatch):
        import rspider.bench as bench

        seen = []
        monkeypatch.setattr(bench, "run_sweep",
                            lambda cfg: seen.append(cfg) or bench.SweepResult([], [], [], []))
        given = {
            "algo": ("spider", "rsgd"), "d": 10, "n": 50, "delta_list": (0.2, 0.1),
            "epochs": 3.5, "seeds": (4, 5), "map_mode": "retract", "eta": 0.05,
            "checkpoint_every": 0.5, "out_path": "x.csv", "spectrum": "geometric",
            "tail": 0.8, "workers": 2, "data_seed": 7, "window": 1.5, "fit_window": 2.0,
        }
        assert sorted(given) == sorted(f.name for f in fields(ExperimentConfig))
        argv = ["bench"]
        for name, value in given.items():
            flag = "--out" if name == "out_path" else "--" + name.replace("_", "-")
            text = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
            argv += [flag, text]
        assert cli_main(argv) == 2  # the recorder returns no rows
        default = ExperimentConfig()
        for name, value in given.items():
            assert getattr(seen[0], name) == value != getattr(default, name), name

    # keys the sweep configuration used to take, each spelled as a flag
    @pytest.mark.parametrize("key", ["eps", "tau", "timing", "L", "M0", "K", "ifo_convention"])
    def test_removed_config_key_exits_one(self, tmp_path, capsys, key):
        flag = "--" + key.replace("_", "-")
        out = tmp_path / "x.csv"
        assert cli_main(["bench", flag, "1", "--out", str(out)]) == 1
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
        assert not out.exists()

    def test_removed_ifo_convention_flag_exits_one(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        argv = ["bench", "--d", "10", "--n", "30", "--epochs", "1", "--seeds", "0",
                "--ifo-convention", "single", "--out", str(out)]
        assert cli_main(argv) == 1
        assert "--ifo-convention" in capsys.readouterr().err
        assert not out.exists()

    def test_module_form_runs_the_cli(self, tmp_path):
        src = Path(__file__).resolve().parents[1] / "src"
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        out = tmp_path / "x.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "rspider", "bench", "--d", "10", "--n", "30",
             "--delta-list", "0.2", "--epochs", "1", "--seeds", "0", "--eta", "0.05",
             "--out", str(out)],
            cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert "RuntimeWarning" not in proc.stderr
        assert out.read_text().splitlines()[0] == ",".join(CSV_COLUMNS)

    def test_bench_module_is_not_a_command(self, tmp_path):
        src = Path(__file__).resolve().parents[1] / "src"
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "rspider.bench", "bench", "--d", "10", "--n", "30",
             "--out", str(tmp_path / "x.csv")],
            cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode != 0
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and "python -m rspider`" in lines[0], proc.stderr
        assert not any(tmp_path.iterdir())

    def test_alias_precedence(self, monkeypatch):
        import rspider.bench as bench

        seen = []
        monkeypatch.setattr(bench, "run_sweep",
                            lambda cfg: seen.append(cfg) or bench.SweepResult([], [], [], []))

        def cfg_for(*flags):
            cli_main(["bench", "--d", "10", "--n", "30", "--epochs", "1", "--out", "x.csv",
                      *flags])
            return seen.pop()

        # two spellings of one field: the last one given wins
        assert cfg_for("--delta", "0.05", "--delta-list", "0.2,0.1").delta_list == (0.2, 0.1)
        assert cfg_for("--delta-list", "0.2,0.1", "--delta", "0.15").delta_list == (0.15,)
        assert cfg_for("--seed", "3", "--seeds", "5,6").seeds == (5, 6)
        assert cfg_for("--seeds", "5,6", "--seed", "4").seeds == (4,)
        assert cfg_for("--out", "a.csv", "--out", "b.csv").out_path == "b.csv"

    def test_window_off_grid_fails_before_any_cell(self, tmp_path, monkeypatch, capsys):
        import rspider.bench as bench

        ran = []
        monkeypatch.setattr(bench, "_run_cell", lambda *a, **k: ran.append(a))
        monkeypatch.setattr(bench, "_eigenvector_factors", lambda *a: ran.append(a))
        code = cli_main(
            ["bench", "--d", "10", "--n", "30", "--delta", "0.2", "--epochs", "10",
             "--checkpoint-every", "2", "--seed", "0", "--out", str(tmp_path / "x.csv")]
        )
        assert code == 1
        assert "must be a whole number" in capsys.readouterr().err
        assert ran == []
        assert list(tmp_path.iterdir()) == []

    def test_bad_gap_fails_before_any_cell(self, tmp_path, monkeypatch, capsys):
        import rspider.bench as bench

        ran = []
        monkeypatch.setattr(bench, "_run_cell", lambda *a, **k: ran.append(a))
        out = tmp_path / "x.csv"
        code = cli_main(
            ["bench", "--d", "10", "--n", "50", "--delta-list", "0.1,0.3",
             "--epochs", "1", "--seeds", "0", "--out", str(out)]
        )
        assert code == 1
        assert "packed spectrum needs 0 < delta < 0.25" in capsys.readouterr().err
        assert ran == []
        assert list(tmp_path.iterdir()) == []

    def test_fewer_samples_than_dimensions_fails_before_any_work(
            self, tmp_path, monkeypatch, capsys):
        import rspider.bench as bench

        ran = []
        monkeypatch.setattr(bench, "_run_cell", lambda *a, **k: ran.append(a))
        monkeypatch.setattr(bench, "_eigenvector_factors", lambda *a: ran.append(a))
        out = tmp_path / "x.csv"
        code = cli_main(
            ["bench", "--d", "50", "--n", "20", "--delta-list", "0.1,0.05",
             "--epochs", "1", "--seeds", "0,1", "--out", str(out)]
        )
        assert code == 1
        assert "n >= d" in capsys.readouterr().err
        assert ran == []
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(ValueError, match="n >= d"):
            tiny_cfg(d=50, n=20, spectrum="geometric")

    @pytest.mark.parametrize("eta", ["-1", "0", "nan", "inf"])
    def test_bad_step_size_fails_before_any_work(self, tmp_path, monkeypatch, capsys, eta):
        import rspider.bench as bench

        ran = []
        monkeypatch.setattr(bench, "_run_cell", lambda *a, **k: ran.append(a))
        monkeypatch.setattr(bench, "_eigenvector_factors", lambda *a: ran.append(a))
        out = tmp_path / "x.csv"
        code = cli_main(
            ["bench", "--algo", "rsvrg", "--d", "10", "--n", "30", "--epochs", "1",
             "--seeds", "0", "--eta", eta, "--out", str(out)]
        )
        assert code == 1
        assert "step size must be finite and positive" in capsys.readouterr().err
        assert ran == []
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(ValueError, match="step size"):
            tiny_cfg(eta=float(eta))

    @pytest.mark.parametrize("epochs", ["nan", "inf"])
    def test_non_finite_epoch_budget_fails_before_any_work(self, tmp_path, monkeypatch,
                                                           capsys, epochs):
        import rspider.bench as bench

        ran = []
        monkeypatch.setattr(bench, "_run_cell", lambda *a, **k: ran.append(a))
        monkeypatch.setattr(bench, "_eigenvector_factors", lambda *a: ran.append(a))
        out = tmp_path / "x.csv"
        code = cli_main(
            ["bench", "--algo", "rsvrg", "--d", "10", "--n", "30", "--epochs", epochs,
             "--seeds", "0", "--out", str(out)]
        )
        assert code == 1
        assert "epoch budget must be finite and >= 0" in capsys.readouterr().err
        assert ran == []
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(ValueError, match="epoch budget"):
            tiny_cfg(epochs=float(epochs))

    def test_geometric_gap_checked_by_its_spectrum(self):
        with pytest.raises(ValueError, match="lambda_1"):
            tiny_cfg(spectrum="geometric", delta_list=(0.2, 1.5))
        tiny_cfg(spectrum="geometric", delta_list=(0.2, 0.6))

    def test_unwritable_output_exits_two(self, tmp_path):
        code = cli_main(
            ["bench", "--algo", "rsgd", "--d", "10", "--n", "30",
             "--delta", "0.2", "--epochs", "1", "--seed", "0",
             "--out", str(tmp_path / "no" / "such" / "dir" / "o.csv")]
        )
        assert code == 2

    @pytest.mark.parametrize("cmd", ["bench", "probe"])
    def test_linalg_failure_exits_two(self, tmp_path, monkeypatch, capsys, cmd):
        import rspider.oracle as oracle

        def ill_conditioned(*a, **k):
            raise np.linalg.LinAlgError("draw too ill-conditioned")

        monkeypatch.setattr(oracle, "_orthonormal", ill_conditioned)
        argv = [cmd, "--d", "10", "--n", "30", "--delta", "0.2", "--seed", "0"]
        if cmd == "bench":
            argv += ["--epochs", "1", "--out", str(tmp_path / "x.csv")]
        assert cli_main(argv) == 2
        assert capsys.readouterr().err == "failure: draw too ill-conditioned\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("cmd", ["probe", "gen"])
    def test_bad_instance_flag_exits_one(self, tmp_path, capsys, cmd):
        out = tmp_path / "x.out"
        assert cli_main([cmd, "--d", "10", "--n", "30", "--delta", "1.5",
                         "--out", str(out)]) == 1
        assert "eigengap must satisfy" in capsys.readouterr().err
        assert not out.exists()

    def test_cli_rerun_byte_identical(self, tmp_path):
        args = [
            "bench", "--algo", "rsvrg", "--d", "10", "--n", "30",
            "--delta", "0.2", "--epochs", "2", "--seeds", "0,1", "--eta", "0.05",
        ]
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        assert cli_main(args + ["--out", str(out1)]) == 0
        assert cli_main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_workers_match_serial(self, tmp_path):
        args = [
            "bench", "--algo", "rsgd", "--d", "10", "--n", "30",
            "--delta-list", "0.2,0.1", "--epochs", "2", "--seeds", "0,1",
            "--eta", "0.05",
        ]
        out1, out2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
        assert cli_main(args + ["--out", str(out1)]) == 0
        assert cli_main(args + ["--out", str(out2), "--workers", "2"]) == 0
        assert out1.read_bytes() == out2.read_bytes()
