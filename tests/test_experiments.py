"""Tests for the experiment harness and the command-line interface."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from scma_d2d import allocation, experiments, gp
from scma_d2d.channel import ScenarioConfig
from scma_d2d.cli import main
from scma_d2d.experiments import (
    ExperimentSpec,
    run_baseline_comparison,
    run_bound_validation,
    run_convergence,
    run_experiment,
    run_sweep,
)


def spec_for(kind, tmp_path, **kw):
    scenario = kw.pop("scenario", ScenarioConfig(J_D=1))
    return ExperimentSpec(kind=kind, scenario=scenario,
                          output_path=str(tmp_path / f"{kind}.csv"), **kw)


class TestExperimentSpec:
    def test_output_directory_must_exist(self, tmp_path):
        """An output path in a missing directory is rejected up front, not
        after every seed has run."""
        spec = ExperimentSpec(kind="baseline_comparison",
                              scenario=ScenarioConfig(J_D=1),
                              output_path=str(tmp_path / "missing" / "cmp.csv"))
        with pytest.raises(ValueError, match="output directory"):
            spec.validate()
        spec.output_path = str(tmp_path / "cmp.csv")
        assert spec.validate() is spec

    def test_output_path_must_not_be_a_directory(self, tmp_path):
        """An output path naming an existing directory is rejected up
        front, not when the file is written after every seed has run."""
        spec = ExperimentSpec(kind="baseline_comparison",
                              scenario=ScenarioConfig(J_D=1),
                              output_path=str(tmp_path))
        with pytest.raises(ValueError, match="is a directory"):
            spec.validate()


class TestConvergenceExperiment:
    def test_single_pass_cap(self, tmp_path):
        """t_max = 1 records exactly one optimization step per seed; the
        pass-0 row carries the starting point's sum rate."""
        spec = spec_for("convergence", tmp_path, num_seeds=1, t_max=1)
        result = run_convergence(spec)
        lines = Path(result.output_path).read_text().strip().splitlines()
        assert len(lines) == 1 + 2          # header, pass 0 (start), pass 1
        assert result.traces[0].iterations_used == 1
        start = lines[1].split(",")
        assert start[1] == "0"
        assert float(start[-2]) == result.traces[0].initial_sum_rate_bits

    def test_two_seeds_two_traces(self, tmp_path):
        spec = spec_for("convergence", tmp_path, num_seeds=2, t_max=3)
        result = run_convergence(spec)
        assert set(result.traces) == {0, 1}
        rows = Path(result.output_path).read_text().strip().splitlines()[1:]
        seeds_in_file = {line.split(",")[0] for line in rows}
        assert seeds_in_file == {"0", "1"}

    def test_infeasible_seed_counted(self, tmp_path):
        """Seed 2 is a genuinely infeasible draw; it must be reported, not
        silently dropped."""
        spec = spec_for("convergence", tmp_path, num_seeds=1,
                        scenario=ScenarioConfig(J_D=1, seed=2))
        result = run_convergence(spec)
        assert result.infeasible_seeds == [2]
        assert result.all_infeasible

    def test_rows_carry_seed_and_converged_flag(self, tmp_path):
        spec = spec_for("convergence", tmp_path, num_seeds=1, t_max=10)
        result = run_convergence(spec)
        lines = Path(result.output_path).read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[0] == "seed"
        assert header[-1] == "converged"
        assert all(line.split(",")[0] == "0" for line in lines[1:])

    def test_solver_trace_files(self, tmp_path):
        spec = spec_for("convergence", tmp_path, num_seeds=1, t_max=2,
                        trace_solver=True)
        run_convergence(spec)
        traces = sorted(tmp_path.glob("convergence_solver_seed0_pass*.csv"))
        assert len(traces) == 2
        head = traces[0].read_text().splitlines()[0]
        assert head == "outer_iteration,t,objective,gap"


class TestSweepExperiment:
    def test_single_value_single_row(self, tmp_path):
        spec = spec_for("sweep_cellular_cap", tmp_path, num_seeds=2,
                        sweep_values_dbm=(30.0,))
        result = run_sweep(spec)
        assert len(result.rows) == 1
        assert result.rows[0].num_seeds_used + result.rows[0].num_infeasible_draws == 2

    def test_detail_and_summary_files(self, tmp_path):
        spec = spec_for("sweep_d2d_cap", tmp_path, num_seeds=3,
                        sweep_values_dbm=(28.0, 30.0))
        result = run_sweep(spec)
        detail = Path(result.detail_path).read_text().strip().splitlines()
        assert detail[0] == "sweep_dbm,seed,proposed_bits,random_bits,feasible"
        assert len(detail) == 1 + 2 * 3
        summary = Path(result.summary_path).read_text().strip().splitlines()
        assert len(summary) == 1 + 2

    def test_requires_sweep_values(self, tmp_path):
        spec = spec_for("sweep_cellular_cap", tmp_path, num_seeds=1)
        with pytest.raises(ValueError):
            spec.validate()

    def test_byte_identical_reruns(self, tmp_path):
        """Same spec and seed list reproduce the files byte for byte."""
        spec = spec_for("sweep_cellular_cap", tmp_path, num_seeds=2,
                        sweep_values_dbm=(26.0, 30.0))
        first = run_sweep(spec)
        blob = Path(first.detail_path).read_bytes()
        again = run_sweep(spec)
        assert Path(again.detail_path).read_bytes() == blob


class TestBoundValidationExperiment:
    def test_no_violations_default_dims(self, tmp_path):
        spec = spec_for("bound_validation", tmp_path, num_seeds=20)
        result = run_bound_validation(spec)
        assert result.num_rows == 20 * 4
        assert result.num_violations == 0

    def test_single_tone_bounds_collapse(self, tmp_path):
        """K = 1: the 1x1 sandwich is tight on both sides."""
        scenario = ScenarioConfig(J=1, K=1, N=1, J_D=1)
        spec = spec_for("bound_validation", tmp_path, num_seeds=3,
                        scenario=scenario)
        result = run_bound_validation(spec)
        assert result.num_violations == 0
        for line in Path(result.output_path).read_text().strip().splitlines()[1:]:
            _, _, lower, exact, upper, _, _ = line.split(",")
            assert float(lower) == pytest.approx(float(exact), rel=1e-9)
            assert float(upper) == pytest.approx(float(exact), rel=1e-9)


class TestBaselineComparisonExperiment:
    def test_means_and_rows(self, tmp_path):
        spec = spec_for("baseline_comparison", tmp_path, num_seeds=3)
        result = run_baseline_comparison(spec)
        assert result.num_seeds_used + result.num_infeasible == 3
        assert result.mean_proposed > result.mean_random
        lines = Path(result.output_path).read_text().strip().splitlines()
        assert lines[0] == "seed,proposed_bits,random_bits,feasible"
        assert len(lines) == 4

    def test_dispatch(self, tmp_path):
        spec = spec_for("baseline_comparison", tmp_path, num_seeds=1)
        assert run_experiment(spec).num_seeds_used == 1

    def test_bits_per_second_flag_scales_rates(self, tmp_path):
        base = run_baseline_comparison(spec_for(
            "baseline_comparison", tmp_path, num_seeds=1))
        scaled_dir = tmp_path / "scaled"
        scaled_dir.mkdir()
        scaled = run_baseline_comparison(spec_for(
            "baseline_comparison", scaled_dir, num_seeds=1,
            scenario=ScenarioConfig(J_D=1, report_bits_per_second=True)))
        assert scaled.mean_proposed == pytest.approx(
            base.mean_proposed * 180e3, rel=1e-12)


class TestCli:
    def test_convergence_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert main(["convergence", "--seeds", "1", "--out", str(out)]) == 0
        assert out.exists()
        assert "1 trace(s)" in capsys.readouterr().out

    def test_config_file_and_jd_override(self, tmp_path):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("seed = 1\nd2d_power_cap_dbm = 28\n")
        out = tmp_path / "c.csv"
        code = main(["convergence", "--config", str(cfg), "--jd", "2",
                     "--seeds", "1", "--out", str(out)])
        assert code == 0
        header = out.read_text().splitlines()[0]
        assert "Pd_2_w" in header     # second pair present via --jd

    def test_bad_config_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("K = 0\n")
        assert main(["convergence", "--config", str(cfg)]) == 2
        assert "error" in capsys.readouterr().err

    def test_uncertified_phase1_exits_four(self, tmp_path, capsys, monkeypatch):
        """A phase-1 stopped by the Newton cap (seed 0 at J_D = 2 with
        gp.MAX_NEWTON = 1) is a solver failure, not an infeasible seed."""
        monkeypatch.setattr(gp, "MAX_NEWTON", 1)
        assert main(["compare", "--jd", "2", "--seeds", "1",
                     "--out", str(tmp_path / "c.csv")]) == 4
        assert "phase-1 returned max_iterations" in capsys.readouterr().err

    def test_missing_config_exits_two(self, tmp_path):
        assert main(["convergence", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_pass_cap_below_one_exits_two(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert main(["compare", "--seeds", "1", "--tmax", "0",
                     "--out", str(out)]) == 2
        assert "error: t_max" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_output_directory_exits_two(self, tmp_path, capsys):
        out = tmp_path / "missing" / "cmp.csv"
        assert main(["compare", "--seeds", "1", "--out", str(out)]) == 2
        assert "error: output directory" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_output_directory_as_out_exits_two(self, tmp_path, capsys, monkeypatch):
        """--out naming a directory exits 2 before any seed runs."""
        monkeypatch.setattr(experiments, "allocate",
                            lambda *args, **kwargs: pytest.fail("a seed ran"))
        assert main(["compare", "--seeds", "1", "--out", str(tmp_path)]) == 2
        assert "is a directory" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("config, args", [
        ("cellular_power_cap_dbm = 1e6\n", ["compare"]),
        ("d2d_power_cap_dbm = -1e6\n", ["compare"]),
        ("", ["sweep-cell", "--sweep-dbm", "nan"]),
        ("", ["sweep-cell", "--sweep-dbm", "inf"]),
        ("", ["sweep-cell", "--sweep-dbm", "1e6"]),
    ])
    def test_out_of_range_value_exits_two(self, tmp_path, capsys, monkeypatch,
                                          config, args):
        """A cap whose value in watts overflows, underflows to zero or is
        not finite exits 2, naming the field, before any seed runs."""
        monkeypatch.setattr(experiments, "allocate",
                            lambda *args, **kwargs: pytest.fail("a seed ran"))
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(config)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        assert main([*args, "--config", str(cfg), "--seeds", "1",
                     "--out", str(out_dir / "o.csv")]) == 2
        assert "power_cap_dbm" in capsys.readouterr().err
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize("config", ["J = 5\n", "K = 6\nJ = 9\nN = 2\n"])
    def test_unbuildable_factor_graph_exits_two(self, tmp_path, capsys, monkeypatch,
                                                config):
        """Dimensions with no regular factor graph (J*N not divisible by K;
        a lexicographic prefix with unequal row sums) exit 2 before any
        seed runs."""
        monkeypatch.setattr(experiments, "allocate",
                            lambda *args, **kwargs: pytest.fail("a seed ran"))
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(config)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        assert main(["compare", "--config", str(cfg), "--seeds", "1",
                     "--out", str(out_dir / "o.csv")]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert list(out_dir.iterdir()) == []

    def test_oversized_system_exits_two(self, tmp_path, capsys, monkeypatch):
        """A system whose objective expansion could not fit exits 2 with
        allocate's DimensionError, before any product is built."""
        monkeypatch.setattr(allocation, "product",
                            lambda *args: pytest.fail("product was called"))
        cfg = tmp_path / "big.cfg"
        cfg.write_text("K = 6\nJ = 15\nN = 2\nJ_D = 3\n")
        assert main(["compare", "--config", str(cfg), "--seeds", "1",
                     "--out", str(tmp_path / "o.csv")]) == 2
        assert capsys.readouterr().err.startswith("error: K = 6, J = 15, J_D = 3: ")

    def test_bad_sweep_list_exits_two(self, tmp_path):
        assert main(["sweep-cell", "--sweep-dbm", "abc",
                     "--out", str(tmp_path / "s.csv")]) == 2

    def test_all_infeasible_exits_three(self, tmp_path, capsys):
        cfg = tmp_path / "seed2.cfg"
        cfg.write_text("seed = 2\n")
        code = main(["convergence", "--config", str(cfg), "--seeds", "1",
                     "--out", str(tmp_path / "c.csv")])
        assert code == 3
        assert "infeasible" in capsys.readouterr().err

    def test_solver_failure_exits_four(self, tmp_path, capsys, monkeypatch):
        """A pass whose GP solve does not reach optimal status ends the run
        with exit code 4 and a one-line error, not a traceback."""
        original = allocation.solve
        monkeypatch.setattr(allocation, "solve", lambda *args, **kwargs:
                            dataclasses.replace(original(*args, **kwargs),
                                                status="max_iterations"))
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--seeds", "1", "--out", str(out)]) == 4
        captured = capsys.readouterr()
        assert captured.err.startswith("error: pass 1")
        assert "Traceback" not in captured.err + captured.out
        assert not out.exists()

    def test_sweep_subcommand(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code = main(["sweep-d2d", "--seeds", "2", "--sweep-dbm", "28,30",
                     "--out", str(out)])
        assert code == 0
        assert out.exists()
        assert (tmp_path / "s_summary.csv").exists()

    def test_bounds_subcommand(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        assert main(["bounds", "--seeds", "5", "--out", str(out)]) == 0
        assert "0 violation(s)" in capsys.readouterr().out

    def test_trace_only_on_convergence(self, tmp_path):
        """--trace exists only where it acts; elsewhere it is a usage error."""
        with pytest.raises(SystemExit) as err:
            main(["compare", "--trace", "--out", str(tmp_path / "cmp.csv")])
        assert err.value.code == 2

    def test_compare_subcommand(self, tmp_path):
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--seeds", "2", "--out", str(out)]) == 0
