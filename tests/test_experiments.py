"""Experiment harness: every module runs at smoke scale and produces the
paper-shaped structure.  Heavier shape checks are marked slow."""

import pytest

from repro.experiments.common import (
    EXPERIMENT_REGISTRY,
    ExperimentResult,
    SMOKE_SCALE,
    geomean,
    load_experiment,
)


class TestCommon:
    def test_registry_complete(self):
        expected = {"table1", "table2", "table3", "overheads",
                    "ablations", "tmts", "colocation", "headtohead"} | {
            f"fig{i}" for i in (1, 2, 3, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14)
        }
        assert set(EXPERIMENT_REGISTRY) == expected

    def test_load_unknown(self):
        with pytest.raises(KeyError):
            load_experiment("fig99")

    def test_geomean(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)
        assert geomean([]) == 0.0


class TestCheapExperiments:
    def test_table1(self):
        result = load_experiment("table1").run()
        assert isinstance(result, ExperimentResult)
        assert "memtis" in result.text
        assert len(result.data["rows"]) == 9

    def test_table2_smoke(self):
        result = load_experiment("table2").run(
            scale=SMOKE_SCALE, workloads=["silo", "btree"]
        )
        assert "silo" in result.data
        assert result.data["silo"]["sim_rhp"] > 0.9

    def test_fig2_smoke(self):
        result = load_experiment("fig2").run(
            scale=SMOKE_SCALE, workloads=["pagerank"]
        )
        assert "pagerank" in result.data
        assert len(result.data["pagerank"]["hot_mb"]) > 0

    def test_fig3_smoke(self):
        result = load_experiment("fig3").run(
            scale=SMOKE_SCALE, workloads=["silo"]
        )
        assert len(result.data["silo"]["hotness"]) > 0

    def test_fig1_smoke(self):
        result = load_experiment("fig1").run(
            scale=SMOKE_SCALE, configs=["5ms-10-1000"]
        )
        assert result.data["5ms-10-1000"]["cpu_overhead"] > 0


class TestOneSweepPerFigure:
    """A figure builds its RunSpecs, then runs them in one sweep."""

    @pytest.mark.parametrize("exp_id, cells", [
        ("fig7", 5),   # shared baseline + tpp, memtis + two all-DRAM refs
        ("fig12", 2),  # memtis, memtis-ns; no baseline
    ])
    def test_one_run_sweep_and_no_spec_run(self, exp_id, cells,
                                           monkeypatch):
        from repro.experiments import common
        from repro.sim.runner import RunSpec

        sweeps = []
        real_sweep = common.run_sweep

        def counting_sweep(specs, **kwargs):
            sweeps.append(list(specs))
            return real_sweep(sweeps[-1], **kwargs)

        def no_spec_run(spec, *args, **kwargs):
            raise AssertionError(f"RunSpec.run({spec.label()}) called")

        monkeypatch.setattr(common, "run_sweep", counting_sweep)
        monkeypatch.setattr(RunSpec, "run", no_spec_run)
        result = load_experiment(exp_id).run(scale=SMOKE_SCALE,
                                             workloads=["silo"])
        assert len(sweeps) == 1
        assert len(set(sweeps[0])) == cells
        assert "silo" in result.data


@pytest.mark.slow
class TestShapeClaims:
    """The paper's qualitative claims, at smoke scale."""

    def test_fig5_memtis_wins_mostly(self):
        result = load_experiment("fig5").run(
            scale=SMOKE_SCALE,
            workloads=["xsbench", "silo"],
            policies=["tpp", "hemem", "memtis"],
            ratios=["1:8"],
        )
        assert result.data["wins"] >= 1

    def test_fig10_warm_set_cuts_traffic(self):
        result = load_experiment("fig10").run(
            scale=SMOKE_SCALE, workloads=["xsbench"]
        )
        cell = result.data["xsbench"]
        assert (cell["split+warm"]["traffic"]
                <= cell["split"]["traffic"] * 1.05)

    def test_fig12_split_helps_silo(self):
        result = load_experiment("fig12").run(
            scale=SMOKE_SCALE, workloads=["silo"]
        )
        cell = result.data["silo"]
        assert cell["rhr"] >= cell["rhr_ns"] - 0.02

    def test_fig14_memtis_beats_tpp_on_cxl(self):
        result = load_experiment("fig14").run(
            scale=SMOKE_SCALE, workloads=["silo"], ratios=["1:8"]
        )
        cell = result.data["silo|1:8"]
        assert cell["memtis"] >= cell["tpp"]

    def test_fig14_three_tier_exercises_cascade(self):
        result = load_experiment("fig14").run_three_tier(
            scale=SMOKE_SCALE, workloads=["silo"]
        )
        cell = result.data["silo"]
        assert cell["tpp"] > 0 and cell["memtis"] > 0
        # DRAM demotions overflowing a full CXL tier cascade on to NVM.
        assert cell["cascade_pages"] > 0

    def test_overheads_bounded(self):
        result = load_experiment("overheads").run(
            scale=SMOKE_SCALE, workloads=["silo", "xsbench"]
        )
        assert result.data["average_usage"] < 0.05
