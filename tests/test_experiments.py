"""Smoke tests for every experiment runner at miniature scale."""

import numpy as np
import pytest

from repro.experiments import (
    ExperimentContext,
    run_figure2,
    run_figure3,
    run_figure4,
    run_figure5,
    run_figure6,
    run_table1,
    run_table2,
    run_table3,
)
from repro.experiments.reporting import (
    CurveFamily,
    MapTable,
    SweepResult,
    TimingTable,
)
from repro.retrieval import (
    hamming_distance_matrix,
    precision_at_n,
    relevance_matrix,
)

TINY = dict(scale=0.008, epochs=4, seed=0)


class TestContext:
    def test_fit_cache(self):
        ctx = ExperimentContext("cifar10", scale=0.008, epochs=2)
        a = ctx.fit("LSH", 16)
        b = ctx.fit("LSH", 16)
        assert a is b
        c = ctx.fit("LSH", 16, use_cache=False)
        assert c is not a

    def test_build_all_table1_methods(self):
        ctx = ExperimentContext("cifar10", scale=0.008, epochs=2)
        from repro.experiments.runner import TABLE1_METHODS

        for name in TABLE1_METHODS:
            assert ctx.build_method(name, 8) is not None


class TestTable1:
    def test_runs_and_has_all_cells(self):
        table = run_table1(bit_lengths=(16,), datasets=("cifar10",),
                           methods=("LSH", "UHSCM"), **TINY)
        assert isinstance(table, MapTable)
        assert 0 <= table.value("LSH", "cifar10", 16) <= 1
        assert 0 <= table.value("UHSCM", "cifar10", 16) <= 1
        assert "Table 1" in table.render()


class TestTable2:
    def test_variant_subset(self):
        table = run_table2(bit_lengths=(16,), datasets=("cifar10",),
                           variants=("ours", "wo_mcl"), **TINY)
        assert set(table.methods) == {"ours", "wo_mcl"}


class TestTable3:
    def test_timings_positive(self):
        table = run_table3(n_bits=16, datasets=("cifar10",),
                           methods=("SSDH", "UHSCM"), **TINY)
        assert isinstance(table, TimingTable)
        assert table.seconds["SSDH"]["cifar10"] > 0
        assert "Table 3" in table.render()


class TestFigures:
    def test_figure2_panels(self):
        panels = run_figure2(bit_lengths=(16,), datasets=("cifar10",),
                             methods=("LSH", "ITQ"), **TINY)
        family = panels[("cifar10", 16)]
        assert isinstance(family, CurveFamily)
        assert set(family.methods) == {"LSH", "ITQ"}
        assert family.render()

    def test_figure3_panels(self):
        panels = run_figure3(bit_lengths=(16,), datasets=("cifar10",),
                             methods=("LSH",), **TINY)
        curve = panels[("cifar10", 16)]
        y = curve.y_values["LSH"]
        x = curve.x_values["LSH"]
        assert x.size == 17  # radius 0..16
        assert np.all(np.diff(x) >= 0)  # recall monotone

    def test_figure_panels_equal_the_full_matrix_computation(
        self, monkeypatch
    ):
        # Figures 2 and 3 read P@N and the PR curve from the tiled
        # evaluation; each panel must equal the bytes of the old
        # computation over one whole relevance and float Hamming matrix.
        from repro.experiments import figure2, figure3

        ctx = ExperimentContext("cifar10", **TINY)
        for module in (figure2, figure3):
            monkeypatch.setattr(module, "make_contexts",
                                lambda *args, **kwargs: {"cifar10": ctx})
        methods = ("LSH", "ITQ")
        pn_panel = run_figure2(bit_lengths=(16,), datasets=("cifar10",),
                               methods=methods, **TINY)[("cifar10", 16)]
        pr_panel = run_figure3(bit_lengths=(16,), datasets=("cifar10",),
                               methods=methods, **TINY)[("cifar10", 16)]

        relevance = relevance_matrix(ctx.dataset.query_labels,
                                     ctx.dataset.database_labels)
        points = tuple(dict.fromkeys(
            min(p, ctx.dataset.n_database) for p in figure2.FIGURE2_POINTS))
        assert points[-1] == ctx.dataset.n_database  # the clamp is covered
        for method in methods:
            fit = ctx.fit(method, 16)
            distances = hamming_distance_matrix(fit.query_codes,
                                                fit.database_codes)
            pn = precision_at_n(distances, relevance, points)
            assert pn_panel.x_values[method].tobytes() == np.asarray(
                list(pn), dtype=np.float64).tobytes()
            assert pn_panel.y_values[method].tobytes() == np.asarray(
                list(pn.values())).tobytes()

            counts = distances.astype(np.intp)
            relevant_cum = np.cumsum(np.bincount(
                counts[relevance], minlength=17)).astype(np.float64)
            all_cum = np.cumsum(np.bincount(
                counts.ravel(), minlength=17)).astype(np.float64)
            precision = np.divide(relevant_cum, all_cum,
                                  out=np.zeros_like(relevant_cum),
                                  where=all_cum > 0)
            recall = relevant_cum / float(np.count_nonzero(relevance))
            assert pr_panel.x_values[method].tobytes() == recall.tobytes()
            assert pr_panel.y_values[method].tobytes() == precision.tobytes()

    def test_figure4_sweep(self):
        panels = run_figure4(n_bits=16, datasets=("cifar10",),
                             parameters=("alpha",), **TINY)
        sweep = panels[("cifar10", "alpha")]
        assert isinstance(sweep, SweepResult)
        assert len(sweep.values) == 6
        assert sweep.best_value in sweep.values
        assert "alpha" in sweep.render()

    def test_figure5(self):
        result = run_figure5(n_bits=16, methods=("UHSCM", "CIB"),
                             max_points=80, tsne_iters=30, **TINY)
        assert set(result.silhouettes) == {"UHSCM", "CIB"}
        assert all(np.isfinite(v) for v in result.separation_ratios.values())
        assert result.render()

    def test_figure6(self):
        result = run_figure6(n_bits=16, methods=("UHSCM",), n_queries=5,
                             **TINY)
        assert 0 <= result.precision_at_10["UHSCM"] <= 1
        assert result.hit_grids["UHSCM"].shape == (5, 10)
        assert "+" in result.render() or "." in result.render()


class TestReportingEdgeCases:
    def test_map_table_missing_cell_renders_dash(self):
        table = MapTable(title="t")
        table.record("m1", "d1", 32, 0.5)
        table.methods.append("m2")
        assert "-" in table.render()

    def test_curve_family_downsampling(self):
        family = CurveFamily(title="t", x_label="x", y_label="y")
        family.record("m", np.arange(100), np.linspace(0, 1, 100))
        out = family.render(max_points=5)
        assert out.count(":") == 5
