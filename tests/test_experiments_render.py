"""Tests for the experiment drivers, plots, tables and calibration docs."""

import pytest

from repro.experiments import (FIGURES, TABLES, bar_chart, line_chart,
                               run_figure, run_table)
from repro.experiments.ascii_plot import table as text_table
from repro.experiments.calibration import ANCHORS, calibration_report
from repro.microbench.common import Series


class TestAsciiPlot:
    def test_line_chart_renders_all_series(self):
        a = Series("alpha", [(4, 1.0), (64, 2.0), (1024, 8.0)])
        b = Series("beta", [(4, 3.0), (64, 1.0), (1024, 4.0)])
        txt = line_chart([a, b], title="demo", ylabel="us")
        assert "demo" in txt and "alpha" in txt and "beta" in txt
        assert "*" in txt and "+" in txt
        assert "[us]" in txt

    def test_line_chart_empty(self):
        assert "(no data)" in line_chart([Series("x", [])], title="t")

    def test_bar_chart_scales_to_max(self):
        txt = bar_chart(["a", "b"], [1.0, 2.0], title="bars")
        rows = [ln for ln in txt.splitlines() if "|" in ln]
        assert rows[1].count("#") == 2 * rows[0].count("#")

    def test_bar_chart_length_mismatch(self):
        with pytest.raises(ValueError):
            bar_chart(["a"], [1.0, 2.0])

    def test_text_table_alignment(self):
        txt = text_table(["col", "value"], [["x", 1.5], ["long", 22.25]])
        lines = txt.splitlines()
        assert len({len(ln) for ln in lines if ln.strip()}) <= 2  # aligned

    def test_log_x_positions_monotonic(self):
        s = Series("s", [(4, 1.0), (4096, 1.0), (1 << 20, 1.0)])
        txt = line_chart([s])
        row = next(ln for ln in txt.splitlines() if "*" in ln)
        cols = [i for i, ch in enumerate(row) if ch == "*"]
        assert cols == sorted(cols) and len(cols) == 3


class TestDrivers:
    def test_registry_complete(self):
        assert set(FIGURES) == {f"fig{i}" for i in range(1, 29)}
        assert set(TABLES) == {f"table{i}" for i in range(1, 7)}

    def test_unknown_ids(self):
        with pytest.raises(KeyError):
            run_figure("fig0")
        with pytest.raises(KeyError):
            run_table("table0")

    @pytest.mark.parametrize("fig_id", ["fig1", "fig3", "fig13", "fig26"])
    def test_cheap_figures_render(self, fig_id):
        fig = run_figure(fig_id)
        txt = fig.render()
        assert fig.fig_id == fig_id
        assert fig.paper_note and "paper:" in txt
        assert len(txt.splitlines()) > 5

    def test_figures_deterministic(self):
        a = run_figure("fig13")
        b = run_figure("fig13")
        assert [s.points for s in a.series] == [s.points for s in b.series]


class TestCalibrationDoc:
    def test_report_lists_every_anchor(self):
        txt = calibration_report()
        for what, anchor, where in ANCHORS:
            assert anchor.split(":")[0] in txt

    def test_every_anchor_names_real_code(self):
        """The code pointers in the anchor table must resolve."""
        from repro.mpi.ch.caps import ChannelCaps
        from repro.mpi.devices import (GmChannel, MvapichChannel,
                                       MvapichDevice, TportsChannel)
        from repro.networks.infiniband.params import InfiniBandParams
        from repro.networks.myrinet.params import MyrinetParams
        from repro.networks.quadrics.params import QuadricsParams

        owners = {cls.__name__: cls for cls in (
            ChannelCaps, GmChannel, MvapichChannel, MvapichDevice,
            TportsChannel, InfiniBandParams, MyrinetParams, QuadricsParams)}
        checked = 0
        for _what, _anchor, where in ANCHORS:
            owner, _, path = where.partition(".")
            if owner not in owners:
                continue  # module paths and wildcard groups
            for dotted in path.split("/"):
                obj = owners[owner]
                for attr in dotted.split("."):
                    if attr.endswith("*"):
                        break
                    obj = getattr(obj, attr)
                checked += 1
        assert checked >= 10


    def test_params_report_values(self):
        txt = calibration_report()
        assert "wire_bw_mbps = 845.0" in txt
        assert "tx_queue_depth = 16" in txt


class TestReportAll:
    def test_subset_report(self, capsys):
        from repro.experiments import reproduce_all

        txt = reproduce_all(artifacts=["fig13", "table5"], progress=True)
        assert "fig13" in txt and "table5" in txt
        # progress goes to stderr, so the report text is reproducible
        err = capsys.readouterr().err
        assert "[fig13: regenerated in" in err and "[run cache:" in err
        assert "regenerated in" not in txt and "run cache" not in txt

    def test_unknown_artifact(self):
        from repro.experiments import reproduce_all

        with pytest.raises(KeyError):
            reproduce_all(artifacts=["fig99"])


class TestValidation:
    def test_micro_validation_tolerances(self):
        from repro.experiments.validate import validate_micro

        items = validate_micro(quick=True)
        errs = {f"{it.name}:{it.network}": abs(it.rel_error) for it in items}
        # the documented deviations may exceed 20%; everything else must
        # stay within it
        allowed_large = {
            "bidir_latency_us:myrinet", "bidir_latency_us:quadrics",
            "allreduce_small_us:myrinet",
            # +0.25 us absolute on a 0.8 us quantity
            "host_overhead_us:myrinet",
        }
        for key, err in errs.items():
            bound = 0.45 if key in allowed_large else 0.22
            assert err < bound, (key, err)
        # and the overall median must be tight
        vals = sorted(errs.values())
        assert vals[len(vals) // 2] < 0.10

    def test_table2_validation_is_subset(self):
        from repro.experiments.validate import validate_table2

        items = validate_table2(quick=True, apps=["mg"])
        assert len(items) == 9  # 3 networks x 3 counts
        assert all(abs(it.rel_error) < 0.20 for it in items)

    def test_report_summary_line(self):
        from repro.experiments.validate import validation_report

        txt = validation_report(quick=True, include_apps=False)
        assert "median |err|" in txt and "worst:" in txt
