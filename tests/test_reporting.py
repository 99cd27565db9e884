"""Tests for the SVG canvas, chart builders, and figure wiring."""

import xml.etree.ElementTree as ET

import pytest

from repro.core.errors import ConfigurationError
from repro.reporting import SvgCanvas, bar_chart, scatter_chart
from repro.reporting.charts import _nice_ticks
from repro.reporting.figures import figure_svg


def parse(svg: str) -> ET.Element:
    return ET.fromstring(svg)


class TestSvgCanvas:
    def test_render_is_valid_xml(self):
        canvas = SvgCanvas(100, 80)
        canvas.rect(1, 2, 3, 4)
        canvas.circle(5, 6, 7)
        canvas.line(0, 0, 10, 10)
        canvas.text(10, 10, "hello & <goodbye>")
        root = parse(canvas.render())
        assert root.tag.endswith("svg")
        # the white background, then the four drawn elements in order
        tags = [child.tag.split("}")[1] for child in root]
        assert tags == ["rect", "rect", "circle", "line", "text"]

    def test_text_is_escaped(self):
        canvas = SvgCanvas(10, 10)
        canvas.text(0, 0, "<script>")
        assert "<script>" not in canvas.render().split("text")[1]

    def test_dimensions(self):
        root = parse(SvgCanvas(320, 200).render())
        assert root.get("width") == "320"
        assert root.get("height") == "200"

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ConfigurationError):
            SvgCanvas(0, 10)


class TestNiceTicks:
    def test_covers_range(self):
        ticks = _nice_ticks(0.0, 10.0)
        assert ticks[0] <= 0.0
        assert ticks[-1] >= 10.0

    def test_handles_degenerate_range(self):
        assert _nice_ticks(5.0, 5.0)

    def test_small_values(self):
        ticks = _nice_ticks(0.001, 0.009)
        assert len(ticks) >= 3


class TestCharts:
    def test_scatter_renders_all_points(self):
        svg = scatter_chart(
            [1.0, 2.0, 3.0], [3.0, 2.0, 1.0],
            title="t", xlabel="x", ylabel="y",
        )
        root = parse(svg)
        circles = root.findall(".//{http://www.w3.org/2000/svg}circle")
        assert len(circles) == 3

    def test_scatter_reference_lines(self):
        svg = scatter_chart(
            [0.0, 10.0], [0.0, 10.0],
            title="t", xlabel="x", ylabel="y",
            vline=5.0, hline=5.0,
        )
        assert svg.count("stroke-dasharray") == 2

    def test_scatter_validates(self):
        with pytest.raises(ConfigurationError):
            scatter_chart([1.0], [1.0, 2.0], "t", "x", "y")

    def test_bar_chart_bar_count(self):
        svg = bar_chart(
            ["a", "b", "c"],
            {"s1": [1.0, 2.0, 3.0], "s2": [3.0, 2.0, 1.0]},
            title="t", ylabel="y",
        )
        root = parse(svg)
        rects = root.findall(".//{http://www.w3.org/2000/svg}rect")
        # background + 6 bars + 2 legend swatches
        assert len(rects) == 1 + 6 + 2

    def test_bar_chart_validates_lengths(self):
        with pytest.raises(ConfigurationError):
            bar_chart(["a", "b"], {"s": [1.0]}, title="t", ylabel="y")


class TestFigureWiring:
    def test_fig8_produces_svg(self, engine):
        from repro.experiments import ExperimentSettings, run_experiment

        settings = ExperimentSettings(chips=150)
        result = run_experiment("fig8", settings, engine)
        svg = figure_svg(result)
        assert svg is not None
        parse(svg)

    def test_tables_produce_nothing(self, engine):
        from repro.experiments import ExperimentSettings, run_experiment

        result = run_experiment("fig1", ExperimentSettings(chips=150), engine)
        assert figure_svg(result) is None
