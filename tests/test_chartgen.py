"""Tests for chart layout, rendering, and meta ground truth."""

import copy
import dataclasses
import hashlib
import json
import math
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from chartscribe import chartgen
from chartscribe.catalog import DataSeries, sample_series, synth_catalog
from chartscribe.chartgen import (
    CANVAS_H,
    CANVAS_W,
    COLOR_PALETTE,
    LEGEND_POSITIONS,
    LINE_STYLES,
    MARKER_SHAPES,
    ArityError,
    AxisTransform,
    BBox,
    Canvas,
    ChartKind,
    ChartMeta,
    ChartSpec,
    LabeledText,
    Legend,
    LegendEntry,
    NegativeBarValueError,
    PointRecord,
    SeriesMeta,
    StyleSpec,
    TickMark,
    _codec,
    build_chart_spec,
    estimate_text_bbox,
    meta_problems,
    nice_ticks,
    render,
)
from chartscribe.rng import Rng, derive_seed
from chartscribe.trend import ParameterError
from test_corpus import JSON_VALUES, mutate_at

DOCS = Path(__file__).resolve().parents[1] / "docs"


def temporal_series(values, start=1994, name="Brazil", unit="kt",
                    indicator="coffee exports"):
    labels = [str(start + i) for i in range(len(values))]
    return DataSeries(series_name=name, x_labels=labels, y_values=list(values),
                      y_unit=unit, temporal=True, indicator_name=indicator,
                      entity_kind="country", value_kind="float")


def categorical_series(values, name="coffee exports", unit="kt"):
    labels = [f"Country {i}" for i in range(len(values))]
    return DataSeries(series_name=name, x_labels=labels, y_values=list(values),
                      y_unit=unit, temporal=False, indicator_name="coffee exports",
                      entity_kind="country", value_kind="float")


def default_style(n_colors=1):
    colors = (3,) if n_colors == 1 else (3, 7)
    return StyleSpec(marker_shape=0, colors=colors, bar_thickness=0.6,
                     line_style="solid", legend_position="top-right")


def overlaps(a, b):
    return not (a.x + a.w <= b.x or b.x + b.w <= a.x
                or a.y + a.h <= b.y or b.y + b.h <= a.y)


def all_bboxes(meta):
    boxes = [meta.title.bbox, meta.x_label.bbox, meta.y_label.bbox,
             meta.legend.bbox, meta.plot_area]
    boxes += [t.bbox for t in meta.x_ticks]
    boxes += [t.bbox for t in meta.y_ticks]
    for e in meta.legend.entries:
        boxes += [e.name_bbox, e.marker_bbox]
    return boxes


class TestTextMetrics:
    """Fixed-metrics text extents."""

    def test_empty_string(self):
        assert estimate_text_bbox("", 10) == (0.0, 12.0)

    def test_two_chars(self):
        assert estimate_text_bbox("ab", 10) == (12.0, 12.0)

    def test_year_label(self):
        w, h = estimate_text_bbox("2015", 8)
        assert w == pytest.approx(19.2)
        assert h == pytest.approx(9.6)

    def test_codepoints_not_bytes(self):
        # multibyte codepoints count once
        w, _ = estimate_text_bbox("éé", 10)
        assert w == 12.0

    def test_bad_font_size(self):
        with pytest.raises(ParameterError):
            estimate_text_bbox("x", 0)


class TestNiceTicks:
    """Tick ladder at multiples of {1, 2, 2.5, 5} * 10^k."""

    def test_zero_to_hundred(self):
        assert nice_ticks(0, 100, 5) == [0, 20, 40, 60, 80, 100]

    def test_unit_interval(self):
        ticks = nice_ticks(0, 1, 5)
        assert ticks[0] == 0.0
        assert ticks[-1] == pytest.approx(1.0)
        step = ticks[1] - ticks[0]
        assert step == pytest.approx(0.2)

    def test_large_magnitudes(self):
        ticks = nice_ticks(3.5e14, 3.5e15, 5)
        assert 4 <= len(ticks) <= 7
        assert ticks[0] <= 3.5e14
        assert ticks[-1] >= 3.5e15

    def test_degenerate_range_padded(self):
        ticks = nice_ticks(5, 5, 5)
        assert ticks[0] <= 4.0
        assert ticks[-1] >= 6.0

    def test_lo_above_hi_rejected(self):
        with pytest.raises(ParameterError):
            nice_ticks(2, 1, 5)

    def test_bad_target_rejected(self):
        with pytest.raises(ParameterError):
            nice_ticks(0, 1, 2)

    def test_brute_force_contract(self):
        """10,000 random ranges: count bounds, coverage, ladder steps."""
        r = Rng(2024)
        for _ in range(10000):
            lo = (r.random() - 0.5) * 10 ** (r.randint(13) - 4)
            hi = lo + r.random() * 10 ** (r.randint(13) - 4)
            target = 3 + r.randint(6)
            ticks = nice_ticks(lo, hi, target)
            assert target - 1 <= len(ticks) <= target + 2
            span_lo, span_hi = (lo, hi) if lo < hi else (lo - 1, hi + 1)
            # coverage holds up to float-noise fractions of one step
            slack = 1e-6 * (ticks[1] - ticks[0] if len(ticks) > 1 else 1.0)
            assert ticks[0] <= span_lo + slack
            assert ticks[-1] >= span_hi - slack
            # subtracting near-equal floats loses digits when the span is
            # tiny next to the magnitude, so spacing checks are ulp-aware
            step = (ticks[-1] - ticks[0]) / (len(ticks) - 1)
            mant = step / 10 ** math.floor(math.log10(step) + 1e-12)
            assert min(abs(mant - m) for m in (1, 2, 2.5, 5, 10)) < 1e-2
            tol = 4 * math.ulp(max(abs(ticks[0]), abs(ticks[-1]))) + 1e-9 * step
            for a, b in zip(ticks, ticks[1:]):
                assert b > a
                assert abs((b - a) - step) <= tol


class TestBuildChartSpec:
    """Style sampling and title composition."""

    def test_deterministic(self):
        s = temporal_series([1, 2, 3, 4])
        a = build_chart_spec([s], ChartKind.LINE, Rng(5))
        b = build_chart_spec([s], ChartKind.LINE, Rng(5))
        assert a == b

    def test_temporal_title(self):
        s = temporal_series([1, 2, 3], start=1994)
        spec = build_chart_spec([s], ChartKind.LINE, Rng(0))
        assert spec.title == "coffee exports of Brazil, 1994–1996"
        assert spec.x_label == "Year"
        assert spec.y_label == "coffee exports"

    def test_two_series_title(self):
        a = temporal_series([1, 2, 3], name="Brazil")
        b = temporal_series([2, 3, 4], name="Peru")
        spec = build_chart_spec([a, b], ChartKind.LINE, Rng(0))
        assert "Brazil and Peru" in spec.title

    def test_categorical_title(self):
        s = categorical_series([5, 6, 7])
        spec = build_chart_spec([s], ChartKind.VERTICAL_BAR, Rng(0))
        assert spec.title == "coffee exports by country"
        assert spec.x_label == "Country"

    def test_horizontal_bar_swaps_labels(self):
        s = categorical_series([5, 6, 7])
        spec = build_chart_spec([s], ChartKind.HORIZONTAL_BAR, Rng(0))
        assert spec.x_label == "coffee exports"
        assert spec.y_label == "Country"

    def test_mismatched_labels_rejected(self):
        a = temporal_series([1, 2, 3], start=1994)
        b = temporal_series([1, 2, 3], start=2000)
        with pytest.raises(ArityError):
            build_chart_spec([a, b], ChartKind.LINE, Rng(0))

    @pytest.mark.parametrize("n", [0, 3])
    def test_series_count_rejected(self, n):
        with pytest.raises(ArityError):
            build_chart_spec([temporal_series([1, 2, 3])] * n, ChartKind.LINE, Rng(0))

    def test_style_palettes_covered(self):
        """1,000 seeded builds reach every marker, color, dash, and corner."""
        s = temporal_series([1, 2, 3])
        markers, colors, dashes, corners = set(), set(), set(), set()
        for seed in range(1000):
            spec = build_chart_spec([s], ChartKind.SCATTER, Rng(seed))
            markers.add(spec.style.marker_shape)
            colors.add(spec.style.colors[0])
            dashes.add(spec.style.line_style)
            corners.add(spec.style.legend_position)
            assert 0.4 <= spec.style.bar_thickness <= 0.9
        assert markers == set(range(len(MARKER_SHAPES)))
        assert colors == set(range(len(COLOR_PALETTE)))
        assert dashes == set(LINE_STYLES)
        assert corners == set(LEGEND_POSITIONS)

    def test_two_series_distinct_colors(self):
        a = temporal_series([1, 2, 3], name="Brazil")
        b = temporal_series([2, 3, 4], name="Peru")
        for seed in range(200):
            spec = build_chart_spec([a, b], ChartKind.LINE, Rng(seed))
            assert len(set(spec.style.colors)) == 2


class TestStyleSpecValidation:

    @pytest.mark.parametrize("field, value, message", [
        ("marker_shape", len(MARKER_SHAPES),
         f"marker_shape: index {len(MARKER_SHAPES)} out of range"),
        ("marker_shape", -1, "marker_shape: index -1 out of range"),
        ("colors", (), "colors: need one or two palette indexes"),
        ("colors", (1, 2, 4), "colors: need one or two palette indexes"),
        ("colors", (len(COLOR_PALETTE),), "colors: palette index out of range"),
        ("colors", (3, 3), "colors: two series need distinct colors"),
        ("bar_thickness", 0.3, "bar_thickness: 0.3 outside [0.4, 0.9]"),
        ("line_style", "wavy", "line_style: unknown style 'wavy'"),
        ("legend_position", "center",
         "legend_position: unknown position 'center'"),
    ], ids=["marker-past-end", "marker-negative", "no-color", "three-colors",
            "color-past-end", "duplicate-colors", "thin-bar", "wavy-line",
            "centered-legend"])
    def test_bad_field_rejected(self, field, value, message):
        with pytest.raises(ParameterError, match=re.escape(message)):
            dataclasses.replace(default_style(), **{field: value})

    def test_chart_needs_one_color_per_series(self):
        a = temporal_series([1, 2, 3], name="Brazil")
        b = temporal_series([2, 3, 4], name="Peru")
        with pytest.raises(ArityError,
                           match="style needs one color per series"):
            ChartSpec(ChartKind.LINE, [a, b], "", "", "", default_style(1))


class TestRender:
    """SVG output and meta ground truth."""

    def kinds(self):
        return [ChartKind.SCATTER, ChartKind.LINE,
                ChartKind.VERTICAL_BAR, ChartKind.HORIZONTAL_BAR]

    def test_byte_identical(self):
        s = temporal_series([3.0, 4.5, 2.5, 6.0, 5.5])
        for kind in self.kinds():
            spec = build_chart_spec([s], kind, Rng(7))
            svg1, meta1 = render(spec)
            svg2, meta2 = render(spec)
            assert svg1 == svg2
            assert meta1 == meta2
            assert meta1.to_json() == meta2.to_json()

    def test_svg_parses(self):
        s = temporal_series([3.0, 4.5, 2.5, 6.0, 5.5])
        for kind in self.kinds():
            svg, _ = render(build_chart_spec([s], kind, Rng(7)))
            root = ET.fromstring(svg.decode("utf-8"))
            assert root.tag.endswith("svg")
            # text is black through SVG's default fill
            texts = list(root.iter("{http://www.w3.org/2000/svg}text"))
            assert texts and all("fill" not in t.attrib for t in texts)

    def test_all_bboxes_within_canvas(self):
        for seed in range(40):
            r = Rng(seed)
            n = 3 + r.randint(6)
            vals = [10 + 90 * r.random() for _ in range(n)]
            s = temporal_series(vals)
            for kind in self.kinds():
                _, meta = render(build_chart_spec([s], kind, Rng(seed)))
                for bb in all_bboxes(meta):
                    assert bb.within_canvas(), (kind, seed, bb)

    def test_round_trip_within_half_unit(self):
        """A stored canvas coordinate lies within 0.5 units of its data
        value's transform."""
        for seed in range(40):
            r = Rng(seed + 100)
            vals = [1000 * r.random() for _ in range(6)]
            s = temporal_series(vals)
            for kind in self.kinds():
                _, meta = render(build_chart_spec([s], kind, Rng(seed)))
                ax = meta.value_axis
                for sm in meta.series:
                    for p in sm.points:
                        canvas = p.x_canvas if ax.orientation == "x" else p.y_canvas
                        assert abs(canvas - ax.to_canvas(p.value)) <= 0.5

    def test_value_axis_covers_data(self):
        s = temporal_series([200.0, 950.0, 420.0])
        _, meta = render(build_chart_spec([s], ChartKind.LINE, Rng(3)))
        assert meta.value_axis.lo <= 200.0
        assert meta.value_axis.hi >= 950.0

    def test_bars_anchor_at_zero(self):
        s = categorical_series([5.0, 9.0, 3.0])
        _, meta = render(build_chart_spec([s], ChartKind.VERTICAL_BAR, Rng(3)))
        assert meta.value_axis.lo == 0.0

    def test_negative_bars_rejected(self):
        s = temporal_series([5.0, -1.0, 3.0])
        for kind in (ChartKind.VERTICAL_BAR, ChartKind.HORIZONTAL_BAR):
            with pytest.raises(NegativeBarValueError):
                render(build_chart_spec([s], kind, Rng(0)))

    def test_negative_values_fine_on_line(self):
        s = temporal_series([5.0, -1.0, 3.0])
        _, meta = render(build_chart_spec([s], ChartKind.LINE, Rng(0)))
        assert meta.value_axis.lo <= -1.0

    def test_degenerate_range_padded(self):
        s = temporal_series([7.0, 7.0, 7.0])
        _, meta = render(build_chart_spec([s], ChartKind.SCATTER, Rng(0)))
        assert meta.value_axis.lo <= 6.0
        assert meta.value_axis.hi >= 8.0

    def test_horizontal_bar_orientation(self):
        s = categorical_series([5.0, 9.0, 3.0])
        _, meta = render(build_chart_spec([s], ChartKind.HORIZONTAL_BAR, Rng(1)))
        assert meta.value_axis.orientation == "x"
        # category labels sit on the y axis
        assert [t.label for t in meta.y_ticks] == s.x_labels
        # value ticks run left to right
        assert meta.value_axis.canvas_hi > meta.value_axis.canvas_lo

    def test_vertical_orientation(self):
        s = temporal_series([5.0, 9.0, 3.0])
        _, meta = render(build_chart_spec([s], ChartKind.LINE, Rng(1)))
        assert meta.value_axis.orientation == "y"
        assert [t.label for t in meta.x_ticks] == s.x_labels
        # canvas y grows downward, so hi maps above lo
        assert meta.value_axis.canvas_hi < meta.value_axis.canvas_lo

    def test_temporal_tick_values_are_years(self):
        s = temporal_series([5.0, 9.0, 3.0], start=1994)
        _, meta = render(build_chart_spec([s], ChartKind.LINE, Rng(1)))
        assert [t.value for t in meta.x_ticks] == [1994.0, 1995.0, 1996.0]

    def test_categorical_tick_values_none(self):
        s = categorical_series([5.0, 9.0, 3.0])
        _, meta = render(build_chart_spec([s], ChartKind.VERTICAL_BAR, Rng(1)))
        assert all(t.value is None for t in meta.x_ticks)

    def test_legend_entries_match_series(self):
        a = temporal_series([1, 2, 3], name="Brazil")
        b = temporal_series([2, 3, 4], name="Peru")
        _, meta = render(build_chart_spec([a, b], ChartKind.LINE, Rng(2)))
        assert [e.name for e in meta.legend.entries] == ["Brazil", "Peru"]

    def test_legend_avoids_title(self):
        for seed in range(30):
            s = temporal_series([10.0 * i for i in range(1, 7)])
            _, meta = render(build_chart_spec([s], ChartKind.LINE, Rng(seed)))
            assert not overlaps(meta.legend.bbox, meta.title.bbox)

    def test_category_temporal_trend(self):
        s = temporal_series([1.0, 2.0, 3.0, 4.0, 5.0])
        _, meta = render(build_chart_spec([s], ChartKind.LINE, Rng(0)))
        assert meta.category == "temporal-trend"
        assert meta.series[0].trend_class == "linear-increase"

    def test_category_temporal_random(self):
        s = temporal_series([1.0, 10.0, 2.0, 9.0, 3.0, 8.0])
        _, meta = render(build_chart_spec([s], ChartKind.LINE, Rng(0)))
        assert meta.category == "temporal-random"

    def test_category_categorical(self):
        s = categorical_series([5.0, 9.0, 3.0])
        _, meta = render(build_chart_spec([s], ChartKind.VERTICAL_BAR, Rng(0)))
        assert meta.category == "categorical"
        assert meta.series[0].trend_class is None

    def test_mixed_pair_counts_as_trend(self):
        a = temporal_series([1.0, 2.0, 3.0, 4.0, 5.0], name="Brazil")
        b = temporal_series([1.0, 10.0, 2.0, 9.0, 3.0], name="Peru")
        _, meta = render(build_chart_spec([a, b], ChartKind.LINE, Rng(0)))
        assert meta.category == "temporal-trend"

    def test_data_values_exact_in_meta(self):
        vals = [3.141592653589793, 2.718281828459045, 6.02214076]
        s = temporal_series(vals)
        _, meta = render(build_chart_spec([s], ChartKind.SCATTER, Rng(0)))
        assert [p.value for p in meta.series[0].points] == vals

    def test_meta_json_round_trip(self):
        s = temporal_series([3.0, 4.5, 2.5, 6.0])
        _, meta = render(build_chart_spec([s], ChartKind.LINE, Rng(11)))
        again = ChartMeta.from_json(meta.to_json())
        assert again == meta

    def test_unit_recorded(self):
        s = temporal_series([1, 2, 3], unit="kt")
        _, meta = render(build_chart_spec([s], ChartKind.LINE, Rng(0)))
        assert meta.y_unit == "kt"

    def test_marker_shapes_all_render(self):
        s = temporal_series([3.0, 4.5, 2.5, 6.0])
        for shape in range(len(MARKER_SHAPES)):
            style = StyleSpec(shape, (0,), 0.6, "solid", "top-right")
            spec = ChartSpec(ChartKind.SCATTER, [s], "t", "x", "y", style)
            svg, _ = render(spec)
            ET.fromstring(svg.decode("utf-8"))

    def test_two_series_bar_groups(self):
        a = categorical_series([5.0, 9.0, 3.0], name="exports (1994)")
        b = categorical_series([6.0, 7.0, 4.0], name="exports (2001)")
        spec = build_chart_spec([a, b], ChartKind.VERTICAL_BAR, Rng(4))
        svg, meta = render(spec)
        # grouped bars offset left/right within each slot
        xs0 = [p.x_canvas for p in meta.series[0].points]
        xs1 = [p.x_canvas for p in meta.series[1].points]
        assert all(x0 < x1 for x0, x1 in zip(xs0, xs1))

    def test_two_series_horizontal_bar_groups(self):
        a = categorical_series([5.0, 9.0, 3.0], name="exports (1994)")
        b = categorical_series([6.0, 7.0, 4.0], name="exports (2001)")
        _, meta = render(build_chart_spec([a, b], ChartKind.HORIZONTAL_BAR, Rng(4)))
        axis = meta.value_axis
        slot = meta.plot_area.h / 3
        # grouped rows offset up/down within each slot, about the category
        # tick's center; the category ticks are the y ticks
        for i, tick in enumerate(meta.y_ticks):
            p0, p1 = meta.series[0].points[i], meta.series[1].points[i]
            assert p0.y_canvas < p1.y_canvas
            assert p1.y_canvas - p0.y_canvas == pytest.approx(0.4 * slot, abs=0.02)
            center = tick.bbox.y + tick.bbox.h / 2
            assert (p0.y_canvas + p1.y_canvas) / 2 == pytest.approx(center, abs=0.02)
            # x is the value coordinate
            for p in (p0, p1):
                assert p.x_canvas == round(axis.to_canvas(p.value), 2)

    def test_long_title_still_fits(self):
        name = "international tourism expenditure of Territory 900 and Territory 901"
        s = temporal_series([1, 2, 3], indicator=name)
        _, meta = render(build_chart_spec([s], ChartKind.LINE, Rng(0)))
        assert meta.title.bbox.within_canvas()


def render_digest(seeds):
    """sha256 over the SVG bytes and meta JSON of a seeded sweep: each seed
    x temporal/categorical x 1 and 2 series x every ChartKind."""
    h = hashlib.sha256()
    for seed in seeds:
        catalog = synth_catalog(seed, 24, 30)
        for temporal in (True, False):
            for arity in (1, 2):
                series = sample_series(catalog, temporal, arity,
                                       Rng(derive_seed(seed, int(temporal), arity)))
                for ki, kind in enumerate(ChartKind):
                    spec = build_chart_spec(series, kind, Rng(derive_seed(seed, ki)),
                                            image_index=seed)
                    svg, meta = render(spec)
                    h.update(svg)
                    h.update(meta.to_json().encode("utf-8"))
    return h.hexdigest()


def test_render_digest_pinned():
    # pins every byte render writes, across all four kinds and both series
    # counts; a change here is a change to the corpus bytes
    assert render_digest(range(50)) == (
        "a4ffeb3d434c51f52cc1d65ecd8203489060e0dd75e625f1658293c7cab21a8f")


class TestBBox:

    def test_within_canvas(self):
        assert BBox(0, 0, CANVAS_W, CANVAS_H).within_canvas()
        assert not BBox(-1, 0, 10, 10).within_canvas()
        assert not BBox(635, 0, 10, 10).within_canvas()
        assert not BBox(0, 475, 10, 10).within_canvas()
        assert not BBox(0, 0, 0, 10).within_canvas()
        # a decoded field that is not a number is outside, not an error
        assert not BBox("0", 0, 10, 10).within_canvas()
        assert not BBox(0.5, 0, 10 ** 400, 10).within_canvas()

    def test_overlaps(self):
        a = BBox(0, 0, 10, 10)
        assert overlaps(a, BBox(5, 5, 10, 10))
        assert not overlaps(a, BBox(10, 0, 5, 5))
        assert not overlaps(a, BBox(0, 10, 5, 5))

    def test_dict_round_trip(self):
        bb = BBox(1.5, 2.5, 3.5, 4.5)
        encode, decode = _codec(BBox)
        assert encode(bb) == {"x": 1.5, "y": 2.5, "w": 3.5, "h": 4.5}
        assert decode(encode(bb)) == bb


# ---------------------------------------------------------------------------
# the field-driven meta codec against the hand-written methods it replaced

def bbox_to_dict(b):
    return {"x": b.x, "y": b.y, "w": b.w, "h": b.h}


def bbox_from_dict(d):
    return BBox(d["x"], d["y"], d["w"], d["h"])


def text_to_dict(t):
    return {"text": t.text, "bbox": bbox_to_dict(t.bbox)}


def text_from_dict(d):
    return LabeledText(d["text"], bbox_from_dict(d["bbox"]))


def tick_to_dict(t):
    return {"label": t.label, "bbox": bbox_to_dict(t.bbox), "value": t.value}


def tick_from_dict(d):
    return TickMark(d["label"], bbox_from_dict(d["bbox"]), d["value"])


def entry_to_dict(e):
    return {"name": e.name, "name_bbox": bbox_to_dict(e.name_bbox),
            "marker_bbox": bbox_to_dict(e.marker_bbox)}


def entry_from_dict(d):
    return LegendEntry(d["name"], bbox_from_dict(d["name_bbox"]),
                       bbox_from_dict(d["marker_bbox"]))


def point_to_dict(p):
    return {"x_label": p.x_label, "x_index": p.x_index, "value": p.value,
            "x_canvas": p.x_canvas, "y_canvas": p.y_canvas}


def point_from_dict(d):
    return PointRecord(d["x_label"], d["x_index"], d["value"],
                       d["x_canvas"], d["y_canvas"])


def series_to_dict(s):
    return {"name": s.name, "trend_class": s.trend_class,
            "points": [point_to_dict(p) for p in s.points]}


def array(value, name):
    """value, when it is a JSON array of objects: a list field is decoded
    from no other JSON value, and an item that is not an object is named."""
    if type(value) is not list:
        noun = type(value).__name__
        raise TypeError(f"{name} is {'an' if noun[0] in 'aeiou' else 'a'} "
                        f"{noun}, not a list")
    for i, item in enumerate(value):
        if type(item) is not dict:
            noun = type(item).__name__
            raise TypeError(f"{name}[{i}] is {'an' if noun[0] in 'aeiou' else 'a'}"
                            f" {noun}, not an object")
    return value


def series_from_dict(d):
    return SeriesMeta(d["name"], d["trend_class"],
                      [point_from_dict(p) for p in array(d["points"], "points")])


def axis_to_dict(a):
    return {"orientation": a.orientation, "lo": a.lo, "hi": a.hi,
            "canvas_lo": a.canvas_lo, "canvas_hi": a.canvas_hi}


def axis_from_dict(d):
    return AxisTransform(d["orientation"], d["lo"], d["hi"],
                         d["canvas_lo"], d["canvas_hi"])


def meta_to_dict(m):
    return {
        "image_index": m.image_index,
        "chart_kind": m.chart_kind,
        "category": m.category,
        "title": text_to_dict(m.title),
        "x_label": text_to_dict(m.x_label),
        "y_label": text_to_dict(m.y_label),
        "y_unit": m.y_unit,
        "x_ticks": [tick_to_dict(t) for t in m.x_ticks],
        "y_ticks": [tick_to_dict(t) for t in m.y_ticks],
        "legend": {
            "bbox": bbox_to_dict(m.legend.bbox),
            "entries": [entry_to_dict(e) for e in m.legend.entries],
        },
        "series": [series_to_dict(s) for s in m.series],
        "plot_area": bbox_to_dict(m.plot_area),
        "value_axis": axis_to_dict(m.value_axis),
        "canvas": {"width": m.canvas.width, "height": m.canvas.height},
    }


def meta_from_dict(d):
    return ChartMeta(
        image_index=d["image_index"],
        chart_kind=d["chart_kind"],
        category=d["category"],
        title=text_from_dict(d["title"]),
        x_label=text_from_dict(d["x_label"]),
        y_label=text_from_dict(d["y_label"]),
        y_unit=d["y_unit"],
        x_ticks=[tick_from_dict(t) for t in array(d["x_ticks"], "x_ticks")],
        y_ticks=[tick_from_dict(t) for t in array(d["y_ticks"], "y_ticks")],
        legend=Legend(bbox_from_dict(d["legend"]["bbox"]),
                      [entry_from_dict(e) for e in array(
                          d["legend"]["entries"], "entries")]),
        series=[series_from_dict(s) for s in array(d["series"], "series")],
        plot_area=bbox_from_dict(d["plot_area"]),
        value_axis=axis_from_dict(d["value_axis"]),
        canvas=Canvas(d["canvas"]["width"], d["canvas"]["height"]),
    )


@st.composite
def rendered_metas(draw):
    kind = draw(st.sampled_from(list(ChartKind)))
    temporal = draw(st.booleans())
    n = draw(st.integers(3, 8))
    low = 0 if kind.is_bar else -10 ** 8
    values = st.integers(low, 10 ** 8).map(lambda v: v / 100)
    series = []
    for i in range(draw(st.integers(1, 2))):
        ys = draw(st.lists(values, min_size=n, max_size=n))
        make = temporal_series if temporal else categorical_series
        series.append(make(ys, name=f"series {i}"))
    spec = build_chart_spec(series, kind, Rng(draw(st.integers(0, 2 ** 32))),
                            image_index=draw(st.integers(0, 10 ** 6)))
    return render(spec)[1]


def outcome(decode, doc):
    """The decoded record, or the type and text of what decoding raised."""
    try:
        return decode(doc)
    except Exception as exc:
        return type(exc), str(exc)


# one rendered meta document per kind, with one and with two series
META_TEXTS = [
    render(build_chart_spec(
        [make([5.0, 9.0, 3.0, 7.5], name=f"series {i}") for i in range(n)],
        kind, Rng(3), image_index=4))[1].to_json()
    for kind in ChartKind for n in (1, 2)
    for make in (temporal_series, categorical_series)
]


class TestMetaCodec:
    """The encoder and decoder `_codec` compiles from the meta records'
    fields, against the hand-written methods they replaced."""

    @settings(max_examples=80)
    @given(meta=rendered_metas())
    def test_encoder_matches_oracle(self, meta):
        assert _codec(ChartMeta)[0](meta) == meta_to_dict(meta)
        assert meta.to_json() == json.dumps(meta_to_dict(meta),
                                            separators=(",", ":"))
        assert ChartMeta.from_json(meta.to_json()) == meta

    @settings(max_examples=400)
    @given(which=st.integers(0, len(META_TEXTS) - 1),
           steps=st.lists(st.integers(0, 1000), max_size=6),
           action=st.sampled_from(["replace", "delete"]),
           value=JSON_VALUES)
    def test_decoder_matches_oracle_on_mutated_documents(self, which, steps,
                                                         action, value):
        doc = mutate_at(json.loads(META_TEXTS[which]), steps, action, value)
        assert outcome(_codec(ChartMeta)[1], doc) == \
            outcome(meta_from_dict, doc)

    def test_unmutated_documents_decode(self):
        for text in META_TEXTS:
            assert json.dumps(meta_to_dict(ChartMeta.from_json(text)),
                              separators=(",", ":")) == text

    def test_field_order_is_key_order(self):
        for cls in (ChartMeta, Legend, Canvas, LabeledText, TickMark,
                    LegendEntry, PointRecord, SeriesMeta, AxisTransform, BBox):
            assert not hasattr(cls, "to_dict") and not hasattr(cls, "from_dict")
        doc = json.loads(META_TEXTS[0])
        assert list(doc) == [f.name for f in dataclasses.fields(ChartMeta)]
        assert list(doc["legend"]) == ["bbox", "entries"]
        assert doc["canvas"] == {"width": CANVAS_W, "height": CANVAS_H}


def box_named(meta, name):
    """The box of meta that a geometry violation names name."""
    if name == "plot_area":
        return meta.plot_area
    tick = re.fullmatch(r"([xy])_tick\[(\d+)\]", name)
    if tick:
        return getattr(meta, f"{tick[1]}_ticks")[int(tick[2])].bbox
    entry = re.fullmatch(r"legend_entry\[(\d+)\]\.(name|marker)", name)
    if entry:
        return getattr(meta.legend.entries[int(entry[1])], f"{entry[2]}_bbox")
    return getattr(meta, name).bbox


def edited_meta(which, path, value):
    """META_TEXTS[which] decoded, with the field at path set to value."""
    doc = json.loads(META_TEXTS[which])
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return ChartMeta.from_json(json.dumps(doc))


class TestMetaProblems:
    """`meta_problems`, the one meta contract of describe and validate."""

    def test_rendered_metas_are_well_formed(self):
        assert [meta_problems(ChartMeta.from_json(t)) for t in META_TEXTS] == \
            [[]] * len(META_TEXTS)

    def test_each_box_off_canvas_is_named(self):
        meta = ChartMeta.from_json(META_TEXTS[2])  # two series, two entries
        names = chartgen._bbox_names(meta)
        assert len(names) == len(chartgen._bboxes(meta)) == len(set(names))
        for name in names:
            moved = copy.deepcopy(meta)
            box = box_named(moved, name)
            box.x = -5.0
            assert meta_problems(moved) == [
                f"{name} bbox outside canvas: {dataclasses.asdict(box)}"]

    @pytest.mark.parametrize("path, value, message", [
        (("y_unit",), 5, "y_unit is an int, not text"),
        (("title", "text"), None, "title.text is a NoneType, not text"),
        (("series", 0, "points", 1, "x_label"), 7.5,
         "series[0].points[1].x_label is a float, not text"),
    ], ids=["unit", "title", "entity"])
    def test_fact_that_is_not_text_is_named(self, path, value, message):
        assert meta_problems(edited_meta(0, path, value)) == [message]

    def test_series_fact_that_is_not_text_is_named(self):
        meta = edited_meta(2, ("series", 1, "name"), ["2013"])
        assert meta_problems(meta) == ["series[1].name is a list, not text"]

    @pytest.mark.parametrize("value, message", [
        (math.nan, "nan is not a finite number between -1e+300 and 1e+300"),
        (True, "is a bool, not a number"),
        (10 ** 400, f"{10 ** 400} is not a finite number between -1e+300 "
                    f"and 1e+300"),
        ("12", "is a str, not a number")], ids=["nan", "true", "huge", "text"])
    def test_bad_point_value_is_one_problem(self, value, message):
        meta = edited_meta(0, ("series", 0, "points", 0, "value"), value)
        assert meta_problems(meta) == [
            f"series[0].points[0].value {message}"]

    @settings(max_examples=200)
    @given(which=st.integers(0, len(META_TEXTS) - 1),
           steps=st.lists(st.integers(0, 1000), max_size=6),
           action=st.sampled_from(["replace", "delete"]),
           value=JSON_VALUES)
    def test_never_raises_on_a_decoded_meta(self, which, steps, action, value):
        doc = mutate_at(json.loads(META_TEXTS[which]), steps, action, value)
        try:
            meta = ChartMeta.from_json(json.dumps(doc))
        except (ArithmeticError, LookupError, TypeError, ValueError):
            return  # not chart metadata: describe and validate say so first
        assert all(isinstance(p, str) for p in meta_problems(meta))


def test_meta_schema_doc_lists_the_chartmeta_fields():
    """The top-level field table of docs/meta-schema.md names exactly the
    fields of ChartMeta, in order."""
    text = (DOCS / "meta-schema.md").read_text(encoding="utf-8")
    section = text.split("## Top-level fields", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("|")]
    named = [name for row in rows[2:]
             for name in re.findall(r"`(\w+)`", row.split("|")[1])]
    assert named == [f.name for f in dataclasses.fields(ChartMeta)]
