"""Chart composition, vector rendering, and ground-truth meta records.

Rendering is a pure function from a ChartSpec to SVG bytes plus a ChartMeta
record holding every element's bounding box and every data point's position
in both data and canvas units.  No font engine is consulted: text extents
come from a fixed-metrics model (width 0.6 * font_size per codepoint,
height 1.2 * font_size), which is what makes the bounding boxes exact and
the output byte-identical everywhere.

Canvas is fixed at 640x480 units, origin top-left, y growing downward.
The plot rectangle inside it varies with label sizes and is recorded in
the meta.  All canvas coordinates in the SVG and the meta are rounded to
two decimals.
"""

import functools
import json
import math
from dataclasses import asdict, dataclass, field, is_dataclass
from enum import Enum
from typing import Any, Callable, Dict, List, Optional, Tuple, get_args, get_origin

from .catalog import DataSeries, _parse_years
from .rng import Rng
from .trend import FLAT_CLASSES, ParameterError, TrendClass, classify_trend

CANVAS_W = 640
CANVAS_H = 480

TITLE_FS = 16.0
AXIS_FS = 13.0
TICK_FS = 11.0
LEGEND_FS = 11.0

MARGIN = 10.0
TITLE_GAP = 8.0
LABEL_GAP = 6.0
TICK_LEN = 4.0
TICK_GAP = 4.0
RIGHT_PAD = 14.0
LEGEND_INSET = 12.0

MARKER_SHAPES = (
    "circle", "square", "triangle-up", "triangle-down", "diamond",
    "plus", "cross", "star", "pentagon", "hexagon",
)

# name, hex — exactly twenty
COLOR_PALETTE = (
    ("steel blue", "#4682B4"), ("firebrick", "#B22222"),
    ("forest green", "#228B22"), ("dark orange", "#FF8C00"),
    ("medium purple", "#9370DB"), ("saddle brown", "#8B4513"),
    ("orchid", "#DA70D6"), ("gray", "#7F7F7F"),
    ("olive", "#808000"), ("teal", "#008080"),
    ("navy", "#000080"), ("crimson", "#DC143C"),
    ("dark cyan", "#008B8B"), ("goldenrod", "#DAA520"),
    ("indigo", "#4B0082"), ("salmon", "#FA8072"),
    ("sea green", "#2E8B57"), ("slate blue", "#6A5ACD"),
    ("chocolate", "#D2691E"), ("deep pink", "#FF1493"),
)

LINE_STYLES = ("solid", "dashed", "dotted", "dash-dot")
_DASH_PATTERNS = {"solid": None, "dashed": "8 5", "dotted": "2 4", "dash-dot": "9 4 2 4"}

LEGEND_POSITIONS = ("top-right", "top-left", "bottom-right", "bottom-left")


class ChartKind(str, Enum):
    SCATTER = "scatter"
    LINE = "line"
    VERTICAL_BAR = "vertical-bar"
    HORIZONTAL_BAR = "horizontal-bar"

    @property
    def is_bar(self) -> bool:
        return self in (ChartKind.VERTICAL_BAR, ChartKind.HORIZONTAL_BAR)


KINDS = tuple(kind.value for kind in ChartKind)
CATEGORIES = ("temporal-trend", "temporal-random", "categorical")

_FLAT = tuple(c.value for c in FLAT_CLASSES)
_DIRECTIONAL = tuple(c.value for c in TrendClass if c not in FLAT_CLASSES)

# Every (category, trend, arity) combination the planner can ask for.
# temporal-trend charts include flat trends: a two-series chart is in that
# category as soon as one series is directional, and a sentence may focus
# on the other one.
REACHABLE_CELLS: Tuple[Tuple[str, Optional[str], int], ...] = tuple(
    (category, trend, arity)
    for category, trends in (
        ("temporal-trend", _DIRECTIONAL + _FLAT),
        ("temporal-random", _FLAT),
        ("categorical", (None,)),
    )
    for trend in trends
    for arity in (1, 2)
)


class ArityError(ValueError):
    """Series count or series shapes are inconsistent."""


class NegativeBarValueError(ValueError):
    """Bar charts draw from a zero baseline and need non-negative data."""


@dataclass(frozen=True)
class StyleSpec:
    """Visual choices of one chart, as indexes into the style tables."""

    marker_shape: int
    colors: Tuple[int, ...]
    bar_thickness: float
    line_style: str
    legend_position: str

    def __post_init__(self):
        if not (0 <= self.marker_shape < len(MARKER_SHAPES)):
            raise ParameterError(f"marker_shape: index {self.marker_shape} out of range")
        if not self.colors or len(self.colors) > 2:
            raise ParameterError("colors: need one or two palette indexes")
        if any(not (0 <= c < len(COLOR_PALETTE)) for c in self.colors):
            raise ParameterError("colors: palette index out of range")
        if len(set(self.colors)) != len(self.colors):
            raise ParameterError("colors: two series need distinct colors")
        if not (0.4 <= self.bar_thickness <= 0.9):
            raise ParameterError(f"bar_thickness: {self.bar_thickness} outside [0.4, 0.9]")
        if self.line_style not in LINE_STYLES:
            raise ParameterError(f"line_style: unknown style {self.line_style!r}")
        if self.legend_position not in LEGEND_POSITIONS:
            raise ParameterError(f"legend_position: unknown position {self.legend_position!r}")


@dataclass
class ChartSpec:
    """What `render` draws: one or two series on shared x labels, the
    title and axis labels, and the style."""

    kind: ChartKind
    series: List[DataSeries]
    title: str
    x_label: str
    y_label: str
    style: StyleSpec
    image_index: int = 0

    def __post_init__(self):
        if not (1 <= len(self.series) <= 2):
            raise ArityError(f"need 1 or 2 series, got {len(self.series)}")
        labels = self.series[0].x_labels
        for s in self.series[1:]:
            if s.x_labels != labels:
                raise ArityError("all series in one chart must share x_labels")
        if len(self.style.colors) != len(self.series):
            raise ArityError("style needs one color per series")


@dataclass
class BBox:
    """An axis-aligned box in canvas units, origin at the top left."""

    x: float
    y: float
    w: float
    h: float

    def within_canvas(self) -> bool:
        try:
            return (self.x >= 0 and self.y >= 0
                    and self.x + self.w <= CANVAS_W
                    and self.y + self.h <= CANVAS_H
                    and self.w > 0 and self.h > 0)
        except (ArithmeticError, TypeError):  # a field that is not a number
            return False


@dataclass
class LabeledText:
    """A drawn text and its box."""

    text: str
    bbox: BBox


@dataclass
class TickMark:
    """An axis tick's label, its box and, on a value axis, its value."""

    label: str
    bbox: BBox
    value: Optional[float]  # numeric tick value; None for category ticks


@dataclass
class LegendEntry:
    """One series' legend row: its name box and its marker box."""

    name: str
    name_bbox: BBox
    marker_bbox: BBox


@dataclass
class Legend:
    """The legend's box and its rows, one per series."""

    bbox: BBox
    entries: List[LegendEntry]


@dataclass
class PointRecord:
    """One plotted point: its category, value and canvas position."""

    x_label: str
    x_index: int
    value: float  # data units, full precision
    x_canvas: float
    y_canvas: float


@dataclass
class SeriesMeta:
    """One plotted series: its name, trend class and points."""

    name: str
    trend_class: Optional[str]
    points: List[PointRecord]


@dataclass
class AxisTransform:
    """Linear map between the value axis and one canvas axis.

    orientation is the canvas axis that carries the value scale: "y" for
    vertical charts, "x" for horizontal bars.
    """

    orientation: str
    lo: float
    hi: float
    canvas_lo: float
    canvas_hi: float

    def to_canvas(self, v: float) -> float:
        t = (v - self.lo) / (self.hi - self.lo)
        return self.canvas_lo + t * (self.canvas_hi - self.canvas_lo)


@dataclass
class Canvas:
    """The drawing area's size in canvas units."""

    width: int = CANVAS_W
    height: int = CANVAS_H


@dataclass
class ChartMeta:
    """Ground truth for one chart; its fields, in order, are its JSON keys."""

    image_index: int
    chart_kind: str  # one of KINDS
    category: str  # one of CATEGORIES
    title: LabeledText
    x_label: LabeledText
    y_label: LabeledText
    y_unit: str
    x_ticks: List[TickMark]
    y_ticks: List[TickMark]
    legend: Legend
    series: List[SeriesMeta]
    plot_area: BBox
    value_axis: AxisTransform
    canvas: Canvas = field(default_factory=Canvas)

    def to_json(self) -> str:
        return json.dumps(_codec(ChartMeta)[0](self), separators=(",", ":"))

    @staticmethod
    def from_json(text: str) -> "ChartMeta":
        return _codec(ChartMeta)[1](json.loads(text))


def _items(decode, value, name: str) -> list:
    """The records decode reads from value, a JSON array of objects: a JSON
    object or string is not read as one, and when decoding raises a
    TypeError, the first item that is not an object is named."""
    if type(value) is not list:
        raise TypeError(f"{name} is {_a(type(value).__name__)}, not a list")
    try:
        return [*map(decode, value)]
    except TypeError:
        for i, item in enumerate(value):
            if type(item) is not dict:
                raise TypeError(f"{name}[{i}] is {_a(type(item).__name__)}, "
                                f"not an object") from None
        raise


@functools.cache
def _codec(cls) -> Tuple[Callable, Callable]:
    """(encode, decode) between a record class, a dataclass or a named
    tuple, and its JSON object, compiled once from its fields as
    `dataclasses` compiles `__init__`: a record field is an object, a
    List[record] or Tuple[record, ...] field an array of objects, any other
    passes through.  decode reads d[key] depth first in field order."""
    env = {"cls": cls, "_items": _items}
    enc, dec = [], []
    for name, kind in cls.__annotations__.items():
        many = get_origin(kind) in (list, tuple)
        record = get_args(kind)[0] if many else kind
        get, read = f"o.{name}", f"d[{name!r}]"
        if is_dataclass(record) or hasattr(record, "_fields"):  # named tuple
            env[f"enc_{name}"], env[f"dec_{name}"] = _codec(record)
            if many:
                get = f"[*map(enc_{name}, {get})]"
                read = f"_items(dec_{name}, {read}, {name!r})"
                read = f"tuple({read})" if get_origin(kind) is tuple else read
            else:
                get, read = f"enc_{name}({get})", f"dec_{name}({read})"
        enc.append(f"{name!r}: {get}")
        dec.append(read)
    exec(f"def encode(o): return {{{', '.join(enc)}}}\n"
         f"def decode(d): return cls({', '.join(dec)})", env)
    return env["encode"], env["decode"]


# ---------------------------------------------------------------------------
# the meta contract

# the largest magnitude of a meta number: the facts a slot prints round,
# add and subtract point values, and stay finite below it
NUMBER_LIMIT = 1e300


def _not_a(want: type, value) -> Optional[str]:
    """Why value is not text (want str) or not a number (want float: a
    finite int or float, not a bool, of magnitude at most NUMBER_LIMIT);
    None when it is one."""
    if type(value) is want or want is float and type(value) is int:
        if want is str or -NUMBER_LIMIT <= value <= NUMBER_LIMIT:
            return None  # NaN fails the comparison
        return (f"{value!r} is not a finite number between {-NUMBER_LIMIT:g} "
                f"and {NUMBER_LIMIT:g}")
    return (f"is {_a(type(value).__name__)}, not "
            f"{'text' if want is str else 'a number'}")


def _a(noun: str) -> str:
    """noun after its indefinite article: "a str", "an int"."""
    return f"{'an' if noun[0] in 'aeiou' else 'a'} {noun}"


def _bboxes(meta: ChartMeta) -> list:
    """Every box of meta, in the order `_bbox_names` names them."""
    return [meta.title.bbox, meta.x_label.bbox, meta.y_label.bbox,
            *[tick.bbox for tick in meta.x_ticks + meta.y_ticks],
            meta.legend.bbox, *[box for entry in meta.legend.entries
                                for box in (entry.name_bbox, entry.marker_bbox)],
            meta.plot_area]


def _bbox_names(meta: ChartMeta) -> List[str]:
    """The name of each box of `_bboxes(meta)`: built only for a report."""
    return ["title", "x_label", "y_label",
            *[f"x_tick[{i}]" for i in range(len(meta.x_ticks))],
            *[f"y_tick[{i}]" for i in range(len(meta.y_ticks))], "legend",
            *[f"legend_entry[{i}].{part}" for i in range(len(meta.legend.entries))
              for part in ("name", "marker")], "plot_area"]


def meta_problems(meta: ChartMeta) -> List[str]:
    """Why meta is not a chart that can be described and audited, one line
    per problem, each naming its field; empty when meta is well formed.
    Never raises on a meta `ChartMeta.from_json` decoded: a field of the
    wrong type is one problem.  docs/meta-schema.md lists the rules."""
    category, kind, series, axis = (meta.category, meta.chart_kind,
                                    meta.series, meta.value_axis)
    problems: List[str] = []
    if category not in CATEGORIES:
        problems.append(f"category {category!r} is not one of "
                        f"{', '.join(CATEGORIES)}")
    orientation = "x" if kind == ChartKind.HORIZONTAL_BAR.value else "y"
    if kind not in KINDS:
        problems.append(f"chart_kind {kind!r} is not one of {', '.join(KINDS)}")
    elif axis.orientation != orientation:
        problems.append(f"value_axis.orientation {axis.orientation!r} is not "
                        f"{orientation!r}")
    arity, counts = len(series), [len(sm.points) for sm in series]
    if not 1 <= arity <= 2:
        problems.append(f"{arity} series, not 1 or 2")
    if 0 in counts or len(set(counts)) > 1:
        problems.append(f"series have {' and '.join(map(str, counts))} "
                        f"points, not one count above 0")
    cells = category in CATEGORIES and 1 <= arity <= 2

    # each text a slot prints and each number the checks below read
    wrong = [f"{name} {why}" for want, name, value in (
        (str, "title.text", meta.title.text),
        (str, "x_label.text", meta.x_label.text),
        (str, "y_label.text", meta.y_label.text), (str, "y_unit", meta.y_unit),
        (float, "value_axis.lo", axis.lo), (float, "value_axis.hi", axis.hi),
        (float, "value_axis.canvas_lo", axis.canvas_lo),
        (float, "value_axis.canvas_hi", axis.canvas_hi))
        if (why := _not_a(want, value))]
    if not wrong and axis.hi - axis.lo == 0:
        wrong.append(f"value_axis.lo {axis.lo!r} equals value_axis.hi {axis.hi!r}")
    maps = not wrong  # the transform reads the axis numbers
    placed: List[str] = []  # what the transform and canvas rules find
    limit = NUMBER_LIMIT
    for s, sm in enumerate(series):
        if cells and (category, sm.trend_class, arity) not in REACHABLE_CELLS:
            problems.append(f"series[{s}].trend_class {sm.trend_class!r} does "
                            f"not fit a {category} chart of {arity} series")
        if type(sm.name) is not str:
            wrong.append(f"series[{s}].name {_not_a(str, sm.name)}")
        for i, p in enumerate(sm.points):
            v, x, y = p.value, p.x_canvas, p.y_canvas
            if not (type(v) is type(x) is type(y) is float  # the common case
                    and -limit <= v <= limit and -limit <= x <= limit
                    and -limit <= y <= limit and type(p.x_label) is str):
                bad = [f"series[{s}].points[{i}].{key} {why}"
                       for want, key, value in ((str, "x_label", p.x_label),
                                                (float, "value", v),
                                                (float, "x_canvas", x),
                                                (float, "y_canvas", y))
                       if (why := _not_a(want, value))]
                if bad:
                    wrong += bad
                    continue
            coord = x if axis.orientation == "x" else y
            if maps and (off := abs(axis.to_canvas(v) - coord)) > 0.5:
                placed.append(f"series[{s}].points[{i}] canvas coordinate "
                              f"{coord} is {off:.3f} units from the value "
                              f"transform")
            if not (-0.5 <= x <= CANVAS_W + 0.5 and -0.5 <= y <= CANVAS_H + 0.5):
                placed.append(f"series[{s}].points[{i}] plotted off canvas")
    # those rules compare numbers: judged only when no field has a wrong type
    problems += wrong or placed
    boxes = _bboxes(meta)
    if not all([box.within_canvas() for box in boxes]):
        problems += [f"{name} bbox outside canvas: {asdict(box)}"
                     for name, box in zip(_bbox_names(meta), boxes)
                     if not box.within_canvas()]
    return problems


# ---------------------------------------------------------------------------
# text metrics and ticks

def estimate_text_bbox(text: str, font_size: float) -> Tuple[float, float]:
    """Fixed-metrics text extent: (0.6 * font_size * codepoints, 1.2 * font_size)."""
    if font_size <= 0:
        raise ParameterError(f"font_size: must be positive, got {font_size}")
    return (0.6 * font_size * len(text), 1.2 * font_size)


def nice_ticks(lo: float, hi: float, target_count: int = 5) -> List[float]:
    """Ticks at multiples of {1, 2, 2.5, 5} * 10^k covering [lo, hi], with
    count in [target_count - 1, target_count + 2].  A degenerate lo == hi
    is padded by one unit each way."""
    if lo > hi:
        raise ParameterError(f"lo: {lo} exceeds hi {hi}")
    if not (3 <= target_count <= 8):
        raise ParameterError(f"target_count: {target_count} outside [3, 8]")
    if lo == hi:
        lo, hi = lo - 1.0, hi + 1.0
    span = hi - lo
    k = math.floor(math.log10(span / target_count))
    steps = []
    for e in range(k - 1, k + 4):
        for m in (1.0, 2.0, 2.5, 5.0):
            steps.append(m * 10.0 ** e)
    steps.sort()
    for step in steps:
        # snap quotients that sit within float noise of an integer
        q = lo / step
        fi = math.floor(q)
        if q - fi > 1 - 1e-9:
            fi += 1
        q = hi / step
        li = math.ceil(q)
        if li - q > 1 - 1e-9:
            li -= 1
        count = li - fi + 1
        if count <= target_count + 2:
            # a minimal cover may undershoot the window when counts halve
            # across a coarse step; pad with headroom ticks above the data
            li += max(0, (target_count - 1) - count)
            count = li - fi + 1
            return [(fi + i) * step for i in range(count)]
    # unreachable: step grows until the minimal cover fits under the cap
    raise AssertionError("tick search failed")  # pragma: no cover


def _fmt_tick(v: float) -> str:
    """Compact tick label: integers plain, large/small values scientific."""
    if v == int(v) and abs(v) < 1e6:
        return str(int(v))
    return f"{v:g}"


# ---------------------------------------------------------------------------
# spec building

def _orient(kind: ChartKind) -> Callable[[Any, Any], Tuple[Any, Any]]:
    """Map a (category, value) pair to canvas (x, y): a horizontal bar is
    a vertical bar with its axes swapped.  The generator's only orientation
    decision; the swap is its own inverse."""
    if kind is ChartKind.HORIZONTAL_BAR:
        return lambda c, v: (v, c)
    return lambda c, v: (c, v)


def build_chart_spec(series: List[DataSeries], kind: ChartKind, rng: Rng,
                     image_index: int = 0) -> ChartSpec:
    """Randomized style + composed title and axis labels for the series."""
    marker_shape = rng.randint(len(MARKER_SHAPES))
    if len(series) == 1:
        colors: Tuple[int, ...] = (rng.randint(len(COLOR_PALETTE)),)
    else:
        colors = tuple(rng.sample(range(len(COLOR_PALETTE)), 2))
    bar_thickness = 0.4 + 0.5 * rng.random()
    line_style = rng.choice(LINE_STYLES)
    legend_position = rng.choice(LEGEND_POSITIONS)
    style = StyleSpec(marker_shape, colors, bar_thickness, line_style, legend_position)
    # ChartSpec checks the series before the labels read them
    spec = ChartSpec(kind, list(series), "", "", "", style, image_index)

    first = series[0]
    indicator = first.indicator_name or first.y_unit or "value"
    if first.temporal:
        who = series[0].series_name if len(series) == 1 else \
            f"{series[0].series_name} and {series[1].series_name}"
        spec.title = f"{indicator} of {who}, {first.x_labels[0]}–{first.x_labels[-1]}"
        cat_label = "Year"
    else:
        kind_word = first.entity_kind or "category"
        spec.title = f"{indicator} by {kind_word}"
        cat_label = kind_word.capitalize()
    spec.x_label, spec.y_label = _orient(kind)(cat_label, indicator)
    return spec


# ---------------------------------------------------------------------------
# rendering

def _r2(v: float) -> float:
    return round(v, 2)


def _clamp_box(x: float, y: float, w: float, h: float) -> BBox:
    """Shift a box fully into the canvas (with a small safety margin) and
    round its coordinates."""
    w = min(w, CANVAS_W - 0.2)
    h = min(h, CANVAS_H - 0.2)
    x = min(max(x, 0.1), CANVAS_W - 0.1 - w)
    y = min(max(y, 0.1), CANVAS_H - 0.1 - h)
    return BBox(_r2(x), _r2(y), _r2(w), _r2(h))


# markers drawn as a polygon round their center: each vertex's distance as a
# fraction of the marker radius, and the first vertex's angle; the vertices
# are evenly spaced
_ROUND_MARKERS = {"star": ((1.0, 0.4) * 5, -math.pi / 2),
                  "pentagon": ((1.0,) * 5, -math.pi / 2),
                  "hexagon": ((1.0,) * 6, 0.0)}


class _Svg:
    """Tiny SVG writer with fixed number formatting."""

    def __init__(self):
        self.parts: List[str] = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{CANVAS_W}" '
            f'height="{CANVAS_H}" viewBox="0 0 {CANVAS_W} {CANVAS_H}">'
        ]

    @staticmethod
    def esc(text: str) -> str:
        return (text.replace("&", "&amp;").replace("<", "&lt;")
                .replace(">", "&gt;").replace('"', "&quot;"))

    def rect(self, x, y, w, h, fill="none", stroke=None):
        s = f'<rect x="{x:.2f}" y="{y:.2f}" width="{w:.2f}" height="{h:.2f}" fill="{fill}"'
        if stroke:
            s += f' stroke="{stroke}" stroke-width="1.00"'
        self.parts.append(s + "/>")

    def line(self, x1, y1, x2, y2, stroke="#000000", width=1.0, dash=None):
        s = (f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
             f'stroke="{stroke}" stroke-width="{width:.2f}"')
        if dash:
            s += f' stroke-dasharray="{dash}"'
        self.parts.append(s + "/>")

    def polyline(self, pts, stroke, dash=None):
        coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in pts)
        s = f'<polyline points="{coords}" fill="none" stroke="{stroke}" stroke-width="2.00"'
        if dash:
            s += f' stroke-dasharray="{dash}"'
        self.parts.append(s + "/>")

    def polygon(self, pts, fill):
        coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in pts)
        self.parts.append(f'<polygon points="{coords}" fill="{fill}"/>')

    def circle(self, cx, cy, r, fill):
        self.parts.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{r:.2f}" fill="{fill}"/>')

    def path(self, d, stroke):
        self.parts.append(f'<path d="{d}" stroke="{stroke}" stroke-width="2.00" fill="none"/>')

    def text(self, box, content, font_size, rotate=None):
        """Text centered in box under the fixed-metrics model: the
        baseline sits 0.35 * font_size below the box center.  It is black,
        SVG's default fill, so it carries no fill attribute."""
        cx, cy = box.x + box.w / 2, box.y + box.h / 2
        y = cy + 0.35 * font_size
        attrs = (f'x="{cx:.2f}" y="{y:.2f}" font-size="{font_size:.2f}" '
                 f'font-family="Helvetica, Arial, sans-serif" text-anchor="middle"')
        if rotate is not None:
            attrs += f' transform="rotate({rotate:.0f} {cx:.2f} {cy:.2f})"'
        self.parts.append(f"<text {attrs}>{self.esc(content)}</text>")

    def marker(self, shape: str, cx, cy, r, color):
        if shape == "circle":
            self.circle(cx, cy, r, color)
        elif shape == "square":
            self.rect(cx - r, cy - r, 2 * r, 2 * r, fill=color)
        elif shape == "triangle-up":
            self.polygon([(cx, cy - r), (cx - 0.87 * r, cy + 0.5 * r),
                          (cx + 0.87 * r, cy + 0.5 * r)], color)
        elif shape == "triangle-down":
            self.polygon([(cx, cy + r), (cx - 0.87 * r, cy - 0.5 * r),
                          (cx + 0.87 * r, cy - 0.5 * r)], color)
        elif shape == "diamond":
            self.polygon([(cx, cy - r), (cx + r, cy), (cx, cy + r), (cx - r, cy)], color)
        elif shape == "plus":
            self.path(f"M {cx - r:.2f} {cy:.2f} H {cx + r:.2f} "
                      f"M {cx:.2f} {cy - r:.2f} V {cy + r:.2f}", color)
        elif shape == "cross":
            d = 0.71 * r
            self.path(f"M {cx - d:.2f} {cy - d:.2f} L {cx + d:.2f} {cy + d:.2f} "
                      f"M {cx - d:.2f} {cy + d:.2f} L {cx + d:.2f} {cy - d:.2f}", color)
        else:  # StyleSpec bounds the index: the round markers are last
            radii, start = _ROUND_MARKERS[shape]
            angles = [start + 2 * i * math.pi / len(radii) for i in range(len(radii))]
            self.polygon([(cx + f * r * math.cos(a), cy + f * r * math.sin(a))
                          for f, a in zip(radii, angles)], color)

    def finish(self) -> bytes:
        self.parts.append("</svg>")
        return "\n".join(self.parts).encode("utf-8")


def _fit_font(text: str, font_size: float, max_w: float) -> float:
    """Shrink the font until the fixed-metrics width fits max_w."""
    w = 0.6 * font_size * len(text)
    if w <= max_w:
        return font_size
    return max_w / (0.6 * len(text))


def _series_trend(s: DataSeries) -> Optional[str]:
    if not s.temporal or len(s.y_values) < 3:
        return None
    return classify_trend(s.y_values).value


def _chart_category(temporal: bool, series_meta: List[SeriesMeta]) -> str:
    if not temporal:
        return "categorical"
    if any(sm.trend_class not in FLAT_CLASSES + (None,) for sm in series_meta):
        return "temporal-trend"
    return "temporal-random"


def render(spec: ChartSpec) -> Tuple[bytes, ChartMeta]:
    """Render a chart spec to (svg_bytes, meta).  Pure and deterministic.

    The layout is computed once in (category, value) coordinates; `xy`
    maps them to canvas (x, y), so a horizontal bar is a vertical bar with
    its axes swapped."""
    kind = spec.kind
    series = spec.series
    n_ser = len(series)
    k = len(series[0].x_labels)
    values = [v for s in series for v in s.y_values]
    if kind.is_bar and min(values) < 0:
        raise NegativeBarValueError(
            f"bar charts draw from zero; got negative value {min(values)}"
        )

    # value-axis ticks; bars anchor the axis at zero
    v_lo, v_hi = min(values), max(values)
    if kind.is_bar:
        v_lo = 0.0
    if v_lo == v_hi:
        v_lo, v_hi = v_lo - 1.0, v_hi + 1.0  # degenerate range padded
    vticks = nice_ticks(v_lo, v_hi, 5)
    vtick_labels = [_fmt_tick(t) for t in vticks]

    xy = _orient(kind)
    # the y axis's ticks sit on the plot's left edge, the x axis's below it
    cat_on_y, val_on_y = xy(False, True)
    cat_labels = series[0].x_labels

    # --- layout ---------------------------------------------------------
    title_fs = _fit_font(spec.title, TITLE_FS, CANVAS_W - 2 * MARGIN)
    title_w, title_h = estimate_text_bbox(spec.title, title_fs)
    title_bbox = _clamp_box((CANVAS_W - title_w) / 2, MARGIN, max(title_w, 1.0), title_h)

    ylab_fs = _fit_font(spec.y_label, AXIS_FS, CANVAS_H * 0.6)
    xlab_fs = _fit_font(spec.x_label, AXIS_FS, CANVAS_W * 0.7)
    ylab_w, ylab_h = estimate_text_bbox(spec.y_label, ylab_fs)
    xlab_w, xlab_h = estimate_text_bbox(spec.x_label, xlab_fs)

    _, left_tick_texts = xy(cat_labels, vtick_labels)
    max_left_w = max(estimate_text_bbox(t, TICK_FS)[0] for t in left_tick_texts)
    tick_h = 1.2 * TICK_FS

    plot_left = MARGIN + ylab_h + LABEL_GAP + max_left_w + TICK_GAP + TICK_LEN
    plot_right = CANVAS_W - RIGHT_PAD
    plot_top = MARGIN + title_h + TITLE_GAP
    plot_bottom = CANVAS_H - (MARGIN + xlab_h + TICK_GAP + tick_h + TICK_GAP + TICK_LEN)
    plot = BBox(_r2(plot_left), _r2(plot_top),
                _r2(plot_right - plot_left), _r2(plot_bottom - plot_top))

    # values grow up the canvas, or rightward when categories run down it
    if cat_on_y:
        axis = AxisTransform("x", vticks[0], vticks[-1], _r2(plot_left), _r2(plot_right))
        cat_lo, cat_hi = plot_top, plot_bottom
    else:
        axis = AxisTransform("y", vticks[0], vticks[-1], _r2(plot_bottom), _r2(plot_top))
        cat_lo, cat_hi = plot_left, plot_right
    slot = (cat_hi - cat_lo) / k
    cat_center = [cat_lo + (i + 0.5) * slot for i in range(k)]
    vtick_pos = [axis.to_canvas(t) for t in vticks]

    # --- meta: points -----------------------------------------------------
    series_meta: List[SeriesMeta] = []
    point_canvas: List[Tuple[float, float]] = []
    for si, s in enumerate(series):
        # two series' bars sit side by side within each category slot
        offset = (si - (n_ser - 1) / 2) * slot * 0.5 * 0.8 if kind.is_bar else 0.0
        pts: List[PointRecord] = []
        for i, v in enumerate(s.y_values):
            x, y = xy(cat_center[i] + offset, axis.to_canvas(v))
            pr = PointRecord(cat_labels[i], i, v, _r2(x), _r2(y))
            pts.append(pr)
            point_canvas.append((pr.x_canvas, pr.y_canvas))
        series_meta.append(SeriesMeta(s.series_name, _series_trend(s), pts))

    # --- legend -----------------------------------------------------------
    swatch_w, swatch_h = 16.0, 10.0
    name_ws = [estimate_text_bbox(s.series_name, LEGEND_FS)[0] for s in series]
    row_h = 16.0
    leg_w = 6 + swatch_w + 4 + max(name_ws) + 6
    leg_h = 5 + row_h * n_ser + 5

    def corner_box(corner: str) -> Tuple[float, float]:
        lx = plot_left + LEGEND_INSET if "left" in corner else plot_right - LEGEND_INSET - leg_w
        ly = plot_top + LEGEND_INSET if "top" in corner else plot_bottom - LEGEND_INSET - leg_h
        return lx, ly

    def overlap_count(lx: float, ly: float) -> int:
        return sum(1 for (px, py) in point_canvas
                   if lx <= px <= lx + leg_w and ly <= py <= ly + leg_h)

    # the corner covering the fewest points; ties go to the style's corner,
    # then to the first in LEGEND_POSITIONS
    preferred = spec.style.legend_position
    leg_x, leg_y = corner_box(min(LEGEND_POSITIONS, key=lambda c: (
        overlap_count(*corner_box(c)), c != preferred)))
    legend_bbox = _clamp_box(leg_x, leg_y, leg_w, leg_h)

    legend_entries: List[LegendEntry] = []
    for si, s in enumerate(series):
        row_y = legend_bbox.y + 5 + si * row_h
        marker_bbox = BBox(_r2(legend_bbox.x + 6), _r2(row_y + (row_h - swatch_h) / 2),
                           swatch_w, swatch_h)
        nw, nh = estimate_text_bbox(s.series_name, LEGEND_FS)
        name_bbox = BBox(_r2(legend_bbox.x + 6 + swatch_w + 4),
                         _r2(row_y + (row_h - nh) / 2), _r2(max(nw, 1.0)), _r2(nh))
        legend_entries.append(LegendEntry(s.series_name, name_bbox, marker_bbox))

    # --- draw -------------------------------------------------------------
    svg = _Svg()
    svg.rect(0, 0, CANVAS_W, CANVAS_H, fill="#FFFFFF")
    svg.rect(plot.x, plot.y, plot.w, plot.h, fill="none", stroke="#CCCCCC")
    for c in vtick_pos:
        svg.line(*xy(cat_lo, c), *xy(cat_hi, c), stroke="#E6E6E6")

    colors = [COLOR_PALETTE[ci][1] for ci in spec.style.colors]
    dash = _DASH_PATTERNS[spec.style.line_style]
    marker_name = MARKER_SHAPES[spec.style.marker_shape]
    zero_c = axis.to_canvas(max(vticks[0], 0.0)) if kind.is_bar else None

    for si, sm in enumerate(series_meta):
        color = colors[si]
        if kind is ChartKind.LINE:
            svg.polyline([(p.x_canvas, p.y_canvas) for p in sm.points], color, dash=dash)
            for p in sm.points:
                svg.circle(p.x_canvas, p.y_canvas, 3.0, color)
        elif kind is ChartKind.SCATTER:
            for p in sm.points:
                svg.marker(marker_name, p.x_canvas, p.y_canvas, 4.5, color)
        else:  # bars grow from the zero line; the swap is its own inverse
            bar_w = slot * spec.style.bar_thickness / n_ser
            for p in sm.points:
                c, v = xy(p.x_canvas, p.y_canvas)
                svg.rect(*xy(c - bar_w / 2, min(v, zero_c)), *xy(bar_w, abs(zero_c - v)),
                         fill=color)

    def ticks(labels, positions, tick_values, left: bool) -> List[TickMark]:
        """Draw tick marks and labels on the plot's left or bottom edge."""
        marks = []
        for lab, c, val in zip(labels, positions, tick_values):
            tw, th = estimate_text_bbox(lab, TICK_FS)
            tw = max(tw, 1.0)
            if left:
                svg.line(plot_left - TICK_LEN, c, plot_left, c)
                bb = _clamp_box(plot_left - TICK_LEN - TICK_GAP - tw, c - th / 2, tw, th)
            else:
                svg.line(c, plot_bottom, c, plot_bottom + TICK_LEN)
                bb = _clamp_box(c - tw / 2, plot_bottom + TICK_LEN + TICK_GAP, tw, th)
            svg.text(bb, lab, TICK_FS)
            marks.append(TickMark(lab, bb, val))
        return marks

    # axes and ticks on top of data
    svg.line(plot_left, plot_bottom, plot_right, plot_bottom, width=1.5)
    svg.line(plot_left, plot_top, plot_left, plot_bottom, width=1.5)
    years = _parse_years(cat_labels) if series[0].temporal else None
    cat_ticks = ticks(cat_labels, cat_center,
                      [float(y) for y in years] if years else [None] * k, cat_on_y)
    val_ticks = ticks(vtick_labels, vtick_pos, vticks, val_on_y)
    x_ticks, y_ticks = xy(cat_ticks, val_ticks)

    svg.text(title_bbox, spec.title, title_fs)
    xlab_bbox = _clamp_box(plot_left + (plot_right - plot_left - xlab_w) / 2,
                           CANVAS_H - MARGIN - xlab_h, max(xlab_w, 1.0), xlab_h)
    svg.text(xlab_bbox, spec.x_label, xlab_fs)
    # rotated y label: box dimensions swap
    ylab_bbox = _clamp_box(MARGIN, plot_top + (plot_bottom - plot_top - ylab_w) / 2,
                           ylab_h, max(ylab_w, 1.0))
    svg.text(ylab_bbox, spec.y_label, ylab_fs, rotate=-90)

    svg.rect(legend_bbox.x, legend_bbox.y, legend_bbox.w, legend_bbox.h,
             fill="#FFFFFF", stroke="#999999")
    for si, entry in enumerate(legend_entries):
        color = colors[si]
        mb = entry.marker_bbox
        mcx, mcy = mb.x + mb.w / 2, mb.y + mb.h / 2
        if kind is ChartKind.LINE:
            svg.line(mb.x, mcy, mb.x + mb.w, mcy, stroke=color, width=2.0, dash=dash)
            svg.circle(mcx, mcy, 2.5, color)
        elif kind is ChartKind.SCATTER:
            svg.marker(marker_name, mcx, mcy, 4.0, color)
        else:
            svg.rect(mb.x + 2, mb.y + 1, mb.w - 4, mb.h - 2, fill=color)
        svg.text(entry.name_bbox, entry.name, LEGEND_FS)

    meta = ChartMeta(
        image_index=spec.image_index,
        chart_kind=kind.value,
        category=_chart_category(series[0].temporal, series_meta),
        title=LabeledText(spec.title, title_bbox),
        x_label=LabeledText(spec.x_label, xlab_bbox),
        y_label=LabeledText(spec.y_label, ylab_bbox),
        y_unit=series[0].y_unit,
        x_ticks=x_ticks,
        y_ticks=y_ticks,
        legend=Legend(legend_bbox, legend_entries),
        series=series_meta,
        plot_area=plot,
        value_axis=axis,
    )
    return svg.finish(), meta
