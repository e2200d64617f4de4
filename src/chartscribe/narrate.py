"""Analytical text generation for rendered charts.

The pipeline is: extract a fact table from chart metadata, plan an ordered
sequence of rhetorical moves, then realize one template per move with every
slot filled from the fact table.  All randomness flows through a single Rng,
so a (chart, seed) pair always yields byte-identical text.  A chart's facts
are extracted once for all its variants, a template's text is split into
literal and slot pieces once per bank, and the applicable templates of a
move come from the bank's index.  The digit audit decides by set lookups:
a text passes when each of its digit-bearing words, stripped of ASCII
punctuation at both ends, is a fact word stripped so; only others tokenize.

Move tags and their ordering contract:

  M1    overview of what the chart shows          (obligatory, opens)
  M2    chart configuration remark                (optional, before any M3)
  M3    trend or comparison interpretation        (obligatory, >= 1)
  M3_1  numeric support for the preceding M3      (follows M3 or M3_1)
  M4    evaluative comment                        (optional, after an M3 block)
  M5    conclusion                                (obligatory, closes)
"""

import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import filterfalse
from operator import attrgetter
from typing import (Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Set,
                    Tuple)

from . import DEFAULT_VARIANTS
from .catalog import DataSeries
from .chartgen import CATEGORIES, ChartMeta, _codec
from .evalmetrics import tokenize
from .rng import Rng, derive_seed, TAG_DESCRIPTION
from .templatebank import Template, TemplateBank, query


class RealizationError(ValueError):
    """A template slot could not be filled from the available facts."""

    def __init__(self, slot: str, reason: str):
        super().__init__(f"slot {{{slot}}}: {reason}")
        self.slot = slot


class FactsConsistencyError(ValueError):
    """Chart metadata and the supplied raw series disagree."""


KIND_PHRASES = {
    "scatter": "scatter chart",
    "line": "line chart",
    "vertical-bar": "vertical bar chart",
    "horizontal-bar": "horizontal bar chart",
}

QUALIFIERS = ("about", "approximately", "nearly", "around")

# One phrase set per trend class.  Every phrase is unique across classes so
# a description can never be read as claiming a different trend than the
# classifier assigned.
TREND_PHRASES: Dict[str, Tuple[str, ...]] = {
    "linear-increase": (
        "a steady linear climb",
        "a consistent upward march",
        "a near-linear rise",
    ),
    "linear-decrease": (
        "a steady linear decline",
        "a consistent downward drift",
        "a near-linear fall",
    ),
    "convex-increase": (
        "an accelerating climb",
        "growth that steepens over time",
        "an ever-faster rise",
    ),
    "convex-decrease": (
        "a sharp initial drop that levels off",
        "a fall that flattens toward the end",
        "an easing decline",
    ),
    "concave-increase": (
        "a rapid early rise that levels off",
        "gains that taper toward the end",
        "a climb that flattens out",
    ),
    "concave-decrease": (
        "a slide that keeps steepening",
        "losses that accelerate toward the end",
        "an ever-faster drop",
    ),
    "random-fluctuation": (
        "an erratic up-and-down pattern",
        "volatile swings with no clear direction",
        "irregular fluctuations",
    ),
    "plateau": (
        "an essentially flat profile",
        "a stable plateau",
        "little to no movement",
    ),
}

# Keyed by the dominance relation as seen from the sentence's focal series.
COMPARISON_PHRASES: Dict[str, Tuple[str, ...]] = {
    "above": ("consistently higher than", "clearly ahead of"),
    "below": ("consistently lower than", "clearly behind"),
    "tie": ("exactly level with",),
    "mixed": ("trading places with", "crossing paths with"),
}

# each dominance as that relation, seen from the first series and the second
_RELATIONS = {"first": ("above", "below"), "second": ("below", "above"),
              "tie": ("tie", "tie"), "mixed": ("mixed", "mixed")}

# ---------------------------------------------------------------------------
# fact extraction


@dataclass(frozen=True)
class SeriesFacts:
    """Per-series values a template may reference."""

    name: str
    x_first: str
    x_last: str
    x_at_max: str  # label at the maximum value; ties keep the earliest
    x_at_min: str
    y_first: float
    y_last: float
    y_max: float
    y_min: float
    y_mean: float
    delta: float  # absolute change |y_last - y_first|
    trend_class: Optional[str]


@dataclass(frozen=True)
class ChartFacts:
    """Everything a template slot can print about one chart."""

    image_index: int
    category: str
    kind_phrase: str
    title: str
    x_label: str
    y_label: str
    unit: str
    n_categories: int
    entity_list: Tuple[str, ...]
    series: Tuple[SeriesFacts, ...]
    dominance: Optional[str]  # first | second | tie | mixed; None: one series

    @cached_property
    def fact_words(self) -> FrozenSet[str]:
        """The lowercased words of the fact texts `_slot_value` prints, each
        stripped of ASCII punctuation at both ends: such a mark is a token
        that never joins a digit, so a word's digit tokens are its core's.
        Every fact is text when the meta has no `meta_problems`."""
        texts = [*_chart_facts(self)]
        for sf in self.series:
            texts += _series_facts(sf)
            texts += (_plain_number(_round_2sf(v)) for v in _number_facts(sf))
        texts += self.entity_list
        texts.append(str(self.n_categories))
        return frozenset(word.strip(_PUNCTUATION)
                         for word in " ".join(texts).lower().split())

    @cached_property
    def digit_tokens(self) -> FrozenSet[str]:
        """The digit-bearing tokens of the fact words, from one `tokenize`."""
        return frozenset(_digit_tokens(" ".join(self.fact_words)))


def _check_consistency(meta: ChartMeta, series: Sequence[DataSeries]) -> None:
    if len(series) != len(meta.series):
        raise FactsConsistencyError(
            f"series: metadata has {len(meta.series)} series, got {len(series)}"
        )
    for i, (sm, ds) in enumerate(zip(meta.series, series)):
        if sm.name != ds.series_name:
            raise FactsConsistencyError(
                f"series[{i}]: name {ds.series_name!r} != metadata {sm.name!r}"
            )
        labels = [p.x_label for p in sm.points]
        values = [p.value for p in sm.points]
        if labels != list(ds.x_labels):
            raise FactsConsistencyError(f"series[{i}]: x labels disagree")
        if values != list(ds.y_values):
            raise FactsConsistencyError(f"series[{i}]: y values disagree")


def extract_facts(meta: ChartMeta,
                  series: Optional[Sequence[DataSeries]] = None) -> ChartFacts:
    """Build the fact table for one chart.

    Works from metadata alone, which `meta_problems` must pass; passing
    the raw series additionally verifies that metadata and data agree.
    Axis labels are normalized so y_label is always the value axis,
    whatever the chart orientation.
    """
    if series is not None:
        _check_consistency(meta, series)
    if meta.value_axis.orientation == "x":
        value_label, cat_label = meta.x_label.text, meta.y_label.text
    else:
        value_label, cat_label = meta.y_label.text, meta.x_label.text

    per_series: List[SeriesFacts] = []
    for sm in meta.series:
        values = [p.value for p in sm.points]
        labels = [p.x_label for p in sm.points]
        n = len(values)
        imax = max(range(n), key=values.__getitem__)
        imin = min(range(n), key=values.__getitem__)
        per_series.append(SeriesFacts(
            name=sm.name,
            x_first=labels[0],
            x_last=labels[-1],
            x_at_max=labels[imax],
            x_at_min=labels[imin],
            y_first=values[0],
            y_last=values[-1],
            y_max=values[imax],
            y_min=values[imin],
            y_mean=sum(values) / n,
            delta=abs(values[-1] - values[0]),
            trend_class=sm.trend_class,
        ))

    dominance: Optional[str] = None
    if len(meta.series) == 2:
        diffs = [p.value - q.value
                 for p, q in zip(meta.series[0].points, meta.series[1].points)]
        if all(d == 0 for d in diffs):
            dominance = "tie"
        elif all(d >= 0 for d in diffs):
            dominance = "first"
        elif all(d <= 0 for d in diffs):
            dominance = "second"
        else:
            dominance = "mixed"

    first = meta.series[0]
    return ChartFacts(
        image_index=meta.image_index,
        category=meta.category,
        kind_phrase=KIND_PHRASES[meta.chart_kind],
        title=meta.title.text,
        x_label=cat_label,
        y_label=value_label,
        unit=meta.y_unit,
        n_categories=len(first.points),
        entity_list=tuple(p.x_label for p in first.points),
        series=tuple(per_series),
        dominance=dominance,
    )


# ---------------------------------------------------------------------------
# number formatting


def _round_2sf(v: float) -> float:
    if v == 0:
        return 0.0
    return round(v, 1 - int(math.floor(math.log10(abs(v)))))


def _trim(v: float) -> str:
    if float(v).is_integer():
        return str(int(v))
    return f"{v:.12f}".rstrip("0").rstrip(".")


_SCALES = (
    (1e15, "quadrillion"),
    (1e12, "trillion"),
    (1e9, "billion"),
    (1e6, "million"),
)


def _plain_number(v: float) -> str:
    """Render an already-rounded value: large magnitudes get a scale word,
    five-digit integers get thousands separators, the rest print bare."""
    a = abs(v)
    for scale, word in _SCALES:
        if a >= scale:
            return f"{_trim(v / scale)} {word}"
    if a >= 1e4 and float(v).is_integer():
        return f"{int(v):,}"
    return _trim(v)


def format_number(value: float, rng: Rng) -> str:
    """Round to two significant figures; when rounding moved the value,
    prepend a sampled approximation qualifier so the text never overstates
    its own precision."""
    if not math.isfinite(value):
        raise ValueError(f"value: expected a finite number, got {value!r}")
    rounded = _round_2sf(float(value))
    text = _plain_number(rounded)
    if abs(rounded - value) > 1e-12 * max(1.0, abs(value)):
        text = f"{rng.choice(QUALIFIERS)} {text}"
    return text


# ---------------------------------------------------------------------------
# move planning


@dataclass(frozen=True)
class PlanParams:
    """Tunable knobs of the move planner.

    The defaults reproduce the standard behavior: optional moves appear
    with probability one half and both repeat counts are uniform on {1, 2}.
    """

    p_move2: float = 0.5
    p_move4: float = 0.5
    m3_min: int = 1
    m3_max: int = 2
    m31_min: int = 1
    m31_max: int = 2

    def __post_init__(self):
        for name in ("p_move2", "p_move4"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name}: probability {p} outside [0, 1]")
        for lo_name, hi_name in (("m3_min", "m3_max"), ("m31_min", "m31_max")):
            lo, hi = getattr(self, lo_name), getattr(self, hi_name)
            if not 1 <= lo <= hi:
                raise ValueError(
                    f"{lo_name}/{hi_name}: need 1 <= {lo} <= {hi}")


DEFAULT_PLAN_PARAMS = PlanParams()


def plan_moves(category: str, rng: Rng, n_series: int = 1,
               params: PlanParams = DEFAULT_PLAN_PARAMS
               ) -> Tuple[Tuple[str, int], ...]:
    """Draw a move sequence: one (move, target) step per sentence, the
    target being the index of the series the sentence focuses on.

    Fixed draw order: the M2 coin, the M3 block counts (one per series for
    temporal charts, a single total for categorical), one M3_1 count per
    block, the M4 coin, and finally the block the M4 closes.  Temporal charts
    walk their series in order; categorical blocks alternate focus.
    """
    if category not in CATEGORIES:
        raise ValueError(f"category: unknown category {category!r}")
    if n_series not in (1, 2):
        raise ValueError(f"n_series: expected 1 or 2, got {n_series}")

    def draw_count(lo: int, hi: int) -> int:
        return lo + rng.randint(hi - lo + 1)

    steps: List[Tuple[str, int]] = [("M1", 0)]
    if rng.random() < params.p_move2:
        steps.append(("M2", 0))

    block_focus: List[int] = []
    if category.startswith("temporal"):
        for s in range(n_series):
            for _ in range(draw_count(params.m3_min, params.m3_max)):
                block_focus.append(s)
    else:
        for b in range(draw_count(params.m3_min, params.m3_max)):
            block_focus.append(b % n_series)

    blocks: List[List[Tuple[str, int]]] = []
    for focus in block_focus:
        entry = [("M3", focus)]
        entry.extend(("M3_1", focus)
                     for _ in range(draw_count(params.m31_min, params.m31_max)))
        blocks.append(entry)

    if rng.random() < params.p_move4:
        entry = rng.choice(blocks)
        entry.append(("M4", entry[0][1]))

    for entry in blocks:
        steps += entry
    steps.append(("M5", 0))
    return tuple(steps)


# ---------------------------------------------------------------------------
# realization


def _oxford_join(items: Sequence[str]) -> str:
    if not items:
        return ""
    if len(items) == 1:
        return items[0]
    if len(items) == 2:
        return f"{items[0]} and {items[1]}"
    return ", ".join(items[:-1]) + f", and {items[-1]}"


def _comparison_phrase(facts: ChartFacts, series_index: int, rng: Rng) -> str:
    if facts.dominance is None:
        raise RealizationError("comparison_phrase", "chart has a single series")
    key = _RELATIONS[facts.dominance][series_index]
    return rng.choice(COMPARISON_PHRASES[key])


# the slots `format_number` fills, each from its namesake SeriesFacts field
NUMBER_SLOTS = ("y_first", "y_last", "y_max", "y_min", "y_mean", "delta")

# slot -> the ChartFacts, or focal SeriesFacts, field it prints as it is;
# the digit audit reads each table's fields with one getter
_CHART_SLOTS = {"title": "title", "x_label": "x_label", "y_label": "y_label",
                "unit": "unit", "chart_kind_phrase": "kind_phrase"}
_SERIES_SLOTS = {"series_name": "name", "x_first": "x_first",
                 "x_last": "x_last", "x_at_max": "x_at_max", "x_at_min": "x_at_min"}
_chart_facts = attrgetter(*_CHART_SLOTS.values())
_series_facts = attrgetter(*_SERIES_SLOTS.values())
_number_facts = attrgetter(*NUMBER_SLOTS)
# `string.punctuation`, without loading `string`: the ASCII punctuation the
# digit audit strips from both ends of a word
_PUNCTUATION = "!\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~"


def _slot_value(slot: str, facts: ChartFacts, series_index: int, rng: Rng) -> str:
    if not 0 <= series_index < len(facts.series):
        raise RealizationError(slot, f"series index {series_index} out of range")
    sf = facts.series[series_index]

    if slot in _CHART_SLOTS:
        return getattr(facts, _CHART_SLOTS[slot])
    if slot in _SERIES_SLOTS:
        return getattr(sf, _SERIES_SLOTS[slot])
    if slot == "series_name_2":
        if len(facts.series) < 2:
            raise RealizationError(slot, "chart has a single series")
        return facts.series[1 - series_index].name
    if slot in NUMBER_SLOTS:
        return format_number(getattr(sf, slot), rng)
    if slot == "trend_phrase":
        if sf.trend_class is None:
            raise RealizationError(slot, f"series {sf.name!r} has no trend class")
        return rng.choice(TREND_PHRASES[sf.trend_class])
    if slot == "comparison_phrase":
        return _comparison_phrase(facts, series_index, rng)
    if slot == "n_categories":
        return str(facts.n_categories)
    if slot == "entity_list":
        return _oxford_join(facts.entity_list)
    raise RealizationError(slot, "not a recognized slot")


def realize(template: Template, facts: ChartFacts, series_index: int,
            rng: Rng) -> str:
    """Fill every slot of a template; slots are filled left to right so the
    rng draw order is fixed.  Whitespace runs collapse to one space, and a
    '%' that follows a number slot's value past whitespace only joins it:
    "{y_max} {unit}" reads "45%", while "in {unit}" stays "in %"."""
    pieces = list(template.pieces)
    for i in range(1, len(pieces), 2):
        pieces[i] = _slot_value(pieces[i], facts, series_index, rng)
    text = "".join(pieces)
    if "%" in text:
        for i in range(len(pieces) - 2, 0, -2):
            if template.pieces[i] in NUMBER_SLOTS:
                rest = "".join(pieces[i + 1:]).lstrip()
                if rest[:1] == "%":
                    pieces[i + 1:] = [rest]
        text = "".join(pieces)
    text = " ".join(text.split())
    if text and text[0].islower():
        text = text[0].upper() + text[1:]
    return text


# ---------------------------------------------------------------------------
# descriptions


class Sentence(NamedTuple):
    """One realized sentence: its move, the template it came from, its text."""

    move: str
    template_id: str
    text: str


@dataclass(frozen=True)
class Description:
    """One description of a chart: its variant's sentences, in move order,
    and their texts joined by spaces, which eval scores.  Its fields, in
    order, are the keys of its JSON line."""

    image_index: int
    variant_index: int
    sentences: Tuple[Sentence, ...]
    text: str

    @property
    def moves(self) -> Tuple[str, ...]:
        return tuple(s.move for s in self.sentences)

    def to_json_line(self) -> str:
        return json.dumps(_codec(Description)[0](self), ensure_ascii=False)

    @classmethod
    def from_json_line(cls, line: str) -> "Description":
        desc = _codec(cls)[1](json.loads(line))
        if not all(isinstance(v, str) for s in desc.sentences for v in s):
            raise ValueError("sentence move, template_id and text must be "
                             "strings")
        return desc


def generate_description(meta: ChartMeta,
                         series: Optional[Sequence[DataSeries]],
                         bank: TemplateBank,
                         variant_index: int,
                         rng: Rng,
                         params: PlanParams = DEFAULT_PLAN_PARAMS) -> Description:
    """One move-structured description for one chart.

    Per move the applicable templates are queried with the focal series'
    trend class; templates already used in this description are avoided
    until the pool runs dry.
    """
    return _describe(extract_facts(meta, series), bank, variant_index, rng,
                     params)


def _describe(facts: ChartFacts, bank: TemplateBank, variant_index: int,
              rng: Rng, params: PlanParams) -> Description:
    arity = len(facts.series)
    used: Set[str] = set()
    sentences: List[Sentence] = []
    for move, target in plan_moves(facts.category, rng, n_series=arity,
                                   params=params):
        trend = facts.series[target].trend_class
        hits = query(bank, move, facts.category, trend, arity)
        if move == "M1" and arity == 2:
            # the opening overview of a comparison chart must name both
            # series, so arity-exact templates win when available
            exact = [t for t in hits if t.series_arity == 2]
            hits = exact if exact else hits
        fresh = [t for t in hits if t.id not in used]
        pool = fresh if fresh else hits
        template = rng.choice(pool)
        used.add(template.id)
        sentences.append(Sentence(move, template.id,
                                  realize(template, facts, target, rng)))
    return Description(facts.image_index, variant_index, tuple(sentences),
                       " ".join(s.text for s in sentences))


def generate_description_set(meta: ChartMeta,
                             series: Optional[Sequence[DataSeries]],
                             bank: TemplateBank,
                             rng: Rng,
                             n_variants: int = DEFAULT_VARIANTS,
                             params: PlanParams = DEFAULT_PLAN_PARAMS,
                             ) -> List[Description]:
    """Up to n_variants descriptions for one chart, deduplicated on exact
    text; at least one always survives.  The facts are extracted (and
    checked against the series) once for every variant."""
    if n_variants < 1:
        raise ValueError(f"n_variants: must be >= 1, got {n_variants}")
    base = rng.next_raw()
    facts = extract_facts(meta, series)
    out: List[Description] = []
    seen: Set[str] = set()
    for v in range(n_variants):
        sub = Rng(derive_seed(base, TAG_DESCRIPTION, v))
        desc = _describe(facts, bank, v, sub, params)
        if desc.text not in seen:
            seen.add(desc.text)
            out.append(desc)
    return out


def baseline_generate(meta: ChartMeta,
                      series: Optional[Sequence[DataSeries]],
                      bank: TemplateBank,
                      rng: Rng) -> Description:
    """Unstructured control: sample templates with replacement from every
    move's applicable pool, ignoring move order entirely."""
    facts = extract_facts(meta, series)
    arity = len(facts.series)
    k = 4 + rng.randint(7)
    sentences: List[Sentence] = []
    for _ in range(k):
        target = rng.randint(arity)
        trend = facts.series[target].trend_class
        pool = [
            t for t in bank.templates
            if t.matches(t.move, facts.category, trend, arity)
        ]
        template = rng.choice(pool)
        sentences.append(Sentence(template.move, template.id,
                                  realize(template, facts, target, rng)))
    return Description(meta.image_index, 0, tuple(sentences),
                       " ".join(s.text for s in sentences))


# ---------------------------------------------------------------------------
# validity checks


_MOVE_RANK = {"M1": 0, "M2": 1, "M3": 2, "M3_1": 2, "M4": 2, "M5": 3}


def check_move_order(moves: Sequence[str]) -> List[str]:
    """Return every move-order violation; an empty list means valid."""
    violations: List[str] = []
    if not moves:
        return ["description has no sentences"]
    for m in moves:
        if m not in _MOVE_RANK:
            violations.append(f"unknown move tag {m!r}")
    if violations:
        return violations
    if moves[0] != "M1":
        violations.append("does not open with an M1 overview")
    if "M1" in moves[1:]:
        violations.append("M1 appears after the opening position")
    if moves[-1] != "M5":
        violations.append("does not close with an M5 conclusion")
    if "M5" in moves[:-1]:
        violations.append("M5 appears before the final position")
    if "M3" not in moves:
        violations.append("contains no M3 interpretation")
    prev = -1
    for i, m in enumerate(moves):
        rank = _MOVE_RANK[m]
        if rank < prev:
            violations.append(f"{m} at position {i} follows a later-stage move")
        prev = max(prev, rank)
    for i, m in enumerate(moves):
        if m == "M3_1" and (i == 0 or moves[i - 1] not in ("M3", "M3_1")):
            violations.append(f"M3_1 at position {i} does not follow an M3")
    if "M4" in moves:
        first_m4 = moves.index("M4")
        if "M3" not in moves[:first_m4]:
            violations.append("M4 appears before any M3")
    return violations


def _has_digit(tok: str) -> bool:
    # a letter is never a digit, so an all-letter token needs no scan
    return not tok.isalpha() and any(map(str.isdigit, tok))


def _digit_tokens(text: str) -> List[str]:
    """The digit-bearing tokens of text, in order, from one `tokenize`
    call."""
    return [tok for tok in tokenize(text) if _has_digit(tok)]


def hallucination_check(text: str, facts: ChartFacts) -> List[str]:
    """Digit-bearing tokens in the text that match no value in the facts,
    in text order.  The text is tokenized only when one of its words that
    holds a digit, stripped as the fact words are, is not a fact word."""
    words = {word.strip(_PUNCTUATION)
             for word in filterfalse(str.isalpha, text.lower().split())}
    if not any(map(_has_digit, words - facts.fact_words)):
        return []
    allowed = facts.digit_tokens
    return [tok for tok in _digit_tokens(text) if tok not in allowed]
