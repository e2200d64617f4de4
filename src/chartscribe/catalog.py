"""Indicator/entity statistical data: file ingest, synthesis, sampling.

A catalog maps (indicator, entity, year) to a value, with per-indicator
value kinds constraining the range.  Catalogs come from a delimited file
pair (data + dictionary, both with versioned headers) or from the
deterministic synthesizer.  Series sampled from a catalog feed the chart
builder either raw or perturbed toward a requested trend class.
"""

import math
from collections.abc import Mapping
from dataclasses import dataclass, field, fields, replace
from itertools import combinations
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .rng import Rng, derive_seed
from .trend import (
    ParameterError,
    TrendClass,
    TrendSpec,
    synth_trend_series,
)

YEAR_MIN = 1950
YEAR_MAX = 2016
VALUE_CAP = 3.5e15

VALUE_KINDS = ("positive-integer", "float", "percentage")

# inclusive (lo, hi) per value kind
VALUE_KIND_BOUNDS = {
    "positive-integer": (0.0, VALUE_CAP),
    "float": (0.0, VALUE_CAP),
    "percentage": (0.0, 100.0),
}

DATA_HEADER = "# catalog-data v1"
DICT_HEADER = "# catalog-dict v1"

MIN_TICKS = 2
MAX_TICKS = 8

_TAG_INDICATOR = 0x494E4443
_TAG_PAIR = 0x50414952
_TAG_PERTURB = 0x50455254


class CatalogFormatError(ValueError):
    """Malformed catalog file; message carries file and line number."""


class InsufficientCoverageError(RuntimeError):
    """No (indicator, entity) pair in the catalog supports the request."""


@dataclass(frozen=True)
class Indicator:
    """A measured quantity: catalog id, display name, unit, value kind."""

    id: str
    name: str
    unit: str
    value_kind: str

    def __post_init__(self):
        if self.value_kind not in VALUE_KINDS:
            raise ParameterError(
                f"value_kind: unknown kind {self.value_kind!r} for indicator {self.id!r}"
            )

    @property
    def bounds(self) -> Tuple[float, float]:
        return VALUE_KIND_BOUNDS[self.value_kind]


@dataclass(frozen=True)
class Entity:
    """A place or group an indicator is measured for; never unnamed."""

    id: str
    name: str
    kind: str

    def __post_init__(self):
        if not self.name:
            raise ParameterError(f"name: entity {self.id!r} has an empty name")


@dataclass
class DataSeries:
    """A named sequence of chartable points.

    x_labels are year strings for temporal series and entity names for
    categorical ones; the temporal flag must agree with the labels.
    indicator_name/entity_kind/value_kind carry context the chart builder
    and the perturbation step need (titles, bound clipping).
    """

    series_name: str
    x_labels: List[str]
    y_values: List[float]
    y_unit: str
    temporal: bool
    indicator_name: str = ""
    entity_kind: str = ""
    value_kind: str = "float"

    def __post_init__(self):
        if len(self.x_labels) != len(self.y_values):
            raise ParameterError(
                f"x_labels: {len(self.x_labels)} labels vs {len(self.y_values)} values"
            )
        if not (MIN_TICKS <= len(self.x_labels) <= MAX_TICKS):
            raise ParameterError(
                f"x_labels: series length {len(self.x_labels)} outside [{MIN_TICKS}, {MAX_TICKS}]"
            )
        years = _parse_years(self.x_labels)
        if self.temporal and years is None:
            raise ParameterError("temporal: x_labels are not ordered years")
        if not self.temporal and years is not None:
            raise ParameterError("temporal: x_labels parse as ordered years, flag must be True")


def _parse_years(labels: Sequence[str]) -> Optional[List[int]]:
    """List of years if every label is an integer and they strictly
    increase, else None."""
    try:
        years = [int(lab) for lab in labels]
    except (TypeError, ValueError):
        return None
    if all(a < b for a, b in zip(years, years[1:])):
        return years
    return None


@dataclass
class Catalog:
    """Immutable-after-construction observation store.

    observations: (indicator_id, entity_id) -> {year: value}.  A dict's
    values are bound-checked against their indicator's value kind on
    construction (unless `load_catalog` checked them, row by row); a
    synthetic catalog's are in bounds by construction.
    `_index` (indicator -> {entity: covered years}) draws no values.
    """

    indicators: Dict[str, Indicator]
    entities: Dict[str, Entity]
    observations: Mapping[Tuple[str, str], Dict[int, float]]
    _index: Mapping[str, Mapping[str, Iterable[int]]] = field(
        default=None, init=False, repr=False, compare=False
    )
    _usable: Dict[Tuple[str, int], List[Tuple[str, List[List[int]]]]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _by_year: Dict[str, Dict[int, List[str]]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if isinstance(self.observations, _SynthObservations):
            self._index = self.observations.spans
            return
        index: Dict[str, Dict[str, Dict[int, float]]] = {}
        checked = isinstance(self.observations, _CheckedObservations)
        for key, by_year in self.observations.items():
            if not checked:
                _check_pair(self.indicators, self.entities, key, by_year)
            index.setdefault(key[0], {})[key[1]] = by_year
        self._index = {ind_id: dict(sorted(ents.items()))
                       for ind_id, ents in index.items()}

    def years_for(self, ind_id: str, ent_id: str) -> List[int]:
        return sorted(self._index.get(ind_id, {}).get(ent_id, ()))

    def covered_indicators(self) -> List[str]:
        return sorted(self._index)

    def entities_for(self, ind_id: str) -> List[str]:
        return list(self._index.get(ind_id, ()))

    def usable_runs(self, ind_id: str,
                    min_len: int) -> List[Tuple[str, List[List[int]]]]:
        """(entity id, its runs of consecutive years at least min_len long)
        for each entity of the indicator that has such a run, in entity
        order.  Computed once per (indicator, min_len); callers must not
        modify the result."""
        key = (ind_id, min_len)
        usable = self._usable.get(key)
        if usable is None:
            usable = []
            for ent_id in self.entities_for(ind_id):
                runs = [r for r in _runs(self.years_for(ind_id, ent_id))
                        if len(r) >= min_len]
                if runs:
                    usable.append((ent_id, runs))
            self._usable[key] = usable
        return usable

    def entities_by_year(self, ind_id: str) -> Dict[int, List[str]]:
        """year -> sorted ids of the entities the indicator covers in that
        year (sorted because `entities_for` is).  Computed once per
        indicator; callers must not modify it."""
        by_year = self._by_year.get(ind_id)
        if by_year is None:
            by_year = {}
            for ent_id, years in self._index.get(ind_id, {}).items():
                for y in years:
                    by_year.setdefault(y, []).append(ent_id)
            self._by_year[ind_id] = by_year
        return by_year


def _check_pair(indicators: Dict[str, Indicator], entities: Dict[str, Entity],
                key, by_year) -> None:
    ind_id, ent_id = key
    if ind_id not in indicators:
        raise CatalogFormatError(f"observation references unknown indicator {ind_id!r}")
    if ent_id not in entities:
        raise CatalogFormatError(f"observation references unknown entity {ent_id!r}")
    lo, hi = indicators[ind_id].bounds
    for year, value in by_year.items():
        if not (YEAR_MIN <= year <= YEAR_MAX):
            raise CatalogFormatError(
                f"year {year} outside [{YEAR_MIN}, {YEAR_MAX}] "
                f"for ({ind_id}, {ent_id})")
        if not (lo <= value <= hi):
            raise CatalogFormatError(
                f"value {value} outside [{lo}, {hi}] for "
                f"{indicators[ind_id].value_kind} indicator {ind_id!r}")


# ---------------------------------------------------------------------------
# file formats

def load_catalog(path) -> Catalog:
    """Read a catalog from its data file; the dictionary file is expected
    next to it with a .dict.csv suffix."""
    path = Path(path)
    dict_path = path.with_suffix(".dict.csv")
    for what, p in (("data", path), ("dictionary", dict_path)):
        if not p.exists():
            raise FileNotFoundError(f"catalog {what} file not found: {p}")

    indicators: Dict[str, Indicator] = {}
    entities: Dict[str, Entity] = {}
    # record type -> (row name, the class a row's fields make, its table)
    row_types = {"I": ("indicator", Indicator, indicators),
                 "E": ("entity", Entity, entities)}
    for lineno, row in _csv_rows(dict_path, DICT_HEADER):
        kind = row[0]
        if kind not in row_types:
            raise CatalogFormatError(
                f"{dict_path}:{lineno}: unknown record type {kind!r} (want I or E)"
            )
        what, cls, table = row_types[kind]
        n_fields = 1 + len(fields(cls))  # the record type, then the class's
        if len(row) != n_fields:
            raise CatalogFormatError(
                f"{dict_path}:{lineno}: {what} row needs {n_fields} fields")
        try:
            table[row[1]] = cls(*row[1:])
        except ParameterError as exc:
            raise CatalogFormatError(f"{dict_path}:{lineno}: {exc}") from exc

    observations = _CheckedObservations()
    for lineno, row in _csv_rows(path, DATA_HEADER):
        if len(row) != 4:
            raise CatalogFormatError(f"{path}:{lineno}: data row needs 4 fields, got {len(row)}")
        ind_id, ent_id, year_s, value_s = row
        try:
            year = int(year_s)
            value = float(value_s)
            _check_pair(indicators, entities, (ind_id, ent_id), {year: value})
        except ValueError as exc:  # CatalogFormatError is one
            raise CatalogFormatError(f"{path}:{lineno}: {exc}") from exc
        by_year = observations.setdefault((ind_id, ent_id), {})
        if year in by_year:
            raise CatalogFormatError(f"{path}:{lineno}: duplicate row for ({ind_id}, {ent_id}, {year})")
        by_year[year] = value

    return Catalog(indicators, entities, observations)


class _CheckedObservations(dict):
    """Observations that `load_catalog` checked row by row, where each
    row's line is known; `Catalog` does not check them again."""


def _csv_rows(path: Path, header: str) -> Iterator[Tuple[int, List[str]]]:
    """(line number, row) for each non-empty row of a catalog file after
    its header line; a file that is not UTF-8 CSV is a CatalogFormatError."""
    import csv  # only a file catalog reads or writes CSV
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            got = fh.readline().rstrip("\n")
            if got != header:
                raise CatalogFormatError(f"{path}:1: expected {header!r}, got {got!r}")
            for lineno, row in enumerate(csv.reader(fh), start=2):
                if row:
                    yield lineno, row
    except (UnicodeDecodeError, csv.Error) as exc:
        raise CatalogFormatError(f"{path}: not UTF-8 CSV: {exc}") from None


def write_catalog(catalog: Catalog, path) -> None:
    """Write the data file at path and the dictionary file next to it.
    Floats use repr, so load_catalog round-trips values exactly."""
    import csv
    path = Path(path)
    dict_path = path.with_suffix(".dict.csv")
    with open(dict_path, "w", newline="", encoding="utf-8") as fh:
        fh.write(DICT_HEADER + "\n")
        writer = csv.writer(fh)
        for ind in sorted(catalog.indicators.values(), key=lambda x: x.id):
            writer.writerow(["I", ind.id, ind.name, ind.unit, ind.value_kind])
        for ent in sorted(catalog.entities.values(), key=lambda x: x.id):
            writer.writerow(["E", ent.id, ent.name, ent.kind])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(DATA_HEADER + "\n")
        writer = csv.writer(fh)
        for (ind_id, ent_id) in sorted(catalog.observations):
            by_year = catalog.observations[(ind_id, ent_id)]
            for year in sorted(by_year):
                writer.writerow([ind_id, ent_id, year, repr(by_year[year])])


# ---------------------------------------------------------------------------
# synthesis

_SUBJECTS = [
    "coffee", "wheat", "rice", "maize", "steel", "aluminium", "copper",
    "cement", "timber", "cotton", "sugar", "beef", "poultry", "dairy",
    "fish", "crude oil", "natural gas", "coal", "electricity", "solar power",
    "wind power", "fertilizer", "plastic", "paper", "textile", "automobile",
    "bicycle", "smartphone", "computer", "semiconductor", "pharmaceutical",
    "chemical", "rubber", "glass", "footwear", "furniture", "wine", "beer",
    "tea", "cocoa", "banana", "citrus", "potato", "soybean", "palm oil",
    "tobacco", "gold", "silver", "iron ore", "nickel", "zinc", "tin",
    "lithium", "uranium", "freight", "passenger", "tourist", "internet",
    "mobile subscription", "broadband",
]

_MEASURES = [
    "production", "consumption", "exports", "imports", "reserves",
    "output", "sales", "usage", "trade volume", "investment",
    "capacity", "demand",
]

_PCT_MEASURES = [
    "growth rate", "market share", "employment share", "import share",
    "export share", "coverage rate", "adoption rate", "utilization rate",
]

_FLOAT_UNITS = ["kt", "tonnes", "million USD", "GWh", "thousand barrels",
                "billion cubic meters", "USD per capita", "kg per capita"]
_INT_UNITS = ["units", "people", "head", "vehicles", "devices", "subscriptions"]

# synth_catalog's indicator kinds: (the bound a kind draw falls below, the
# last above any; value kind; measures; units, or one string: a unit undrawn)
_SYNTH_KINDS = ((0.2, "percentage", _PCT_MEASURES, "%"),
                (0.6, "positive-integer", _MEASURES, _INT_UNITS),
                (1.0, "float", _MEASURES, _FLOAT_UNITS))

_COUNTRIES = [
    "Afghanistan", "Albania", "Algeria", "Angola", "Argentina", "Armenia",
    "Australia", "Austria", "Azerbaijan", "Bahrain", "Bangladesh", "Belarus",
    "Belgium", "Benin", "Bolivia", "Botswana", "Brazil", "Bulgaria",
    "Cambodia", "Cameroon", "Canada", "Chad", "Chile", "China", "Colombia",
    "Costa Rica", "Croatia", "Cuba", "Cyprus", "Denmark", "Ecuador", "Egypt",
    "Estonia", "Ethiopia", "Fiji", "Finland", "France", "Gabon", "Georgia",
    "Germany", "Ghana", "Greece", "Guatemala", "Guinea", "Haiti", "Honduras",
    "Hungary", "Iceland", "India", "Indonesia", "Iraq", "Ireland", "Israel",
    "Italy", "Jamaica", "Japan", "Jordan", "Kazakhstan", "Kenya", "Kuwait",
    "Laos", "Latvia", "Lebanon", "Liberia", "Libya", "Lithuania",
    "Luxembourg", "Madagascar", "Malawi", "Malaysia", "Mali", "Malta",
    "Mauritius", "Mexico", "Moldova", "Mongolia", "Morocco", "Mozambique",
    "Myanmar", "Namibia", "Nepal", "Netherlands", "New Zealand", "Nicaragua",
    "Niger", "Nigeria", "Norway", "Oman", "Pakistan", "Panama", "Paraguay",
    "Peru", "Philippines", "Poland", "Portugal", "Qatar", "Romania",
    "Rwanda", "Senegal", "Serbia", "Singapore", "Slovakia", "Slovenia",
    "Somalia", "South Africa", "Spain", "Sri Lanka", "Sudan", "Sweden",
    "Switzerland", "Tanzania", "Thailand", "Togo", "Tunisia", "Turkey",
    "Uganda", "Ukraine", "Uruguay", "Uzbekistan", "Venezuela", "Vietnam",
    "Yemen", "Zambia", "Zimbabwe",
]

_SPAN_MIN = 8
_SPAN_MAX = 40


def _slug(name: str) -> str:
    return name.lower().replace(" ", "-")


def synth_catalog(seed: int, n_indicators: int, n_entities: int,
                  coverage: float = 0.6) -> Catalog:
    """Deterministic synthetic catalog.

    Indicator names combine bundled subject and measure word lists; value
    magnitudes are log-uniform over the allowed range per indicator.  Each
    (indicator, entity) pair is covered with the given probability and, if
    covered, holds a contiguous span of at least 8 years, so any covered
    pair supports the full 2..8 tick range.  Spans and values are drawn
    as they are read (docs/catalog-format.md).
    """
    if n_indicators < 1:
        raise ParameterError(f"n_indicators: must be >= 1, got {n_indicators}")
    if n_entities < 1:
        raise ParameterError(f"n_entities: must be >= 1, got {n_entities}")
    max_names = len(_SUBJECTS) * (len(_MEASURES) + len(_PCT_MEASURES))
    if n_indicators > max_names:
        raise ParameterError(f"n_indicators: name pool supports at most {max_names}")

    roster = Rng(derive_seed(seed, _TAG_INDICATOR))
    indicators: Dict[str, Indicator] = {}
    while len(indicators) < n_indicators:
        r = roster.random()
        subject = roster.choice(_SUBJECTS)
        kind, measures, units = next(row[1:] for row in _SYNTH_KINDS
                                     if r < row[0])
        name = f"{subject} {roster.choice(measures)}"
        unit = units if isinstance(units, str) else roster.choice(units)
        ind_id = _slug(name)  # distinct names have distinct slugs
        if ind_id in indicators:
            continue
        indicators[ind_id] = Indicator(ind_id, name, unit, kind)

    entities: Dict[str, Entity] = {}
    pool = _COUNTRIES + [f"Territory {k}" for k in range(1, 1001)]
    for name in pool[:n_entities]:
        ent = Entity(_slug(name), name, "country")
        entities[ent.id] = ent

    observations = _SynthObservations(seed, coverage, list(indicators.values()),
                                      list(entities))
    return Catalog(indicators, entities, observations)


class _SynthSpans(Mapping):
    """indicator id -> {entity id: covered years}, entities sorted, of a
    synthetic catalog.  An indicator's coins and spans are drawn on its
    first lookup; listing the covered indicators draws each one's pairs up
    to its first covered pair."""

    def __init__(self, seed: int, coverage: float, ind_ids: List[str],
                 ent_ids: List[str]):
        # derive_seed folds word by word: each indicator's prefix is kept
        self._seeds = {ind_id: derive_seed(seed, _TAG_PAIR, i)
                       for i, ind_id in enumerate(ind_ids)}
        self._ent_pos = {ent_id: j for j, ent_id in enumerate(ent_ids)}
        self._coverage, self._drawn = coverage, {}
        self._covered = [ind_id for ind_id in ind_ids
                         if any(self.pair(ind_id, e)[1] for e in ent_ids)]

    def pair(self, ind_id: str, ent_id: str) -> Tuple[Rng, Optional[range]]:
        """The pair's stream after its coverage coin and span, and its years."""
        rng = Rng(derive_seed(self._seeds[ind_id], self._ent_pos[ent_id]))
        if rng.random() >= self._coverage:
            return rng, None
        span = _SPAN_MIN + rng.randint(_SPAN_MAX - _SPAN_MIN + 1)
        start = YEAR_MIN + rng.randint(YEAR_MAX - YEAR_MIN + 1 - span + 1)
        return rng, range(start, start + span)

    def __getitem__(self, ind_id):
        spans = self._drawn.get(ind_id)
        if spans is None:  # `pair` raises KeyError for an unknown indicator
            spans = self._drawn[ind_id] = {
                ent_id: years for ent_id in sorted(self._ent_pos)
                if (years := self.pair(ind_id, ent_id)[1])}
        if not spans:
            raise KeyError(ind_id)
        return spans

    def __iter__(self):
        return iter(self._covered)

    def __len__(self):
        return len(self._covered)


class _SynthObservations(Mapping):
    """(indicator id, entity id) -> {year: value} of a synthetic catalog.
    A pair's values are drawn on its first read, from its stream where
    `spans.pair` left it, so any read order gives the same values, each
    clamped into its value kind's bounds.  Iteration, `len` and `in` draw
    no values."""

    def __init__(self, seed: int, coverage: float, indicators: List[Indicator],
                 ent_ids: List[str]):
        self.spans = _SynthSpans(seed, coverage, [ind.id for ind in indicators],
                                 ent_ids)
        self._seed = seed
        self._indicators = {ind.id: (i, ind) for i, ind in enumerate(indicators)}
        self._values: Dict[Tuple[str, str], Dict[int, float]] = {}

    def __getitem__(self, key):
        by_year = self._values.get(key)
        if by_year is None:
            if key not in self:
                raise KeyError(key)
            i, ind = self._indicators[key[0]]
            rng, years = self.spans.pair(*key)
            by_year = {}
            if ind.value_kind == "percentage":
                v = 5.0 + 90.0 * rng.random()
                for year in years:
                    by_year[year] = v
                    v = min(100.0, max(0.0, v + (rng.random() - 0.5) * 6.0))
            else:
                scale = Rng(derive_seed(self._seed, _TAG_INDICATOR, i + 1)).random()
                v = math.exp(scale * math.log(VALUE_CAP)) * (0.5 + rng.random())
                for year in years:
                    out = min(VALUE_CAP, max(0.0, v))
                    if ind.value_kind == "positive-integer":
                        out = float(round(out))
                    by_year[year] = out
                    v = v * math.exp(0.08 * rng.normal())
            self._values[key] = by_year
        return by_year

    def __contains__(self, key):
        return isinstance(key, tuple) and len(key) == 2 and key[1] in self.spans.get(key[0], ())

    def __iter__(self):
        return ((ind_id, ent_id) for ind_id, ents in self.spans.items()
                for ent_id in ents)

    def __len__(self):
        return sum(map(len, self.spans.values()))


# ---------------------------------------------------------------------------
# sampling

def _runs(years: List[int]) -> List[List[int]]:
    """Maximal runs of consecutive years."""
    runs: List[List[int]] = []
    for y in years:
        if runs and runs[-1][-1] == y - 1:
            runs[-1].append(y)
        else:
            runs.append([y])
    return runs


def sample_series(catalog: Catalog, temporal: bool, arity: int, rng: Rng,
                  min_len: int = MIN_TICKS) -> List[DataSeries]:
    """Sample one or two series from the catalog.

    Temporal sampling picks consecutive covered years for one indicator
    and one or two entities; categorical sampling picks 2..8 entities at a
    single year.  min_len raises the lower bound on the point count
    (callers that will perturb toward a trend need longer series).
    """
    if arity not in (1, 2):
        raise ParameterError(f"arity: must be 1 or 2, got {arity}")
    if not (MIN_TICKS <= min_len <= MAX_TICKS):
        raise ParameterError(f"min_len: {min_len} outside [{MIN_TICKS}, {MAX_TICKS}]")
    ind_ids = catalog.covered_indicators()
    if not ind_ids:
        raise InsufficientCoverageError("catalog has no observations")
    sampler = _sample_temporal if temporal else _sample_categorical

    def candidates():
        # random picks first; exhaustive sorted scan as the fallback so a
        # sparse catalog still gets searched completely
        for _ in range(10):
            yield rng.choice(ind_ids)
        yield from ind_ids
    tried = set()
    for ind_id in candidates():
        if ind_id in tried:
            continue
        tried.add(ind_id)
        got = sampler(catalog, ind_id, arity, rng, min_len)
        if got is not None:
            return got
    raise InsufficientCoverageError(
        f"no indicator supports temporal={temporal} arity={arity} min_len={min_len}"
    )


def _draw_len(rng: Rng, min_len: int, n: int) -> int:
    """A series length from min_len up to n items, at most MAX_TICKS."""
    return min_len + rng.randint(min(MAX_TICKS, n) - min_len + 1)


def _indicator_series(ind: Indicator, name: str, labels: List[str],
                      values: List[float], temporal: bool,
                      entity_kind: str) -> DataSeries:
    """A sampled series of indicator ind, with its unit and value kind."""
    return DataSeries(series_name=name, x_labels=labels, y_values=values,
                      y_unit=ind.unit, temporal=temporal,
                      indicator_name=ind.name, entity_kind=entity_kind,
                      value_kind=ind.value_kind)


def _pair_candidates(n: int, rng: Rng) -> Iterator[Tuple[int, int]]:
    """Index pairs a < b of n >= 2 items for a sampler to try: 20 random
    pairs, each drawn only when the one before it failed, then every pair
    in order, so a sparse catalog still gets searched completely."""
    for _ in range(20):
        a, b = rng.sample(range(n), 2)
        yield min(a, b), max(a, b)
    yield from combinations(range(n), 2)


def _sample_temporal(catalog: Catalog, ind_id: str, arity: int, rng: Rng,
                     min_len: int) -> Optional[List[DataSeries]]:
    ind = catalog.indicators[ind_id]
    usable = catalog.usable_runs(ind_id, min_len)
    if arity == 1:
        if not usable:
            return None
        ent_id, runs = rng.choice(usable)
        ent_ids = [ent_id]
    else:
        if len(usable) < 2:
            return None
        # two entities whose year runs overlap
        for a, b in _pair_candidates(len(usable), rng):
            ya = set(catalog.years_for(ind_id, usable[a][0]))
            yb = set(catalog.years_for(ind_id, usable[b][0]))
            runs = [r for r in _runs(sorted(ya & yb)) if len(r) >= min_len]
            if runs:
                break
        else:
            return None
        ent_ids = [usable[a][0], usable[b][0]]
    run = rng.choice(runs)
    k = _draw_len(rng, min_len, len(run))
    start = rng.randint(len(run) - k + 1)
    years = run[start:start + k]
    rows = [catalog.observations[(ind_id, e)] for e in ent_ids]
    return [_indicator_series(ind, catalog.entities[e].name,
                              [str(y) for y in years], [row[y] for y in years],
                              True, catalog.entities[e].kind)
            for e, row in zip(ent_ids, rows)]


def _sample_categorical(catalog: Catalog, ind_id: str, arity: int, rng: Rng,
                        min_len: int) -> Optional[List[DataSeries]]:
    ind = catalog.indicators[ind_id]
    by_year = catalog.entities_by_year(ind_id)
    if arity == 1:
        years = sorted(y for y, ents in by_year.items() if len(ents) >= min_len)
        if not years:
            return None
        year = rng.choice(years)
        named_years, common = [(ind.name, year)], by_year[year]
    else:
        # one indicator at two years over a shared entity set
        years = sorted(by_year)
        if len(years) < 2:
            return None
        for a, b in _pair_candidates(len(years), rng):
            common = sorted(set(by_year[years[a]]) & set(by_year[years[b]]))
            if len(common) >= min_len:
                break
        else:
            return None
        named_years = [(f"{ind.name} ({years[i]})", years[i]) for i in (a, b)]
    k = _draw_len(rng, min_len, len(common))
    chosen = rng.sample(common, k)
    rows = [catalog.observations[(ind_id, e)] for e in chosen]
    return [_indicator_series(ind, name,
                              [catalog.entities[e].name for e in chosen],
                              [row[year] for row in rows], False,
                              catalog.entities[chosen[0]].kind)
            for name, year in named_years]


# ---------------------------------------------------------------------------
# perturbation

def perturb_to_trend(series: DataSeries, spec: TrendSpec, rng: Rng) -> DataSeries:
    """Replace y_values with a synthesized trend series rescaled into an
    envelope derived from the original values.

    The envelope is the original [min, max] when that range is wide enough
    for the classifier to see the shape; otherwise it is widened around
    the series mean (and for plateau it is always a narrow band around the
    mean, so the output reads as flat).  The envelope is clipped to the
    series' value-kind bounds before rescaling, which keeps every output
    value in bounds without distorting the shape.  An all-zero series is
    treated as sitting at unit level.
    """
    if spec.params.n_points != len(series.y_values):
        raise ParameterError(
            f"n_points: spec has {spec.params.n_points}, series has {len(series.y_values)}"
        )
    seed = derive_seed(rng.next_raw(), _TAG_PERTURB)
    path = synth_trend_series(spec, seed)

    mean = sum(series.y_values) / len(series.y_values)
    m = mean if mean > 0 else 1.0
    lo0, hi0 = min(series.y_values), max(series.y_values)
    rel = (hi0 - lo0) / m
    if spec.trend_class is TrendClass.PLATEAU:
        lo, hi = m * 0.985, m * 1.015
    elif rel < 0.06:
        lo, hi = m * 0.9, m * 1.1
    else:
        lo, hi = lo0, hi0
    blo, bhi = VALUE_KIND_BOUNDS[series.value_kind]
    lo, hi = max(lo, blo), min(hi, bhi)

    plo, phi = min(path), max(path)
    if phi > plo:
        scale = (hi - lo) / (phi - plo)
        values = [lo + (y - plo) * scale for y in path]
    else:
        values = [(lo + hi) / 2.0 for _ in path]

    return replace(series, x_labels=list(series.x_labels), y_values=values)
