"""Corpus assembly: configuration, per-record generation, manifest, checks.

A corpus is a directory of per-chart triples plus a root manifest:

    charts/NNNNNN.svg          rendered chart
    meta/NNNNNN.json           ground-truth metadata
    descriptions/NNNNNN.txt    JSON lines, one description per line
    manifest.json              config echo, cell grid, per-record index

Determinism contract: the corpus bytes are a pure function of the config.
Each record's seed mixes (global seed, category code, kind code, position
within the cell), so any record can be regenerated in isolation and records
can be built concurrently.

`validate_corpus` reads each record's three files once, as bytes, and
checks everything from those bytes: the SVG with a namespace-aware expat
parser that gives ElementTree's verdict and message without building a
tree, the meta and description JSON, the stored description text against
its sentences, the move order, and the digit audit.  The digit audit runs
once over all of a record's description lines, whose variants repeat most
words, and line by line only when that finds a foreign token, so each
message keeps its line number.  Each distinct move sequence is checked once
per call.  The manifest must be what generate writes for its config.
"""

import contextlib
import json
import math
import os
import re
import stat
import sys
from bisect import bisect_right
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property
from itertools import accumulate
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .catalog import (
    Catalog, DataSeries, load_catalog, perturb_to_trend, sample_series,
    synth_catalog,
)
from .chartgen import (CATEGORIES, KINDS, ChartKind, ChartMeta, render,
                       build_chart_spec, meta_problems, _a)
from .narrate import (
    DEFAULT_PLAN_PARAMS, DEFAULT_VARIANTS, PlanParams, Description,
    check_move_order, extract_facts, generate_description_set,
    hallucination_check,
)
from .rng import (
    Rng, TAG_DESCRIPTION, TAG_RETRY, TAG_TREND_RESAMPLE, derive_seed,
)
from .templatebank import TemplateBank, load_bank, load_default_bank
from .trend import (
    DIRECTIONAL_CLASSES, FLAT_CLASSES, TrendClass, TrendUnrealizableError,
    classify_trend, preset,
)


def __getattr__(name: str):
    # the pool (multiprocessing, pickle, sockets) loads on first use; it is
    # looked up on the module, so a class a test or tracer sets is used
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# the corpus format generate writes and regenerate_record reproduces;
# validate also reads version 1, whose bytes version 2 changed
FORMAT_VERSION = 2
VALIDATED_VERSIONS = (1, 2)
MANIFEST_NAME = "manifest.json"
# a manifest's members, in generate's order, and the JSON before a value
_MANIFEST_KEYS = ("format_version", "config", "totals", "cells", "records")
_MEMBER = re.compile(r'[ \t\n\r]*([{,])[ \t\n\r]*("(?:[^"\\]|\\.)*")'
                     r'[ \t\n\r]*:[ \t\n\r]*')
BUILTIN_BANK = "builtin"  # the template_bank value naming the packaged bank

# seed words of the record streams: position in CATEGORIES and KINDS, from 1
CATEGORY_CODES = {category: i for i, category in enumerate(CATEGORIES, 1)}
KIND_CODES = {kind: i for i, kind in enumerate(KINDS, 1)}

# default chart grid: category rows x kind columns
DEFAULT_CELL_COUNTS: Dict[Tuple[str, str], int] = {
    ("temporal-trend", "line"): 880,
    ("temporal-trend", "horizontal-bar"): 480,
    ("temporal-trend", "vertical-bar"): 880,
    ("temporal-trend", "scatter"): 880,
    ("temporal-random", "line"): 1049,
    ("temporal-random", "horizontal-bar"): 676,
    ("temporal-random", "vertical-bar"): 1049,
    ("temporal-random", "scatter"): 1049,
    ("categorical", "line"): 951,
    ("categorical", "horizontal-bar"): 436,
    ("categorical", "vertical-bar"): 951,
    ("categorical", "scatter"): 951,
}

# trend cells need room for curvature to register; random cells do not
TREND_MIN_LEN = 5
RANDOM_MIN_LEN = 3

_TAG_CATALOG = 0x4341544C  # catalog-construction seed word
_PERTURB_ATTEMPTS = 8
_RAW_SAMPLE_ATTEMPTS = 40
_RECORD_ATTEMPTS = 6  # first try plus five retries

_SYNTH_RE = re.compile(r"^synthetic\(\s*(\d+)\s*,\s*(\d+)\s*\)$")


class ConfigError(ValueError):
    """Malformed corpus configuration."""


class ManifestError(ValueError):
    """A manifest whose config `stats`, `regenerate_record` or `eval
    --by-kind` cannot read."""


class CorpusGenerationError(RuntimeError):
    """A record kept failing after every retry."""


class _RecordError(RuntimeError):
    """One record attempt failed; the caller retries with a fresh seed."""


@dataclass(frozen=True)
class CorpusConfig:
    """Everything generate_corpus needs; the manifest echoes it verbatim."""

    seed: int
    output_dir: str = "corpus_out"
    cell_counts: Dict[Tuple[str, str], int] = field(
        default_factory=lambda: dict(DEFAULT_CELL_COUNTS))
    count_scale: float = 1.0
    catalog_source: str = "synthetic(24, 30)"
    template_bank: str = BUILTIN_BANK
    descriptions_per_chart: int = DEFAULT_VARIANTS
    plan_params: PlanParams = DEFAULT_PLAN_PARAMS

    def __post_init__(self):
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError(f"seed: {self.seed} outside 64-bit range")
        if not 0 < self.count_scale < math.inf:  # nan fails both
            raise ConfigError(
                f"count_scale: must be finite and > 0, got {self.count_scale}")
        if self.descriptions_per_chart < 1:
            raise ConfigError("descriptions_per_chart: must be >= 1")
        for (category, kind), count in self.cell_counts.items():
            if category not in CATEGORIES or kind not in KINDS:
                raise ConfigError(f"cell_counts: unknown cell {category}/{kind}")
            if count < 0:
                raise ConfigError(f"cell_counts: {category}/{kind} count {count} < 0")

    def scaled_count(self, category: str, kind: str) -> int:
        """Per-cell count under count_scale: floor, but never below 1."""
        base = self.cell_counts.get((category, kind), 0)
        if base == 0:
            return 0
        return max(1, math.floor(base * self.count_scale))

    def to_dict(self) -> dict:
        # output_dir is deliberately not echoed: the corpus bytes must not
        # depend on where the corpus lives
        doc = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name != "output_dir"}
        doc["cell_counts"] = {
            f"{category}/{kind}": count
            for (category, kind), count in sorted(self.cell_counts.items())
        }
        doc["plan_params"] = asdict(self.plan_params)
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "CorpusConfig":
        cells = {tuple(key.split("/", 1)): _echoed(int, key, count)
                 for key, count in doc["cell_counts"].items()}
        params = {key: _echoed(type(getattr(DEFAULT_PLAN_PARAMS, key)), key, value)
                  for key, value in doc.get("plan_params", {}).items()}
        return cls(cell_counts=cells, plan_params=PlanParams(**params),
                   **{f.name: _echoed(f.type, f.name, doc[f.name])
                      for f in _SCALAR_FIELDS if f.name in doc})


def _echoed(cast, name: str, value):
    """value, when JSON gives it cast's type (an int passes as a float)."""
    if type(value) is not cast and (cast, type(value)) != (float, int):
        raise TypeError(f"{name}: {value!r} is not of type {cast.__name__}")
    return cast(value)


# the settings held as one plain value, each read by casting to its type;
# the defaults of every setting are the field defaults above
_SCALAR_FIELDS = tuple(f for f in fields(CorpusConfig)
                       if f.type in (int, float, str))

# the keys a config section may set; [cells] keys are cells, checked as the
# grid is
_SECTION_KEYS = {"corpus": {f.name for f in _SCALAR_FIELDS},
                 "generator": {f.name for f in fields(PlanParams)},
                 "cells": None}


def default_config(seed: int,
                   output_dir: str = CorpusConfig.output_dir) -> CorpusConfig:
    return CorpusConfig(seed=seed, output_dir=output_dir)


def _config_value(cast, section: str, key: str, value: str):
    try:
        return cast(value)
    except ValueError:
        kind = "an integer" if cast is int else "a number"
        raise ConfigError(
            f"config: [{section}] {key} = {value!r} is not {kind}") from None


def load_config(path) -> CorpusConfig:
    """Read an INI config file; see docs/config.md for the commented example."""
    import configparser

    parser = configparser.ConfigParser()
    try:
        read = parser.read(str(path))
    except (configparser.Error, UnicodeDecodeError) as exc:
        detail = "; ".join(str(exc).splitlines())
        raise ConfigError(f"config: {path} does not parse: {detail}") from None
    if not read:
        raise ConfigError(f"config: cannot read {path}")
    if parser.defaults():  # configparser copies them into every section
        raise ConfigError(f"config: unknown section [{parser.default_section}]")
    for name in parser.sections():
        if name not in _SECTION_KEYS:
            raise ConfigError(f"config: unknown section [{name}]")
        allowed = _SECTION_KEYS[name]
        unknown = [key for key in parser[name]
                   if allowed is not None and key not in allowed]
        if unknown:
            raise ConfigError(f"config: unknown key in [{name}]: "
                              f"{', '.join(unknown)}")
    if "corpus" not in parser:
        raise ConfigError("config: missing [corpus] section")
    corpus = parser["corpus"]
    if "seed" not in corpus:
        raise ConfigError("config: [corpus] must set seed")
    generator = parser["generator"] if "generator" in parser else {}

    cells = dict(DEFAULT_CELL_COUNTS)
    if "cells" in parser:
        for key, value in parser["cells"].items():
            if "." not in key:
                raise ConfigError(f"config: cell key {key!r} is not category.kind")
            category, kind = key.rsplit(".", 1)
            cells[(category, kind)] = _config_value(int, "cells", key, value)

    plan_kwargs = {
        param.name: _config_value(type(param.default), "generator", param.name,
                                  generator[param.name])
        for param in fields(PlanParams)  # each is cast as its default is
        if param.name in generator
    }
    try:
        params = PlanParams(**plan_kwargs)
    except ValueError as exc:
        raise ConfigError(f"config: [generator] {exc}") from exc

    settings = {f.name: _config_value(f.type, "corpus", f.name, corpus[f.name])
                for f in _SCALAR_FIELDS if f.name in corpus}
    config = CorpusConfig(cell_counts=cells, plan_params=params, **settings)
    # checked here, not by CorpusConfig: a manifest's echo of a relative
    # path is read from wherever the corpus is
    if config.template_bank != BUILTIN_BANK and not Path(config.template_bank).exists():
        raise ConfigError(f"template_bank: no file at {config.template_bank}")
    if not _SYNTH_RE.match(config.catalog_source) \
            and not Path(config.catalog_source).exists():
        raise ConfigError(f"catalog_source: neither synthetic(nI, nE) nor a "
                          f"file: {config.catalog_source}")
    return config


def _build_bank(source: str) -> TemplateBank:
    return load_default_bank() if source == BUILTIN_BANK else load_bank(source)


# ---------------------------------------------------------------------------
# record planning and generation


@dataclass(frozen=True)
class RecordPlan:
    """Where a record sits in the config's grid, and its build seed."""

    image_index: int
    category: str
    kind: str
    cell_index: int  # position within the (category, kind) cell
    seed: int


@dataclass(frozen=True)
class RecordPayload:
    """A built record: its manifest entry and its three files' bytes."""

    entry: dict
    data: Dict[str, bytes]  # each file's bytes, keyed as in entry["files"]


def _gate_perturb(series: DataSeries, target: TrendClass, attempt_seed: int,
                  slot: int) -> DataSeries:
    """Perturb until the output classifies back to the requested class."""
    for attempt in range(_PERTURB_ATTEMPTS):
        sub = Rng(derive_seed(attempt_seed, TAG_TREND_RESAMPLE, slot, attempt))
        try:
            out = perturb_to_trend(series, preset(target, len(series.y_values)),
                                   sub)
        except TrendUnrealizableError:
            continue
        if classify_trend(out.y_values) is target:
            return out
    raise _RecordError(
        f"could not realize {target.value} in {_PERTURB_ATTEMPTS} perturbations")


def _build_series(plan: RecordPlan, attempt_seed: int, rng: Rng,
                  catalog: Catalog) -> List[DataSeries]:
    """Draw the data for one record.

    Draw order is fixed: the arity coin first, then category-specific
    draws.  Trend cells cycle the six directional classes by cell position;
    random cells flip between flat perturbation and raw data accepted only
    when every series classifies flat.
    """
    arity = 2 if rng.random() < 0.5 else 1

    if plan.category == "temporal-trend":
        targets = [DIRECTIONAL_CLASSES[plan.cell_index % len(DIRECTIONAL_CLASSES)]]
        if arity == 2:
            targets.append(rng.choice(DIRECTIONAL_CLASSES))
        min_len = TREND_MIN_LEN
    elif plan.category != "temporal-random":
        return sample_series(catalog, temporal=False, arity=arity, rng=rng)
    elif rng.random() < 0.5:
        targets = [rng.choice(FLAT_CLASSES) for _ in range(arity)]
        min_len = RANDOM_MIN_LEN
    else:
        for _ in range(_RAW_SAMPLE_ATTEMPTS):
            candidate = sample_series(catalog, temporal=True, arity=arity,
                                      rng=rng, min_len=RANDOM_MIN_LEN)
            if all(classify_trend(s.y_values) in FLAT_CLASSES
                   for s in candidate):
                return candidate
        raise _RecordError(
            f"no flat raw sample in {_RAW_SAMPLE_ATTEMPTS} attempts")

    base = sample_series(catalog, temporal=True, arity=arity, rng=rng,
                         min_len=min_len)
    return [_gate_perturb(s, target, attempt_seed, slot)
            for slot, (s, target) in enumerate(zip(base, targets))]


def _record_name(image_index: int) -> str:
    return f"{image_index:06d}"


# a record's files: manifest key, directory, suffix
_LAYOUT = (("chart", "charts", ".svg"), ("meta", "meta", ".json"),
           ("descriptions", "descriptions", ".txt"))


def _record_files(image_index: int) -> Dict[str, str]:
    name = _record_name(image_index)
    return {key: f"{sub}/{name}{suffix}" for key, sub, suffix in _LAYOUT}


class _RecordBuilder:
    """Builds a config's records by image_index, from a grid walked once:
    `cells` lists each cell in generation order (category-major, as
    declared in CATEGORIES and KINDS) with its record count and the seed
    its records' seeds continue, as derive_seed folds one word at a time;
    `starts[i]` is cell i's first image_index, `starts[-1]` the record
    total.  Planning builds no catalog or bank: `sources` does, once."""

    def __init__(self, config: CorpusConfig):
        self.config = config
        self.cells = [(category, kind, config.scaled_count(category, kind),
                       derive_seed(config.seed, CATEGORY_CODES[category],
                                   KIND_CODES[kind]))
                      for category in CATEGORIES for kind in KINDS]
        self.starts = list(accumulate([c[2] for c in self.cells], initial=0))

    @cached_property
    def sources(self) -> Tuple[Catalog, TemplateBank]:
        config = self.config
        m = _SYNTH_RE.match(config.catalog_source)
        return (synth_catalog(derive_seed(config.seed, _TAG_CATALOG),
                              int(m.group(1)), int(m.group(2))) if m
                else load_catalog(config.catalog_source),
                _build_bank(config.template_bank))

    def plan(self, image_index: int) -> RecordPlan:
        """The plan of record image_index; KeyError outside the corpus."""
        if not 0 <= image_index < self.starts[-1]:
            raise KeyError(f"image_index {image_index} not in a corpus of "
                           f"{self.starts[-1]} records")
        cell = bisect_right(self.starts, image_index) - 1
        category, kind, _, cell_seed = self.cells[cell]
        cell_index = image_index - self.starts[cell]
        return RecordPlan(image_index, category, kind, cell_index,
                          derive_seed(cell_seed, cell_index))

    def __call__(self, image_index: int) -> RecordPayload:
        return self.build(self.plan(image_index))

    def build(self, plan: RecordPlan) -> RecordPayload:
        """Generate one record, retrying with freshly derived seeds on
        failure; a catalog or bank that does not load is not retried."""
        self.sources
        last: Optional[Exception] = None
        for attempt in range(_RECORD_ATTEMPTS):
            try:
                return self._attempt(plan, attempt)
            except (ValueError, RuntimeError) as exc:
                import logging  # on the first retry: most runs never log
                logging.getLogger(__name__).warning(
                    "record %06d attempt %d failed: %s", plan.image_index,
                    attempt, exc)
                last = exc
        raise CorpusGenerationError(f"record {plan.image_index:06d} failed "
                                    f"{_RECORD_ATTEMPTS} attempts: {last}")

    def _attempt(self, plan: RecordPlan, attempt: int) -> RecordPayload:
        attempt_seed = (plan.seed if attempt == 0
                        else derive_seed(plan.seed, TAG_RETRY, attempt))
        catalog, bank = self.sources
        rng = Rng(attempt_seed)
        series = _build_series(plan, attempt_seed, rng, catalog)
        spec = build_chart_spec(series, ChartKind(plan.kind), rng,
                                image_index=plan.image_index)
        svg, meta = render(spec)

        desc_rng = Rng(derive_seed(attempt_seed, TAG_DESCRIPTION))
        descriptions = generate_description_set(
            meta, None, bank, desc_rng,
            n_variants=self.config.descriptions_per_chart,
            params=self.config.plan_params)

        entry = {
            **vars(plan),  # image_index, category, kind, cell_index, seed
            "attempt": attempt,
            "arity": len(series),
            "trend_classes": [sm.trend_class for sm in meta.series],
            "n_descriptions": len(descriptions),
            "files": _record_files(plan.image_index),
        }
        desc_text = "".join(d.to_json_line() + "\n" for d in descriptions)
        return RecordPayload(entry, {
            "chart": svg, "meta": meta.to_json().encode("utf-8"),
            "descriptions": desc_text.encode("utf-8")})


# each parallel-generation worker's builder, made by its pool initializer
_worker_builder: Optional[_RecordBuilder] = None


def _worker_init(config: CorpusConfig) -> None:
    global _worker_builder
    _worker_builder = _RecordBuilder(config)


def _worker_build(image_index: int) -> RecordPayload:
    return _worker_builder(image_index)


@contextlib.contextmanager
def _layout_dirs(root: Path, ignore: tuple = ()):
    """The layout directories under root, open as {name: fd} until exit; a
    symlink there is not followed.  One that does not open raises its
    OSError, or is left out when that is one of `ignore`."""
    dirs: Dict[str, int] = {}
    try:
        for _, sub, _ in _LAYOUT:
            with contextlib.suppress(*ignore):
                dirs[sub] = os.open(root / sub, os.O_RDONLY | os.O_NOFOLLOW
                                    | os.O_DIRECTORY)
        yield dirs
    finally:
        for fd in dirs.values():
            os.close(fd)


class _NewFile(type(Path())):
    """A path that Path.write_bytes, which the benchmark's tracer times,
    creates as a new file with O_EXCL and O_NOFOLLOW, by name in the
    directory open as dir_fd (None: the path as it is): neither a name
    planted there nor a directory swapped for a symlink is written through."""

    dir_fd: Optional[int] = None

    def open(self, *args, **kwargs):
        return open(self, *args, **kwargs, opener=lambda name, flags: os.open(
            name, flags | os.O_EXCL | os.O_NOFOLLOW, 0o666, dir_fd=self.dir_fd))


def _write_file(path: Path, data: bytes, dir_fd: Optional[int] = None) -> None:
    """Write data to path as a new file, by name in dir_fd if given: what
    is there (a symlink, a hard link, any file) is unlinked first, never
    written through."""
    target = _NewFile(path if dir_fd is None else path.name)
    target.dir_fd = dir_fd
    with contextlib.suppress(FileNotFoundError):
        os.unlink(target, dir_fd=dir_fd)
    target.write_bytes(data)


def _write_payload(root: Path, dirs: Dict[str, int],
                   payload: RecordPayload) -> None:
    """Write a record's files into the open layout directories."""
    for key, rel in payload.entry["files"].items():
        _write_file(root / rel, payload.data[key], dirs[rel.partition("/")[0]])


def generate_corpus(config: CorpusConfig, jobs: int = 1) -> dict:
    """Generate the full corpus tree and return the manifest document."""
    if jobs < 1:
        raise ValueError(f"jobs: must be >= 1, got {jobs}")
    # a missing or malformed catalog or bank fails here, before any
    # directory is made; parallel workers build their own
    builder = _RecordBuilder(config)
    builder.sources
    root = Path(config.output_dir)
    for _, sub, _ in _LAYOUT:
        (root / sub).mkdir(parents=True, exist_ok=True)

    total = builder.starts[-1]
    # a pool starts all its workers at once, each building its own catalog
    # and bank: never more of them than records
    workers = min(jobs, total)
    entries: List[dict] = []
    with contextlib.ExitStack() as stack:
        dirs = stack.enter_context(_layout_dirs(root))
        if workers <= 1:
            payloads = map(builder, range(total))
        else:
            pool = stack.enter_context(sys.modules[__name__].ProcessPoolExecutor(
                max_workers=workers, initializer=_worker_init,
                initargs=(config,)))
            payloads = pool.map(_worker_build, range(total),
                                chunksize=max(1, total // (workers * 8)))
        for payload in payloads:
            _write_payload(root, dirs, payload)
            entries.append(payload.entry)

    manifest = _manifest(FORMAT_VERSION, config.to_dict(), builder.cells,
                         entries)
    _write_file(root / MANIFEST_NAME, (json.dumps(
        manifest, separators=(",", ":"), ensure_ascii=False) + "\n"
    ).encode("utf-8"))
    return manifest


def _manifest(version, config, cells: list, entries: List[dict]) -> dict:
    """The manifest document generate writes and validate rebuilds."""
    return {"format_version": version, "config": config,
            "totals": {"charts": len(entries), "descriptions": sum(
                e["n_descriptions"] for e in entries)},
            "cells": [{"category": category, "kind": kind, "count": count}
                      for category, kind, count, _ in cells],
            "records": entries}


def _manifest_path(corpus_dir) -> Path:
    path = Path(corpus_dir) / MANIFEST_NAME
    if not path.exists():
        raise FileNotFoundError(f"no {MANIFEST_NAME} in {corpus_dir}")
    return path


def load_manifest(corpus_dir) -> dict:
    return _read_manifest(_manifest_path(corpus_dir))


def _read_manifest_head(path: Path) -> dict:
    """_read_manifest(path) less "records", whose text is not decoded when
    generate's four members come before it, in its order: damage in or
    after "records", or a member repeated after it, then goes unseen."""
    try:  # a byte that is not UTF-8 is a lone surrogate, refused in the head
        text = path.read_bytes().decode("utf-8", "surrogateescape")
        head, at = {}, 0
        for name, opener in zip(_MANIFEST_KEYS, "{,,,,"):
            member = _MEMBER.match(text, at)
            if not member or member[1] != opener \
                    or json.decoder.scanstring(member[2], 1)[0] != name:
                break
            if name == "records":
                text[:member.end()].encode("utf-8")
                return head
            head[name], at = json.JSONDecoder().raw_decode(text, member.end())
    except (ValueError, RecursionError):
        pass
    return _read_manifest(path)


def _read_manifest(path: Path) -> dict:
    try:
        manifest = json.loads(_decode_text(path.read_bytes()))
    except (ValueError, RecursionError) as exc:  # not UTF-8, or not JSON
        raise ManifestError(
            f"manifest: {path.name} does not parse: {exc}") from None
    if not isinstance(manifest, dict):
        raise ManifestError(
            f"manifest: is a {type(manifest).__name__}, not an object")
    return manifest


def _config_builder(manifest: dict) -> _RecordBuilder:
    """The builder, and planner, of the config a manifest echoes."""
    try:
        return _RecordBuilder(CorpusConfig.from_dict(manifest["config"]))
    except _MALFORMED as exc:
        raise ManifestError(f"manifest: config is malformed: "
                            f"{type(exc).__name__}: {exc}") from None


def regenerate_record(corpus_dir, image_index: int) -> List[str]:
    """Rebuild one record's three files from the manifest's format_version
    and config alone; returns the relative paths written."""
    if not isinstance(image_index, int) or isinstance(image_index, bool):
        raise TypeError(f"image_index: need an int, got {image_index!r}")
    root = Path(corpus_dir)
    manifest = _read_manifest_head(_manifest_path(root))
    version = manifest.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise ManifestError(
            f"manifest: format_version {version!r} cannot be regenerated: "
            f"this chartscribe writes format_version {FORMAT_VERSION}")
    payload = _config_builder(manifest)(image_index)
    with _layout_dirs(root) as dirs:
        _write_payload(root, dirs, payload)
    return list(payload.entry["files"].values())


# ---------------------------------------------------------------------------
# stats


def stats(corpus_dir) -> Tuple[dict, str]:
    """Category x kind grid plus description totals, as a dict and an
    aligned text table: the grid the manifest's config plans, and the
    description count of its totals."""
    manifest = _read_manifest_head(_manifest_path(corpus_dir))
    builder = _config_builder(manifest)
    grid = {(category, kind): n for category, kind, n, _ in builder.cells}
    charts = builder.starts[-1]
    totals = manifest.get("totals")
    descriptions = isinstance(totals, dict) and totals.get("descriptions")
    if type(descriptions) is not int:
        raise ManifestError("manifest: totals.descriptions is not an int")

    doc = {
        "charts": charts,
        "descriptions": descriptions,
        "descriptions_per_chart": descriptions / charts if charts else 0.0,
        "grid": {f"{category}/{kind}": count
                 for (category, kind), count in sorted(grid.items())},
    }

    name_w = max(len(c) for c in CATEGORIES + ("total",))
    col_w = max(len(k) for k in KINDS + ("total",)) + 2
    header = " " * name_w + "".join(f"{k:>{col_w}}" for k in KINDS + ("total",))
    lines = [header]
    rows = [(c, [grid[(c, k)] for k in KINDS]) for c in CATEGORIES]
    rows.append(("total", [sum(grid[(c, k)] for c in CATEGORIES) for k in KINDS]))
    for name, row in rows:  # the total row's own total is the chart count
        cells = "".join(f"{v:>{col_w}}" for v in row + [sum(row)])
        lines.append(f"{name:<{name_w}}{cells}")
    lines.append("")
    lines.append(f"charts: {charts}")
    lines.append(f"descriptions: {descriptions}")
    if charts:
        lines.append(f"descriptions per chart: {descriptions / charts:.2f}")
    return doc, "\n".join(lines)


# ---------------------------------------------------------------------------
# validation


# what reading a field of decoded JSON raises when the field has the wrong
# type or shape: the validator reports it as a violation of the record
_MALFORMED = (ArithmeticError, AttributeError, LookupError, RecursionError,
              TypeError, ValueError)

# a key the stored manifest lacks, wherever validate reads or copies one
_ABSENT = object()


def _differences(stored, expected, path: str = "") -> List[str]:
    """How stored differs from expected, the part at path of the manifest
    generate writes, one line per difference naming its path.  Values
    compare as (type, value): true and 1.0 are not the int 1."""
    if stored is expected:
        return []
    if stored is _ABSENT:
        return [f"manifest: {path} is missing"]
    if type(stored) is not type(expected):
        return [f"manifest: {path} is {_a(type(stored).__name__)}, not "
                f"{_a(type(expected).__name__)}"]
    if type(expected) is dict:
        return [line for key, value in expected.items()
                for line in _differences(stored.get(key, _ABSENT), value,
                                         f"{path}.{key}" if path else key)]
    if type(expected) is list and len(stored) != len(expected):
        return [f"manifest: {path} has {len(stored)} items, not "
                f"{len(expected)}"]
    if type(expected) is list:
        return [line for i, pair in enumerate(zip(stored, expected))
                for line in _differences(*pair, f"{path}[{i}]")]
    return [] if stored == expected else [
        f"manifest: {path} declares {stored!r}, not {expected!r}"]


def _svg_error(data: bytes) -> Optional[str]:
    """Why data is not a well-formed XML document with every namespace
    prefix declared, in the words of `xml.etree.ElementTree.fromstring`;
    None when it is one.

    A bare namespace-aware expat parser builds no tree.  Expat skips an
    undeclared entity, or passes an external one on, when a DOCTYPE may
    declare it elsewhere, where ElementTree rejects both; so once a DOCTYPE
    starts, a default handler rejects every entity reference that reaches
    it as ElementTree does.  Without a DOCTYPE no Python handler runs.
    """
    from xml.parsers import expat  # loaded by the first parse
    parser = expat.ParserCreate(None, "}")

    def entity_reference(text: str) -> None:
        if text[:1] == "&":
            raise expat.ExpatError(
                f"undefined entity {text}: line {parser.CurrentLineNumber}, "
                f"column {parser.CurrentColumnNumber}")

    def start_doctype(*_) -> None:
        # character data and character references then bypass the default
        # handler, as they do in ElementTree
        parser.CharacterDataHandler = lambda data: None
        parser.DefaultHandlerExpand = entity_reference

    parser.StartDoctypeDeclHandler = start_doctype
    try:
        parser.Parse(data, True)
    except (expat.ExpatError, LookupError, ValueError) as exc:
        # an encoding the declaration names but Python lacks, or one with
        # multi-byte characters, raises LookupError or ValueError
        return str(exc)
    return None


def _read_file(name: str, dir_fd: Optional[int]) -> bytes:
    """The bytes of the regular file `name` in the layout directory open
    as dir_fd (None: it did not open), from one open; OSError when there is
    none.  A symlink, directory, FIFO or device there is refused unread;
    with O_NONBLOCK, opening a FIFO does not wait for a writer.  One read
    of its size and a byte more gets all of a regular file."""
    if dir_fd is None:
        raise FileNotFoundError(name)
    fd = os.open(name, os.O_RDONLY | os.O_NOFOLLOW | os.O_NONBLOCK,
                 dir_fd=dir_fd)
    try:
        info = os.fstat(fd)
        if not stat.S_ISREG(info.st_mode):
            raise OSError(f"{name} is not a regular file")
        return os.read(fd, info.st_size + 1)
    finally:
        os.close(fd)


def _decode_text(data: bytes) -> str:
    """data as `Path.read_text(encoding="utf-8")` returns it: UTF-8, with
    universal newlines."""
    text = data.decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _validate_record(dirs: Dict[str, int], entry: dict,
                     move_checks: Dict[tuple, List[str]],
                     variants: float) -> List[str]:
    """Check one record's files against entry, the manifest entry generate
    writes for it, and set there the `arity`, `trend_classes` and
    `n_descriptions` its files give (one that cannot be read gives none).

    Each of the record's files is read once, as bytes, by name from its
    open layout directory, with no stat before; a file that cannot be read,
    or is not a regular file, is reported missing.  move_checks holds the
    `check_move_order` verdict of each move sequence seen so far."""
    problems: List[str] = []
    idx = entry["image_index"]
    tag = f"record {_record_name(idx)}"
    data: Dict[str, bytes] = {}
    for label, rel in entry["files"].items():
        sub, _, name = rel.partition("/")
        try:
            data[label] = _read_file(name, dirs.get(sub))
        except OSError:
            problems.append(f"{tag}: missing {label} file {name}")
    if problems:
        return problems

    error = _svg_error(data["chart"])
    if error is not None:
        problems.append(f"{tag}: chart svg does not parse: {error}")

    try:
        meta = ChartMeta.from_json(_decode_text(data["meta"]))
    except _MALFORMED as exc:
        problems.append(f"{tag}: meta does not parse: {exc}")
        return problems

    for key, value in (("image_index", meta.image_index),
                       ("category", meta.category), ("kind", meta.chart_kind)):
        if (type(entry.get(key)), entry.get(key)) != (type(value), value):
            problems.append(f"{tag}: meta {key} {value!r} mismatch, planned "
                            f"{entry.get(key)!r}")
    entry.update(arity=len(meta.series),
                 trend_classes=[sm.trend_class for sm in meta.series])

    wrong = meta_problems(meta)
    problems += [f"{tag}: {problem}" for problem in wrong]
    # only a well-formed meta has facts to audit the descriptions against
    facts = None if wrong else extract_facts(meta)

    try:
        lines = _decode_text(data["descriptions"]).splitlines()
    except UnicodeDecodeError as exc:
        problems.append(f"{tag}: description file is not UTF-8: {exc}")
        return problems
    if not lines:
        problems.append(f"{tag}: description file is empty")
        return problems
    entry["n_descriptions"] = len(lines)
    descs: List[object] = []  # per line, its Description or parse error
    for line in lines:
        try:
            descs.append(Description.from_json_line(line))
        except _MALFORMED as exc:
            descs.append(exc)
    texts = [" ".join(s.text for s in desc.sentences)
             if isinstance(desc, Description) else "" for desc in descs]
    # whitespace ends every token, so the audit of all lines at once is
    # empty exactly when each line's is; only then are lines audited alone
    audit = facts is not None and bool(hallucination_check(" ".join(texts),
                                                           facts))
    # variant indices rise (a dropped duplicate leaves a gap) below variants
    last_variant = -1
    for line_no, (desc, text) in enumerate(zip(descs, texts)):
        if not isinstance(desc, Description):
            problems.append(
                f"{tag}: description line {line_no} does not parse: {desc}")
            continue
        if type(desc.image_index) is not int or desc.image_index != idx:
            problems.append(
                f"{tag}: description line {line_no} image_index "
                f"{desc.image_index} mismatch")
        variant = desc.variant_index
        if type(variant) is int and last_variant < variant < variants:
            last_variant = variant
        else:
            problems.append(f"{tag}: description line {line_no} variant_index "
                            f"{variant!r} is not an int above {last_variant} "
                            f"and below {variants}")
        if desc.text != text:
            problems.append(
                f"{tag}: description line {line_no} text is not its "
                f"sentences joined")
        if "{" in text or "}" in text:
            problems.append(
                f"{tag}: description line {line_no} has residual slots")
        moves = desc.moves
        violations = move_checks.get(moves)
        if violations is None:
            violations = move_checks[moves] = check_move_order(moves)
        for violation in violations:
            problems.append(
                f"{tag}: description line {line_no} move order: {violation}")
        if audit:
            for token in hallucination_check(text, facts):
                problems.append(
                    f"{tag}: description line {line_no} digit token "
                    f"{token!r} matches no chart fact")
    return problems


def validate_corpus(corpus_dir) -> List[str]:
    """Re-check every invariant checkable from disk; empty list means clean.

    Never aborts early and never raises on a damaged corpus: all violations
    across all records are collected.  The manifest is compared with the
    one generate writes for its config and the files on disk.  Only files
    at the layout paths of the planned records are opened: the layout
    directories once each, and no symlink at a layout path is followed.
    """
    return _validate(Path(corpus_dir))[0]


def _validate(root: Path) -> Tuple[List[str], dict]:
    """validate_corpus's violations, and the totals of the manifest
    generate writes for the corpus (on a clean corpus, the stored ones)."""
    try:
        manifest = load_manifest(root)
    except ManifestError as exc:
        return [str(exc)], {}
    except OSError as exc:
        return [f"manifest: {exc}"], {}
    with _layout_dirs(root, ignore=(OSError,)) as dirs:
        problems: List[str] = []
        try:
            builder = _config_builder(manifest)
        except ManifestError as exc:
            problems.append(str(exc))
            builder = None

        records = manifest.get("records")
        records = records if type(records) is list else []
        planned = range(builder.starts[-1]) if builder else None
        variants = builder.config.descriptions_per_chart if builder else math.inf
        move_checks: Dict[tuple, List[str]] = {}
        entries: Dict[int, dict] = {}
        # a manifest whose description total is the sum of its entries'
        # counts agrees with itself: a file that differs is then at fault
        totals = manifest.get("totals")
        declared = totals.get("descriptions") if type(totals) is dict else None
        counted = type(declared) is int and declared == sum(
            e["n_descriptions"] for e in records if type(e) is dict
            and type(e.get("n_descriptions")) is int)

        def read(i: int, given: dict) -> dict:
            # record i's entry: what its files do not give is given's
            count = given.get("n_descriptions")
            entries[i] = entry = {
                **given, **(vars(builder.plan(i)) if builder else {}),
                "files": _record_files(i),
                "n_descriptions": count if type(count) is int else 0}
            problems.extend(_validate_record(dirs, entry, move_checks,
                                             variants))
            n_lines = entry["n_descriptions"]
            if counted and type(count) is int and n_lines != count:
                problems.append(f"record {_record_name(i)}: "
                                f"{entry['files']['descriptions']} has "
                                f"{n_lines} lines, manifest says {count}")
                entry["n_descriptions"] = count
            return entry

        for pos, entry in enumerate(records):
            idx = entry.get("image_index") if type(entry) is dict else None
            if type(idx) is not int or planned is not None \
                    and idx not in planned:
                problems.append(f"manifest: records[{pos}].image_index is "
                                f"{idx!r}, not an index the config plans")
            elif idx in entries:
                problems.append(f"manifest: records[{pos}] repeats "
                                f"image_index {idx}")
            else:  # compared with the entry generate writes for idx
                problems.extend(_differences(entry, read(idx, entry),
                                             f"records[{pos}]"))
        unlisted = [i for i in planned or () if i not in entries]
        if unlisted:
            shown = ", ".join(map(str, unlisted[:5]))
            problems.append(
                f"manifest: no record lists image_index {shown}"
                f"{', ...' if len(unlisted) > 5 else ''}, of the "
                f"{len(planned)} the config plans")
        for i in unlisted:
            read(i, {})

        # a version validate reads stands; true and 1.0 are not version 1
        version = manifest.get("format_version")
        expected = _manifest(version if type(version) is int and version
                             in VALIDATED_VERSIONS else FORMAT_VERSION,
                             manifest.get("config", _ABSENT),
                             builder.cells if builder else [],
                             list(entries.values()))
        if builder is None:  # no grid to compare with
            expected["cells"] = manifest.get("cells", _ABSENT)
        expected["records"] = records  # each entry is compared above
        problems.extend(_differences(manifest, expected))

        for _, sub, suffix in _LAYOUT:
            if sub not in dirs:
                problems.append(f"layout: {sub}/ is a symlink, not followed"
                                if os.path.islink(root / sub) else
                                f"layout: missing directory {sub}/")
                continue
            on_disk = set(os.listdir(dirs[sub]))
            expected_names = {_record_name(i) + suffix for i in entries}
            for orphan in sorted(on_disk - expected_names):
                problems.append(f"layout: {sub}/{orphan} not in manifest")
        return problems, expected["totals"]
