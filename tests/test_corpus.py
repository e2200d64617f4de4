"""Tests for corpus assembly, the manifest, and disk validation."""

import hashlib
import json
import math
import os
import pickle
import re
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, reject, settings, strategies as st

from chartscribe import cli, corpus
from chartscribe.catalog import sample_series, synth_catalog, write_catalog
from chartscribe.chartgen import ChartMeta
from chartscribe.corpus import (
    CATEGORIES, CATEGORY_CODES, DEFAULT_CELL_COUNTS, KIND_CODES, KINDS,
    MANIFEST_NAME, ConfigError, CorpusConfig, ManifestError, RecordPlan,
    default_config, generate_corpus, load_config, load_manifest,
    regenerate_record, stats, validate_corpus, _decode_text, _RecordBuilder,
    _svg_error,
)
from chartscribe.narrate import Description, PlanParams, _check_consistency
from chartscribe.rng import Rng, derive_seed
from chartscribe.trend import (
    DIRECTIONAL_CLASSES, FLAT_CLASSES, TrendUnrealizableError, classify_trend,
)


SRC = Path(__file__).resolve().parents[1] / "src"


def record_opens(monkeypatch):
    """Spy on os.open: the returned list gets the (st_dev, st_ino) of every
    file or directory it opens, so an open that follows a symlink shows
    the target's identity."""
    opened = []
    real = os.open

    def spy(path, flags, *args, **kwargs):
        fd = real(path, flags, *args, **kwargs)
        st = os.fstat(fd)
        opened.append((st.st_dev, st.st_ino))
        return fd

    monkeypatch.setattr(os, "open", spy)
    return opened


def identity(path):
    st = os.stat(path)
    return st.st_dev, st.st_ino


def tree_hash(root) -> str:
    h = hashlib.sha256()
    for p in sorted(Path(root).rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def tiny_corpus(tmp_path_factory):
    """One generated corpus shared by the read-only tests."""
    out = tmp_path_factory.mktemp("corpus") / "tiny"
    config = CorpusConfig(seed=20260816, output_dir=str(out), count_scale=0.004)
    manifest = generate_corpus(config)
    return out, config, manifest


@pytest.fixture(scope="module")
def file_catalog_corpus(tmp_path_factory):
    """A corpus drawn from a catalog file, with most cells empty."""
    root = tmp_path_factory.mktemp("file-catalog")
    cat_path = root / "catalog.tsv"
    write_catalog(synth_catalog(2, 8, 10), cat_path)
    out = root / "corpus"
    cells = {("categorical", "line"): 3, ("temporal-random", "line"): 3}
    config = CorpusConfig(seed=4, output_dir=str(out), cell_counts=cells,
                          catalog_source=str(cat_path))
    return out, config, generate_corpus(config)


class TestConfig:
    """CorpusConfig construction and validation."""

    def test_defaults(self):
        config = default_config(seed=7)
        assert config.cell_counts == DEFAULT_CELL_COUNTS
        assert config.count_scale == 1.0
        assert config.descriptions_per_chart == 3
        assert config.template_bank == "builtin"

    def test_default_grid_total(self):
        assert sum(DEFAULT_CELL_COUNTS.values()) == 10232

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError):
            CorpusConfig(seed=-1)

    def test_zero_scale_rejected(self):
        for scale in (0.0, -1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigError, match="count_scale"):
                CorpusConfig(seed=1, count_scale=scale)

    def test_unknown_cell_rejected(self):
        with pytest.raises(ConfigError):
            CorpusConfig(seed=1, cell_counts={("temporal-trend", "pie"): 5})

    @pytest.mark.parametrize("setting, message", [
        (dict(descriptions_per_chart=0), "descriptions_per_chart: must be >= 1"),
        (dict(cell_counts={("categorical", "line"): -1}),
         "cell_counts: categorical/line count -1 < 0"),
    ], ids=["no-descriptions", "negative-cell"])
    def test_count_below_range_rejected(self, setting, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            CorpusConfig(seed=1, **setting)

    # load_config and generate_corpus check the bank and catalog files;
    # CorpusConfig opens none, so a manifest's echo reads anywhere

    @staticmethod
    def rejected(tmp_path, key, value, message):
        ini = tmp_path / "corpus.ini"
        ini.write_text(f"[corpus]\nseed = 1\n{key} = {value}\n")
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_config(ini)
        out = tmp_path / "out"
        with pytest.raises(OSError):
            generate_corpus(CorpusConfig(seed=1, output_dir=str(out),
                                         **{key: value}))
        assert not out.exists()

    def test_missing_bank_file_rejected(self, tmp_path):
        self.rejected(tmp_path, "template_bank", "/nonexistent/bank.tsv",
                      "template_bank: no file at /nonexistent/bank.tsv")

    def test_bad_catalog_source_rejected(self, tmp_path):
        self.rejected(tmp_path, "catalog_source", "synthetic(oops)",
                      "catalog_source: neither synthetic(nI, nE) nor a file: "
                      "synthetic(oops)")

    def test_config_opens_no_file(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a file was looked up")

        with monkeypatch.context() as patched:
            for name in ("stat", "open", "lstat"):
                patched.setattr(os, name, refuse)
            config = CorpusConfig(seed=1, template_bank="/nonexistent/bank.tsv",
                                  catalog_source="/nonexistent/catalog.csv")
        assert config.template_bank == "/nonexistent/bank.tsv"

    def test_scaled_count_floors_at_one(self):
        config = CorpusConfig(seed=1, count_scale=0.0001)
        # every nonzero cell keeps at least one record
        for category, kind in DEFAULT_CELL_COUNTS:
            assert config.scaled_count(category, kind) == 1

    def test_scaled_count_floor(self):
        config = CorpusConfig(seed=1, count_scale=0.01)
        assert config.scaled_count("temporal-trend", "line") == 8  # floor(8.8)
        assert config.scaled_count("temporal-random", "line") == 10
        assert config.scaled_count("categorical", "horizontal-bar") == 4

    def test_dict_round_trip(self):
        config = CorpusConfig(seed=11, count_scale=0.5,
                              descriptions_per_chart=2,
                              plan_params=PlanParams(p_move2=0.25))
        assert CorpusConfig.from_dict(config.to_dict()) == config

    def test_from_dict_reads_an_int_as_a_float(self):
        doc = CorpusConfig(seed=11).to_dict()
        doc["count_scale"] = 1
        doc["plan_params"]["p_move2"] = 0
        config = CorpusConfig.from_dict(doc)
        assert type(config.count_scale) is float
        assert type(config.plan_params.p_move2) is float


class TestLoadConfig:
    """INI config parsing."""

    def test_full_file(self, tmp_path):
        path = tmp_path / "corpus.ini"
        path.write_text(
            "[corpus]\n"
            "seed = 99\n"
            "output_dir = out\n"
            "count_scale = 0.5\n"
            "catalog_source = synthetic(10, 12)\n"
            "template_bank = builtin\n"
            "descriptions_per_chart = 2\n"
            "\n"
            "[cells]\n"
            "temporal-trend.line = 100\n"
            "\n"
            "[generator]\n"
            "p_move2 = 0.25\n"
            "m3_max = 3\n")
        config = load_config(path)
        assert config.seed == 99
        assert config.count_scale == 0.5
        assert config.cell_counts[("temporal-trend", "line")] == 100
        # untouched cells keep their defaults
        assert config.cell_counts[("categorical", "scatter")] == 951
        assert config.descriptions_per_chart == 2
        assert config.plan_params.p_move2 == 0.25
        assert config.plan_params.m3_max == 3
        assert config.plan_params.p_move4 == 0.5

    def test_minimal_file(self, tmp_path):
        path = tmp_path / "minimal.ini"
        path.write_text("[corpus]\nseed = 5\n")
        config = load_config(path)
        assert config.seed == 5
        assert config.cell_counts == DEFAULT_CELL_COUNTS

    def test_documented_example_is_the_defaults(self, tmp_path):
        # docs/config.md's annotated example spells out every default
        doc = (SRC.parent / "docs" / "config.md").read_text(encoding="utf-8")
        path = tmp_path / "example.ini"
        path.write_text(doc.split("```ini\n", 1)[1].split("```", 1)[0])
        assert load_config(path) == CorpusConfig(seed=20260816)

    def test_descriptions_per_chart_in_generator(self, tmp_path):
        # the setting lives in [corpus] only; in [generator] it is an error,
        # not a value silently dropped
        path = tmp_path / "gen.ini"
        path.write_text("[corpus]\nseed = 1\ndescriptions_per_chart = 4\n"
                        "[generator]\ndescriptions_per_chart = 2\n")
        with pytest.raises(ConfigError,
                           match=r"\[generator\]: descriptions_per_chart"):
            load_config(path)

    def test_missing_seed(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[corpus]\noutput_dir = x\n")
        with pytest.raises(ConfigError, match="seed"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.ini")

    def test_missing_corpus_section(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[generator]\np_move2 = 0.25\n")
        with pytest.raises(ConfigError,
                           match=r"^config: missing \[corpus\] section$"):
            load_config(path)

    def test_bad_cell_key(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[corpus]\nseed = 1\n[cells]\nnodot = 3\n")
        with pytest.raises(ConfigError, match="nodot"):
            load_config(path)

    def test_bad_generator_value(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[corpus]\nseed = 1\n[generator]\np_move2 = 1.5\n")
        with pytest.raises(ConfigError):
            load_config(path)


def build_plans(config):
    """The record list as generate once built it, one cell after another:
    the oracle of the builder's plan lookup."""
    plans = []
    image_index = 0
    for category in CATEGORIES:
        for kind in KINDS:
            for cell_index in range(config.scaled_count(category, kind)):
                seed = derive_seed(config.seed, CATEGORY_CODES[category],
                                   KIND_CODES[kind], cell_index)
                plans.append(RecordPlan(image_index, category, kind,
                                        cell_index, seed))
                image_index += 1
    return plans


def planned(config):
    """Every record's plan, each looked up by image_index."""
    builder = _RecordBuilder(config)
    return [builder.plan(i) for i in range(builder.starts[-1])]


class TestBuildPlans:
    """Record planning: order, indices, seeds; each plan is looked up by
    image_index and equals the one build_plans gives."""

    def test_order_and_indices(self):
        config = CorpusConfig(seed=3, count_scale=0.004)
        plans = planned(config)
        assert [p.image_index for p in plans] == list(range(len(plans)))
        # category blocks appear in declaration order
        cats = [p.category for p in plans]
        boundaries = [cats.index(c) for c in CATEGORIES]
        assert boundaries == sorted(boundaries)

    def test_cell_index_resets_per_cell(self):
        config = CorpusConfig(seed=3, count_scale=0.004)
        plans = planned(config)
        for category in CATEGORIES:
            for kind in KINDS:
                cell = [p for p in plans
                        if p.category == category and p.kind == kind]
                assert [p.cell_index for p in cell] == list(range(len(cell)))
                assert len(cell) == config.scaled_count(category, kind)

    def test_seeds_distinct(self):
        plans = planned(CorpusConfig(seed=3, count_scale=0.01))
        seeds = [p.seed for p in plans]
        assert len(set(seeds)) == len(seeds)

    def test_seeds_independent_of_other_cells(self):
        """A record's seed depends only on its cell and position, so
        resizing one cell leaves every other cell's seeds alone."""
        a = planned(CorpusConfig(seed=3, count_scale=0.004))
        cells = dict(DEFAULT_CELL_COUNTS)
        cells[("temporal-trend", "scatter")] = 2000
        b = planned(CorpusConfig(seed=3, count_scale=0.004, cell_counts=cells))
        seeds_a = {(p.category, p.kind, p.cell_index): p.seed for p in a}
        seeds_b = {(p.category, p.kind, p.cell_index): p.seed for p in b}
        for key, seed in seeds_a.items():
            assert seeds_b[key] == seed

    def test_full_grid_size(self):
        config = CorpusConfig(seed=3)
        plans = planned(config)
        assert len(plans) == 10232
        assert plans == build_plans(config)

    @settings(max_examples=60, deadline=None)
    @given(counts=st.lists(st.integers(0, 40) | st.just(0),
                           min_size=len(CATEGORIES) * len(KINDS),
                           max_size=len(CATEGORIES) * len(KINDS)),
           scale=st.floats(0.01, 3.0),
           seed=st.integers(0, 2 ** 64 - 1))
    def test_plan_lookup_matches_build_plans(self, counts, scale, seed):
        cells = dict(zip([(c, k) for c in CATEGORIES for k in KINDS], counts))
        config = CorpusConfig(seed=seed, cell_counts=cells, count_scale=scale)
        builder = _RecordBuilder(config)
        oracle = build_plans(config)
        assert builder.starts[-1] == len(oracle)
        assert [builder.plan(i) for i in range(len(oracle))] == oracle
        for outside in (-1, len(oracle)):
            with pytest.raises(KeyError):
                builder.plan(outside)


@pytest.fixture(scope="module")
def builder():
    return _RecordBuilder(CorpusConfig(seed=44, count_scale=0.004))


def meta_of(payload) -> ChartMeta:
    return ChartMeta.from_json(payload.data["meta"].decode("utf-8"))


class TestBuildRecord:
    """Single-record generation, from a plan."""

    def test_deterministic(self, builder):
        plan = RecordPlan(0, "temporal-trend", "line", 0, 12345)
        a = builder.build(plan)
        b = builder.build(plan)
        assert a.data == b.data
        assert a.entry == b.entry
        assert sorted(a.data) == sorted(a.entry["files"])

    def test_trend_cell_first_series_cycles_classes(self, builder):
        for cell_index in range(6):
            plan = RecordPlan(cell_index, "temporal-trend", "line",
                              cell_index, 500 + cell_index)
            meta = meta_of(builder.build(plan))
            want = DIRECTIONAL_CLASSES[cell_index % 6].value
            assert meta.series[0].trend_class == want

    def test_random_cell_all_flat(self, builder):
        flat = {c.value for c in FLAT_CLASSES}
        for i in range(8):
            plan = RecordPlan(i, "temporal-random", "scatter", i, 900 + i)
            meta = meta_of(builder.build(plan))
            assert meta.category == "temporal-random"
            for sm in meta.series:
                assert sm.trend_class in flat

    def test_categorical_cell(self, builder):
        plan = RecordPlan(9, "categorical", "vertical-bar", 0, 321)
        meta = meta_of(builder.build(plan))
        assert meta.category == "categorical"
        assert all(sm.trend_class is None for sm in meta.series)

    def test_entry_fields(self, builder):
        plan = RecordPlan(17, "categorical", "line", 4, 888)
        payload = builder.build(plan)
        entry = payload.entry
        assert entry["image_index"] == 17
        assert entry["cell_index"] == 4
        assert entry["seed"] == 888
        assert entry["files"]["chart"] == "charts/000017.svg"
        assert entry["files"]["meta"] == "meta/000017.json"
        assert entry["files"]["descriptions"] == "descriptions/000017.txt"
        assert entry["n_descriptions"] == \
            payload.data["descriptions"].count(b"\n")

    def test_failed_attempt_logs_a_warning(self, builder, monkeypatch, caplog):
        attempt_record = _RecordBuilder._attempt

        def fail_first(self, plan, attempt):
            if attempt == 0:
                raise ValueError("forced")
            return attempt_record(self, plan, attempt)

        monkeypatch.setattr(_RecordBuilder, "_attempt", fail_first)
        plan = RecordPlan(31, "temporal-trend", "line", 0, 4242)
        with caplog.at_level("WARNING", logger="chartscribe.corpus"):
            payload = builder.build(plan)
        assert payload.entry["attempt"] == 1
        assert [(r.name, r.levelname, r.getMessage()) for r in caplog.records] \
            == [("chartscribe.corpus", "WARNING",
                 "record 000031 attempt 0 failed: forced")]

    def test_record_fails_after_every_attempt(self, builder, monkeypatch,
                                              caplog):
        def unrealizable(series, spec, rng):
            raise TrendUnrealizableError(spec, 0)

        monkeypatch.setattr(corpus, "perturb_to_trend", unrealizable)
        plan = RecordPlan(31, "temporal-trend", "line", 0, 4242)
        cause = (f"could not realize {DIRECTIONAL_CLASSES[0].value} in "
                 f"{corpus._PERTURB_ATTEMPTS} perturbations")
        with caplog.at_level("WARNING", logger="chartscribe.corpus"), \
                pytest.raises(corpus.CorpusGenerationError) as err:
            builder.build(plan)
        assert str(err.value) == (f"record 000031 failed "
                                  f"{corpus._RECORD_ATTEMPTS} attempts: {cause}")
        assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
            ("WARNING", f"record 000031 attempt {i} failed: {cause}")
            for i in range(corpus._RECORD_ATTEMPTS)]

    def test_gate_fails_after_its_perturbations(self, builder, monkeypatch):
        perturbed = []
        real_perturb = corpus.perturb_to_trend
        monkeypatch.setattr(corpus, "perturb_to_trend", lambda *args:
                            perturbed.append(args) or real_perturb(*args))
        monkeypatch.setattr(corpus, "classify_trend", lambda values: None)
        series = sample_series(builder.sources[0], temporal=True, arity=1,
                               rng=Rng(1), min_len=corpus.TREND_MIN_LEN)[0]
        target = DIRECTIONAL_CLASSES[2]
        with pytest.raises(corpus._RecordError,
                           match=f"^could not realize {target.value} in 8 "
                                 f"perturbations$"):
            corpus._gate_perturb(series, target, 7, 0)
        assert len(perturbed) == corpus._PERTURB_ATTEMPTS == 8

    def test_random_cell_fails_after_its_raw_samples(self, builder,
                                                     monkeypatch):
        sampled = []
        real_sample = corpus.sample_series
        monkeypatch.setattr(corpus, "sample_series", lambda *args, **kwargs:
                            sampled.append(kwargs) or real_sample(*args,
                                                                  **kwargs))
        monkeypatch.setattr(corpus, "classify_trend",
                            lambda values: DIRECTIONAL_CLASSES[0])

        def draws_raw_data(seed):
            rng = Rng(seed)
            rng.random()  # the arity coin
            return rng.random() >= 0.5

        seed = next(filter(draws_raw_data, range(100)))
        plan = RecordPlan(0, "temporal-random", "line", 0, seed)
        with pytest.raises(corpus._RecordError,
                           match="^no flat raw sample in 40 attempts$"):
            corpus._build_series(plan, seed, Rng(seed), builder.sources[0])
        assert len(sampled) == corpus._RAW_SAMPLE_ATTEMPTS == 40

    @settings(max_examples=150)
    @given(seed=st.integers(0, 2 ** 64 - 1),
           cell=st.sampled_from(sorted(DEFAULT_CELL_COUNTS)),
           cell_index=st.integers(0, 1100))
    def test_rendered_chart_lands_in_the_plan_category(self, builder, seed,
                                                       cell, cell_index):
        """render classifies the values `_build_series` gated, so a chart
        is never built for one cell and classified as another: trend cells
        get a directional target, random cells flat targets or an all-flat
        raw sample, categorical cells non-temporal data."""
        plan = RecordPlan(0, *cell, cell_index, seed)
        try:
            payload = builder._attempt(plan, 0)
        except corpus._RecordError:
            reject()
        assert meta_of(payload).category == plan.category

    def test_stored_meta_agrees_with_the_drawn_series(self, monkeypatch):
        """generate describes a chart from its meta alone: render copies
        each series' name, the shared labels and the values into the meta,
        so the check a library caller's series get passes on every record."""
        drawn = {}
        real_render = corpus.render

        def keep_series(spec):
            drawn[spec.image_index] = spec.series
            return real_render(spec)

        monkeypatch.setattr(corpus, "render", keep_series)
        builder = _RecordBuilder(CorpusConfig(seed=41, count_scale=0.02))
        for image_index in range(builder.starts[-1]):
            meta = meta_of(builder(image_index))
            _check_consistency(meta, drawn[image_index])

    def test_descriptions_parse_with_matching_index(self, builder):
        plan = RecordPlan(23, "temporal-trend", "scatter", 2, 777)
        lines = builder.build(plan).data["descriptions"].decode().splitlines()
        assert 1 <= len(lines) <= builder.config.descriptions_per_chart
        for v, line in enumerate(lines):
            desc = Description.from_json_line(line)
            assert desc.image_index == 23
            assert desc.variant_index == v


def echo_with(path, value):
    """A version-2 manifest whose config echo has value at path."""
    config = CorpusConfig(seed=41, count_scale=0.002).to_dict()
    *parents, key = path
    target = config
    for step in parents:
        target = target[step]
    target[key] = value
    return {"format_version": 2, "config": config}


class TestGenerateCorpus:
    """Full-tree generation, determinism, and regeneration."""

    def test_layout_and_manifest(self, tiny_corpus):
        out, config, manifest = tiny_corpus
        assert (out / MANIFEST_NAME).exists()
        n = manifest["totals"]["charts"]
        assert n == sum(config.scaled_count(c, k)
                        for c in CATEGORIES for k in KINDS)
        for entry in manifest["records"]:
            for rel in entry["files"].values():
                assert (out / rel).exists(), rel
        names = sorted(p.name for p in (out / "charts").iterdir())
        assert names[0] == "000000.svg"
        assert len(names) == n

    def test_manifest_round_trips_config(self, tiny_corpus):
        out, config, manifest = tiny_corpus
        loaded = load_manifest(out)
        assert loaded == manifest
        back = CorpusConfig.from_dict(loaded["config"])
        assert back.seed == config.seed
        assert back.cell_counts == config.cell_counts

    def test_golden_tree_hash(self, tmp_path):
        # a change to any output byte must bump FORMAT_VERSION and this hash
        out = tmp_path / "golden"
        manifest = generate_corpus(
            CorpusConfig(seed=41, output_dir=str(out), count_scale=0.002))
        assert manifest["totals"]["charts"] == 15
        assert tree_hash(out) == (
            "0eb71a88d6f6b2a392a691b3a118d213948c17253a220efa47aa20e2875b55cd")

    def test_two_runs_byte_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        generate_corpus(CorpusConfig(seed=5, output_dir=str(a), count_scale=0.002))
        generate_corpus(CorpusConfig(seed=5, output_dir=str(b), count_scale=0.002))
        assert tree_hash(a) == tree_hash(b)

    def test_different_seed_different_tree(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        generate_corpus(CorpusConfig(seed=5, output_dir=str(a), count_scale=0.002))
        generate_corpus(CorpusConfig(seed=6, output_dir=str(b), count_scale=0.002))
        assert tree_hash(a) != tree_hash(b)

    def test_parallel_matches_serial(self, tmp_path):
        a = tmp_path / "serial"
        b = tmp_path / "parallel"
        generate_corpus(CorpusConfig(seed=5, output_dir=str(a), count_scale=0.002))
        generate_corpus(CorpusConfig(seed=5, output_dir=str(b), count_scale=0.002),
                        jobs=2)
        assert tree_hash(a) == tree_hash(b)

    def test_tree_does_not_depend_on_hash_seed(self, tmp_path):
        # str hashes, and so set order, change with PYTHONHASHSEED
        hashes = set()
        for hash_seed, jobs in (("0", "1"), ("12345", "1"), ("7", "2")):
            out = tmp_path / f"hash-seed-{hash_seed}"
            done = subprocess.run(
                [sys.executable, "-m", "chartscribe.cli", "generate",
                 "--seed", "41", "--count-scale", "0.002", "--out", str(out),
                 "--jobs", jobs],
                env=dict(os.environ, PYTHONPATH=str(SRC),
                         PYTHONHASHSEED=hash_seed),
                capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            assert done.stdout.startswith("wrote 15 charts")
            hashes.add(tree_hash(out))
        assert len(hashes) == 1

    @pytest.mark.parametrize("cells, workers", [
        (DEFAULT_CELL_COUNTS, [15]), ({("categorical", "line"): 1}, []),
    ], ids=["15-records", "1-record"])
    def test_jobs_capped_at_record_count(self, tmp_path, monkeypatch, cells,
                                         workers):
        # an in-process stand-in for the pool: it records its size and
        # starts no process
        started = []

        class FakePool:
            def __init__(self, max_workers, initializer, initargs):
                started.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize):
                mapped.append(list(items))
                return map(fn, mapped[-1])

        mapped = []
        monkeypatch.setattr("chartscribe.corpus.ProcessPoolExecutor", FakePool)
        monkeypatch.setattr("chartscribe.corpus._worker", None)
        config = CorpusConfig(seed=41, output_dir=str(tmp_path / "out"),
                              cell_counts=cells, count_scale=0.002)
        generate_corpus(config, jobs=64)
        assert started == workers
        # the workers are handed image indices, not plans
        assert mapped == [list(range(15))] * len(workers)

    def test_workers_return_entries_not_file_bytes(self, tmp_path,
                                                   monkeypatch):
        # an in-process stand-in for the pool keeps what each task returns
        returned = []

        class FakePool:
            def __init__(self, max_workers, initializer, initargs):
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize):
                for item in items:
                    returned.append(fn(item))
                    yield returned[-1]

        monkeypatch.setattr("chartscribe.corpus.ProcessPoolExecutor", FakePool)
        monkeypatch.setattr("chartscribe.corpus._worker", None)
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        entries = generate_corpus(CorpusConfig(
            seed=41, output_dir=str(serial), count_scale=0.002))["records"]
        generate_corpus(CorpusConfig(seed=41, output_dir=str(parallel),
                                     count_scale=0.002), jobs=2)
        # each result is the serial manifest entry, plain JSON with no
        # bytes, a few hundred bytes pickled; the worker wrote the files
        assert returned == entries
        assert json.loads(json.dumps(returned)) == entries
        assert max(len(pickle.dumps(r)) for r in returned) < 1024
        assert tree_hash(parallel) == tree_hash(serial)

    def test_bad_jobs(self):
        with pytest.raises(ValueError):
            generate_corpus(CorpusConfig(seed=5, count_scale=0.002), jobs=0)

    def test_regenerate_record_byte_exact(self, tmp_path):
        # every record, each from a fresh catalog that draws only the pairs
        # that record reads, in another order than generate drew them
        out = tmp_path / "corpus"
        generate_corpus(CorpusConfig(seed=9, output_dir=str(out), count_scale=0.002))
        before = tree_hash(out)
        entries = load_manifest(out)["records"]
        assert len(entries) == 15
        for entry in entries:
            originals = {rel: (out / rel).read_bytes()
                         for rel in entry["files"].values()}
            # clobber all three files, then restore from the manifest alone
            for rel in originals:
                (out / rel).write_bytes(b"tampered")
            written = regenerate_record(out, entry["image_index"])
            assert sorted(written) == sorted(originals)
            for rel, original in originals.items():
                assert (out / rel).read_bytes() == original
        assert tree_hash(out) == before

    def test_regenerate_unknown_index(self, tiny_corpus):
        out, _, manifest = tiny_corpus
        before = tree_hash(out)
        for index in (999999, -1, manifest["totals"]["charts"]):
            with pytest.raises(KeyError):
                regenerate_record(out, index)
        assert tree_hash(out) == before

    @pytest.mark.parametrize("index", [True, 1.0, "1", None])
    def test_regenerate_index_not_int(self, tiny_corpus, index):
        # True == 1 and 1.0 == 1: either would rebuild record 1
        out, _, _ = tiny_corpus
        before = tree_hash(out)
        with pytest.raises(TypeError, match="image_index: need an int"):
            regenerate_record(out, index)
        assert tree_hash(out) == before

    @pytest.mark.parametrize("damage", [
        lambda manifest: manifest.pop("records"),
        lambda manifest: manifest["records"][4].update(seed=7),
    ], ids=["no-records", "entry-seed-changed"])
    def test_regenerate_reads_only_version_and_config(self, tmp_path, damage):
        # a record is rebuilt from the config alone: the manifest's records,
        # and what they say of a record, play no part
        out = tmp_path / "corpus"
        generate_corpus(CorpusConfig(seed=9, output_dir=str(out),
                                     count_scale=0.002))
        manifest = load_manifest(out)
        damage(manifest)
        (out / MANIFEST_NAME).write_text(json.dumps(manifest))
        for image_index in range(15):
            originals = {rel: (out / rel).read_bytes() for rel in (
                f"charts/{image_index:06d}.svg", f"meta/{image_index:06d}.json",
                f"descriptions/{image_index:06d}.txt")}
            for rel in originals:
                (out / rel).write_bytes(b"tampered")
            written = regenerate_record(out, image_index)
            assert sorted(written) == sorted(originals)
            for rel, original in originals.items():
                assert (out / rel).read_bytes() == original

    @pytest.mark.parametrize("manifest, message", [
        ([1, 2], "manifest: is a list, not an object"),
        ({"format_version": 2, "config": {"seed": 9}},
         "manifest: config is malformed: KeyError: 'cell_counts'"),
        ({"format_version": 2, "config": []},
         "manifest: config is malformed: TypeError: "),
    ] + [
        # each value needs its field's JSON type: true == 1 and 41.9 would
        # rebuild another record, and int() made 41 of 41.9 and "41"
        (echo_with(path, value), "manifest: config is malformed: TypeError: "
                                 f"{path[-1]}: {value!r} is not of type {cast}")
        for path, value, cast in [
            (["seed"], True, "int"), (["seed"], 41.9, "int"),
            (["seed"], "41", "int"), (["count_scale"], "0.002", "float"),
            (["count_scale"], None, "float"),
            (["cell_counts", "temporal-trend/line"], 880.9, "int"),
            (["cell_counts", "temporal-trend/line"], False, "int"),
            (["plan_params", "m3_min"], True, "int"),
            (["plan_params", "p_move2"], "0.5", "float"),
            (["template_bank"], 5, "str"),
            (["descriptions_per_chart"], 3.0, "int"),
        ]
    ], ids=["not-an-object", "config-without-cells", "config-not-an-object",
            "seed-true", "seed-float", "seed-string", "scale-string",
            "scale-null", "cell-count-float", "cell-count-false",
            "plan-int-true", "plan-float-string", "bank-int",
            "variants-float"])
    def test_regenerate_unreadable_manifest(self, tiny_corpus, tmp_path,
                                            manifest, message):
        out, _, _ = tiny_corpus
        shutil.copytree(out, tmp_path / "copy")
        out = tmp_path / "copy"
        (out / MANIFEST_NAME).write_text(json.dumps(manifest))
        before = tree_hash(out)
        with pytest.raises(ManifestError, match=re.escape(message)):
            regenerate_record(out, 0)
        assert tree_hash(out) == before

    def test_version_1_tree_validates_but_does_not_regenerate(
            self, tiny_corpus, tmp_path):
        # a version-1 tree: indented meta and manifest JSON
        out, _, manifest = tiny_corpus
        shutil.copytree(out, tmp_path / "copy")
        out = tmp_path / "copy"
        (out / MANIFEST_NAME).write_text(json.dumps(
            dict(manifest, format_version=1), indent=1, ensure_ascii=False)
            + "\n", encoding="utf-8")
        for path in (out / "meta").iterdir():
            path.write_text(json.dumps(json.loads(path.read_text()), indent=1))
        assert validate_corpus(out) == []
        with pytest.raises(ManifestError, match="format_version 1 cannot"):
            regenerate_record(out, 0)

    @pytest.mark.parametrize("version, message", [
        (3, "declares 3, not 2"), (True, "is a bool, not an int"),
        (1.0, "is a float, not an int"), ("2", "is a str, not an int"),
        (None, "is a NoneType, not an int")],
        ids=["3", "True", "1.0", "2", "None"])
    def test_unknown_version_fails_validate_and_regenerate(
            self, tiny_corpus, tmp_path, version, message):
        out, _, manifest = tiny_corpus
        shutil.copytree(out, tmp_path / "copy")
        out = tmp_path / "copy"
        (out / MANIFEST_NAME).write_text(
            json.dumps(dict(manifest, format_version=version)))
        assert validate_corpus(out) == [f"manifest: format_version {message}"]
        with pytest.raises(ManifestError,
                           match=f"format_version {version!r} cannot"):
            regenerate_record(out, 0)

    def test_file_catalog_source(self, file_catalog_corpus):
        out, _, manifest = file_catalog_corpus
        assert manifest["totals"]["charts"] == 6
        assert validate_corpus(out) == []


def refuse_to_build(*args, **kwargs):
    raise AssertionError("a catalog or bank was built")


def stats_from_records(corpus_dir) -> dict:
    """The stats document as once counted from the per-record index: the
    oracle of stats, which now plans from the config."""
    records = load_manifest(corpus_dir)["records"]
    grid = {(category, kind): 0 for category in CATEGORIES for kind in KINDS}
    descriptions = 0
    for entry in records:
        grid[(entry["category"], entry["kind"])] += 1
        descriptions += entry["n_descriptions"]
    charts = len(records)
    return {
        "charts": charts,
        "descriptions": descriptions,
        "descriptions_per_chart": descriptions / charts if charts else 0.0,
        "grid": {f"{category}/{kind}": count
                 for (category, kind), count in sorted(grid.items())},
    }


def kinds_from_records(manifest_path) -> dict:
    """eval --by-kind's kinds as once read from the per-record index: the
    oracle of the config's plan."""
    manifest = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
    kinds = {}
    for entry in manifest["records"]:
        index, kind = entry["image_index"], entry["kind"]
        assert type(index) is int and isinstance(kind, str)
        kinds[index] = kind
    return kinds


class TestStats:
    """Aggregate reporting for a generated corpus."""

    def test_grid_counts(self, tiny_corpus):
        out, config, manifest = tiny_corpus
        doc, table = stats(out)
        assert doc["charts"] == manifest["totals"]["charts"]
        assert doc["descriptions"] == manifest["totals"]["descriptions"]
        for category in CATEGORIES:
            for kind in KINDS:
                want = config.scaled_count(category, kind)
                assert doc["grid"][f"{category}/{kind}"] == want

    @pytest.mark.parametrize("damage, message", [
        # stats reads the config and totals, not the records: damage to a
        # record changes nothing
        (lambda m: m["records"][0].pop("kind"), None),
        (lambda m: m["records"][1].update(category="pie"), None),
        (lambda m: m.update(records={}), None),
        (lambda m: m.pop("config"),
         "manifest: config is malformed: KeyError: 'config'"),
        (lambda m: m["config"].update(seed=True), "manifest: config is "
         "malformed: TypeError: seed: True is not of type int"),
        (lambda m: m["config"]["cell_counts"].update({"pie/line": 1}),
         "manifest: config is malformed: ConfigError: cell_counts: unknown "
         "cell pie/line"),
        (lambda m: m["totals"].update(
            descriptions=float(m["totals"]["descriptions"])),
         "manifest: totals.descriptions is not an int"),
        (lambda m: m.update(totals=[]),
         "manifest: totals.descriptions is not an int"),
    ], ids=["no-kind", "unknown-category", "records-not-a-list", "no-config",
            "config-seed-true", "config-unknown-cell", "descriptions-float",
            "totals-not-an-object"])
    def test_damaged_manifest(self, tiny_corpus, tmp_path, damage, message):
        out, _, _ = tiny_corpus
        manifest = load_manifest(out)
        damage(manifest)
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(manifest))
        if message is None:
            assert stats(tmp_path) == stats(out)
            return
        with pytest.raises(ManifestError) as err:
            stats(tmp_path)
        assert str(err.value) == message

    @pytest.mark.parametrize("corpus", ["tiny_corpus", "file_catalog_corpus"])
    def test_matches_the_record_walk(self, request, monkeypatch, capsys,
                                     corpus):
        out, _, manifest = request.getfixturevalue(corpus)
        # planning from the config builds no catalog or bank
        for name in ("synth_catalog", "load_catalog", "load_default_bank"):
            monkeypatch.setattr(f"chartscribe.corpus.{name}", refuse_to_build)
        assert stats(out)[0] == stats_from_records(out)

        # eval --by-kind: each key's hypothesis names it, and is scored
        # under the kind the config plans for it
        scored = {}
        real_score_pair = cli.score_pair

        def spy(hyp, refs, kind):
            scored[int(hyp.split()[1])] = kind
            return real_score_pair(hyp, refs, kind=kind)

        monkeypatch.setattr(cli, "score_pair", spy)
        keys = out.parent / f"{corpus}-keys.jsonl"
        keys.write_text("".join(
            json.dumps({"image_index": i, "text": f"chart {i} shown"}) + "\n"
            for i in range(manifest["totals"]["charts"])))
        assert cli.main(["eval", "--hyp", str(keys), "--ref", str(keys),
                         "--by-kind", str(out / MANIFEST_NAME)]) == 0
        capsys.readouterr()
        assert scored == kinds_from_records(out / MANIFEST_NAME)

    def test_table_text(self, tiny_corpus):
        out, _, manifest = tiny_corpus
        _, table = stats(out)
        assert "temporal-random" in table
        assert "horizontal-bar" in table
        assert str(manifest["totals"]["charts"]) in table
        assert "descriptions per chart" in table


class TestValidate:
    """Disk validation: clean corpora pass, every fault class is caught."""

    def test_clean_corpus(self, tiny_corpus):
        out, _, _ = tiny_corpus
        assert validate_corpus(out) == []

    def test_missing_manifest(self, tmp_path):
        problems = validate_corpus(tmp_path)
        assert len(problems) == 1
        assert "manifest" in problems[0]

    @pytest.fixture()
    def fresh(self, tmp_path):
        out = tmp_path / "corpus"
        generate_corpus(CorpusConfig(seed=13, output_dir=str(out),
                                     count_scale=0.002))
        return out

    def test_missing_chart_file(self, fresh):
        (fresh / "charts" / "000002.svg").unlink()
        assert any("missing chart" in p for p in validate_corpus(fresh))

    def test_truncated_svg(self, fresh):
        path = fresh / "charts" / "000002.svg"
        path.write_bytes(path.read_bytes()[:100])
        assert any("does not parse" in p for p in validate_corpus(fresh))

    def test_bbox_out_of_canvas(self, fresh):
        path = fresh / "meta" / "000001.json"
        doc = json.loads(path.read_text())
        doc["title"]["bbox"]["x"] = -5.0
        path.write_text(json.dumps(doc))
        assert any("bbox outside canvas" in p for p in validate_corpus(fresh))

    def test_tampered_point_value(self, fresh):
        path = fresh / "meta" / "000001.json"
        doc = json.loads(path.read_text())
        doc["series"][0]["points"][0]["value"] *= 3.7
        path.write_text(json.dumps(doc))
        problems = validate_corpus(fresh)
        assert any("value transform" in p or "mismatch" in p
                   for p in problems)

    def test_category_flip(self, fresh):
        path = fresh / "meta" / "000000.json"
        doc = json.loads(path.read_text())
        doc["category"] = "categorical"
        path.write_text(json.dumps(doc))
        assert any("category" in p for p in validate_corpus(fresh))

    def test_residual_slot(self, fresh):
        path = fresh / "descriptions" / "000000.txt"
        lines = path.read_text().splitlines()
        doc = json.loads(lines[0])
        doc["sentences"][0]["text"] = "The {y_label} is shown."
        doc["text"] = "The {y_label} is shown."
        lines[0] = json.dumps(doc, ensure_ascii=False)
        path.write_text("\n".join(lines) + "\n")
        assert any("residual slots" in p for p in validate_corpus(fresh))

    def test_scrambled_move_order(self, fresh):
        path = fresh / "descriptions" / "000000.txt"
        lines = path.read_text().splitlines()
        doc = json.loads(lines[0])
        doc["sentences"] = doc["sentences"][::-1]
        lines[0] = json.dumps(doc, ensure_ascii=False)
        path.write_text("\n".join(lines) + "\n")
        assert any("move order" in p for p in validate_corpus(fresh))

    def test_foreign_digit(self, fresh):
        path = fresh / "descriptions" / "000000.txt"
        lines = path.read_text().splitlines()
        doc = json.loads(lines[0])
        doc["sentences"][-1]["text"] += " The total reached 987654 units."
        doc["text"] += " The total reached 987654 units."
        lines[0] = json.dumps(doc, ensure_ascii=False)
        path.write_text("\n".join(lines) + "\n")
        assert any("987654" in p for p in validate_corpus(fresh))

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.__setitem__("y_unit", 5), "y_unit is an int, not text"),
        (lambda doc: doc["series"][0]["points"][0].__setitem__("x_label", 7),
         "series[0].points[0].x_label is an int, not text")],
        ids=["y_unit", "x_label"])
    def test_fact_that_is_not_text_is_named(self, fresh, edit, message):
        edit_json(fresh / "meta" / "000001.json", edit)
        problems = validate_corpus(fresh)
        assert f"record 000001: {message}" in problems

    @pytest.mark.parametrize("flip", [{"y": "z", "x": "z"}, {"y": "x", "x": "y"}],
                             ids=["z", "flipped"])
    def test_value_axis_orientation_is_the_kinds(self, fresh, flip):
        """An orientation other than the chart kind's is a violation; "z"
        is not read as "y"."""
        path = fresh / "meta" / "000001.json"
        doc = json.loads(path.read_text())
        old = doc["value_axis"]["orientation"]
        assert old == ("x" if doc["chart_kind"] == "horizontal-bar" else "y")
        edit_json(path, lambda doc: doc["value_axis"].__setitem__(
            "orientation", flip[old]))
        assert (f"record 000001: value_axis.orientation {flip[old]!r} is not "
                f"{old!r}") in validate_corpus(fresh)

    def test_cut_series_is_one_violation(self, tmp_path, capsys):
        """A two-series meta whose second series is one point short gives
        one violation naming both point counts, and describe refuses it
        with the same words."""
        root = tmp_path / "corpus"
        generate_corpus(CorpusConfig(seed=41, output_dir=str(root),
                                     count_scale=0.002))
        path = next(p for p in sorted((root / "meta").iterdir())
                    if len(json.loads(p.read_text())["series"]) == 2)
        doc = json.loads(path.read_text())
        n = len(doc["series"][1]["points"])
        edit_json(path, lambda doc: doc["series"][1]["points"].pop())
        message = f"series have {n} and {n - 1} points, not one count above 0"
        assert validate_corpus(root) == [f"record {path.stem}: {message}"]
        assert cli.main(["describe", "--meta", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: describe: {path}: {message}\n")

    def test_orphan_file(self, fresh):
        (fresh / "charts" / "999999.svg").write_text("<svg/>")
        assert any("not in manifest" in p for p in validate_corpus(fresh))

    @staticmethod
    def counts_made_floats(doc):
        # both totals and every cell count floats, the first cell count
        # true: each compares equal to the count it stands for
        doc["totals"] = {key: float(n) for key, n in doc["totals"].items()}
        for cell in doc["cells"]:
            cell["count"] = float(cell["count"])
        doc["cells"][0]["count"] = True

    @pytest.mark.parametrize("tamper, expected", [
        (lambda doc: doc["totals"].update(charts=17),
         ["manifest: totals.charts declares 17, not 15"]),
        (lambda doc: doc["totals"].update(charts=15.0),
         ["manifest: totals.charts is a float, not an int"]),
        (lambda doc: doc["cells"][0].update(count=True),
         ["manifest: cells[0].count is a bool, not an int"]),
        (lambda doc: doc["cells"][0].update(count=2),
         ["manifest: cells[0].count declares 2, not 1"]),
        (counts_made_floats, [
            "manifest: totals.charts is a float, not an int",
            "manifest: totals.descriptions is a float, not an int",
            "manifest: cells[0].count is a bool, not an int",
        ] + [f"manifest: cells[{i}].count is a float, not an int"
             for i in range(1, 12)]),
    ], ids=["charts-plus-two", "charts-float", "cell-count-true",
            "cell-count-plus-one", "every-count-float-or-true"])
    def test_manifest_count_tamper(self, fresh, tamper, expected):
        # a count is a JSON int: true and 15.0 compare equal to 1 and 15
        # but are refused
        path = fresh / MANIFEST_NAME
        doc = json.loads(path.read_text())
        assert doc["totals"]["charts"] == 15 and doc["cells"][0]["count"] == 1
        tamper(doc)
        path.write_text(json.dumps(doc))
        assert validate_corpus(fresh) == expected

    def test_cells_must_list_the_config_grid(self, fresh):
        # without its first cell, no cell check would see temporal-trend/line
        edit_json(fresh / MANIFEST_NAME, lambda doc: doc["cells"].pop(0))
        assert validate_corpus(fresh) == ["manifest: cells has 11 items, not 12"]

    @pytest.mark.parametrize("tamper, expected", [
        # another seed plans other records: every one is flagged
        (lambda doc: doc["config"].update(seed=42), lambda doc, plan: [
            f"manifest: records[{i}].seed declares "
            f"{doc['records'][i]['seed']}, not {plan(i).seed}"
            for i in range(15)]),
        (lambda doc: doc["records"][3].update(cell_index=1),
         lambda doc, plan: ["manifest: records[3].cell_index declares 1, "
                            "not 0"]),
        # as a JSON int: true and 1.0 compare equal to 1
        (lambda doc: doc["records"][1].update(
            cell_index=True, seed=float(doc["records"][1]["seed"])),
         lambda doc, plan: ["manifest: records[1].cell_index is a bool, not "
                            "an int", "manifest: records[1].seed is a float, "
                            "not an int"]),
        (lambda doc: doc["records"][4].pop("seed"),
         lambda doc, plan: ["manifest: records[4].seed is missing"]),
    ], ids=["config-seed", "cell-index", "cell-index-true-seed-float",
            "no-seed"])
    def test_records_must_match_the_config_plan(self, fresh, tamper,
                                                expected):
        edit_json(fresh / MANIFEST_NAME, tamper)
        doc = load_manifest(fresh)
        plan = _RecordBuilder(CorpusConfig.from_dict(doc["config"])).plan
        assert validate_corpus(fresh) == expected(doc, plan)

    def test_record_outside_the_config_plan(self, fresh):
        # the config plans 15 records; the 16th entry copies record 14's
        # files under index 15
        for sub, suffix in (("charts", ".svg"), ("meta", ".json"),
                            ("descriptions", ".txt")):
            shutil.copy(fresh / sub / f"000014{suffix}",
                        fresh / sub / f"000015{suffix}")

        def add_record(doc):
            entry = dict(doc["records"][14], image_index=15)
            entry["files"] = {key: rel.replace("000014", "000015")
                              for key, rel in entry["files"].items()}
            doc["records"].append(entry)

        edit_json(fresh / MANIFEST_NAME, add_record)
        # outside the plan, record 15's files are not read: they are orphans
        assert validate_corpus(fresh) == [
            "manifest: records[15].image_index is 15, not an index the "
            "config plans",
            "layout: charts/000015.svg not in manifest",
            "layout: meta/000015.json not in manifest",
            "layout: descriptions/000015.txt not in manifest"]

    def test_repeated_index_is_one_violation(self, fresh):
        # the first entry listing an index is compared with the record's;
        # a later one that repeats it is one violation, compared with none
        edit_json(fresh / MANIFEST_NAME, lambda doc: doc["records"].append(
            dict(doc["records"][2], seed=7)))
        assert validate_corpus(fresh) == [
            "manifest: records[15] repeats image_index 2"]

    @pytest.mark.parametrize("key, value, expected", [
        ("arity", 7, "arity declares 7, not 1"),
        ("arity", True, "arity is a bool, not an int"),
        ("trend_classes", ["x"],
         "trend_classes[0] declares 'x', not 'linear-increase'"),
        ("trend_classes", ["x", "y"], "trend_classes has 2 items, not 1"),
        ("trend_classes", None, "trend_classes is a NoneType, not a list")],
        ids=["arity-7", "arity-true", "trend-classes-x", "trend-classes-two",
             "no-trend-classes"])
    def test_records_must_match_their_meta_series(self, fresh, key, value,
                                                  expected):
        series = json.loads((fresh / "meta" / "000003.json").read_text())[
            "series"]
        assert [s["trend_class"] for s in series] == ["linear-increase"]
        edit_json(fresh / MANIFEST_NAME,
                  lambda doc: doc["records"][3].update({key: value}))
        assert validate_corpus(fresh) == [f"manifest: records[3].{expected}"]

    def test_meta_that_grew_a_series(self, fresh):
        path = fresh / "meta" / "000003.json"
        doc = json.loads(path.read_text())
        before = [s["trend_class"] for s in doc["series"]]
        doc["series"].append(doc["series"][0])
        path.write_text(json.dumps(doc))
        assert validate_corpus(fresh) == [
            f"manifest: records[3].arity declares {len(before)}, not "
            f"{len(before) + 1}",
            f"manifest: records[3].trend_classes has {len(before)} items, "
            f"not {len(before) + 1}"]

    @staticmethod
    def edit_variant_indices(root: Path, indices: dict) -> None:
        path = root / "descriptions" / "000000.txt"
        lines = path.read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["variant_index"] for line in lines] == [0, 1, 2]
        for line_no, index in indices.items():
            doc = json.loads(lines[line_no])
            doc["variant_index"] = index
            lines[line_no] = json.dumps(doc, ensure_ascii=False)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    @pytest.mark.parametrize("indices, line_no, index, last", [
        ({1: "x"}, 1, "x", 0), ({1: 0}, 1, 0, 0), ({1: 1.0}, 1, 1.0, 0),
        ({1: 2, 2: 1}, 2, 1, 2), ({2: 3}, 2, 3, 1), ({0: -1}, 0, -1, -1),
    ], ids=["string", "repeat", "float", "fall", "too-large", "negative"])
    def test_variant_indices_rise_below_the_config_count(
            self, fresh, indices, line_no, index, last):
        self.edit_variant_indices(fresh, indices)
        assert validate_corpus(fresh) == [
            f"record 000000: description line {line_no} variant_index "
            f"{index!r} is not an int above {last} and below 3"]

    def test_variant_index_gap_of_a_dropped_duplicate(self, fresh):
        path = fresh / "descriptions" / "000000.txt"
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text(lines[0] + "\n" + lines[2] + "\n", encoding="utf-8")

        def drop_line(doc):
            doc["records"][0]["n_descriptions"] -= 1
            doc["totals"]["descriptions"] -= 1

        edit_json(fresh / MANIFEST_NAME, drop_line)
        assert validate_corpus(fresh) == []

    def test_one_audit_per_record_and_check_per_move_sequence(
            self, fresh, monkeypatch):
        # and nothing is kept for the next call
        from chartscribe.corpus import check_move_order, hallucination_check
        sequences = {tuple(s["move"] for s in json.loads(line)["sentences"])
                     for path in (fresh / "descriptions").iterdir()
                     for line in path.read_text().splitlines()}
        audits, checks = [], []
        monkeypatch.setattr(
            "chartscribe.corpus.hallucination_check",
            lambda text, facts: audits.append(text) or hallucination_check(
                text, facts))
        monkeypatch.setattr(
            "chartscribe.corpus.check_move_order",
            lambda moves: checks.append(moves) or check_move_order(moves))
        for _ in range(2):
            audits.clear()
            checks.clear()
            assert validate_corpus(fresh) == []
            assert len(audits) == 15
            assert sorted(checks) == sorted(sequences)

    def test_planned_record_not_listed(self, tmp_path):
        # record 14 is gone with its entry, its files and its counts; the
        # config still plans it, its files and its counts
        out = tmp_path / "corpus"
        manifest = generate_corpus(CorpusConfig(seed=41, output_dir=str(out),
                                                count_scale=0.002))
        entry = manifest["records"][14]
        assert (entry["image_index"], manifest["totals"]["charts"]) == (14, 15)
        for rel in entry["files"].values():
            (out / rel).unlink()

        def drop_record(doc):
            doc["records"].pop(14)
            for cell in doc["cells"]:
                if (cell["category"], cell["kind"]) == (entry["category"],
                                                        entry["kind"]):
                    cell["count"] -= 1
            doc["totals"]["charts"] -= 1
            doc["totals"]["descriptions"] -= entry["n_descriptions"]

        edit_json(out / MANIFEST_NAME, drop_record)
        cell = next(i for i, (category, kind, _, _) in enumerate(
            _RecordBuilder(CorpusConfig(seed=41, count_scale=0.002)).cells)
            if (category, kind) == (entry["category"], entry["kind"]))
        count = load_manifest(out)["cells"][cell]["count"]
        assert validate_corpus(out) == [
            "manifest: no record lists image_index 14, of the 15 the config "
            "plans",
            "record 000014: missing chart file 000014.svg",
            "record 000014: missing meta file 000014.json",
            "record 000014: missing descriptions file 000014.txt",
            "manifest: totals.charts declares 14, not 15",
            f"manifest: cells[{cell}].count declares {count}, not "
            f"{count + 1}"]

    @pytest.mark.parametrize("field", ["kind", "files"])
    def test_malformed_record_still_lists_its_index(self, fresh, field):
        edit_json(fresh / MANIFEST_NAME,
                  lambda doc: doc["records"][4].pop(field))
        assert validate_corpus(fresh) == [
            f"manifest: records[4].{field} is missing"]

    def test_unlisted_records_are_one_violation(self, fresh):
        edit_json(fresh / MANIFEST_NAME, lambda doc: doc.update(records=[]))
        problems = validate_corpus(fresh)
        assert problems[0] == ("manifest: no record lists image_index 0, 1, "
                               "2, 3, 4, ..., of the 15 the config plans")
        assert not any("no record lists" in p for p in problems[1:])

    def test_malformed_config_is_one_violation(self, fresh):
        # and every record is still checked
        edit_json(fresh / MANIFEST_NAME,
                  lambda doc: doc["config"].update(seed="13"))
        (fresh / "charts" / "000002.svg").unlink()
        problems = validate_corpus(fresh)
        assert problems[0] == ("manifest: config is malformed: TypeError: "
                               "seed: '13' is not of type int")
        assert not any(p.startswith("manifest: config") for p in problems[1:])
        assert "record 000002: missing chart file 000002.svg" in problems

    @pytest.mark.parametrize("name, edit, expected", [
        ("descriptions/000001.txt", lambda doc: doc.update(image_index=True),
         "record 000001: description line 0 image_index True mismatch"),
        ("descriptions/000002.txt", lambda doc: doc.update(image_index=2.0),
         "record 000002: description line 0 image_index 2.0 mismatch"),
        ("meta/000002.json", lambda doc: doc.update(image_index=2.0),
         "record 000002: meta image_index 2.0 mismatch, planned 2"),
    ], ids=["description-true", "description-float", "meta-float"])
    def test_record_index_not_an_int(self, fresh, name, edit, expected):
        # true == 1 and 2.0 == 2, but neither is a JSON int
        path = fresh / name
        lines = path.read_text(encoding="utf-8").splitlines()
        doc = json.loads(lines[0])
        edit(doc)
        lines[0] = json.dumps(doc, ensure_ascii=False)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert validate_corpus(fresh) == [expected]

    def test_never_aborts_early(self, fresh):
        """Multiple independent faults are all reported in one pass."""
        (fresh / "charts" / "000002.svg").unlink()
        (fresh / "charts" / "999999.svg").write_text("<svg/>")
        meta_path = fresh / "meta" / "000001.json"
        doc = json.loads(meta_path.read_text())
        doc["title"]["bbox"]["x"] = -5.0
        meta_path.write_text(json.dumps(doc))
        problems = validate_corpus(fresh)
        assert any("missing chart" in p for p in problems)
        assert any("not in manifest" in p for p in problems)
        assert any("bbox outside canvas" in p for p in problems)

    def test_stored_text_replaced(self, fresh):
        """eval scores the stored "text"; it must be the sentences joined."""
        path = fresh / "descriptions" / "000003.txt"
        lines = path.read_text(encoding="utf-8").splitlines()
        doc = json.loads(lines[1])
        doc["text"] = "It peaked at 987654 units."
        lines[1] = json.dumps(doc, ensure_ascii=False)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert validate_corpus(fresh) == [
            "record 000003: description line 1 text is not its sentences "
            "joined"]

    @pytest.mark.parametrize("value", [None, 5, ["a"]],
                             ids=["missing", "int", "list"])
    def test_stored_text_missing_or_not_a_string(self, fresh, value):
        path = fresh / "descriptions" / "000000.txt"
        lines = path.read_text(encoding="utf-8").splitlines()
        doc = json.loads(lines[0])
        if value is None:
            del doc["text"]
        else:
            doc["text"] = value
        lines[0] = json.dumps(doc, ensure_ascii=False)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        # text is a field of the record: a line without one does not parse
        assert validate_corpus(fresh) == [
            "record 000000: description line 0 does not parse: 'text'"
            if value is None else
            "record 000000: description line 0 text is not its sentences "
            "joined"]

    def test_meta_path_is_a_directory(self, fresh):
        path = fresh / "meta" / "000004.json"
        path.unlink()
        path.mkdir()
        problems = validate_corpus(fresh)
        assert "record 000004: missing meta file 000004.json" in problems
        assert not any(p.startswith("record 000004: meta") for p in problems)

    def test_symlinked_record_file_is_not_followed(self, fresh, tmp_path,
                                                   monkeypatch):
        link = fresh / "charts" / "000001.svg"
        target = tmp_path / "outside.svg"
        target.write_bytes(link.read_bytes())  # a valid chart, elsewhere
        link.unlink()
        link.symlink_to(target)
        opened = record_opens(monkeypatch)
        problems = validate_corpus(fresh)
        assert [p for p in problems if p.startswith("record")] == [
            "record 000001: missing chart file 000001.svg"]
        assert identity(target) not in opened
        assert len(opened) == 3 + 3 * 15 - 1  # layout directories, files

    def test_symlinked_layout_directory_is_not_followed(self, fresh, tmp_path,
                                                        monkeypatch):
        target = tmp_path / "elsewhere"
        (fresh / "meta").rename(target)
        (fresh / "meta").symlink_to(target, target_is_directory=True)
        outside = {identity(target)} | {identity(p) for p in target.iterdir()}
        opened = record_opens(monkeypatch)
        problems = validate_corpus(fresh)
        assert "layout: meta/ is a symlink, not followed" in problems
        for i in range(15):
            assert f"record {i:06d}: missing meta file {i:06d}.json" in problems
        assert not outside & set(opened)
        assert len(opened) == 2 + 2 * 15

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
    def test_fifo_and_device_are_not_read(self, fresh):
        (fresh / "meta" / "000005.json").unlink()
        os.mkfifo(fresh / "meta" / "000005.json")
        (fresh / "charts" / "000006.svg").unlink()
        (fresh / "charts" / "000006.svg").symlink_to(os.devnull)
        # in a child process, so that a read which blocks fails the test
        # instead of hanging the suite
        done = subprocess.run(
            [sys.executable, "-c", "import json, sys; from chartscribe.corpus "
             "import validate_corpus; print(json.dumps(validate_corpus("
             "sys.argv[1])))", str(fresh)],
            env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
            text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        problems = json.loads(done.stdout)
        assert "record 000005: missing meta file 000005.json" in problems
        assert "record 000006: missing chart file 000006.svg" in problems

    def test_missing_files_reported_together(self, fresh):
        (fresh / "charts" / "000001.svg").unlink()
        (fresh / "descriptions" / "000001.txt").unlink()
        problems = validate_corpus(fresh)
        assert [p for p in problems if p.startswith("record 000001")] == [
            "record 000001: missing chart file 000001.svg",
            "record 000001: missing descriptions file 000001.txt"]

    @pytest.mark.parametrize("encoding", ["no-such-codec", "shift_jis"])
    def test_svg_encoding_python_cannot_parse(self, fresh, encoding):
        path = fresh / "charts" / "000002.svg"
        path.write_bytes(f'<?xml version="1.0" encoding="{encoding}"?>'
                         .encode() + path.read_bytes())
        problems = validate_corpus(fresh)
        reason = et_error(path.read_bytes())
        assert [p for p in problems if p.startswith("record 000002")] == [
            f"record 000002: chart svg does not parse: {reason}"]


def edit_json(path, mutate):
    doc = json.loads(path.read_text(encoding="utf-8"))
    mutate(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")


class TestValidateDamagedManifest:
    """A malformed manifest record is reported, not read and not raised on,
    and no file outside the corpus root is opened."""

    @pytest.fixture()
    def fresh(self, tmp_path):
        out = tmp_path / "corpus"
        generate_corpus(CorpusConfig(seed=13, output_dir=str(out),
                                     count_scale=0.002))
        return out

    def test_record_without_files(self, fresh):
        edit_json(fresh / MANIFEST_NAME,
                  lambda doc: doc["records"][2].pop("files"))
        assert validate_corpus(fresh) == ["manifest: records[2].files is missing"]

    @pytest.mark.parametrize("field", ["category", "n_descriptions", "kind"])
    def test_record_without_field(self, fresh, field):
        edit_json(fresh / MANIFEST_NAME,
                  lambda doc: doc["records"][4].pop(field))
        assert validate_corpus(fresh) == [
            f"manifest: records[4].{field} is missing"]

    def test_image_index_not_an_int(self, fresh):
        edit_json(fresh / MANIFEST_NAME,
                  lambda doc: doc["records"][1].__setitem__("image_index", "x"))
        problems = validate_corpus(fresh)
        assert problems == [
            "manifest: records[1].image_index is 'x', not an index the config "
            "plans",
            "manifest: no record lists image_index 1, of the 15 the config "
            "plans"]

    def test_records_not_a_list(self, fresh):
        edit_json(fresh / MANIFEST_NAME,
                  lambda doc: doc.__setitem__("records", 5))
        assert "manifest: records is an int, not a list" in \
            validate_corpus(fresh)

    @pytest.mark.parametrize("relative", [True, False])
    def test_file_path_outside_the_root_is_not_opened(self, fresh, tmp_path,
                                                      monkeypatch, relative):
        outside = tmp_path / "outside.svg"
        outside.write_text("not an svg", encoding="utf-8")
        target = "../outside.svg" if relative else str(outside)
        edit_json(fresh / MANIFEST_NAME, lambda doc:
                  doc["records"][3]["files"].__setitem__("chart", target))
        inside = {identity(p) for p in fresh.rglob("*")}
        opened = record_opens(monkeypatch)
        problems = validate_corpus(fresh)
        # the stored path is compared, never opened: record 3 is read at
        # its layout paths
        assert problems == [f"manifest: records[3].files.chart declares "
                            f"{target!r}, not 'charts/000003.svg'"]
        assert len(opened) == 3 + 3 * 15  # layout directories, files
        assert set(opened) <= inside

    def test_manifest_not_an_object(self, fresh):
        (fresh / MANIFEST_NAME).write_text("[1, 2]", encoding="utf-8")
        assert validate_corpus(fresh) == ["manifest: is a list, not an object"]

    @pytest.mark.parametrize("field, value", [("text", 5), ("move", ["M1"])])
    def test_sentence_field_of_wrong_type(self, fresh, field, value):
        path = fresh / "descriptions" / "000001.txt"
        lines = path.read_text(encoding="utf-8").splitlines()
        doc = json.loads(lines[0])
        doc["sentences"][0][field] = value
        lines[0] = json.dumps(doc)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert any(p.startswith("record 000001: description line 0 does not "
                                "parse") for p in validate_corpus(fresh))

    def test_description_file_not_utf8(self, fresh):
        (fresh / "descriptions" / "000002.txt").write_bytes(b"\xff\xfe{}")
        assert any(p.startswith("record 000002: description file is not UTF-8")
                   for p in validate_corpus(fresh))

    @pytest.mark.parametrize("body",
                             [b"not json", b'{"records": [', b"\xff{}"],
                             ids=["not-json", "cut", "not-utf8"])
    def test_manifest_does_not_parse(self, fresh, body):
        (fresh / MANIFEST_NAME).write_bytes(body)
        with pytest.raises(ManifestError) as err:
            load_manifest(fresh)
        message = str(err.value)
        assert message.startswith("manifest: manifest.json does not parse: ")
        assert validate_corpus(fresh) == [message]
        with pytest.raises(ManifestError):
            stats(fresh)


DEEP_JSON = "[" * 200000 + "]" * 200000
RECURSION = "maximum recursion depth exceeded"


class TestDeeplyNestedJson:
    """JSON nested deeper than the decoder can recurse is malformed input:
    it is reported, or refused with a named error, never raised as a
    RecursionError."""

    @pytest.fixture()
    def fresh(self, tmp_path):
        out = tmp_path / "corpus"
        generate_corpus(CorpusConfig(seed=41, output_dir=str(out),
                                     count_scale=0.002))
        return out

    def test_meta_file(self, fresh):
        (fresh / "meta" / "000003.json").write_text(DEEP_JSON)
        problems = [p for p in validate_corpus(fresh)
                    if p.startswith("record 000003")]
        assert len(problems) == 1
        assert problems[0].startswith(
            f"record 000003: meta does not parse: {RECURSION}")

    def test_description_line(self, fresh):
        path = fresh / "descriptions" / "000002.txt"
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join([DEEP_JSON] + lines[1:]) + "\n")
        problems = [p for p in validate_corpus(fresh)
                    if p.startswith("record 000002")]
        assert len(problems) == 1
        assert problems[0].startswith("record 000002: description line 0 "
                                      f"does not parse: {RECURSION}")

    def test_manifest(self, fresh):
        (fresh / MANIFEST_NAME).write_text(DEEP_JSON)
        problems = validate_corpus(fresh)
        assert len(problems) == 1
        assert problems[0].startswith(
            f"manifest: manifest.json does not parse: {RECURSION}")
        with pytest.raises(ManifestError, match=RECURSION):
            stats(fresh)


class TestWritesDoNotFollowLinks:
    """generate and regenerate_record replace a symlink or hard link at a
    layout file path, refuse a symlinked layout directory with OSError, and
    write nothing through either."""

    @pytest.fixture()
    def fresh(self, tmp_path):
        config = CorpusConfig(seed=41, output_dir=str(tmp_path / "corpus"),
                              count_scale=0.002)
        generate_corpus(config)
        return config

    @staticmethod
    def plant(root, rel, outside, target, link):
        """Move the layout path rel to outside, link rel to it, and put a
        sentinel in target, the file a write through the link reaches."""
        (root / rel).rename(outside)
        target.write_text("outside the corpus", encoding="utf-8")
        if link == "symlink":
            (root / rel).symlink_to(outside)
        else:
            os.link(outside, root / rel)

    @pytest.mark.parametrize("link", ["symlink", "hardlink"])
    @pytest.mark.parametrize("rel", ["charts/000001.svg", "meta/000001.json",
                                     "descriptions/000001.txt"])
    def test_regenerate_record_replaces_a_linked_file(self, fresh, tmp_path,
                                                      rel, link):
        root, outside = Path(fresh.output_dir), tmp_path / "outside"
        self.plant(root, rel, outside, outside, link)
        assert rel in regenerate_record(root, 1)
        assert outside.read_text(encoding="utf-8") == "outside the corpus"
        assert not (root / rel).is_symlink()
        assert (root / rel).stat().st_nlink == 1
        assert validate_corpus(root) == []

    @pytest.mark.parametrize("link", ["symlink", "hardlink"])
    @pytest.mark.parametrize("rel", [MANIFEST_NAME, "charts/000000.svg"])
    def test_generate_replaces_a_linked_file(self, fresh, tmp_path, rel,
                                             link):
        root, outside = Path(fresh.output_dir), tmp_path / "outside"
        self.plant(root, rel, outside, outside, link)
        generate_corpus(fresh)
        assert outside.read_text(encoding="utf-8") == "outside the corpus"
        assert not (root / rel).is_symlink()
        assert (root / rel).stat().st_nlink == 1
        assert validate_corpus(root) == []

    @pytest.mark.parametrize("rel", ["meta", "descriptions"])
    def test_symlinked_layout_directory_is_refused(self, fresh, tmp_path,
                                                   rel):
        root, outside = Path(fresh.output_dir), tmp_path / "outside"
        target = outside / ("000001.json" if rel == "meta" else "000001.txt")
        self.plant(root, rel, outside, target, "symlink")
        with pytest.raises(OSError):
            regenerate_record(root, 1)
        with pytest.raises(OSError):
            generate_corpus(fresh)
        assert target.read_text(encoding="utf-8") == "outside the corpus"
        assert (root / rel).is_symlink()

    def test_layout_directory_swapped_after_open_is_not_followed(
            self, fresh, tmp_path):
        # the write goes by name into the directory that was opened, not
        # through the path that now names a symlink
        root, outside = Path(fresh.output_dir), tmp_path / "outside"
        outside.mkdir()
        payload = _RecordBuilder(fresh)(0)
        with corpus._layout_dirs(root) as dirs:
            (root / "charts").rename(tmp_path / "moved")
            (root / "charts").symlink_to(outside, target_is_directory=True)
            corpus._write_payload(root, dirs, payload)
        assert list(outside.iterdir()) == []
        assert (tmp_path / "moved" / "000000.svg").read_bytes() \
            == payload.data["chart"]

    @pytest.mark.parametrize("via", ["generate_corpus", "cli"])
    def test_layout_directory_swapped_before_the_workers_open_theirs(
            self, fresh, tmp_path, monkeypatch, capsys, via):
        # the parent has opened its layout directories; each worker opens
        # its own, refuses the symlink, and its OSError reaches the parent
        root, outside = Path(fresh.output_dir), tmp_path / "outside"
        outside.mkdir()
        start_pool = corpus.ProcessPoolExecutor

        def swap_then_start(*args, **kwargs):
            (root / "charts").rename(tmp_path / "moved")
            (root / "charts").symlink_to(outside, target_is_directory=True)
            return start_pool(*args, **kwargs)

        monkeypatch.setattr(corpus, "ProcessPoolExecutor", swap_then_start)
        if via == "cli":
            assert cli.main(["generate", "--seed", "41", "--count-scale",
                             "0.002", "--out", str(root), "--jobs", "2"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err
        else:
            with pytest.raises(OSError):
                generate_corpus(fresh, jobs=2)
        assert list(outside.iterdir()) == []

    def test_symlink_planted_after_the_unlink_is_not_followed(
            self, fresh, tmp_path, monkeypatch):
        root, outside = Path(fresh.output_dir), tmp_path / "outside"
        outside.write_text("outside the corpus", encoding="utf-8")
        unlink = os.unlink

        def unlink_then_plant(name, *, dir_fd=None):
            unlink(name, dir_fd=dir_fd)
            os.symlink(outside, name, dir_fd=dir_fd)

        monkeypatch.setattr(os, "unlink", unlink_then_plant)
        with pytest.raises(FileExistsError):
            regenerate_record(root, 1)
        monkeypatch.undo()
        assert outside.read_text(encoding="utf-8") == "outside the corpus"


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


def mutate_at(doc, steps, action, value):
    """Walk into doc, step i choosing child i modulo the container size,
    then replace or delete the node reached (the root is replaced)."""
    parent, key, node = None, None, doc
    for step in steps:
        if isinstance(node, dict) and node:
            k = sorted(node)[step % len(node)]
        elif isinstance(node, list) and node:
            k = step % len(node)
        else:
            break
        parent, key, node = node, k, node[k]
    if parent is None:
        return value
    if action == "delete":
        del parent[key]
    else:
        parent[key] = value
    return doc


@pytest.fixture(scope="module")
def fuzz_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz") / "corpus"
    manifest = generate_corpus(CorpusConfig(seed=41, output_dir=str(out),
                                            count_scale=0.002))
    return out, len(manifest["records"])


class TestValidateFuzz:
    """Mutated manifest, meta and description JSON: validate_corpus returns
    a list of strings and raises nothing."""

    @settings(max_examples=200)
    @given(target=st.sampled_from(["manifest", "meta", "descriptions"]),
           record=st.integers(0, 1000),
           steps=st.lists(st.integers(0, 1000), max_size=6),
           action=st.sampled_from(["replace", "delete"]),
           value=JSON_VALUES)
    def test_never_raises(self, fuzz_corpus, target, record, steps, action,
                          value):
        root, n_records = fuzz_corpus
        name = f"{record % n_records:06d}"
        path = {"manifest": root / MANIFEST_NAME,
                "meta": root / "meta" / f"{name}.json",
                "descriptions": root / "descriptions" / f"{name}.txt"}[target]
        original = path.read_text(encoding="utf-8")
        lines = original.splitlines()
        line = steps[0] % len(lines) if steps and target == "descriptions" else 0
        if target != "descriptions":
            lines = [original]
        lines[line] = json.dumps(
            mutate_at(json.loads(lines[line]), steps, action, value))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        try:
            problems = validate_corpus(root)
        finally:
            path.write_text(original, encoding="utf-8")
        assert isinstance(problems, list)
        assert all(isinstance(p, str) for p in problems)


HEAD_KEYS = corpus._MANIFEST_KEYS
FINITE_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)
WHITESPACE = st.text(" \t\n\r", max_size=2)


def read_head(path):
    """What _read_manifest_head gives for path, its result or its error
    text, and whether it read the whole manifest."""
    with mock.patch.object(corpus, "_read_manifest",
                           wraps=corpus._read_manifest) as whole:
        try:
            got = corpus._read_manifest_head(path)
        except ManifestError as exc:
            got = str(exc)
    return got, whole.called


def read_whole(path):
    try:
        return corpus._read_manifest(path)
    except ManifestError as exc:
        return str(exc)


def without_records(doc: dict) -> dict:
    return {key: value for key, value in doc.items() if key != "records"}


@st.composite
def manifest_texts(draw):
    """(text, its uncut text, whether the head reader may stop at
    "records"): the five members generate writes, in its order or shuffled,
    with keys repeated before "records", whitespace between tokens, a value
    or a separator before "records" that is not JSON, values with or
    without characters beyond ASCII, and the text cut inside "records"."""
    rarely = st.integers(0, 3).map(lambda n: n == 3)
    plain = draw(st.booleans())
    keys = list(draw(st.just(HEAD_KEYS) | st.permutations(HEAD_KEYS)))
    for _ in range(draw(st.integers(1, 2)) if draw(rarely) else 0):
        keys.insert(draw(st.integers(0, keys.index("records"))),
                    draw(st.sampled_from(HEAD_KEYS + ("extra",))))
    values = [json.dumps(draw(FINITE_JSON), ensure_ascii=plain)
              for _ in keys]
    fast = tuple(keys[:5]) == HEAD_KEYS
    first_records = keys.index("records")
    if first_records and draw(rarely):  # a value that is not JSON
        values[draw(st.integers(0, first_records - 1))] = draw(
            st.sampled_from(["[1,", "nul", '"a', "01", "-"]))
        fast = False
    openers = ["{"] + [","] * (len(keys) - 1)
    if draw(rarely):  # "{" or "," missing or wrong up to "records"
        at = draw(st.integers(0, first_records))
        openers[at] = draw(st.sampled_from(["{" if at else ",", "", "[",
                                            ";", ",,"]))
        fast = False
    parts, cut_from = [], None
    for i, (key, value) in enumerate(zip(keys, values)):
        parts += [draw(WHITESPACE), openers[i], draw(WHITESPACE),
                  json.dumps(key), draw(WHITESPACE), ":"]
        if i == 4:
            cut_from = len("".join(parts))
        parts += [draw(WHITESPACE), value, draw(WHITESPACE)]
    text = "".join(parts + ["}", draw(WHITESPACE)])
    if fast and draw(st.booleans()):
        return text[:draw(st.integers(cut_from, len(text) - 1))], text, fast
    return text, text, fast


class TestManifestHead:
    """stats, eval --by-kind and regenerate_record stop decoding a
    manifest at "records" when the members before it are the four generate
    writes there, in its order; any other manifest is decoded whole, with
    _read_manifest's result or error."""

    @pytest.fixture(scope="class")
    def scratch(self, tmp_path_factory):
        return tmp_path_factory.mktemp("head") / MANIFEST_NAME

    def check(self, path, uncut: str, fast: bool):
        got, whole = read_head(path)
        assert whole is not fast
        if fast:
            assert got == without_records(json.loads(uncut))
        else:
            assert got == read_whole(path)

    @settings(max_examples=300)
    @given(drawn=manifest_texts(), junk=st.binary(max_size=3))
    def test_drawn_manifests(self, scratch, drawn, junk):
        text, uncut, fast = drawn
        # bytes after a cut inside "records" are never decoded
        scratch.write_bytes(text.encode("utf-8")
                            + (junk if text != uncut else b""))
        self.check(scratch, uncut, fast)

    @settings(max_examples=300)
    @given(drawn=manifest_texts(), data=st.data())
    def test_drawn_manifests_cut_by_the_prefix(self, scratch, drawn, data):
        # a prefix that ends before the colon after "records", in a member,
        # a value or a character, sends the read whole
        text, uncut, fast = drawn
        raw = text.encode("utf-8")
        size = data.draw(st.integers(0, len(raw)), label="prefix bytes")
        if fast:  # no value is long enough to hold the key "records"
            colon = text.index(":", text.index('"records"'))
            fast = size > len(text[:colon].encode("utf-8"))
        scratch.write_bytes(raw)
        with mock.patch.object(corpus, "_HEAD_BYTES", size):
            self.check(scratch, uncut, fast)

    def test_every_prefix_of_a_manifest_beyond_ascii(self, scratch):
        # two-, three- and four-byte characters in the head and in
        # "records", each cut at some prefix length
        text = json.dumps({
            "format_version": 2, "config": {"template_bank": "bänk€𝄞.tsv"},
            "totals": {"charts": 1}, "cells": [],
            "records": [{"kind": "ü€𝄞"}]}, ensure_ascii=False)
        raw = text.encode("utf-8")
        colon = len(text[:text.index(":", text.index('"records"'))].encode())
        scratch.write_bytes(raw)
        for size in range(len(raw) + 1):
            with mock.patch.object(corpus, "_HEAD_BYTES", size):
                self.check(scratch, text, size > colon)

    @pytest.mark.parametrize("where", ["config", "records"])
    def test_character_cut_at_the_prefix_boundary(self, scratch, where):
        # "€" (three bytes) starts at the prefix's last byte, in the head's
        # config or in "records"
        def manifest(value: str) -> str:
            return json.dumps({
                "format_version": 2,
                "config": {"x": value} if where == "config" else {},
                "totals": {}, "cells": [],
                "records": [value] if where == "records" else []},
                ensure_ascii=False)

        pad = "x" * (corpus._HEAD_BYTES - 1 - manifest("€").index("€"))
        text = manifest(pad + "€")
        raw = text.encode("utf-8")
        assert raw[corpus._HEAD_BYTES - 1:corpus._HEAD_BYTES + 2] \
            == "€".encode("utf-8")
        scratch.write_bytes(raw)
        self.check(scratch, text, where == "records")

    @settings(max_examples=100)
    @given(text=FINITE_JSON.filter(lambda v: not isinstance(v, dict)).map(
        json.dumps) | st.text(max_size=8))
    def test_not_an_object(self, scratch, text):
        scratch.write_text(text, encoding="utf-8")
        self.check(scratch, "", False)

    @pytest.mark.parametrize("seed, scale", [
        (41, 0.002), (13, 0.002), (2026, 0.004), (41, 0.02)])
    def test_generated_manifests(self, tmp_path, seed, scale):
        out = tmp_path / "corpus"
        generate_corpus(CorpusConfig(seed=seed, output_dir=str(out),
                                     count_scale=scale))
        path = out / MANIFEST_NAME
        text = path.read_text(encoding="utf-8")
        assert tuple(json.loads(text)) == HEAD_KEYS
        self.check(path, text, True)
        # indented, as format version 1 was written
        doc = json.loads(text)
        doc["format_version"] = 1
        path.write_text(json.dumps(doc, indent=1, ensure_ascii=False) + "\n",
                        encoding="utf-8")
        self.check(path, path.read_text(encoding="utf-8"), True)

    @pytest.mark.parametrize("damage", [
        lambda t: t.replace(b'"config":{', b'"config":' + DEEP_JSON.encode()
                            + b',"x":{'),
        lambda t: t.replace(b'"seed"', b'"se\xffed"'),
        lambda t: "\ufeff".encode("utf-8") + t,
    ], ids=["nested-too-deep", "not-utf8", "byte-order-mark"])
    def test_damaged_head(self, scratch, damage):
        text = json.dumps({"format_version": 2, "config": {"seed": 1},
                           "totals": {}, "cells": [], "records": []},
                          separators=(",", ":")).encode("utf-8")
        scratch.write_bytes(damage(text))
        self.check(scratch, "", False)
        assert isinstance(read_head(scratch)[0], str)  # refused

    def test_commands_decode_no_record_entry(self, tmp_path, capsys):
        tree = tmp_path / "clean"
        generate_corpus(CorpusConfig(seed=41, output_dir=str(tree),
                                     count_scale=0.002))
        keys = tmp_path / "keys.jsonl"
        keys.write_text("".join(
            json.dumps({"image_index": i, "text": f"chart {i} shown"}) + "\n"
            for i in range(15)))

        def results(name: str, manifest: bytes):
            """stats' table, the eval --by-kind report and the bytes
            regenerate_record writes for record 3, under manifest"""
            copy = tmp_path / name
            shutil.copytree(tree, copy)
            (copy / MANIFEST_NAME).write_bytes(manifest)
            files = [copy / rel for rel in corpus._record_files(3).values()]
            for path in files:
                path.write_bytes(b"stale")
            regenerate_record(copy, 3)
            assert cli.main(["eval", "--hyp", str(keys), "--ref", str(keys),
                             "--by-kind", str(copy / MANIFEST_NAME)]) == 0
            return (stats(copy)[1], capsys.readouterr().out,
                    [path.read_bytes() for path in files])

        text = (tree / MANIFEST_NAME).read_bytes()
        clean = results("clean-copy", text)
        assert clean[2] == [(tree / rel).read_bytes()
                            for rel in corpus._record_files(3).values()]
        opened = text.index(b'"records":[') + len(b'"records":[')
        cut = text[:opened] + b'\xff\x00{"image_index": junk'
        with mock.patch.object(corpus, "_read_manifest",
                               side_effect=AssertionError("read whole")):
            assert results("cut", cut) == clean
        assert validate_corpus(tmp_path / "cut")[0].startswith(
            "manifest: manifest.json does not parse: ")

        # another key order is read whole, with the same results
        sorted_keys = json.dumps(json.loads(text), sort_keys=True).encode()
        with mock.patch.object(corpus, "_read_manifest",
                               wraps=corpus._read_manifest) as whole:
            assert results("sorted", sorted_keys) == clean
        assert whole.call_count == 3

        # a member repeated after "records" is validate's to see
        repeated = text.rstrip()[:-1] + b',"config":{"seed":1}}\n'
        assert results("repeated", repeated) == clean
        assert validate_corpus(tmp_path / "repeated")


def cut_last_line(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")


def copied(root, tmp_path):
    copy = tmp_path / "corpus"
    shutil.copytree(root, copy)
    return copy


# what a test sets a manifest field to when not to other_value's value
REPLACEMENTS = {"true": True, "float": 1.0, "string": "ab", "null": None,
                "list": [1]}
# the fields of a record that its files or the config determine: attempt,
# which nothing on disk does, is not compared
RECORD_FIELDS = ("image_index", "category", "kind", "cell_index", "seed",
                 "arity", "trend_classes", "n_descriptions", "files")


def other_value(value):
    """A value of value's JSON type that differs from it."""
    if type(value) is int:
        return value + 1000  # an image_index outside the plan too
    if type(value) is str:
        return value + "x"
    if type(value) is list:
        return value + ["x"]
    return {**value, "chart": "x"}  # a record's files


class TestValidateAgainstGenerate:
    """validate compares the manifest with the one generate writes for its
    config and the files on disk: one damaged file, or one field of the
    manifest set to another type or value, is one violation."""

    @pytest.mark.parametrize("damage, expected", [
        (lambda root: (root / "meta" / "000003.json").unlink(),
         "record 000003: missing meta file 000003.json"),
        (lambda root: (root / "meta" / "000003.json").write_text(
            '{"image_index": 3', encoding="utf-8"),
         "record 000003: meta does not parse: Expecting ',' delimiter"),
        (lambda root: (root / "descriptions" / "000003.txt").unlink(),
         "record 000003: missing descriptions file 000003.txt"),
        (lambda root: edit_json(root / MANIFEST_NAME,
                                lambda doc: doc["records"].pop(3)),
         "manifest: no record lists image_index 3, of the 15 the config "
         "plans"),
        (lambda root: cut_last_line(root / "descriptions" / "000003.txt"),
         "record 000003: descriptions/000003.txt has 2 lines, manifest "
         "says 3"),
        (lambda root: (root / "descriptions" / "000003.txt").write_bytes(b""),
         "record 000003: description file is empty"),
    ], ids=["deleted-meta", "truncated-meta", "deleted-descriptions",
            "dropped-entry", "cut-descriptions", "emptied-descriptions"])
    def test_one_damaged_file_is_one_violation(self, fuzz_corpus, tmp_path,
                                               damage, expected):
        root = copied(fuzz_corpus[0], tmp_path)
        damage(root)
        problems = validate_corpus(root)
        assert len(problems) == 1, problems
        assert problems[0].startswith(expected)

    @pytest.mark.parametrize("value", [{}, {"a": 1}, "ab", 5, [1], ["ab"]],
                             ids=["empty-object", "object", "string", "int",
                                  "int-item", "string-item"])
    @pytest.mark.parametrize("field", ["x_ticks", "y_ticks", "legend.entries",
                                       "series", "series[0].points",
                                       "sentences"])
    def test_list_field_is_decoded_only_from_an_array(self, fuzz_corpus,
                                                      tmp_path, field, value):
        """A list field of a meta or description line is decoded from a
        JSON array of objects only; the first value that is not is named."""
        root = copied(fuzz_corpus[0], tmp_path)
        if field == "sentences":
            path, where = root / "descriptions" / "000000.txt", "description line 0"
            decode = Description.from_json_line
        else:
            path, where = root / "meta" / "000000.json", "meta"
            decode = ChartMeta.from_json
        lines = path.read_text(encoding="utf-8").splitlines()
        doc = json.loads(lines[0])
        keys = {"legend.entries": ("legend", "entries"),
                "series[0].points": ("series", 0, "points")}.get(field, (field,))
        parent = doc
        for key in keys[:-1]:
            parent = parent[key]
        parent[keys[-1]] = value
        lines[0] = json.dumps(doc)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        noun = {int: "an int", str: "a str", dict: "a dict"}
        if type(value) is list:
            message = f"{keys[-1]}[0] is {noun[type(value[0])]}, not an object"
        else:
            message = f"{keys[-1]} is {noun[type(value)]}, not a list"
        with pytest.raises(TypeError, match=re.escape(message)):
            decode(lines[0])
        assert validate_corpus(root) == [
            f"record 000000: {where} does not parse: {message}"]

    @settings(max_examples=150)
    @given(part=st.sampled_from(["records", "totals", "cells"]),
           index=st.integers(0, 1000), key=st.integers(0, 1000),
           replacement=st.sampled_from(sorted(REPLACEMENTS) + ["other"]))
    def test_one_changed_field_is_one_violation(self, fuzz_corpus, part,
                                                index, key, replacement):
        root, n_records = fuzz_corpus
        path = root / MANIFEST_NAME
        original = path.read_text(encoding="utf-8")
        doc = json.loads(original)
        if part == "records":
            index %= n_records
            target, name = doc["records"][index], RECORD_FIELDS[
                key % len(RECORD_FIELDS)]
            where = f"records[{index}].{name}"
        elif part == "cells":
            index %= len(doc["cells"])
            target, name = doc["cells"][index], ("category", "kind",
                                                 "count")[key % 3]
            where = f"cells[{index}].{name}"
        else:
            target, name = doc["totals"], ("charts", "descriptions")[key % 2]
            where = f"totals.{name}"
        old = target[name]
        new = (other_value(old) if replacement == "other"
               else REPLACEMENTS[replacement])
        assert (type(new), new) != (type(old), old)
        target[name] = new
        path.write_text(json.dumps(doc), encoding="utf-8")
        try:
            problems = validate_corpus(root)
        finally:
            path.write_text(original, encoding="utf-8")
        named = [p for p in problems
                 if re.match(rf"manifest: {re.escape(where)}[ .\[]", p)]
        assert len(named) == 1, problems
        # a record whose image_index changed no longer lists its own
        assert [p for p in problems if p not in named] == (
            [f"manifest: no record lists image_index {index}, of the "
             f"{n_records} the config plans"] if name == "image_index" else [])


def et_error(data):
    """The SVG check the validator made before expat: the message of
    ElementTree's parse error, or of the LookupError or ValueError it
    raises for an encoding it cannot use; None when the SVG parses."""
    try:
        ET.fromstring(data)
    except (ET.ParseError, LookupError, ValueError) as exc:
        return str(exc)
    return None


@pytest.fixture(scope="module")
def chart_svgs(tiny_corpus):
    out, _, _ = tiny_corpus
    return [p.read_bytes() for p in sorted((out / "charts").iterdir())]


EXTERNAL_DOCTYPE = b'<!DOCTYPE svg SYSTEM "svg.dtd">\n'
DOCTYPES = [
    b"",
    EXTERNAL_DOCTYPE,
    b'<!DOCTYPE svg PUBLIC "-//W3C//DTD SVG 1.1//EN" "svg11.dtd">',
    b"<!DOCTYPE svg>",
    b'<!DOCTYPE svg [<!ENTITY e "kt">]>',
    b'<!DOCTYPE svg [<!ENTITY e SYSTEM "e.txt">]>',
    b'<!DOCTYPE svg SYSTEM "svg.dtd" [<!ENTITY e SYSTEM "e.txt">]>',
    b'<!DOCTYPE svg [<!ENTITY f SYSTEM "f.txt"><!ENTITY e "a&f;b">]>',
    b'<!DOCTYPE svg [<!ENTITY e "&undeclared;">]>',
    b'<!DOCTYPE svg SYSTEM "svg.dtd" [<!ENTITY e "&undeclared;">]>',
    b'<!DOCTYPE svg SYSTEM "svg.dtd" [%pe;]>',
    b'<!DOCTYPE svg [<!ENTITY % pe SYSTEM "pe.dtd"> %pe;]>',
    b'<?xml version="1.0" standalone="yes"?><!DOCTYPE svg SYSTEM "svg.dtd">',
]
# pieces a mutation inserts: entity and character references, an undeclared
# prefix, bytes that are not UTF-8 or not XML, markup and stray text
PIECES = [b"&e;", b"&name;", b"&amp;", b"&#65;", b"&#0;", b"&", b"<q:g/>",
          b' q:x="1"', b"\xff", b"\x00", b"\xc3", b"\x80", b"\xe9\x80\x80",
          b"<", b">", b"</g>", b"<g>", b"]]>", b"<!-- c -->", b"<?pi x?>",
          b'"', b"junk", b"<svg/>", b"\n", b"\r\n"]


def assert_svg_check_matches(data):
    assert _svg_error(data) == et_error(data), data[:200]


class TestSvgCheck:
    """The expat well-formedness check against ElementTree.fromstring, the
    parser it replaced: both accept, or both reject with one message."""

    def test_generated_charts_parse(self, chart_svgs):
        assert [_svg_error(svg) for svg in chart_svgs] == \
            [None] * len(chart_svgs)

    def test_every_truncation_point(self, chart_svgs):
        svg = chart_svgs[0]
        for end in range(len(svg) + 1):
            assert_svg_check_matches(svg[:end])

    @pytest.mark.parametrize("doctype", DOCTYPES)
    def test_inserted_entity(self, chart_svgs, doctype):
        svg = chart_svgs[1]
        # after every tag and inside every quoted attribute value
        cuts = [i + 1 for i, b in enumerate(svg) if b in b'>"']
        for cut in cuts[::3] + [len(svg)]:
            for ref in (b"&e;", b"&name;", b"&amp;&#65;"):
                assert_svg_check_matches(doctype + svg[:cut] + ref + svg[cut:])

    def test_undeclared_prefix(self, chart_svgs):
        svg = chart_svgs[2]
        for old, new in ((b"<text", b"<q:text"), (b"</text>", b"</q:text>"),
                         (b" x=", b" q:x="), (b"<svg ", b"<svg:svg "),
                         (b"<svg ", b'<svg xmlns:q="" ')):
            assert_svg_check_matches(svg.replace(old, new, 1))
            assert_svg_check_matches(svg.replace(old, new))

    def test_invalid_bytes(self, chart_svgs):
        svg = chart_svgs[3]
        for bad in (b"\xff", b"\x00", b"\xc3", b"\x80", b"\xed\xa0\x80",
                    b"\x0b"):
            for cut in range(0, len(svg), max(1, len(svg) // 40)):
                assert_svg_check_matches(svg[:cut] + bad + svg[cut:])

    @pytest.mark.parametrize("tail", [b"junk", b"<svg/>", b"</svg>",
                                      b"<!-- c -->", b"<?pi x?>", b"\n \t",
                                      b"&amp;", b"\x00"])
    def test_junk_after_root(self, chart_svgs, tail):
        assert_svg_check_matches(chart_svgs[4] + tail)

    @pytest.mark.parametrize("encoding", ["utf-8", "UTF-8", "ascii",
                                          "latin-1", "utf-16", "cp1252",
                                          "no-such-codec", "shift_jis"])
    def test_encoding_declaration(self, chart_svgs, encoding):
        decl = f'<?xml version="1.0" encoding="{encoding}"?>\n'.encode()
        assert_svg_check_matches(decl + chart_svgs[5])
        assert_svg_check_matches(decl + chart_svgs[5] + b"\xe9")

    def test_byte_order_marks(self, chart_svgs):
        svg = chart_svgs[6]
        assert_svg_check_matches(b"\xef\xbb\xbf" + svg)
        utf16 = svg.decode().encode("utf-16-le")
        assert_svg_check_matches(b"\xff\xfe" + utf16)
        assert_svg_check_matches(b"\xff\xfe" + svg)

    @settings(max_examples=400)
    @given(chart=st.integers(0, 1000), doctype=st.sampled_from(DOCTYPES),
           inserts=st.lists(
               st.tuples(st.floats(0, 1), st.sampled_from(PIECES)),
               max_size=3),
           end=st.one_of(st.none(), st.floats(0, 1)))
    def test_mutated_charts(self, chart_svgs, chart, doctype, inserts, end):
        svg = chart_svgs[chart % len(chart_svgs)]
        for where, piece in inserts:
            cut = int(where * len(svg))
            svg = svg[:cut] + piece + svg[cut:]
        if end is not None:
            svg = svg[:int(end * len(svg))]
        assert_svg_check_matches(doctype + svg)


# pieces of a file that read_text decodes or rejects: newlines of three
# kinds, a two-byte character, bytes that are not UTF-8, a cut character
DECODE_PIECES = [b"a", b"{}", b"\r", b"\n", b"\r\n", b"\xc3\xa9", b"\xff",
                 b"\xe2\x82", b"\x85", b"\xef\xbb\xbf"]


@pytest.fixture(scope="module")
def decode_file(tmp_path_factory):
    return tmp_path_factory.mktemp("decode") / "file.txt"


def outcome(fn, *args):
    try:
        return fn(*args)
    except UnicodeDecodeError as exc:
        return f"{type(exc).__name__}: {exc}"


class TestDecodeText:
    """The validator decodes the bytes it read as Path.read_text would."""

    @settings(max_examples=300)
    @given(st.lists(st.sampled_from(DECODE_PIECES), max_size=12))
    def test_matches_read_text(self, decode_file, pieces):
        data = b"".join(pieces)
        decode_file.write_bytes(data)
        assert outcome(_decode_text, data) == \
            outcome(decode_file.read_text, "utf-8")

    def test_long_file(self, decode_file):
        # a cut character across the reader's 8 KiB chunks
        data = b"x" * 8191 + b"\r\n" + b"y" * 8190 + b"\xe2\x82"
        decode_file.write_bytes(data)
        assert outcome(_decode_text, data) == \
            outcome(decode_file.read_text, "utf-8")


def read_manifest_by_read_text(path):
    """_read_manifest's result or error text when it decoded the file with
    Path.read_text, as it did before it decoded the bytes it read."""
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        return f"manifest: {path.name} does not parse: {exc}"
    if not isinstance(manifest, dict):
        return f"manifest: is a {type(manifest).__name__}, not an object"
    return manifest


# pieces of a manifest: JSON tokens, a string holding a raw carriage
# return, and the pieces read_text decodes or rejects
MANIFEST_PIECES = [b"{", b"}", b"[", b"]", b'"k"', b":", b",", b"1", b" ",
                   b'"\r"', *DECODE_PIECES]


class TestReadManifest:
    """_read_manifest decodes the bytes it read with _decode_text, to the
    result and error texts Path.read_text gave it."""

    @pytest.mark.parametrize("data", [
        b'{"a": 1,\r\n "b": [2]}\r\n', b'{"a":\r1}', b"\xef\xbb\xbf{}",
        b'{"a": "\xff"}', b'{"a": "\xe2\x82"}', b'[1]\r\n', b"\r\n"],
        ids=["crlf", "cr", "bom", "not-utf8", "cut-character", "array",
             "empty"])
    def test_hand_cases(self, decode_file, data):
        decode_file.write_bytes(data)
        assert read_whole(decode_file) == read_manifest_by_read_text(
            decode_file)

    @settings(max_examples=300)
    @given(st.lists(st.sampled_from(MANIFEST_PIECES), max_size=12))
    def test_matches_read_text(self, decode_file, pieces):
        decode_file.write_bytes(b"".join(pieces))
        assert read_whole(decode_file) == read_manifest_by_read_text(
            decode_file)
