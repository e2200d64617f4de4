"""Tests for catalog ingest, synthesis, sampling, and perturbation."""

import gc
import hashlib
import math
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from chartscribe.catalog import (
    _COUNTRIES,
    _FLOAT_UNITS,
    _INT_UNITS,
    _MEASURES,
    _PCT_MEASURES,
    _SPAN_MAX,
    _SPAN_MIN,
    _SUBJECTS,
    _TAG_INDICATOR,
    _TAG_PAIR,
    MAX_TICKS,
    MIN_TICKS,
    VALUE_CAP,
    YEAR_MAX,
    YEAR_MIN,
    Catalog,
    CatalogFormatError,
    DataSeries,
    Entity,
    Indicator,
    InsufficientCoverageError,
    _check_pair,
    _slug,
    load_catalog,
    perturb_to_trend,
    sample_series,
    synth_catalog,
    write_catalog,
)
from chartscribe.rng import Rng, derive_seed
from chartscribe.trend import ParameterError, TrendClass, classify_trend, preset


def small_catalog():
    inds = {
        "co2": Indicator("co2", "CO2 emission", "kt", "float"),
        "lit": Indicator("lit", "literacy rate", "%", "percentage"),
    }
    ents = {
        "usa": Entity("usa", "United States", "country"),
        "sgp": Entity("sgp", "Singapore", "country"),
        "bra": Entity("bra", "Brazil", "country"),
    }
    obs = {
        ("co2", "usa"): {y: 5000.0 + 10 * (y - 1990) for y in range(1990, 2008)},
        ("co2", "sgp"): {y: 40.0 + (y - 1992) for y in range(1992, 2010)},
        ("co2", "bra"): {y: 400.0 + 5 * (y - 1990) for y in range(1990, 2006)},
        ("lit", "usa"): {y: 95.0 for y in range(2000, 2012)},
        ("lit", "sgp"): {y: 90.0 + 0.1 * (y - 2000) for y in range(2000, 2012)},
    }
    return Catalog(inds, ents, obs)


def synth_catalog_eager(seed, n_indicators, n_entities, coverage=0.6):
    """Every pair's coin, span and values drawn up front, pair by pair in
    (indicator, entity) order, into a dict: the oracle of the lazy
    `synth_catalog`."""
    roster = Rng(derive_seed(seed, _TAG_INDICATOR))
    indicators = {}
    ind_order = []
    seen_names = set()
    while len(indicators) < n_indicators:
        r = roster.random()
        subject = roster.choice(_SUBJECTS)
        if r < 0.2:
            kind = "percentage"
            name = f"{subject} {roster.choice(_PCT_MEASURES)}"
            unit = "%"
        elif r < 0.6:
            kind = "positive-integer"
            name = f"{subject} {roster.choice(_MEASURES)}"
            unit = roster.choice(_INT_UNITS)
        else:
            kind = "float"
            name = f"{subject} {roster.choice(_MEASURES)}"
            unit = roster.choice(_FLOAT_UNITS)
        if name in seen_names:
            continue
        seen_names.add(name)
        ind = Indicator(_slug(name), name, unit, kind)
        indicators[ind.id] = ind
        ind_order.append(ind.id)

    entities = {}
    ent_order = []
    pool = _COUNTRIES + [f"Territory {k}" for k in range(1, 1001)]
    for name in pool[:n_entities]:
        ent = Entity(_slug(name), name, "country")
        entities[ent.id] = ent
        ent_order.append(ent.id)

    scales = {}
    for idx, ind_id in enumerate(ind_order):
        r = Rng(derive_seed(seed, _TAG_INDICATOR, idx + 1))
        scales[ind_id] = math.exp(r.random() * math.log(VALUE_CAP))

    observations = {}
    for i, ind_id in enumerate(ind_order):
        ind = indicators[ind_id]
        for j, ent_id in enumerate(ent_order):
            pair_rng = Rng(derive_seed(seed, _TAG_PAIR, i, j))
            if pair_rng.random() >= coverage:
                continue
            span = _SPAN_MIN + pair_rng.randint(_SPAN_MAX - _SPAN_MIN + 1)
            start = YEAR_MIN + pair_rng.randint(YEAR_MAX - YEAR_MIN + 1 - span + 1)
            by_year = {}
            if ind.value_kind == "percentage":
                v = 5.0 + 90.0 * pair_rng.random()
                for year in range(start, start + span):
                    by_year[year] = v
                    v = min(100.0, max(0.0, v + (pair_rng.random() - 0.5) * 6.0))
            else:
                v = scales[ind_id] * (0.5 + pair_rng.random())
                for year in range(start, start + span):
                    out = min(VALUE_CAP, max(0.0, v))
                    if ind.value_kind == "positive-integer":
                        out = float(round(out))
                    by_year[year] = out
                    v = v * math.exp(0.08 * pair_rng.normal())
            observations[(ind_id, ent_id)] = by_year

    return Catalog(indicators, entities, observations)


def usable_runs_scan(catalog, ind_id, min_len):
    """Each entity's runs of consecutive years, recomputed on every call:
    the oracle of `Catalog.usable_runs`."""
    usable = []
    for ent_id in catalog.entities_for(ind_id):
        runs = []
        for year in catalog.years_for(ind_id, ent_id):
            if runs and runs[-1][-1] == year - 1:
                runs[-1].append(year)
            else:
                runs.append([year])
        runs = [r for r in runs if len(r) >= min_len]
        if runs:
            usable.append((ent_id, runs))
    return usable


def entities_by_year_scan(catalog, ind_id):
    """year -> sorted entity ids, recomputed on every call: the oracle of
    `Catalog.entities_by_year`."""
    by_year = {}
    for (ind, ent_id), values in catalog.observations.items():
        if ind == ind_id:
            for year in values:
                by_year.setdefault(year, []).append(ent_id)
    return {year: sorted(ents) for year, ents in by_year.items()}


class TestCatalogValidation:
    def test_value_out_of_bounds_rejected(self):
        inds = {"p": Indicator("p", "share", "%", "percentage")}
        ents = {"e": Entity("e", "Erewhon", "country")}
        with pytest.raises(CatalogFormatError, match="outside"):
            Catalog(inds, ents, {("p", "e"): {2000: 123.0}})

    def test_year_out_of_range_rejected(self):
        inds = {"c": Indicator("c", "count", "units", "float")}
        ents = {"e": Entity("e", "Erewhon", "country")}
        with pytest.raises(CatalogFormatError, match="year"):
            Catalog(inds, ents, {("c", "e"): {1900: 5.0}})

    def test_unknown_indicator_rejected(self):
        ents = {"e": Entity("e", "Erewhon", "country")}
        with pytest.raises(CatalogFormatError, match="unknown indicator"):
            Catalog({}, ents, {("x", "e"): {2000: 1.0}})


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        cat = small_catalog()
        path = tmp_path / "cat.csv"
        write_catalog(cat, path)
        assert load_catalog(path) == cat

    def test_three_row_file(self, tmp_path):
        (tmp_path / "c.dict.csv").write_text(
            "# catalog-dict v1\n"
            "I,pop,population,people,positive-integer\n"
            "E,nor,Norway,country\n"
        )
        (tmp_path / "c.csv").write_text(
            "# catalog-data v1\n"
            "pop,nor,2000,4478497\n"
            "pop,nor,2001,4503436\n"
            "pop,nor,2002,4524066\n"
        )
        cat = load_catalog(tmp_path / "c.csv")
        assert list(cat.observations) == [("pop", "nor")]
        assert cat.years_for("pop", "nor") == [2000, 2001, 2002]
        assert cat.observations[("pop", "nor")][2001] == 4503436.0

    def test_each_observation_checked_once(self, tmp_path, monkeypatch):
        cat = synth_catalog(3, 6, 8)
        write_catalog(cat, tmp_path / "c.csv")
        checked = []

        def check_pair(indicators, entities, key, by_year):
            checked.extend((key, year) for year in by_year)
            return _check_pair(indicators, entities, key, by_year)
        monkeypatch.setattr("chartscribe.catalog._check_pair", check_pair)
        load_catalog(tmp_path / "c.csv")
        rows = [(key, year) for key, by_year in cat.observations.items()
                for year in by_year]
        assert sorted(checked) == sorted(rows)

    def test_percentage_overflow_names_line(self, tmp_path):
        (tmp_path / "c.dict.csv").write_text(
            "# catalog-dict v1\nI,sh,share,%,percentage\nE,nor,Norway,country\n"
        )
        (tmp_path / "c.csv").write_text(
            "# catalog-data v1\nsh,nor,2000,50.0\nsh,nor,2001,123.0\n"
        )
        with pytest.raises(CatalogFormatError, match=":3:"):
            load_catalog(tmp_path / "c.csv")

    @pytest.mark.parametrize("row, reason", [
        ("xx,nor,2000,1.0", "unknown indicator 'xx'"),
        ("sh,xx,2000,1.0", "unknown entity 'xx'"),
        ("sh,nor,1900,1.0", "year 1900 outside"),
        ("sh,nor,2000,x", "could not convert"),
        ("sh,nor,1999,6.0", r"duplicate row for \(sh, nor, 1999\)"),
    ], ids=["indicator", "entity", "year", "value", "duplicate"])
    def test_bad_row_names_line(self, tmp_path, row, reason):
        (tmp_path / "c.dict.csv").write_text(
            "# catalog-dict v1\nI,sh,share,%,percentage\nE,nor,Norway,country\n"
        )
        (tmp_path / "c.csv").write_text(f"# catalog-data v1\nsh,nor,1999,5.0\n{row}\n")
        with pytest.raises(CatalogFormatError, match=f"c.csv:3: .*{reason}"):
            load_catalog(tmp_path / "c.csv")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_catalog(tmp_path / "absent.csv")

    def test_malformed_row(self, tmp_path):
        (tmp_path / "c.dict.csv").write_text(
            "# catalog-dict v1\nI,sh,share,kt,float\nE,nor,Norway,country\n"
        )
        (tmp_path / "c.csv").write_text("# catalog-data v1\nsh,nor,2000\n")
        with pytest.raises(CatalogFormatError, match="4 fields"):
            load_catalog(tmp_path / "c.csv")

    def test_bad_header(self, tmp_path):
        (tmp_path / "c.dict.csv").write_text("# catalog-dict v1\n")
        (tmp_path / "c.csv").write_text("indicator,entity,year,value\n")
        with pytest.raises(CatalogFormatError, match=":1:"):
            load_catalog(tmp_path / "c.csv")

    def test_names_with_commas_round_trip(self, tmp_path):
        inds = {"g": Indicator("g", "GDP, nominal", "million USD", "float")}
        ents = {"e": Entity("e", "Province, North", "state")}
        cat = Catalog(inds, ents, {("g", "e"): {2000: 1.5, 2001: 2.5}})
        write_catalog(cat, tmp_path / "c.csv")
        assert load_catalog(tmp_path / "c.csv") == cat


class TestSynthCatalog:
    def test_deterministic(self):
        assert synth_catalog(7, 2, 2) == synth_catalog(7, 2, 2)

    def test_seed_changes_output(self):
        assert synth_catalog(7, 2, 2) != synth_catalog(8, 2, 2)

    def test_requested_counts(self):
        cat = synth_catalog(7, 12, 9)
        assert len(cat.indicators) == 12
        assert len(cat.entities) == 9

    def test_large_scale_counts(self):
        cat = synth_catalog(7, 346, 76)
        assert len(cat.indicators) == 346
        assert len(cat.entities) == 76
        assert cat.covered_indicators()

    def test_percentage_bounds(self):
        cat = synth_catalog(3, 40, 10)
        for (ind_id, _), by_year in cat.observations.items():
            if cat.indicators[ind_id].value_kind != "percentage":
                continue
            assert all(0.0 <= v <= 100.0 for v in by_year.values())

    def test_zero_counts_rejected(self):
        with pytest.raises(ParameterError):
            synth_catalog(1, 0, 5)
        with pytest.raises(ParameterError):
            synth_catalog(1, 5, 0)

    def test_synth_round_trips_through_files(self, tmp_path):
        cat = synth_catalog(11, 6, 5)
        write_catalog(cat, tmp_path / "c.csv")
        assert load_catalog(tmp_path / "c.csv") == cat


class TestLazySynthCatalog:
    """A synthetic catalog draws a pair's values on its first read; it must
    equal the eager oracle whatever the read order."""

    @settings(max_examples=150)
    @given(seed=st.integers(0, 2 ** 64 - 1), n_ind=st.integers(1, 24),
           n_ent=st.integers(1, 30),
           coverage=st.sampled_from([0.0, 0.05, 0.6, 1.0]),
           shuffle_seed=st.integers(0, 2 ** 32 - 1))
    def test_equals_eager_oracle(self, seed, n_ind, n_ent, coverage,
                                 shuffle_seed):
        eager = synth_catalog_eager(seed, n_ind, n_ent, coverage)
        lazy = synth_catalog(seed, n_ind, n_ent, coverage)
        assert lazy.indicators == eager.indicators
        assert lazy.entities == eager.entities
        assert lazy.covered_indicators() == eager.covered_indicators()
        for ind_id in lazy.covered_indicators():
            assert lazy.entities_for(ind_id) == eager.entities_for(ind_id)
            assert lazy.entities_by_year(ind_id) == eager.entities_by_year(ind_id)
            for min_len in range(MIN_TICKS, MAX_TICKS + 1):
                assert (lazy.usable_runs(ind_id, min_len)
                        == eager.usable_runs(ind_id, min_len))
        for ind_id, ent_id in eager.observations:
            assert (lazy.years_for(ind_id, ent_id)
                    == eager.years_for(ind_id, ent_id))
        assert len(lazy.observations) == len(eager.observations)
        assert sorted(lazy.observations) == sorted(eager.observations)
        assert not lazy.observations._values  # none of the above drew values
        keys = list(eager.observations)
        random.Random(shuffle_seed).shuffle(keys)
        for key in keys:
            assert key in lazy.observations
            assert repr(lazy.observations[key]) == repr(eager.observations[key])
        assert lazy == eager

    def test_sampling_equals_eager_oracle(self):
        for seed in (1, 24, 77):
            eager, lazy = synth_catalog_eager(seed, 24, 30), synth_catalog(seed, 24, 30)
            rng_e, rng_l = Rng(seed), Rng(seed)
            for k in range(150):
                args = dict(temporal=k % 3 != 0, arity=1 + k % 2,
                            min_len=MIN_TICKS + k % 7)
                assert (sample_series(lazy, rng=rng_l, **args)
                        == sample_series(eager, rng=rng_e, **args))
            assert rng_l.next_raw() == rng_e.next_raw()

    def test_write_catalog_same_bytes_as_oracle(self, tmp_path):
        for seed in (3, 2026):
            write_catalog(synth_catalog_eager(seed, 24, 30), tmp_path / "eager.csv")
            write_catalog(synth_catalog(seed, 24, 30), tmp_path / "lazy.csv")
            for name in ("eager.csv", "eager.dict.csv"):
                lazy_name = name.replace("eager", "lazy")
                assert ((tmp_path / name).read_bytes()
                        == (tmp_path / lazy_name).read_bytes())

    def test_more_entities_than_country_names(self):
        # "territory-10" sorts before "territory-2": entities_for must sort
        eager, lazy = synth_catalog_eager(3, 6, 140), synth_catalog(3, 6, 140)
        assert lazy.covered_indicators() == eager.covered_indicators()
        for ind_id in lazy.covered_indicators():
            assert lazy.entities_for(ind_id) == eager.entities_for(ind_id)
            assert lazy.usable_runs(ind_id, 5) == eager.usable_runs(ind_id, 5)
        assert lazy == eager

    def test_uncovered_and_unknown_pairs(self):
        cat = synth_catalog(5, 6, 8, coverage=0.5)
        eager = synth_catalog_eager(5, 6, 8, coverage=0.5)
        for ind_id in cat.indicators:
            for ent_id in cat.entities:
                key = (ind_id, ent_id)
                assert (key in cat.observations) == (key in eager.observations)
                if key not in eager.observations:
                    with pytest.raises(KeyError):
                        cat.observations[key]
                    assert cat.years_for(ind_id, ent_id) == []
        for key in (("nope", "chad"), "ab", ("a", "b", "c"), 5):
            assert key not in cat.observations
        assert cat.entities_for("nope") == []
        assert cat.observations.get(("nope", "chad")) is None

    def test_unused_catalog_is_freed_without_the_collector(self):
        # a reference cycle between a catalog and its observations would
        # keep every catalog a generate or regenerate call builds alive
        # until the cyclic collector runs
        cat = synth_catalog(3, 4, 5)
        cat.observations[next(iter(cat.observations))]
        ref = weakref.ref(cat)
        gc.disable()
        try:
            del cat
            assert ref() is None
        finally:
            gc.enable()

    @settings(max_examples=150)
    @given(seed=st.integers(0, 2 ** 64 - 1), n_ind=st.integers(1, 24),
           n_ent=st.integers(1, 30),
           coverage=st.sampled_from([0.0, 0.05, 0.6, 1.0]))
    def test_every_drawn_pair_passes_the_bound_check(self, seed, n_ind, n_ent,
                                                      coverage):
        """Synthetic values are in bounds by construction, so a drawn pair
        is not checked: each passes the check a dict catalog's pairs get."""
        cat = synth_catalog(seed, n_ind, n_ent, coverage)
        for key in cat.observations:
            _check_pair(cat.indicators, cat.entities, key,
                        cat.observations[key])


class TestSampleSeries:
    def test_temporal_single(self):
        cat = small_catalog()
        got = sample_series(cat, temporal=True, arity=1, rng=Rng(1))
        assert len(got) == 1
        s = got[0]
        assert s.temporal
        assert 2 <= len(s.x_labels) <= 8
        assert s.series_name in {"United States", "Singapore", "Brazil"}

    def test_temporal_years_consecutive(self):
        cat = synth_catalog(5, 20, 10)
        rng = Rng(2)
        for _ in range(100):
            (s,) = sample_series(cat, temporal=True, arity=1, rng=rng)
            years = [int(x) for x in s.x_labels]
            assert all(b - a == 1 for a, b in zip(years, years[1:]))

    def test_pair_search_draws_lazily(self):
        # every pair of small_catalog's entities overlaps, so the first
        # random pair works and is the only one drawn
        class CountingRng(Rng):
            samples = 0

            def sample(self, seq, k):
                self.samples += 1
                return super().sample(seq, k)

        for seed in range(20):
            rng = CountingRng(seed)
            sample_series(small_catalog(), temporal=True, arity=2, rng=rng)
            assert rng.samples == 1

    def test_arity_two_shares_labels_and_unit(self):
        cat = synth_catalog(5, 20, 10)
        rng = Rng(3)
        for temporal in (True, False):
            for _ in range(20):
                a, b = sample_series(cat, temporal=temporal, arity=2, rng=rng)
                assert a.x_labels == b.x_labels
                assert a.y_unit == b.y_unit
                assert a.series_name != b.series_name

    def test_tick_counts_cover_full_range(self):
        cat = synth_catalog(5, 20, 10)
        rng = Rng(4)
        seen = set()
        for _ in range(1000):
            (s,) = sample_series(cat, temporal=True, arity=1, rng=rng)
            seen.add(len(s.x_labels))
        assert seen == {2, 3, 4, 5, 6, 7, 8}

    def test_categorical_labels_are_entity_names(self):
        cat = synth_catalog(5, 20, 12)
        rng = Rng(5)
        names = {e.name for e in cat.entities.values()}
        for _ in range(50):
            (s,) = sample_series(cat, temporal=False, arity=1, rng=rng)
            assert not s.temporal
            assert set(s.x_labels) <= names
            assert len(set(s.x_labels)) == len(s.x_labels)

    def test_min_len_respected(self):
        cat = synth_catalog(5, 20, 10)
        rng = Rng(6)
        for _ in range(100):
            (s,) = sample_series(cat, temporal=True, arity=1, rng=rng, min_len=5)
            assert len(s.x_labels) >= 5

    def test_single_pair_catalog(self):
        inds = {"c": Indicator("c", "counts", "units", "float")}
        ents = {"e": Entity("e", "Erewhon", "country")}
        obs = {("c", "e"): {y: float(y) - 1980.0 for y in range(1990, 1998)}}
        cat = Catalog(inds, ents, obs)
        (s,) = sample_series(cat, temporal=True, arity=1, rng=Rng(1))
        assert s.series_name == "Erewhon"
        assert set(int(x) for x in s.x_labels) <= set(range(1990, 1998))

    def test_insufficient_coverage(self):
        inds = {"c": Indicator("c", "counts", "units", "float")}
        ents = {"e": Entity("e", "Erewhon", "country")}
        obs = {("c", "e"): {2000: 1.0}}
        cat = Catalog(inds, ents, obs)
        with pytest.raises(InsufficientCoverageError):
            sample_series(cat, temporal=True, arity=1, rng=Rng(1))

    def test_usable_runs_equal_recomputation(self):
        gappy = small_catalog()
        for year in (1995, 1996, 2001):
            del gappy.observations[("co2", "usa")][year]
        for cat in (small_catalog(), gappy, synth_catalog(24, 24, 30),
                    synth_catalog(5, 20, 10)):
            pairs = [(ind_id, min_len) for ind_id in cat.covered_indicators()
                     for min_len in range(MIN_TICKS, MAX_TICKS + 1)]
            for ind_id, min_len in pairs:
                assert (cat.usable_runs(ind_id, min_len)
                        == usable_runs_scan(cat, ind_id, min_len))
            rng = Rng(12)
            for k in range(200):
                sample_series(cat, temporal=True, arity=1 + k % 2, rng=rng,
                              min_len=(3, 5)[k % 2])
            for ind_id, min_len in pairs:
                cached = cat.usable_runs(ind_id, min_len)
                assert cached is cat.usable_runs(ind_id, min_len)
                assert cached == usable_runs_scan(cat, ind_id, min_len)

    def test_entities_by_year_equal_recomputation(self):
        for cat in (small_catalog(), synth_catalog(24, 24, 30),
                    synth_catalog(5, 20, 10)):
            for ind_id in cat.covered_indicators():
                assert (cat.entities_by_year(ind_id)
                        == entities_by_year_scan(cat, ind_id))
            rng = Rng(13)
            for k in range(200):
                sample_series(cat, temporal=False, arity=1 + k % 2, rng=rng)
            for ind_id in cat.covered_indicators():
                cached = cat.entities_by_year(ind_id)
                assert cached is cat.entities_by_year(ind_id)
                assert cached == entities_by_year_scan(cat, ind_id)

    def test_draws_are_pinned(self):
        # sparse catalogs, where both random pair searches fall back to
        # their exhaustive scans; any change to a draw or to the order of
        # draws changes the hash
        h = hashlib.sha256()
        for seed in range(8):
            for n_ind, n_ent, coverage in [(3, 4, 0.6), (2, 9, 0.3), (5, 12, 0.9)]:
                cat = synth_catalog(seed, n_ind, n_ent, coverage)
                rng = Rng(seed)
                for k in range(60):
                    try:
                        got = sample_series(cat, temporal=k % 3 == 0,
                                            arity=1 + k // 2 % 2, rng=rng,
                                            min_len=2 + k % 7)
                    except InsufficientCoverageError as exc:
                        got = str(exc)
                    h.update(repr(got).encode())
                h.update(str(rng.next_raw()).encode())
        assert h.hexdigest() == (
            "23767090f21e719cfc9384285a5758da4d7c4f665cbf0a5e415fee4de83600e7")

    def test_deterministic_given_rng(self):
        cat = synth_catalog(5, 20, 10)
        assert sample_series(cat, True, 1, Rng(9)) == sample_series(cat, True, 1, Rng(9))

    def test_values_within_kind_bounds(self):
        cat = synth_catalog(5, 30, 10)
        rng = Rng(10)
        for _ in range(100):
            (s,) = sample_series(cat, temporal=True, arity=1, rng=rng)
            if s.value_kind == "percentage":
                assert all(0 <= v <= 100 for v in s.y_values)
            else:
                assert all(0 <= v <= 3.5e15 for v in s.y_values)


class TestPerturbToTrend:
    def base_series(self, values, value_kind="float"):
        years = [str(1990 + i) for i in range(len(values))]
        return DataSeries("Singapore", years, values, "kt", True,
                          indicator_name="CO2 emission", value_kind=value_kind)

    def test_plateau_output_is_flat(self):
        s = self.base_series([10.0, 220.0, 40.0, 160.0, 90.0, 130.0])
        spec = preset(TrendClass.PLATEAU, n_points=6)
        out = perturb_to_trend(s, spec, Rng(1))
        mean = sum(out.y_values) / len(out.y_values)
        assert (max(out.y_values) - min(out.y_values)) / mean < 0.05

    def test_percentage_stays_in_bounds(self):
        s = self.base_series([55.0, 60.0, 58.0, 90.0, 99.0, 97.0], "percentage")
        for cls in TrendClass:
            spec = preset(cls, n_points=6)
            out = perturb_to_trend(s, spec, Rng(2))
            assert all(0.0 <= v <= 100.0 for v in out.y_values)

    def test_output_classifies_as_requested(self):
        s = self.base_series([30.0, 45.0, 80.0, 50.0, 70.0, 20.0])
        for cls in TrendClass:
            for seed in range(20):
                out = perturb_to_trend(s, preset(cls, n_points=6), Rng(seed))
                assert classify_trend(out.y_values) is cls

    def test_narrow_series_still_realizes_trends(self):
        # original range far below the classifier's plateau cutoff
        s = self.base_series([1000.0, 1000.5, 1001.0, 1000.2, 1000.8])
        out = perturb_to_trend(s, preset(TrendClass.CONVEX_INCREASE, n_points=5), Rng(3))
        assert classify_trend(out.y_values) is TrendClass.CONVEX_INCREASE

    def test_labels_and_names_unchanged(self):
        s = self.base_series([30.0, 45.0, 80.0, 50.0, 70.0, 20.0])
        out = perturb_to_trend(s, preset(TrendClass.LINEAR_DECREASE, n_points=6), Rng(4))
        assert out.x_labels == s.x_labels
        assert out.series_name == s.series_name
        assert out.y_unit == s.y_unit
        assert out.indicator_name == s.indicator_name

    def test_directional_output_within_original_envelope(self):
        s = self.base_series([30.0, 45.0, 80.0, 50.0, 70.0, 20.0])
        out = perturb_to_trend(s, preset(TrendClass.LINEAR_INCREASE, n_points=6), Rng(5))
        assert min(out.y_values) >= 20.0 - 1e-9
        assert max(out.y_values) <= 80.0 + 1e-9

    def test_length_mismatch_rejected(self):
        s = self.base_series([1.0, 2.0, 3.0])
        with pytest.raises(ParameterError, match="n_points"):
            perturb_to_trend(s, preset(TrendClass.PLATEAU, n_points=6), Rng(1))

    def test_deterministic(self):
        s = self.base_series([30.0, 45.0, 80.0, 50.0, 70.0, 20.0])
        spec = preset(TrendClass.CONCAVE_INCREASE, n_points=6)
        a = perturb_to_trend(s, spec, Rng(6))
        b = perturb_to_trend(s, spec, Rng(6))
        assert a == b


class TestDataSeriesInvariants:
    def test_length_bounds(self):
        with pytest.raises(ParameterError):
            DataSeries("x", ["2000"], [1.0], "kt", True)
        with pytest.raises(ParameterError):
            DataSeries("x", [str(2000 + i) for i in range(9)],
                       [float(i) for i in range(9)], "kt", True)

    def test_label_value_mismatch(self):
        with pytest.raises(ParameterError):
            DataSeries("x", ["2000", "2001"], [1.0], "kt", True)

    def test_temporal_flag_must_match_labels(self):
        with pytest.raises(ParameterError):
            DataSeries("x", ["France", "Spain"], [1.0, 2.0], "kt", True)
        with pytest.raises(ParameterError):
            DataSeries("x", ["2000", "2001"], [1.0, 2.0], "kt", False)
