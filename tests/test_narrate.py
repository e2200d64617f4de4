"""Fact extraction, number formatting, move planning, and text generation."""

import dataclasses
import hashlib
import json
import re
import string
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from chartscribe import narrate

from chartscribe.catalog import DataSeries, sample_series, synth_catalog
from chartscribe.chartgen import CATEGORIES, ChartKind, build_chart_spec, render
from chartscribe.narrate import (
    COMPARISON_PHRASES, NUMBER_SLOTS, QUALIFIERS, TREND_PHRASES, ChartFacts,
    Description, FactsConsistencyError, PlanParams, RealizationError, Sentence,
    SeriesFacts,
    baseline_generate, check_move_order, extract_facts,
    format_number, generate_description, generate_description_set,
    hallucination_check, plan_moves, realize,
)
from chartscribe.evalmetrics import tokenize
from chartscribe.rng import TAG_DESCRIPTION, Rng, derive_seed
from chartscribe.templatebank import (MOVES, SLOT_VOCABULARY, Template,
                                      load_default_bank)

from test_corpus import JSON_VALUES, mutate_at

DOCS = Path(__file__).resolve().parents[1] / "docs"

CATALOG = synth_catalog(11, 14, 18)
BANK = load_default_bank()


def make_chart(temporal, arity, kind=ChartKind.LINE, seed=1, min_len=3):
    series = sample_series(CATALOG, temporal=temporal, arity=arity,
                           rng=Rng(seed), min_len=min_len)
    spec = build_chart_spec(series, kind, Rng(seed + 1), image_index=7)
    _, meta = render(spec)
    return series, meta


def crafted(values, name="Alpha", labels=None, temporal=True, unit="kt"):
    labels = labels or [str(2000 + i) for i in range(len(values))]
    return DataSeries(name, list(labels), [float(v) for v in values], unit,
                      temporal, indicator_name="freight volume",
                      entity_kind="country")


def crafted_meta(*series_list, kind=ChartKind.LINE):
    spec = build_chart_spec(list(series_list), kind, Rng(3), image_index=0)
    _, meta = render(spec)
    return meta


def visitor_facts():
    sf = SeriesFacts(name="Singapore", x_first="2013",
                     x_last="2016", x_at_max="2015", x_at_min="2013",
                     y_first=12.0, y_last=9.0, y_max=15.0, y_min=8.0,
                     y_mean=11.0, delta=3.0, trend_class="concave-increase")
    return ChartFacts(image_index=0, category="temporal-trend",
                      kind_phrase="line chart", title="Visitors over time",
                      x_label="Year", y_label="number of visitors",
                      unit="million", n_categories=4,
                      entity_list=("2013", "2014", "2015", "2016"),
                      series=(sf,), dominance=None)


def template(text, move="M3", arity=0):
    return Template("t-1", move, "any", frozenset(), arity, "human", text)


class TestFormatNumber:
    """Two significant figures with an honesty qualifier when rounding bites."""

    def test_rounding_gets_qualifier(self):
        parts = format_number(297.3, Rng(4)).split(" ")
        assert parts[-1] == "300"
        assert parts[0] in QUALIFIERS

    def test_exact_value_no_qualifier(self):
        assert format_number(40.0, Rng(1)) == "40"

    def test_zero(self):
        assert format_number(0.0, Rng(1)) == "0"

    def test_millions_humanized(self):
        text = format_number(23456789.0, Rng(2))
        assert text.endswith("23 million")
        assert text.split(" ")[0] in QUALIFIERS

    def test_exact_million_no_qualifier(self):
        assert format_number(1500000.0, Rng(1)) == "1.5 million"

    def test_thousands_separator(self):
        assert format_number(120000.0, Rng(1)) == "120,000"

    def test_small_decimal(self):
        text = format_number(0.375, Rng(3))
        assert text.endswith("0.38")

    def test_negative_exact(self):
        assert format_number(-450.0, Rng(1)) == "-450"

    def test_trillions(self):
        assert format_number(3.5e14, Rng(1)) == "350 trillion"

    def test_quadrillions(self):
        assert format_number(2.5e15, Rng(1)) == "2.5 quadrillion"

    def test_billions(self):
        assert format_number(7.2e9, Rng(1)) == "7.2 billion"

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            format_number(float("nan"), Rng(1))
        with pytest.raises(ValueError):
            format_number(float("inf"), Rng(1))

    def test_deterministic(self):
        assert format_number(297.3, Rng(9)) == format_number(297.3, Rng(9))


class TestExtractFacts:
    """Fact tables derived from chart metadata."""

    def test_basic_series_facts(self):
        ds = crafted([10.0, 30.0, 20.0, 5.0])
        facts = extract_facts(crafted_meta(ds))
        sf = facts.series[0]
        assert sf.name == "Alpha"
        assert (sf.x_first, sf.x_last) == ("2000", "2003")
        assert (sf.x_at_max, sf.x_at_min) == ("2001", "2003")
        assert (sf.y_first, sf.y_last, sf.y_max, sf.y_min) == (10.0, 5.0, 30.0, 5.0)
        assert sf.y_mean == pytest.approx(16.25)
        assert sf.delta == pytest.approx(5.0)

    def test_tie_on_max_keeps_first_occurrence(self):
        facts = extract_facts(crafted_meta(crafted([5.0, 9.0, 9.0, 3.0])))
        assert facts.series[0].x_at_max == "2001"

    def test_delta_is_absolute(self):
        facts = extract_facts(crafted_meta(crafted([30.0, 10.0, 4.0])))
        assert facts.series[0].delta == pytest.approx(26.0)

    def test_value_axis_label_normalized_on_horizontal_bars(self):
        series, _ = make_chart(False, 1, ChartKind.VERTICAL_BAR, seed=5)
        _, meta_v = render(build_chart_spec(series, ChartKind.VERTICAL_BAR, Rng(6)))
        _, meta_h = render(build_chart_spec(series, ChartKind.HORIZONTAL_BAR, Rng(6)))
        fv, fh = extract_facts(meta_v), extract_facts(meta_h)
        assert fv.y_label == fh.y_label
        assert fv.x_label == fh.x_label

    def test_categorical_entity_list(self):
        series, meta = make_chart(False, 1, ChartKind.VERTICAL_BAR, seed=9)
        facts = extract_facts(meta)
        assert facts.n_categories == len(series[0].x_labels)
        assert list(facts.entity_list) == list(series[0].x_labels)

    def test_dominance_first(self):
        meta = crafted_meta(crafted([5, 6, 7]), crafted([1, 2, 3], name="Beta"))
        assert extract_facts(meta).dominance == "first"

    def test_dominance_second(self):
        meta = crafted_meta(crafted([1, 2, 3]), crafted([5, 6, 7], name="Beta"))
        assert extract_facts(meta).dominance == "second"

    def test_dominance_tie(self):
        meta = crafted_meta(crafted([4, 4, 4]), crafted([4, 4, 4], name="Beta"))
        assert extract_facts(meta).dominance == "tie"

    def test_dominance_mixed_with_crossings(self):
        meta = crafted_meta(crafted([5, 1, 5]), crafted([3, 3, 3], name="Beta"))
        assert extract_facts(meta).dominance == "mixed"

    def test_single_series_has_no_cross(self):
        assert extract_facts(crafted_meta(crafted([1, 2, 3]))).dominance is None

    def test_trend_class_passthrough(self):
        _, meta = make_chart(True, 1, seed=21, min_len=5)
        facts = extract_facts(meta)
        assert facts.series[0].trend_class == meta.series[0].trend_class

    def test_consistency_accepts_matching_series(self):
        series, meta = make_chart(True, 2, seed=31, min_len=4)
        extract_facts(meta, series)  # must not raise

    def test_consistency_rejects_value_mismatch(self):
        series, meta = make_chart(True, 1, seed=33, min_len=4)
        tampered = crafted([v + 1.0 for v in series[0].y_values],
                           name=series[0].series_name,
                           labels=series[0].x_labels)
        with pytest.raises(FactsConsistencyError):
            extract_facts(meta, [tampered])

    @pytest.mark.parametrize("edit, message", [
        (lambda s: s[:1], "series: metadata has 2 series, got 1"),
        (lambda s: [dataclasses.replace(s[0], series_name="Atlantis"), s[1]],
         "series[0]: name 'Atlantis' != metadata "),
        (lambda s: [s[0], dataclasses.replace(
            s[1], x_labels=[str(int(y) + 1) for y in s[1].x_labels])],
         "series[1]: x labels disagree"),
    ], ids=["series-count", "series-name", "x-labels"])
    def test_consistency_names_the_mismatch(self, edit, message):
        series, meta = make_chart(True, 2, seed=35, min_len=4)
        with pytest.raises(FactsConsistencyError, match=re.escape(message)):
            extract_facts(meta, edit(series))


class TestRealize:
    """Slot substitution against a fixed fact table."""

    def test_worked_example(self):
        t = template("The {y_label} of {series_name} is observed to decline "
                     "since {x_at_max}.")
        out = realize(t, visitor_facts(), 0, Rng(1))
        assert out == ("The number of visitors of Singapore is observed to "
                       "decline since 2015.")

    def test_number_slot_formats_value(self):
        t = template("It peaked at {y_max} {unit}.")
        out = realize(t, visitor_facts(), 0, Rng(1))
        assert out == "It peaked at 15 million."

    def test_trend_phrase_matches_class(self):
        t = template("The series shows {trend_phrase}.")
        for seed in range(12):
            out = realize(t, visitor_facts(), 0, Rng(seed))
            phrase = out[len("The series shows "):-1]
            assert phrase in TREND_PHRASES["concave-increase"]

    def test_unknown_slot_raises_naming_it(self):
        t = template("Broken {no_such_slot} here.")
        with pytest.raises(RealizationError, match="no_such_slot"):
            realize(t, visitor_facts(), 0, Rng(1))

    def test_series_name_2_needs_two_series(self):
        t = template("{series_name} versus {series_name_2}.")
        with pytest.raises(RealizationError, match="series_name_2"):
            realize(t, visitor_facts(), 0, Rng(1))

    def test_comparison_needs_two_series(self):
        t = template("{series_name} is {comparison_phrase} the rest.")
        with pytest.raises(RealizationError, match="comparison_phrase"):
            realize(t, visitor_facts(), 0, Rng(1))

    def test_comparison_perspective_flips(self):
        meta = crafted_meta(crafted([5, 6, 7]), crafted([1, 2, 3], name="Beta"))
        facts = extract_facts(meta)
        t = template("{series_name} is {comparison_phrase} {series_name_2}.")
        for seed in range(8):
            from_first = realize(t, facts, 0, Rng(seed))
            from_second = realize(t, facts, 1, Rng(seed))
            assert any(p in from_first for p in COMPARISON_PHRASES["above"])
            assert any(p in from_second for p in COMPARISON_PHRASES["below"])
            assert from_first.startswith("Alpha")
            assert from_second.startswith("Beta")

    def test_capitalizes_leading_lowercase(self):
        out = realize(template("{y_label} fell."), visitor_facts(), 0, Rng(1))
        assert out == "Number of visitors fell."

    def test_whitespace_collapsed(self):
        out = realize(template("A  spaced   out {series_name}."),
                      visitor_facts(), 0, Rng(1))
        assert out == "A spaced out Singapore."

    def test_percent_unit_joins_number(self):
        sf = visitor_facts().series[0]
        facts = ChartFacts(0, "temporal-trend", "line chart", "T", "Year",
                           "share", "%", 4, ("2013",), (sf,), None)
        out = realize(template("It reached {y_max} {unit}."), facts, 0, Rng(1))
        assert out == "It reached 15%."

    def test_percent_unit_after_a_word_stays_apart(self):
        sf = visitor_facts().series[0]
        facts = ChartFacts(0, "temporal-trend", "line chart", "T", "Year",
                           "share", "%", 4, ("2013",), (sf,), None)
        out = realize(template("The {y_label} is denominated in {unit}."),
                      facts, 0, Rng(1))
        assert out == "The share is denominated in %."
        out = realize(template("Peak: {y_max} %, in {unit}."), facts, 0, Rng(1))
        assert out == "Peak: 15%, in %."

    def test_entity_list_oxford_join(self):
        base = visitor_facts()
        for items, joined in [
            (("A",), "A"),
            (("A", "B"), "A and B"),
            (("A", "B", "C"), "A, B, and C"),
        ]:
            facts = ChartFacts(0, "categorical", "bar chart", "T", "Country",
                               "exports", "kt", len(items), items,
                               base.series, None)
            out = realize(template("Entities: {entity_list}."), facts, 0, Rng(1))
            assert out == f"Entities: {joined}."


_SLOT_RE = re.compile(r"\{([A-Za-z0-9_]+)\}")
# marks the end of a number slot's value; no template or fact text holds it
NUMBER_END = "\x00"


def realize_regex(template, facts, series_index, rng):
    """Realization by regex substitutions over the template text, with a
    marker after each number slot's value that a following '%' joins: the
    oracle of the pre-split pieces."""
    def fill(m):
        value = narrate._slot_value(m.group(1), facts, series_index, rng)
        return value + NUMBER_END if m.group(1) in NUMBER_SLOTS else value

    text = _SLOT_RE.sub(fill, template.text)
    text = re.sub(r"\s+", " ", text).strip()
    text = re.sub(NUMBER_END + r" ?%", "%", text).replace(NUMBER_END, "")
    if text and text[0].islower():
        text = text[0].upper() + text[1:]
    return text


def realize_outcome(fn, template, facts, series_index, seed):
    """(text or error, the rng's next word) of one realization."""
    rng = Rng(seed)
    try:
        out = fn(template, facts, series_index, rng)
    except RealizationError as exc:
        out = ("RealizationError", str(exc))
    return out, rng.next_raw()


def oracle_fact_tables():
    sf = visitor_facts().series[0]
    percent = ChartFacts(0, "temporal-trend", "line chart", "T", "Year",
                         "share", "%", 4, ("2013",), (sf,), None)
    tables = [visitor_facts(), percent]
    for temporal, arity, kind, seed in [
            (True, 1, ChartKind.LINE, 31), (True, 2, ChartKind.LINE, 32),
            (False, 1, ChartKind.VERTICAL_BAR, 33),
            (False, 2, ChartKind.HORIZONTAL_BAR, 34),
            (True, 2, ChartKind.SCATTER, 35)]:
        _, meta = make_chart(temporal, arity, kind=kind, seed=seed)
        tables.append(extract_facts(meta))
    return tables


class TestRealizeOracle:
    """Filling pre-split pieces equals the regex substitution it replaced:
    same text, same errors, same rng draws."""

    def test_every_bank_template(self):
        for facts in oracle_fact_tables():
            for t in BANK.templates:
                for series_index in range(len(facts.series)):
                    for seed in range(4):
                        got = realize_outcome(realize, t, facts,
                                              series_index, seed)
                        want = realize_outcome(realize_regex, t, facts,
                                               series_index, seed)
                        assert got == want, (t.id, series_index, seed)

    @given(st.lists(st.one_of(
        st.text(alphabet=st.characters(
            blacklist_characters="{}" + NUMBER_END)),
        st.sampled_from(sorted(SLOT_VOCABULARY)).map(lambda s: "{" + s + "}"),
    ), max_size=8), st.integers(0, 3))
    @settings(max_examples=300)
    def test_generated_templates(self, parts, seed):
        t = template("".join(parts))
        assert (realize_outcome(realize, t, visitor_facts(), 0, seed)
                == realize_outcome(realize_regex, t, visitor_facts(), 0, seed))

    @given(st.text())
    @settings(max_examples=500)
    def test_whitespace_collapse_equals_regex(self, text):
        assert " ".join(text.split()) == re.sub(r"\s+", " ", text).strip()

    def test_whitespace_code_points_agree(self):
        spaces = [chr(c) for c in range(sys.maxunicode + 1)
                  if chr(c).isspace()]
        assert spaces == [chr(c) for c in range(sys.maxunicode + 1)
                          if re.fullmatch(r"\s", chr(c))]
        assert all("a{}b".format(ch).split() == ["a", "b"] for ch in spaces)


# sha256 of repr(tuple(zip(plan.moves, plan.targets))) for every category,
# arity 1 and 2 and seed 0..9999, in that nesting, from the two-tuple planner
PLAN_STEPS_SHA256 = (
    "06a5fd28b1845ebc89aa98d16a44d9124aa48137a8fe1e2ded114de87cf230e4")


class TestPlanMoves:
    """Move sequence construction and its statistical envelope."""

    def test_plans_always_pass_order_check(self):
        for seed in range(2000):
            for category, arity in (("temporal-trend", 1), ("temporal-trend", 2),
                                    ("temporal-random", 1), ("categorical", 2)):
                plan = plan_moves(category, Rng(seed), n_series=arity)
                assert check_move_order([m for m, _ in plan]) == []

    @pytest.mark.parametrize("kwargs, message", [
        (dict(m3_min=3, m3_max=2), "m3_min/m3_max: need 1 <= 3 <= 2"),
        (dict(m31_min=0), "m31_min/m31_max: need 1 <= 0 <= 2"),
        (dict(p_move4=-0.5), "p_move4: probability -0.5 outside [0, 1]"),
    ], ids=["m3-min-above-max", "m31-min-zero", "p-move4-negative"])
    def test_bad_params_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            PlanParams(**kwargs)

    def test_mean_length_single_series_temporal(self):
        total = sum(len(plan_moves("temporal-trend", Rng(s))) for s in range(10000))
        assert 6.4 < total / 10000 < 7.1  # expectation 6.75

    def test_mean_length_two_series_temporal(self):
        total = sum(len(plan_moves("temporal-trend", Rng(s), n_series=2))
                    for s in range(10000))
        assert 10.0 < total / 10000 < 11.0  # expectation 10.5

    def test_mean_length_categorical(self):
        total = sum(len(plan_moves("categorical", Rng(s), n_series=1))
                    for s in range(10000))
        assert 6.4 < total / 10000 < 7.1  # expectation 6.75

    def test_two_series_temporal_targets_both(self):
        for seed in range(300):
            plan = plan_moves("temporal-trend", Rng(seed), n_series=2)
            targeted = {t for m, t in plan if m == "M3"}
            assert targeted == {0, 1}

    def test_single_series_targets_only_first(self):
        for seed in range(100):
            plan = plan_moves("temporal-random", Rng(seed))
            assert {t for _, t in plan} == {0}

    def test_deterministic(self):
        for seed in (0, 5, 99):
            a = plan_moves("categorical", Rng(seed), n_series=2)
            b = plan_moves("categorical", Rng(seed), n_series=2)
            assert a == b

    def test_plans_vary_across_seeds(self):
        plans = {plan_moves("temporal-trend", Rng(s)) for s in range(50)}
        assert len(plans) > 5

    def test_steps_match_the_pinned_move_and_target_plans(self):
        """The steps equal, in the same draw order, the (move, target)
        pairs of the planner that returned its moves and targets as two
        tuples: the hash of their reprs over every category, both arities
        and 10,000 seeds was taken from that planner."""
        digest = hashlib.sha256()
        for category in CATEGORIES:
            for arity in (1, 2):
                for seed in range(10000):
                    plan = plan_moves(category, Rng(seed), n_series=arity)
                    digest.update(repr(plan).encode())
        assert digest.hexdigest() == PLAN_STEPS_SHA256

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            plan_moves("weekly", Rng(1))
        with pytest.raises(ValueError):
            plan_moves("categorical", Rng(1), n_series=3)


class TestCheckMoveOrder:
    """The move-order contract as a standalone checker."""

    def test_valid_sequence(self):
        assert check_move_order(
            ["M1", "M2", "M3", "M3_1", "M3", "M3_1", "M4", "M5"]) == []

    def test_minimal_valid_sequence(self):
        assert check_move_order(["M1", "M3", "M5"]) == []

    def test_empty(self):
        assert check_move_order([]) != []

    def test_must_open_with_m1(self):
        assert any("M1" in v for v in check_move_order(["M3", "M5"]))

    def test_must_close_with_m5(self):
        assert any("M5" in v for v in check_move_order(["M1", "M3"]))

    def test_m5_only_at_end(self):
        assert check_move_order(["M1", "M3", "M5", "M5"]) != []

    def test_m1_only_at_start(self):
        assert check_move_order(["M1", "M3", "M1", "M5"]) != []

    def test_requires_an_m3(self):
        assert any("M3" in v for v in check_move_order(["M1", "M5"]))

    def test_orphan_m3_1(self):
        assert check_move_order(["M1", "M3_1", "M3", "M5"]) != []

    def test_m2_after_m3_rejected(self):
        assert check_move_order(["M1", "M3", "M2", "M5"]) != []

    def test_m4_before_m3_rejected(self):
        assert check_move_order(["M1", "M4", "M3", "M5"]) != []

    def test_unknown_tag(self):
        assert any("M9" in v for v in check_move_order(["M1", "M9", "M5"]))


class TestGenerateDescription:
    """Structured description generation on rendered charts."""

    def test_deterministic(self):
        series, meta = make_chart(True, 2, seed=41, min_len=5)
        a = generate_description(meta, series, BANK, 0, Rng(7))
        b = generate_description(meta, series, BANK, 0, Rng(7))
        assert a == b

    def test_no_unfilled_slots(self):
        for seed in range(40):
            series, meta = make_chart(seed % 2 == 0, 1 + seed % 2,
                                      list(ChartKind)[seed % 4], seed=50 + seed)
            d = generate_description(meta, series, BANK, 0, Rng(seed))
            assert "{" not in d.text and "}" not in d.text

    def test_move_order_always_valid(self):
        for seed in range(150):
            series, meta = make_chart(seed % 2 == 0, 1 + seed % 2, seed=200 + seed)
            d = generate_description(meta, series, BANK, 0, Rng(seed))
            assert check_move_order(d.moves) == []

    def test_two_series_descriptions_name_both(self):
        for seed in range(100):
            series, meta = make_chart(True, 2, seed=400 + seed, min_len=4)
            d = generate_description(meta, series, BANK, 0, Rng(seed))
            for ds in series:
                assert ds.series_name in d.text

    def test_no_hallucinated_digits(self):
        for seed in range(120):
            series, meta = make_chart(seed % 2 == 0, 1 + seed % 2,
                                      list(ChartKind)[seed % 4], seed=600 + seed)
            d = generate_description(meta, series, BANK, 0, Rng(seed))
            assert hallucination_check(d.text, extract_facts(meta)) == []

    def test_trend_phrases_never_contradict_class(self):
        foreign_hits = 0
        for seed in range(80):
            _, meta = make_chart(True, 1, seed=800 + seed, min_len=5)
            actual = meta.series[0].trend_class
            d = generate_description(meta, None, BANK, 0, Rng(seed))
            for cls, phrases in TREND_PHRASES.items():
                for phrase in phrases:
                    if phrase in d.text.lower() and cls != actual:
                        foreign_hits += 1
        assert foreign_hits == 0

    def test_works_from_meta_alone(self):
        series, meta = make_chart(True, 1, seed=900, min_len=4)
        a = generate_description(meta, series, BANK, 0, Rng(3))
        b = generate_description(meta, None, BANK, 0, Rng(3))
        assert a == b


class TestDescriptionSet:
    """Candidate sets share the chart and never repeat text."""

    def test_set_properties(self):
        for seed in range(30):
            series, meta = make_chart(seed % 2 == 0, 1 + seed % 2, seed=1000 + seed)
            ds = generate_description_set(meta, series, BANK, Rng(seed))
            assert 1 <= len(ds) <= 3
            assert len({d.text for d in ds}) == len(ds)
            assert {d.image_index for d in ds} == {meta.image_index}
            assert [d.variant_index for d in ds] == sorted(d.variant_index for d in ds)

    def test_deterministic(self):
        series, meta = make_chart(True, 1, seed=1100, min_len=4)
        a = generate_description_set(meta, series, BANK, Rng(5))
        b = generate_description_set(meta, series, BANK, Rng(5))
        assert a == b

    def test_equals_one_description_per_variant(self):
        for seed in range(24):
            temporal = seed % 3 != 0
            series, meta = make_chart(temporal, 1 + seed % 2,
                                      seed=1200 + seed, min_len=4)
            base = Rng(seed).next_raw()
            want, seen = [], set()
            for v in range(3):
                desc = generate_description(
                    meta, series, BANK, v,
                    Rng(derive_seed(base, TAG_DESCRIPTION, v)))
                if desc.text not in seen:
                    seen.add(desc.text)
                    want.append(desc)
            assert generate_description_set(meta, series, BANK,
                                             Rng(seed)) == want

    def test_facts_extracted_once_per_chart(self, monkeypatch):
        calls = []
        real = narrate.extract_facts
        monkeypatch.setattr(narrate, "extract_facts",
                            lambda *a: calls.append(a) or real(*a))
        series, meta = make_chart(True, 2, seed=1300, min_len=4)
        generate_description_set(meta, series, BANK, Rng(1), n_variants=3)
        assert len(calls) == 1


class TestBaseline:
    """The unstructured control must be measurably worse-ordered."""

    def test_deterministic(self):
        series, meta = make_chart(True, 1, seed=1200, min_len=4)
        assert (baseline_generate(meta, series, BANK, Rng(2))
                == baseline_generate(meta, series, BANK, Rng(2)))

    def test_length_range(self):
        for seed in range(50):
            series, meta = make_chart(True, 1, seed=1300 + seed, min_len=4)
            d = baseline_generate(meta, series, BANK, Rng(seed))
            assert 4 <= len(d.sentences) <= 10

    def test_baseline_fails_order_check_more_often(self):
        structured_fails = baseline_fails = 0
        for seed in range(150):
            series, meta = make_chart(seed % 2 == 0, 1 + seed % 2, seed=1400 + seed)
            if check_move_order(
                    generate_description(meta, series, BANK, 0, Rng(seed)).moves):
                structured_fails += 1
            if check_move_order(
                    baseline_generate(meta, series, BANK, Rng(seed)).moves):
                baseline_fails += 1
        assert structured_fails == 0
        assert baseline_fails >= 45  # at least 30% of 150

    def test_no_hallucinated_digits(self):
        for seed in range(40):
            series, meta = make_chart(seed % 2 == 0, 1 + seed % 2, seed=1600 + seed)
            d = baseline_generate(meta, series, BANK, Rng(seed))
            assert hallucination_check(d.text, extract_facts(meta)) == []


def description_to_line(d):
    """The hand-written encoder `Description.to_json_line` had before the
    record codec wrote description lines: the oracle of the codec's."""
    doc = {
        "image_index": d.image_index,
        "variant_index": d.variant_index,
        "sentences": [s._asdict() for s in d.sentences],
        "text": " ".join(s.text for s in d.sentences),
    }
    return json.dumps(doc, ensure_ascii=False)


def description_from_line(line):
    """The hand-written decoder it had: the line's index fields, its
    sentences and its "text" value (None when it has none)."""
    doc = json.loads(line)
    sentences = tuple(Sentence(s["move"], s["template_id"], s["text"])
                      for s in doc["sentences"])
    if not all(isinstance(v, str) for s in sentences for v in s):
        raise ValueError("sentence move, template_id and text must be "
                         "strings")
    return doc["image_index"], doc["variant_index"], sentences, doc.get("text")


def decoded_fields(line):
    d = Description.from_json_line(line)
    return d.image_index, d.variant_index, d.sentences, d.text


def outcome(decode, line):
    """The decoded fields, or the type and text of what decoding raised."""
    try:
        return decode(line)
    except Exception as exc:
        return type(exc), str(exc)


def named_fault(doc):
    """What the codec raises where the hand-written decoder read on or
    failed without naming the field, on a line with one fault: sentences
    that is not an array of objects, or no "text"; None elsewhere.  The
    codec reads the keys in field order, so only after the two indices."""
    if type(doc) is not dict \
            or not {"image_index", "variant_index", "sentences"} <= doc.keys():
        return None
    items = doc["sentences"]
    if type(items) is not list:
        noun = type(items).__name__
        return TypeError, (f"sentences is {'an' if noun[0] in 'aeiou' else 'a'}"
                           f" {noun}, not a list")
    for i, item in enumerate(items):
        if type(item) is not dict:
            noun = type(item).__name__
            return TypeError, (f"sentences[{i}] is "
                               f"{'an' if noun[0] in 'aeiou' else 'a'} "
                               f"{noun}, not an object")
    return None if "text" in doc else (KeyError, "'text'")


# the description lines of two charts, one and two series
DESCRIPTION_LINES = [
    d.to_json_line() for series, meta in (make_chart(True, 1, seed=31),
                                          make_chart(False, 2, seed=32))
    for d in generate_description_set(meta, series, BANK, Rng(7))
]

sentences_st = st.lists(st.builds(Sentence, st.sampled_from(MOVES),
                                  st.text(max_size=8), st.text(max_size=30)),
                        max_size=5)


class TestDescriptionCodec:
    """Description lines through the record codec, against the
    hand-written encoder and decoder they replaced."""

    @settings(max_examples=200)
    @given(image_index=st.integers(0, 10 ** 6),
           variant_index=st.integers(0, 9), sentences=sentences_st)
    def test_encoder_matches_oracle(self, image_index, variant_index,
                                    sentences):
        d = Description(image_index, variant_index, tuple(sentences),
                        " ".join(s.text for s in sentences))
        assert d.to_json_line() == description_to_line(d)
        assert Description.from_json_line(d.to_json_line()) == d

    def test_generated_lines_match_oracle(self):
        for line in DESCRIPTION_LINES:
            d = Description.from_json_line(line)
            assert description_to_line(d) == d.to_json_line() == line
            assert description_from_line(line) == decoded_fields(line)

    @settings(max_examples=400)
    @given(which=st.integers(0, len(DESCRIPTION_LINES) - 1),
           steps=st.lists(st.integers(0, 1000), max_size=5),
           action=st.sampled_from(["replace", "delete"]),
           value=JSON_VALUES)
    def test_decoder_matches_oracle_on_mutated_lines(self, which, steps,
                                                     action, value):
        doc = mutate_at(json.loads(DESCRIPTION_LINES[which]), steps, action,
                        value)
        line = json.dumps(doc, ensure_ascii=False)
        got, named = outcome(decoded_fields, line), named_fault(doc)
        want = named or outcome(description_from_line, line)
        if named is None and type(want[0]) is type:
            # the oracle read sentences first: a line without several keys
            # raises the same error type at another one
            assert (got[0], type(got[1])) == (want[0], str)
        else:  # repr: each side decodes a NaN in the line to a new float
            assert repr(got) == repr(want)


def test_meta_schema_doc_lists_the_description_fields():
    """The description-line tables of docs/meta-schema.md name exactly the
    fields of Description and of Sentence, in order."""
    text = (DOCS / "meta-schema.md").read_text(encoding="utf-8")
    section = text.split("## Description lines", 1)[1].split("\n## ", 1)[0]
    tables = [[row.split("|")[1].strip(" `") for row in block.splitlines()[2:]]
              for block in re.findall(r"(?:^\|.*\n)+", section, re.M)]
    assert tables == [[f.name for f in dataclasses.fields(Description)],
                      list(Sentence._fields)]


class TestSerialization:
    """JSON-lines round trip for descriptions."""

    def test_round_trip(self):
        series, meta = make_chart(True, 2, seed=1700, min_len=4)
        d = generate_description(meta, series, BANK, 1, Rng(11))
        line = d.to_json_line()
        assert "\n" not in line
        assert Description.from_json_line(line) == d

    def test_json_payload_shape(self):
        d = Description(3, 0, (Sentence("M1", "m1-001", "A chart."),),
                        "A chart.")
        doc = json.loads(d.to_json_line())
        assert doc["image_index"] == 3
        assert doc["sentences"][0]["move"] == "M1"
        assert doc["text"] == "A chart."

    def test_sentence_repr_equality_and_hash(self):
        s = Sentence("M1", "m1-001", "A chart.")
        assert repr(s) == \
            "Sentence(move='M1', template_id='m1-001', text='A chart.')"
        assert s == Sentence(move="M1", template_id="m1-001", text="A chart.")
        assert hash(s) == hash(("M1", "m1-001", "A chart."))
        assert s != Sentence("M1", "m1-001", "A chart!")
        with pytest.raises(AttributeError):
            s.text = "Another chart."


def fact_texts(facts):
    """Every fact text a slot can print."""
    texts = [facts.title, facts.x_label, facts.y_label, facts.unit,
             str(facts.n_categories), *facts.entity_list]
    for sf in facts.series:
        texts += [sf.name, sf.x_first, sf.x_last, sf.x_at_max, sf.x_at_min]
        texts += [narrate._plain_number(narrate._round_2sf(v)) for v in (
            sf.y_first, sf.y_last, sf.y_max, sf.y_min, sf.y_mean, sf.delta)]
    return texts


class TestHallucinationCheck:
    """Digit tokens must trace back to the fact table."""

    def test_fact_numbers_allowed(self):
        facts = visitor_facts()
        assert hallucination_check("It hit 15 million by 2015.", facts) == []

    def test_foreign_number_flagged(self):
        facts = visitor_facts()
        assert hallucination_check("It hit 42 million.", facts) == ["42"]

    def test_rounded_fact_values_allowed(self):
        facts = extract_facts(crafted_meta(crafted([297.3, 301.0, 312.5])))
        assert hallucination_check("It opened at about 300 kt.", facts) == []

    def test_allowed_tokens_cover_labels(self):
        facts = visitor_facts()
        tokens = facts.digit_tokens
        assert {"2013", "2015", "15", "12"} <= tokens

    def test_cross_gap_is_not_allowed(self):
        # no slot prints the gap between two series: gaps 370 and 370
        # match no label or per-series value, so citing one is flagged
        meta = crafted_meta(crafted([500, 600, 720]),
                            crafted([130, 240, 350], name="Beta"))
        facts = extract_facts(meta)
        a, b = ([p.value for p in sm.points] for sm in meta.series)
        assert a[0] - b[0] == a[-1] - b[-1] == 370
        assert hallucination_check("The gap is 370 kt.", facts) == ["370"]
        assert hallucination_check("Beta ends at 350 kt.", facts) == []

    def test_allowed_set_built_once_per_fact_table(self, monkeypatch):
        calls, reads = [], []
        real_tokenize, real_read = narrate.tokenize, narrate._chart_facts
        monkeypatch.setattr(narrate, "tokenize", lambda text:
                            calls.append(text) or real_tokenize(text))
        monkeypatch.setattr(narrate, "_chart_facts", lambda facts:
                            reads.append(facts) or real_read(facts))
        facts = visitor_facts()
        for _ in range(3):
            assert hallucination_check("It hit 15 million.", facts) == []
        # the fact words are read once, and a clean text tokenizes nothing
        assert (len(reads), calls) == (1, [])
        for _ in range(2):
            assert hallucination_check("It hit 42 million.", facts) == ["42"]
        # the digit tokens of the facts once, then the foreign text each time
        assert len(reads) == 1
        assert len(calls) == 3 and calls[1:] == ["It hit 42 million."] * 2

    def test_allowed_set_matches_one_tokenize_call_per_text(self):
        _, meta = make_chart(True, 2, seed=5, min_len=5)
        facts = extract_facts(meta)
        expected = {tok for text in fact_texts(facts) for tok in tokenize(text)
                    if any(c.isdigit() for c in tok)}
        assert facts.digit_tokens == expected


class TestFactWords:
    """The words the audit looks up."""

    def test_stripped_marks_are_ascii_punctuation(self):
        assert narrate._PUNCTUATION == string.punctuation

    def test_punctuation_stripped_from_both_ends(self):
        facts = dataclasses.replace(visitor_facts(),
                                    title="Imports (1973), in '000s")
        assert {"imports", "1973", "in", "000s"} <= facts.fact_words
        assert "(1973)," not in facts.fact_words


class TestDigitTest:
    """The per-token digit test against a scan of every character."""

    @settings(max_examples=500)
    @given(st.text())
    def test_matches_character_scan(self, tok):
        assert narrate._has_digit(tok) == any(c.isdigit() for c in tok)

    def test_no_code_point_is_both_letter_and_digit(self):
        both = [c for c in map(chr, range(sys.maxunicode + 1))
                if c.isalpha() and c.isdigit()]
        assert both == []


def has_digit_scan(tok):
    return any(c.isdigit() for c in tok)


def digit_tokens_oracle(facts):
    """The allowed set as it was built before words were pre-filtered:
    tokenize the joined fact texts, then keep the digit-bearing tokens."""
    return frozenset(tok for tok in tokenize(" ".join(fact_texts(facts)))
                     if has_digit_scan(tok))


def hallucination_check_oracle(text, facts):
    """The digit audit before words were pre-filtered: tokenize the whole
    text, then keep the digit-bearing tokens outside the allowed set."""
    allowed = digit_tokens_oracle(facts)
    return [tok for tok in tokenize(text)
            if tok not in allowed and has_digit_scan(tok)]


# digits, the two kept separators, whitespace, a dash, digits that are not
# decimal (superscript two, one half), a connector, a capital whose
# lowercase is two characters, a capital sigma and two letters
AUDIT_TRICKY = st.text(alphabet="12.,\t –²½_İΣaA",
                       max_size=40)


# letters, ASCII digits, a space, the punctuation that wraps or joins
# numbers, an en dash, and two digits that are not ASCII (a superscript two
# and an Arabic-Indic three)
AUDIT_WORDS = st.text(alphabet="abXY0123456789 .,%()-'\"–²٣", max_size=30)


class TestWordSetAudit:
    """The audit by stripped fact words against tokenize-then-filter."""

    @staticmethod
    def facts_named(title, entity, name):
        facts = TestDigitAuditOracle.facts_with(title, entity)
        series = dataclasses.replace(facts.series[0], name=name)
        return dataclasses.replace(facts, series=(series,))

    @settings(max_examples=500)
    @given(AUDIT_WORDS, AUDIT_WORDS, AUDIT_WORDS, AUDIT_WORDS,
           st.sampled_from(["", "(", "'", '"', "-"]),
           st.sampled_from(["", ").", "%,", "'", "),", "."]))
    def test_equals_the_token_oracle(self, text, title, entity, name,
                                     before, after):
        facts = self.facts_named(title, entity, name)
        # fact words, wrapped in punctuation, inside the text too
        for audited in (text, f"{before}{name}{after} {text}",
                        f"{text} {before}{entity}{after}",
                        f"{before}{title}{after}"):
            assert hallucination_check(audited, facts) == \
                hallucination_check_oracle(audited, facts)

    @pytest.mark.parametrize("text", ["It hit (987654),", "It hit 987654%"])
    def test_wrapped_foreign_number_flagged(self, text):
        facts = self.facts_named("Visitors", "2014", "Singapore")
        assert hallucination_check(text, facts) == ["987654"]
        assert hallucination_check_oracle(text, facts) == ["987654"]

    def test_wrapped_fact_passes_without_tokenize(self, monkeypatch):
        facts = self.facts_named("Visitors", "2014", "x (1973)")
        monkeypatch.setattr(narrate, "tokenize", None)  # any call fails
        assert hallucination_check("Imports of x (1973), then 15.",
                                   facts) == []


class TestDigitAuditOracle:
    """The word-filtered digit audit against tokenize-then-filter."""

    @staticmethod
    def facts_with(title, entity):
        facts = visitor_facts()
        return dataclasses.replace(facts, title=title,
                                   entity_list=facts.entity_list + (entity,))

    @settings(max_examples=300)
    @given(st.text(), st.text(), st.text())
    def test_any_text(self, text, title, entity):
        facts = self.facts_with(title, entity)
        assert facts.digit_tokens == digit_tokens_oracle(facts)
        assert hallucination_check(text, facts) == \
            hallucination_check_oracle(text, facts)

    @settings(max_examples=300)
    @given(AUDIT_TRICKY, AUDIT_TRICKY, AUDIT_TRICKY)
    def test_tricky_alphabet(self, text, title, entity):
        facts = self.facts_with(title, entity)
        assert facts.digit_tokens == digit_tokens_oracle(facts)
        assert hallucination_check(text, facts) == \
            hallucination_check_oracle(text, facts)

    @settings(max_examples=300)
    @given(st.one_of(st.text(), AUDIT_TRICKY))
    def test_digit_tokens_of_a_text(self, text):
        assert narrate._digit_tokens(text) == \
            [tok for tok in tokenize(text) if has_digit_scan(tok)]

    @settings(max_examples=300)
    @given(st.lists(st.one_of(st.text(), AUDIT_TRICKY,
                              st.sampled_from(["It hit 15 million.",
                                               "It hit 42.5 million."])),
                    max_size=4),
           AUDIT_TRICKY)
    def test_record_audit_is_its_lines_audits(self, texts, title):
        # validate audits a record's lines joined by a space, and each
        # line alone only when that finds a token
        facts = self.facts_with(title, "2015")
        lines = [hallucination_check(text, facts) for text in texts]
        record = hallucination_check(" ".join(texts), facts)
        assert record == [tok for line in lines for tok in line]
        assert (record == []) == all(line == [] for line in lines)

    def test_generated_descriptions(self):
        for seed in range(6):
            _, meta = make_chart(seed % 2 == 0, 1 + seed % 2, seed=seed,
                                 min_len=5)
            facts = extract_facts(meta)
            assert facts.digit_tokens == digit_tokens_oracle(facts)
            for d in generate_description_set(meta, None, BANK, Rng(seed),
                                              n_variants=3):
                text = d.text + " It peaked at 987,654.5 units in 1999."
                assert hallucination_check(text, facts) == \
                    hallucination_check_oracle(text, facts)

    def test_lowercasing_is_idempotent_and_keeps_whitespace(self):
        # the audit lowercases its words, and tokenize lowercases them again
        changed = [c for c in map(chr, range(sys.maxunicode + 1))
                   if c.lower().lower() != c.lower()
                   or any(ch.isspace() for ch in c.lower()) != c.isspace()]
        assert changed == []
