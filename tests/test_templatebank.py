"""Tests for template bank loading, validation, and queries."""

import re

import pytest

from chartscribe.templatebank import (
    CATEGORIES,
    MOVES,
    REACHABLE_CELLS,
    SLOT_VOCABULARY,
    BankFormatError,
    CoverageError,
    EmptyQueryError,
    Template,
    TemplateBank,
    UnknownMoveError,
    UnknownSlotError,
    load_bank,
    load_default_bank,
    parse_bank,
    query,
)
from chartscribe.trend import TrendClass

from bank_text import BANK_HEADER, serialize_bank


def query_scan(bank, move, category, trend, arity):
    """The query as a scan of every template: the oracle of the index."""
    if move not in MOVES:
        raise UnknownMoveError(f"unknown move {move!r}")
    hits = [t for t in bank.templates if t.matches(move, category, trend, arity)]
    hits.sort(key=lambda t: (t.wildcard_count(), t.id))
    if not hits:
        raise EmptyQueryError(
            f"no template for (move={move}, category={category}, "
            f"trend={trend}, arity={arity})"
        )
    return hits


def coverage_holes_scan(bank):
    """The coverage check as a scan of every template, in its report order."""
    return [(move, category, trend, arity)
            for category, trend, arity in REACHABLE_CELLS
            for move in MOVES
            if not any(t.matches(move, category, trend, arity)
                       for t in bank.templates)]


def query_outcome(fn, *args):
    try:
        return [t.id for t in fn(*args)]
    except (EmptyQueryError, UnknownMoveError) as exc:
        return type(exc), str(exc)


TRENDS = tuple(c.value for c in TrendClass) + (None,)


def bank_line(tid, move, category="any", trend="any", arity="any",
              origin="human", text="Plain sentence."):
    return "\t".join((tid, move, category, trend, arity, origin, text))


@pytest.fixture(scope="module")
def bank():
    return load_default_bank()


class TestSeedBank:
    """The shipped starter bank."""

    def test_loads_and_validates(self):
        bank = load_default_bank()
        assert len(bank.templates) >= 60

    def test_census_every_move_has_human_templates(self):
        templates = load_default_bank().templates
        for move in MOVES:
            assert any(t.move == move for t in templates), move
        assert sum(t.origin == "human" for t in templates) >= 60

    def test_two_templates_per_move_category_cell(self):
        bank = load_default_bank()
        for move in MOVES:
            for category in CATEGORIES:
                hits = {t.id for t in bank.templates
                        if t.move == move and t.category in (category, "any")}
                assert len(hits) >= 2, (move, category)

    def test_every_trend_class_has_m3(self):
        bank = load_default_bank()
        trends = [c for c, _, _ in
                  {(t, None, None) for cell in REACHABLE_CELLS
                   for t in [cell[1]] if t}]
        for trend in set(trends):
            hits = [t for t in bank.templates
                    if t.move == "M3" and (not t.trend_applicability
                                           or trend in t.trend_applicability)]
            assert hits, trend

    def test_round_trip(self):
        bank = load_default_bank()
        again = parse_bank(serialize_bank(bank))
        assert again.templates == bank.templates

    def test_no_digits_in_static_text(self):
        """Criterion: every digit in output must come from a fact slot."""
        import re
        for t in load_default_bank().templates:
            static = re.sub(r"\{[a-z0-9_]+\}", "", t.text)
            assert not any(ch.isdigit() for ch in static), t.id

    def test_all_slots_in_vocabulary(self):
        for t in load_default_bank().templates:
            for slot in t.slots():
                assert slot in SLOT_VOCABULARY


class TestQuery:

    def test_move_filter_is_exact(self, bank):
        for t in query(bank, "M1", "temporal-trend", "linear-increase", 2):
            assert t.move == "M1"

    def test_category_and_trend_respected(self, bank):
        for t in query(bank, "M3", "temporal-random", "plateau", 1):
            assert t.category in ("temporal-random", "any")
            assert (not t.trend_applicability
                    or "plateau" in t.trend_applicability)

    def test_wildcard_category_matches_everywhere(self, bank):
        for category in CATEGORIES:
            trend = "linear-increase" if category == "temporal-trend" else \
                "plateau" if category == "temporal-random" else None
            ids = {t.id for t in query(bank, "M2", category, trend, 1)}
            assert "m2-007" in ids

    def test_exact_before_any(self, bank):
        hits = query(bank, "M3", "temporal-trend", "convex-increase", 2)
        ranks = [t.wildcard_count() for t in hits]
        assert ranks == sorted(ranks)

    def test_deterministic(self, bank):
        a = query(bank, "M3_1", "categorical", None, 1)
        b = query(bank, "M3_1", "categorical", None, 1)
        assert [t.id for t in a] == [t.id for t in b]

    def test_every_reachable_cell_nonempty(self, bank):
        for category, trend, arity in REACHABLE_CELLS:
            for move in MOVES:
                assert query(bank, move, category, trend, arity)

    def test_unknown_move_rejected(self, bank):
        with pytest.raises(UnknownMoveError):
            query(bank, "M9", "categorical", None, 1)


class TestIndexedQuery:
    """The index answers every query exactly as a scan of the bank does."""

    @pytest.fixture(scope="class")
    def banks(self):
        full = load_default_bank()
        # sparse banks leave cells empty; built directly, so no coverage check
        return [full,
                TemplateBank(full.templates[::2]),
                TemplateBank(full.templates[1::3])]

    def test_index_covers_every_reachable_cell(self, bank):
        assert len(REACHABLE_CELLS) * len(MOVES) == 132
        assert set(bank._index) == {(move, *cell) for cell in REACHABLE_CELLS
                                    for move in MOVES}

    def test_every_key_equals_scan(self, banks):
        for b in banks:
            for move in MOVES:
                for category in CATEGORIES:
                    for trend in TRENDS:
                        for arity in (1, 2):
                            args = (b, move, category, trend, arity)
                            assert (query_outcome(query, *args)
                                    == query_outcome(query_scan, *args)), args

    @pytest.mark.parametrize("move, category, trend, arity", [
        ("M1", "pie-chart", None, 1),
        ("M3", "unknown", "plateau", 2),
        ("M2", "categorical", None, 0),
        ("M3", "temporal-trend", "linear-increase", 0),
        ("M1", "categorical", None, 3),
        ("M5", "temporal-random", "plateau", 3),
        ("M4", "categorical", "sideways", 1),
    ])
    def test_off_grid_keys_equal_scan(self, banks, move, category, trend,
                                      arity):
        for b in banks:
            args = (b, move, category, trend, arity)
            assert query_outcome(query, *args) == query_outcome(query_scan,
                                                                *args)

    @pytest.mark.parametrize("move", ["M9", "m1", "", "M3_2"])
    def test_unknown_move_still_raises(self, bank, move):
        with pytest.raises(UnknownMoveError):
            query(bank, move, "categorical", None, 1)
        with pytest.raises(UnknownMoveError):
            query(bank, move, "pie-chart", None, 3)

    def test_returns_a_fresh_list(self, bank):
        first = query(bank, "M1", "categorical", None, 1)
        want = [t.id for t in first]
        first.clear()
        assert [t.id for t in query(bank, "M1", "categorical", None, 1)] == want

    def test_coverage_holes_equal_scan(self, banks):
        for b in banks[1:]:
            holes = coverage_holes_scan(b)
            assert holes
            with pytest.raises(CoverageError) as err:
                parse_bank(serialize_bank(b))
            assert err.value.holes == holes
        assert coverage_holes_scan(banks[0]) == []

    def test_pieces_alternate_literal_and_slot(self, bank):
        for t in bank.templates:
            assert "".join(
                "{" + p + "}" if i % 2 else p for i, p in enumerate(t.pieces)
            ) == t.text
            assert t.slots() == list(t.pieces[1::2])


class TestParseErrors:

    def test_missing_m5_is_coverage_hole(self):
        text = serialize_bank(load_default_bank())
        kept = [ln for ln in text.splitlines() if not ln.startswith("m5-")]
        with pytest.raises(CoverageError) as err:
            parse_bank("\n".join(kept))
        assert "M5" in str(err.value)

    def test_unknown_slot_names_template(self):
        text = "\n".join([
            BANK_HEADER,
            bank_line("x1", "M1", text="The {y_labell} grows."),
        ])
        with pytest.raises(UnknownSlotError) as err:
            parse_bank(text)
        assert "x1" in str(err.value)
        assert "y_labell" in str(err.value)

    def test_unknown_move(self):
        with pytest.raises(UnknownMoveError):
            parse_bank(bank_line("x1", "M7"))

    def test_duplicate_id(self):
        text = "\n".join([bank_line("x1", "M1"), bank_line("x1", "M5")])
        with pytest.raises(BankFormatError):
            parse_bank(text)

    def test_wrong_field_count(self):
        with pytest.raises(BankFormatError):
            parse_bank("x1\tM1\tany")

    @pytest.mark.parametrize("field, value, message", [
        ("category", "pie", "<bank>:1: template x1: unknown category 'pie'"),
        ("arity", "3", "<bank>:1: bad arity '3'"),
        ("origin", "robot", "<bank>:1: template x1: unknown origin 'robot'"),
        ("trend", " , ", "<bank>:1: empty trend list"),
    ], ids=["category", "arity", "origin", "empty-trend-list"])
    def test_bad_field_rejected(self, field, value, message):
        with pytest.raises(BankFormatError, match=f"^{re.escape(message)}$"):
            parse_bank(bank_line("x1", "M1", **{field: value}))

    def test_stray_brace(self):
        with pytest.raises(BankFormatError):
            parse_bank(bank_line("x1", "M1", text="Unclosed {brace here."))

    def test_unknown_trend_class(self):
        with pytest.raises(BankFormatError):
            parse_bank(bank_line("x1", "M3", trend="sideways"))

    def test_m3_trend_phrase_requires_declared_trend(self):
        line = bank_line("x1", "M3", category="temporal-trend",
                         text="Shows {trend_phrase} overall.")
        with pytest.raises(BankFormatError):
            parse_bank(line)

    def test_empty_bank(self):
        with pytest.raises(BankFormatError):
            parse_bank("# template-bank v1\n")

    def test_line_number_in_error(self):
        text = "\n".join([
            BANK_HEADER,
            bank_line("ok1", "M1"),
            bank_line("x1", "M7"),
        ])
        with pytest.raises(UnknownMoveError) as err:
            parse_bank(text, source="bank.tsv")
        assert "bank.tsv:3" in str(err.value)


class TestTemplateMatching:

    def test_trend_set_matching(self):
        t = Template("a", "M3", "temporal-trend",
                     frozenset({"linear-increase"}), 0, "human",
                     "Shows {trend_phrase}.")
        assert t.matches("M3", "temporal-trend", "linear-increase", 1)
        assert not t.matches("M3", "temporal-trend", "plateau", 1)
        assert not t.matches("M3", "temporal-trend", None, 1)

    def test_any_trend_matches_none(self):
        t = Template("a", "M3", "categorical", frozenset(), 0, "human", "Text.")
        assert t.matches("M3", "categorical", None, 1)

    def test_arity_matching(self):
        t = Template("a", "M1", "any", frozenset(), 2, "human", "Text.")
        assert t.matches("M1", "categorical", None, 2)
        assert not t.matches("M1", "categorical", None, 1)

    def test_file_load(self, tmp_path):
        p = tmp_path / "bank.tsv"
        p.write_text(serialize_bank(load_default_bank()), encoding="utf-8")
        bank = load_bank(p)
        assert len(bank.templates) >= 60
