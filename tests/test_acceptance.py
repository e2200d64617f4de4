"""Acceptance suite: eight end-to-end criteria, one test per criterion.

Each test function name carries its criterion number, so `pytest -v`
prints exactly one pass/fail line per criterion.  Everything here goes
through public interfaces; tolerances are stated inline next to each
assert.
"""

import dataclasses
import json
import math
import shutil
import time
from pathlib import Path

import pytest

from chartscribe.chartgen import ChartMeta
from chartscribe.corpus import (
    CATEGORIES, KINDS, MANIFEST_NAME, default_config, generate_corpus,
    load_manifest, regenerate_record, validate_corpus,
)
from chartscribe.evalmetrics import bleu, rouge_l, rouge_n, tokenize
from chartscribe.narrate import (
    Description, baseline_generate, check_move_order, extract_facts,
    generate_description, hallucination_check,
)
from chartscribe.rng import Rng, derive_seed
from chartscribe.templatebank import load_default_bank
from chartscribe.trend import (
    GbmParams, TrendClass, TrendUnrealizableError, classify_trend, gbm_path,
    preset, synth_trend_series,
)

FULL_SEED = 41
STATS_SEED = 52
FAULT_SEED = 63
SCORE_SEED = 0xACCE5501


def tree_hash_bytes(root) -> bytes:
    import hashlib
    h = hashlib.sha256()
    for p in sorted(Path(root).rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.digest()


@pytest.fixture(scope="session")
def full_corpus(tmp_path_factory):
    """The complete default-size corpus (10,232 charts)."""
    out = tmp_path_factory.mktemp("accept") / "full"
    config = default_config(seed=FULL_SEED, output_dir=str(out))
    manifest = generate_corpus(config)
    return out, manifest


@pytest.fixture(scope="session")
def stats_corpus(tmp_path_factory):
    """A 507-chart corpus (count_scale=0.05) shared by criteria 2/4/5/8."""
    out = tmp_path_factory.mktemp("accept") / "stats"
    config = dataclasses.replace(
        default_config(seed=STATS_SEED, output_dir=str(out)),
        count_scale=0.05)
    manifest = generate_corpus(config)
    return out, manifest


def test_criterion_1_corpus_shape(full_corpus, tmp_path):
    """Default config reproduces the target grid exactly; the desk-scale
    variant finishes fast with a proportional grid."""
    out, manifest = full_corpus

    kind_totals = {kind: 0 for kind in KINDS}
    for entry in manifest["records"]:
        kind_totals[entry["kind"]] += 1
    assert kind_totals["line"] == 2880
    assert kind_totals["horizontal-bar"] == 1592
    assert kind_totals["vertical-bar"] == 2880
    assert kind_totals["scatter"] == 2880
    assert manifest["totals"]["charts"] == 10232

    # the files are really on disk, not just promised by the manifest
    assert len(list((out / "charts").glob("*.svg"))) == 10232
    assert len(list((out / "meta").glob("*.json"))) == 10232
    assert len(list((out / "descriptions").glob("*.txt"))) == 10232

    # desk scale: < 60 s on one core, every cell floor(n * 0.01) min 1
    desk = tmp_path / "desk"
    config = dataclasses.replace(
        default_config(seed=FULL_SEED, output_dir=str(desk)),
        count_scale=0.01)
    t0 = time.perf_counter()
    desk_manifest = generate_corpus(config, jobs=1)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"desk-scale generation took {elapsed:.1f}s"
    desk_grid = {(c, k): 0 for c in CATEGORIES for k in KINDS}
    for entry in desk_manifest["records"]:
        desk_grid[(entry["category"], entry["kind"])] += 1
    for (category, kind), full_count in (
            (cell, config.cell_counts[cell]) for cell in desk_grid):
        want = max(1, math.floor(full_count * 0.01))
        assert desk_grid[(category, kind)] == want, (category, kind)


def test_criterion_2_description_statistics(stats_corpus):
    """Mean sentences in [6, 10], mean words in [110, 170], and
    descriptions per chart in [2.0, 3.0] over a 500+ chart corpus."""
    out, manifest = stats_corpus
    n_charts = manifest["totals"]["charts"]
    assert n_charts >= 500

    n_desc = 0
    n_sentences = 0
    n_words = 0
    for path in sorted((out / "descriptions").iterdir()):
        for line in path.read_text(encoding="utf-8").splitlines():
            desc = Description.from_json_line(line)
            n_desc += 1
            n_sentences += len(desc.sentences)
            n_words += len(desc.text.split())

    mean_sentences = n_sentences / n_desc
    mean_words = n_words / n_desc
    per_chart = n_desc / n_charts
    assert 6.0 <= mean_sentences <= 10.0, f"mean sentences {mean_sentences:.2f}"
    assert 110.0 <= mean_words <= 170.0, f"mean words {mean_words:.2f}"
    assert 2.0 <= per_chart <= 3.0, f"descriptions per chart {per_chart:.2f}"


def test_criterion_3_trend_fidelity():
    """Every preset classifies back >= 95% of 1,000 seeded draws, and
    sigma=0 paths match the closed-form exponential within 1e-12."""
    for k, trend_class in enumerate(TrendClass):
        spec = preset(trend_class)
        ok = 0
        for i in range(1000):
            try:
                series = synth_trend_series(spec, seed=k * 100000 + i)
            except TrendUnrealizableError:
                continue
            if classify_trend(series) is trend_class:
                ok += 1
        assert ok >= 950, f"{trend_class.value}: {ok}/1000 classified back"

    for s0, mu, n in ((100.0, 0.1, 12), (3.5, -0.2, 9), (1.0, 0.0, 20)):
        params = GbmParams(s0=s0, mu=mu, sigma=0.0, n_points=n)
        for seed in (0, 7, 12345):
            path = gbm_path(params, seed)
            for i, y in enumerate(path):
                expect = s0 * math.exp(mu * i)
                assert abs(y - expect) <= 1e-12 * abs(expect), (s0, mu, i)


# the 20-fault set for criterion 4: (name, expected substrings, injector);
# a fault counts as flagged when validate reports a violation mentioning
# any of the substrings
def _edit_json(path, mutate):
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    mutate(doc)
    Path(path).write_text(json.dumps(doc, ensure_ascii=False),
                          encoding="utf-8")


def _edit_desc_line(path, line_no, mutate):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    doc = json.loads(lines[line_no])
    mutate(doc)
    lines[line_no] = json.dumps(doc, ensure_ascii=False)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _set_text(doc, text):
    doc["sentences"][0]["text"] = text
    doc["text"] = " ".join(s["text"] for s in doc["sentences"])


def _value_beyond_axis(doc):
    axis = doc["value_axis"]
    doc["series"][0]["points"][0]["value"] = \
        axis["hi"] + (axis["hi"] - axis["lo"])


def _shift_value_coord(doc):
    key = "y_canvas" if doc["value_axis"]["orientation"] == "y" else "x_canvas"
    doc["series"][0]["points"][0][key] += 40.0


FAULTS = [
    ("bbox negative origin", ["bbox outside canvas"],
     lambda d: _edit_json(d / "meta/000001.json",
                          lambda doc: doc["title"]["bbox"].__setitem__("x", -5.0))),
    ("bbox past right edge", ["bbox outside canvas"],
     lambda d: _edit_json(d / "meta/000001.json",
                          lambda doc: doc["x_label"]["bbox"].__setitem__("w", 900.0))),
    ("truncated svg", ["does not parse"],
     lambda d: (d / "charts/000002.svg").write_bytes(
         (d / "charts/000002.svg").read_bytes()[:120])),
    ("deleted chart file", ["missing chart"],
     lambda d: (d / "charts/000003.svg").unlink()),
    ("deleted meta file", ["missing meta"],
     lambda d: (d / "meta/000004.json").unlink()),
    ("deleted descriptions file", ["missing descriptions"],
     lambda d: (d / "descriptions/000005.txt").unlink()),
    ("point value beyond axis", ["value transform", "off canvas"],
     lambda d: _edit_json(d / "meta/000006.json", _value_beyond_axis)),
    ("shifted canvas coordinate", ["value transform", "off canvas"],
     lambda d: _edit_json(d / "meta/000007.json", _shift_value_coord)),
    ("residual template slot", ["residual slots"],
     lambda d: _edit_desc_line(d / "descriptions/000008.txt", 0,
                               lambda doc: _set_text(doc, "The {y_label} is shown."))),
    ("scrambled move order", ["move order"],
     lambda d: _edit_desc_line(d / "descriptions/000009.txt", 0,
                               lambda doc: doc.__setitem__(
                                   "sentences", doc["sentences"][::-1]))),
    ("foreign digit token", ["matches no chart fact"],
     lambda d: _edit_desc_line(d / "descriptions/000010.txt", 0,
                               lambda doc: _set_text(
                                   doc, doc["sentences"][0]["text"]
                                   + " It peaked at 987654 units."))),
    ("description index mismatch", ["image_index"],
     lambda d: _edit_desc_line(d / "descriptions/000011.txt", 0,
                               lambda doc: doc.__setitem__("image_index", 424242))),
    ("meta index mismatch", ["image_index"],
     lambda d: _edit_json(d / "meta/000012.json",
                          lambda doc: doc.__setitem__("image_index", 424242))),
    ("category flip", ["category"],
     lambda d: _edit_json(d / "meta/000000.json",
                          lambda doc: doc.__setitem__("category", "categorical"))),
    # record 000000 is always the first temporal-trend scatter cell, so
    # "line" is guaranteed to differ from its manifest kind
    ("kind flip", ["kind"],
     lambda d: _edit_json(d / "meta/000000.json",
                          lambda doc: doc.__setitem__("chart_kind", "line"))),
    ("malformed meta json", ["does not parse"],
     lambda d: (d / "meta/000002.json").write_text("{broken", encoding="utf-8")),
    ("malformed description line", ["does not parse"],
     lambda d: (d / "descriptions/000003.txt").write_text("{broken\n",
                                                          encoding="utf-8")),
    ("orphan chart file", ["not in manifest"],
     lambda d: (d / "charts/999999.svg").write_text("<svg/>", encoding="utf-8")),
    ("manifest chart total tamper", ["totals.charts"],
     lambda d: _edit_json(d / MANIFEST_NAME,
                          lambda doc: doc["totals"].__setitem__(
                              "charts", doc["totals"]["charts"] + 2))),
    ("manifest cell count tamper", ["declares"],
     lambda d: _edit_json(d / MANIFEST_NAME,
                          lambda doc: doc["cells"][0].__setitem__(
                              "count", doc["cells"][0]["count"] + 1))),
]


def test_criterion_4_meta_correctness(stats_corpus, tmp_path):
    """100% coordinate round-trips within 0.5 canvas units, 100% BBoxes
    inside the canvas, zero violations fresh, all 20 injected faults
    flagged."""
    out, manifest = stats_corpus

    checked_charts = 0
    for path in sorted((out / "meta").iterdir()):
        meta = ChartMeta.from_json(path.read_text(encoding="utf-8"))
        axis = meta.value_axis
        for sm in meta.series:
            for point in sm.points:
                stored = (point.x_canvas if axis.orientation == "x"
                          else point.y_canvas)
                # stored coordinate vs the transform of the true value
                assert abs(axis.to_canvas(point.value) - stored) <= 0.5, \
                    (meta.image_index, sm.name, point.x_label)
        for i, tick in enumerate(meta.x_ticks):
            assert tick.bbox.within_canvas(), (meta.image_index, "x_tick", i)
        for i, tick in enumerate(meta.y_ticks):
            assert tick.bbox.within_canvas(), (meta.image_index, "y_tick", i)
        assert meta.title.bbox.within_canvas(), meta.image_index
        assert meta.x_label.bbox.within_canvas(), meta.image_index
        assert meta.y_label.bbox.within_canvas(), meta.image_index
        assert meta.legend.bbox.within_canvas(), meta.image_index
        for entry in meta.legend.entries:
            assert entry.name_bbox.within_canvas(), meta.image_index
            assert entry.marker_bbox.within_canvas(), meta.image_index
        assert meta.plot_area.within_canvas(), meta.image_index
        checked_charts += 1
    assert checked_charts >= 200

    # a freshly generated corpus validates clean
    assert validate_corpus(out) == []

    # every injected fault is flagged
    fault_base = tmp_path / "fault_base"
    config = dataclasses.replace(
        default_config(seed=FAULT_SEED, output_dir=str(fault_base)),
        count_scale=0.002)
    generate_corpus(config)
    assert validate_corpus(fault_base) == []

    assert len(FAULTS) == 20
    for i, (name, expected, inject) in enumerate(FAULTS):
        copy = tmp_path / f"fault_{i:02d}"
        shutil.copytree(fault_base, copy)
        inject(copy)
        problems = validate_corpus(copy)
        assert problems, f"fault {name!r} produced no violations"
        assert any(any(sub in p for sub in expected) for p in problems), \
            f"fault {name!r} not flagged as itself: {problems[:3]}"
        shutil.rmtree(copy)


def test_criterion_5_structure_superiority(stats_corpus):
    """Move-structured generation beats the unstructured baseline on mean
    BLEU-4 and ROUGE-L against 30 pseudo-references per chart; structured
    output always passes the move-order check, the baseline often fails."""
    out, _ = stats_corpus
    bank = load_default_bank()
    metas = sorted((out / "meta").iterdir())[::5][:100]
    assert len(metas) >= 100

    s_bleu, s_rl, b_bleu, b_rl = [], [], [], []
    s_order_fail = 0
    b_order_fail = 0
    for mi, path in enumerate(metas):
        meta = ChartMeta.from_json(path.read_text(encoding="utf-8"))
        refs = []
        for i in range(30):
            ref = generate_description(
                meta, None, bank, variant_index=i,
                rng=Rng(derive_seed(SCORE_SEED, 1, mi, i)))
            refs.append(tuple(tokenize(ref.text)))
        structured = generate_description(
            meta, None, bank, variant_index=100,
            rng=Rng(derive_seed(SCORE_SEED, 2, mi)))
        baseline = baseline_generate(
            meta, None, bank, Rng(derive_seed(SCORE_SEED, 3, mi)))
        hyp_s = tuple(tokenize(structured.text))
        hyp_b = tuple(tokenize(baseline.text))
        s_bleu.append(bleu(hyp_s, refs))
        s_rl.append(rouge_l(hyp_s, refs))
        b_bleu.append(bleu(hyp_b, refs))
        b_rl.append(rouge_l(hyp_b, refs))
        if check_move_order(structured.moves):
            s_order_fail += 1
        if check_move_order(baseline.moves):
            b_order_fail += 1

    n = len(metas)
    mean = lambda xs: sum(xs) / len(xs)
    assert mean(s_bleu) > mean(b_bleu), \
        f"BLEU-4 {mean(s_bleu):.2f} vs baseline {mean(b_bleu):.2f}"
    assert mean(s_rl) > mean(b_rl), \
        f"ROUGE-L {mean(s_rl):.2f} vs baseline {mean(b_rl):.2f}"
    assert s_order_fail == 0, f"{s_order_fail}/{n} structured outputs invalid"
    assert b_order_fail >= 0.30 * n, \
        f"only {b_order_fail}/{n} baseline outputs fail the order check"


def test_criterion_6_metric_oracles():
    """Hand-computed oracle values within 0.01, plus identity, disjoint,
    and reference-permutation properties over 50 seeded cases."""
    hyp = tuple(tokenize("the cat sat"))
    ref = tuple(tokenize("the cat sat down"))
    assert abs(bleu(hyp, [ref]) - 71.6531) <= 0.01

    assert abs(rouge_l(tuple("abc"), [tuple("ac")]) - 80.0) <= 0.01

    vocab_a = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot",
               "golf", "hotel", "india", "juliett"]
    vocab_b = ["kilo", "lima", "mike", "november", "oscar", "papa",
               "quebec", "romeo", "sierra", "tango"]
    rng = Rng(606)
    for case in range(50):
        k = 5 + rng.randint(16)
        sent = tuple(vocab_a[rng.randint(len(vocab_a))] for _ in range(k))
        other = tuple(vocab_b[rng.randint(len(vocab_b))] for _ in range(k))
        # identity
        assert abs(bleu(sent, [sent]) - 100.0) <= 1e-9
        assert abs(rouge_n(sent, [sent], 1) - 100.0) <= 1e-9
        assert abs(rouge_n(sent, [sent], 2) - 100.0) <= 1e-9
        assert abs(rouge_l(sent, [sent]) - 100.0) <= 1e-9
        # disjoint vocabularies
        assert bleu(sent, [other]) == 0.0
        assert rouge_n(sent, [other], 1) == 0.0
        assert rouge_n(sent, [other], 2) == 0.0
        assert rouge_l(sent, [other]) == 0.0
        # permuting the reference list changes nothing
        extra = tuple(vocab_a[rng.randint(len(vocab_a))]
                      for _ in range(3 + rng.randint(10)))
        refs = [other, sent, extra]
        flipped = [extra, other, sent]
        assert bleu(sent, refs) == bleu(sent, flipped)
        assert rouge_n(sent, refs, 1) == rouge_n(sent, flipped, 1)
        assert rouge_n(sent, refs, 2) == rouge_n(sent, flipped, 2)
        assert rouge_l(sent, refs) == rouge_l(sent, flipped)


def test_criterion_7_determinism(full_corpus, tmp_path):
    """Identical configs give byte-identical trees; any single record can
    be regenerated in isolation, byte-exact."""
    run_a = tmp_path / "a"
    run_b = tmp_path / "b"
    for out in (run_a, run_b):
        generate_corpus(dataclasses.replace(
            default_config(seed=FULL_SEED, output_dir=str(out)),
            count_scale=0.01))
    assert tree_hash_bytes(run_a) == tree_hash_bytes(run_b)

    out, manifest = full_corpus
    by_index = {e["image_index"]: e for e in manifest["records"]}
    for image_index in (0, 1593, 3500, 7000, 10231):
        entry = by_index[image_index]
        originals = {rel: (out / rel).read_bytes()
                     for rel in entry["files"].values()}
        for rel in entry["files"].values():
            (out / rel).write_bytes(b"clobbered")
        regenerate_record(out, image_index)
        for rel, original in originals.items():
            assert (out / rel).read_bytes() == original, (image_index, rel)


def test_criterion_8_no_hallucinated_numbers(stats_corpus):
    """Every digit-bearing token in 1,000 descriptions reverse-matches a
    chart fact under the documented formatting; no tolerance."""
    out, _ = stats_corpus
    checked = 0
    offenders = []
    for meta_path in sorted((out / "meta").iterdir()):
        if checked >= 1000:
            break
        meta = ChartMeta.from_json(meta_path.read_text(encoding="utf-8"))
        facts = extract_facts(meta)
        desc_path = out / "descriptions" / (meta_path.stem + ".txt")
        for line in desc_path.read_text(encoding="utf-8").splitlines():
            if checked >= 1000:
                break
            desc = Description.from_json_line(line)
            bad = hallucination_check(desc.text, facts)
            if bad:
                offenders.append((meta.image_index, desc.variant_index, bad))
            checked += 1
    assert checked >= 1000
    assert not offenders, f"{len(offenders)} descriptions with unmatched digits"
