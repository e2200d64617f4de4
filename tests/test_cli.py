"""Tests for the command-line interface."""

import contextlib
import copy
import io
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from chartscribe import cli, corpus
from chartscribe.catalog import synth_catalog, write_catalog
from chartscribe.chartgen import ChartMeta, meta_problems
from chartscribe.cli import build_parser, main
from chartscribe.corpus import MANIFEST_NAME, load_manifest
from chartscribe.narrate import Description
from chartscribe.templatebank import load_default_bank

from bank_text import serialize_bank

SRC = Path(__file__).resolve().parents[1] / "src"
DEEP_JSON = "[" * 200000 + "]" * 200000


def one_line_error(capsys, text):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert text in err


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "corpus"
    rc = main(["generate", "--seed", "2026", "--count-scale", "0.002",
               "--out", str(out)])
    assert rc == 0
    return out


class TestGenerate:
    """The generate subcommand."""

    def test_writes_corpus(self, corpus_dir):
        assert (corpus_dir / MANIFEST_NAME).exists()
        assert any((corpus_dir / "charts").iterdir())

    def test_needs_config_or_seed(self, capsys):
        rc = main(["generate"])
        assert rc == 2
        assert "--config or --seed" in capsys.readouterr().err

    def test_config_file_with_overrides(self, tmp_path, capsys):
        ini = tmp_path / "c.ini"
        ini.write_text("[corpus]\nseed = 1\ncount_scale = 0.002\n")
        out = tmp_path / "out"
        rc = main(["generate", "--config", str(ini), "--seed", "2026",
                   "--out", str(out)])
        assert rc == 0
        manifest = json.loads((out / MANIFEST_NAME).read_text())
        assert manifest["config"]["seed"] == 2026

    def test_override_reproduces_flag_run(self, tmp_path, corpus_dir):
        """--seed/--count-scale on top of a config equal the pure-flag run."""
        ini = tmp_path / "c.ini"
        ini.write_text("[corpus]\nseed = 1\n")
        out = tmp_path / "out"
        rc = main(["generate", "--config", str(ini), "--seed", "2026",
                   "--count-scale", "0.002", "--out", str(out)])
        assert rc == 0
        want = (corpus_dir / "charts" / "000000.svg").read_bytes()
        assert (out / "charts" / "000000.svg").read_bytes() == want

    def test_bad_config(self, tmp_path, capsys):
        ini = tmp_path / "bad.ini"
        ini.write_text("[corpus]\noutput_dir = x\n")
        rc = main(["generate", "--config", str(ini)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


    @pytest.mark.parametrize("body, message", [
        ("[corpus]\nseed = 1\n[cells]\ntemporal-trend.bar = many\n",
         "[cells] temporal-trend.bar = 'many' is not an integer"),
        ("[corpus]\nseed = one\n", "[corpus] seed = 'one' is not an integer"),
        ("[corpus]\nseed = 1\ncount_scale = half\n",
         "[corpus] count_scale = 'half' is not a number"),
        ("[corpus]\nseed = 1\n[generator]\np_move2 = often\n",
         "[generator] p_move2 = 'often' is not a number"),
        ("seed = 1\n", "does not parse"),
    ], ids=["cell-count", "seed", "count-scale", "generator", "no-section"])
    def test_config_value_not_a_number(self, tmp_path, capsys, body, message):
        ini = tmp_path / "bad.ini"
        ini.write_text(body)
        rc = main(["generate", "--config", str(ini),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        one_line_error(capsys, message)

    @pytest.mark.parametrize("body, message", [
        ("[corpus]\nseed = 1\ncount_scal = 0.01\n",
         "unknown key in [corpus]: count_scal"),
        ("[corpus]\nseed = 1\n[generatr]\np_move4 = 0\n",
         "unknown section [generatr]"),
        ("[corpus]\nseed = 1\n[generator]\np_mov4 = 0\n",
         "unknown key in [generator]: p_mov4"),
        ("[corpus]\nseed = 1\n[generator]\ndescriptions_per_chart = 2\n",
         "unknown key in [generator]: descriptions_per_chart"),
        ("[DEFAULT]\ncount_scale = 0.01\n[corpus]\nseed = 1\n",
         "unknown section [DEFAULT]"),
    ], ids=["corpus-key", "section", "generator-key", "generator-variants",
            "default"])
    def test_config_unknown_name(self, tmp_path, capsys, body, message):
        ini = tmp_path / "bad.ini"
        ini.write_text(body)
        out = tmp_path / "out"
        rc = main(["generate", "--config", str(ini), "--out", str(out)])
        assert rc == 2
        one_line_error(capsys, message)
        assert not out.exists()

    def test_jobs_zero(self, tmp_path, capsys):
        rc = main(["generate", "--seed", "1", "--count-scale", "0.002",
                   "--jobs", "0", "--out", str(tmp_path / "out")])
        assert rc == 2
        one_line_error(capsys, "--jobs must be >= 1")

    @pytest.mark.parametrize("scale", ["nan", "inf"])
    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_count_scale_not_finite(self, tmp_path, capsys, where, scale):
        out = tmp_path / "out"
        if where == "flag":
            argv = ["--seed", "1", "--count-scale", scale, "--out", str(out)]
        else:
            ini = tmp_path / "c.ini"
            ini.write_text(f"[corpus]\nseed = 1\noutput_dir = {out}\n"
                           f"count_scale = {scale}\n")
            argv = ["--config", str(ini)]
        rc = main(["generate"] + argv)
        assert rc == 2
        one_line_error(capsys, f"count_scale: must be finite and > 0, got {scale}")
        assert not out.exists()


def _bank_with_holes() -> str:
    text = serialize_bank(load_default_bank())
    return "\n".join(ln for ln in text.splitlines() if not ln.startswith("m5-"))


# file name -> content; a catalog data file's dictionary sits next to it
INPUT_FILES = {
    "bad.tsv": b"x1\tM1\tany\n",
    "binary.tsv": b"\xff\xfe not text\n",
    "holes.tsv": _bank_with_holes().encode("utf-8"),
    "bad.csv": b"# catalog-data v1\nsh,nor,2000\n",
    "bad.dict.csv": b"# catalog-dict v1\n",
    "binary.csv": b"\xff\xfe\n",
    "binary.dict.csv": b"# catalog-dict v1\n",
}


@pytest.mark.parametrize("setting, name, jobs, message", [
    ("--bank", "bad.tsv", 1, "bad.tsv:1: expected 7 tab-separated fields"),
    ("--bank", "binary.tsv", 1, "binary.tsv: not UTF-8 text"),
    ("--bank", "holes.tsv", 1, "holes.tsv: bank has"),
    ("template_bank", "bad.tsv", 1, "bad.tsv:1: expected 7 tab-separated fields"),
    ("template_bank", "bad.tsv", 2, "bad.tsv:1: expected 7 tab-separated fields"),
    ("template_bank", "binary.tsv", 1, "binary.tsv: not UTF-8 text"),
    ("catalog_source", "bad.csv", 1, "bad.csv:2: data row needs 4 fields"),
    ("catalog_source", "bad.csv", 2, "bad.csv:2: data row needs 4 fields"),
    ("catalog_source", "binary.csv", 1, "binary.csv: not UTF-8 CSV"),
], ids=["describe-bad", "describe-binary", "describe-holes", "bank-bad-jobs1",
        "bank-bad-jobs2", "bank-binary", "catalog-bad-jobs1",
        "catalog-bad-jobs2", "catalog-binary"])
def test_malformed_input_file(corpus_dir, tmp_path, capsys, setting, name,
                              jobs, message):
    """A malformed bank or catalog named by the user is one error line and
    exit 2; generate makes no directory."""
    for file_name, content in INPUT_FILES.items():
        (tmp_path / file_name).write_bytes(content)
    out = tmp_path / "out"
    if setting == "--bank":
        argv = ["describe", "--meta", str(corpus_dir / "meta" / "000000.json"),
                "--bank", str(tmp_path / name)]
    else:
        ini = tmp_path / "c.ini"
        ini.write_text(f"[corpus]\nseed = 1\ncount_scale = 0.002\n"
                       f"output_dir = {out}\n{setting} = {tmp_path / name}\n")
        argv = ["generate", "--config", str(ini), "--jobs", str(jobs)]
    assert main(argv) == 2
    one_line_error(capsys, message)
    assert not out.exists()


class TestStats:
    """The stats subcommand."""

    def test_prints_grid(self, corpus_dir, capsys):
        rc = main(["stats", str(corpus_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "temporal-trend" in out
        assert "descriptions per chart" in out

    def test_missing_dir(self, tmp_path, capsys):
        rc = main(["stats", str(tmp_path / "nope")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_record_without_kind(self, corpus_dir, tmp_path, capsys):
        # stats plans from the config: a damaged record is not read
        assert main(["stats", str(corpus_dir)]) == 0
        clean = capsys.readouterr().out
        out = tmp_path / "corpus"
        out.mkdir()
        manifest = json.loads((corpus_dir / MANIFEST_NAME).read_text())
        del manifest["records"][0]["kind"]
        (out / MANIFEST_NAME).write_text(json.dumps(manifest))
        rc = main(["stats", str(out)])
        assert rc == 0
        assert capsys.readouterr().out == clean

    def test_config_malformed(self, corpus_dir, tmp_path, capsys):
        manifest = json.loads((corpus_dir / MANIFEST_NAME).read_text())
        manifest["config"]["seed"] = True
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(manifest))
        assert main(["stats", str(tmp_path)]) == 2
        one_line_error(capsys, "manifest: config is malformed: TypeError: "
                               "seed: True is not of type int")

    def test_manifest_not_json(self, tmp_path, capsys):
        (tmp_path / MANIFEST_NAME).write_text("not json", encoding="utf-8")
        rc = main(["stats", str(tmp_path)])
        assert rc == 2
        one_line_error(capsys, "manifest: manifest.json does not parse: ")

    def test_manifest_nested_too_deep(self, tmp_path, capsys):
        (tmp_path / MANIFEST_NAME).write_text(DEEP_JSON, encoding="utf-8")
        rc = main(["stats", str(tmp_path)])
        assert rc == 2
        one_line_error(capsys, "manifest: manifest.json does not parse: "
                               "maximum recursion depth exceeded")


class TestValidate:
    """The validate subcommand."""

    def test_clean(self, corpus_dir, capsys):
        rc = main(["validate", str(corpus_dir)])
        assert rc == 0
        assert "0 violations" in capsys.readouterr().out

    def test_manifest_parsed_once(self, corpus_dir, capsys, monkeypatch):
        totals = load_manifest(corpus_dir)["totals"]
        calls = []

        def spy(path):
            calls.append(path)
            return load_manifest(path)

        monkeypatch.setattr(corpus, "load_manifest", spy)
        monkeypatch.setattr(cli, "load_manifest", spy, raising=False)
        assert main(["validate", str(corpus_dir)]) == 0
        assert len(calls) == 1
        assert capsys.readouterr().out == (
            f"ok: {totals['charts']} charts, {totals['descriptions']} "
            f"descriptions, 0 violations\n")

    def test_faulty(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        assert main(["generate", "--seed", "8", "--count-scale", "0.002",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        (out / "charts" / "000001.svg").unlink()
        rc = main(["validate", str(out)])
        assert rc == 1
        printed = capsys.readouterr().out
        assert "missing chart" in printed
        assert "violation(s)" in printed


class TestDevMode:
    """generate and validate under `python -X dev`, with ResourceWarning an
    error: a file handle left open on the write or read path fails here."""

    def test_generate_then_validate(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        out = tmp_path / "corpus"
        for argv in (["generate", "--seed", "41", "--count-scale", "0.002",
                      "--out", str(out)], ["validate", str(out)]):
            done = subprocess.run(
                [sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
                 "-m", "chartscribe.cli", *argv],
                env=env, capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr[-2000:]
            # a warning raised in a finalizer is printed, not propagated
            assert "ResourceWarning" not in done.stderr, done.stderr[-2000:]
        assert "ok: 15 charts" in done.stdout


class TestDescribe:
    """The describe subcommand."""

    def test_prints_json_lines(self, corpus_dir, capsys):
        meta = corpus_dir / "meta" / "000000.json"
        rc = main(["describe", "--meta", str(meta), "--seed", "5"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert 1 <= len(lines) <= 3
        for line in lines:
            desc = Description.from_json_line(line)
            assert desc.text

    def test_deterministic(self, corpus_dir, capsys):
        meta = corpus_dir / "meta" / "000002.json"
        main(["describe", "--meta", str(meta), "--seed", "9"])
        first = capsys.readouterr().out
        main(["describe", "--meta", str(meta), "--seed", "9"])
        assert capsys.readouterr().out == first
        main(["describe", "--meta", str(meta), "--seed", "10"])
        assert capsys.readouterr().out != first

    def test_variants_flag(self, corpus_dir, capsys):
        meta = corpus_dir / "meta" / "000000.json"
        rc = main(["describe", "--meta", str(meta), "--seed", "5",
                   "--variants", "1"])
        assert rc == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 1

    def test_variants_zero(self, corpus_dir, capsys):
        meta = corpus_dir / "meta" / "000000.json"
        rc = main(["describe", "--meta", str(meta), "--variants", "0"])
        assert rc == 2
        one_line_error(capsys, "--variants must be >= 1")

    @pytest.mark.parametrize("body", ['"not json', '{"image_index": 1}'],
                             ids=["not-json", "not-meta"])
    def test_meta_not_chart_metadata(self, tmp_path, capsys, body):
        meta = tmp_path / "meta.json"
        meta.write_text(body)
        rc = main(["describe", "--meta", str(meta)])
        assert rc == 2
        one_line_error(capsys, "is not chart metadata")

    def test_meta_value_of_wrong_type(self, corpus_dir, tmp_path, capsys):
        doc = json.loads((corpus_dir / "meta" / "000000.json").read_text())
        doc["series"][0]["points"][0]["value"] = "12"
        meta = tmp_path / "meta.json"
        meta.write_text(json.dumps(doc))
        rc = main(["describe", "--meta", str(meta)])
        assert rc == 2
        one_line_error(capsys, ": series[0].points[0].value is a str, not a "
                               "number")

    @pytest.mark.parametrize("extra", [2, 3])
    def test_meta_with_more_than_two_series(self, corpus_dir, tmp_path,
                                            capsys, extra):
        doc = json.loads((corpus_dir / "meta" / "000000.json").read_text())
        doc["series"] += [doc["series"][0]] * extra
        meta = tmp_path / "meta.json"
        meta.write_text(json.dumps(doc))
        rc = main(["describe", "--meta", str(meta)])
        assert rc == 2
        one_line_error(capsys, f": {len(doc['series'])} series, not 1 or 2")

    @pytest.mark.parametrize("path, value, message", [
        (("y_unit",), 5, "y_unit is an int, not text"),
        (("series", 0, "points", 0, "x_label"), 7,
         "series[0].points[0].x_label is an int, not text")],
        ids=["y_unit", "x_label"])
    def test_meta_fact_that_is_not_text(self, corpus_dir, tmp_path, capsys,
                                        path, value, message):
        doc = json.loads((corpus_dir / "meta" / "000000.json").read_text())
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        meta = tmp_path / "meta.json"
        meta.write_text(json.dumps(doc))
        rc = main(["describe", "--meta", str(meta)])
        assert rc == 2
        one_line_error(capsys, f"{meta}: {message}")

    def test_meta_with_unequal_series(self, corpus_dir, tmp_path, capsys):
        doc = json.loads((corpus_dir / "meta" / "000001.json").read_text())
        assert [len(sm["points"]) for sm in doc["series"]] == [5, 5]
        del doc["series"][1]["points"][-1]
        meta = tmp_path / "meta.json"
        meta.write_text(json.dumps(doc))
        for seed in range(10):
            rc = main(["describe", "--meta", str(meta), "--seed", str(seed)])
            assert rc == 2
            one_line_error(capsys, f"{meta}: series have 5 and 4 points, not "
                                   f"one count above 0")

    @pytest.mark.parametrize("category", ["pie", 3, None])
    def test_meta_unknown_category(self, corpus_dir, tmp_path, capsys,
                                   category):
        doc = json.loads((corpus_dir / "meta" / "000000.json").read_text())
        doc["category"] = category
        meta = tmp_path / "meta.json"
        meta.write_text(json.dumps(doc))
        rc = main(["describe", "--meta", str(meta)])
        assert rc == 2
        one_line_error(capsys, f"{meta}: category {category!r} is not one of "
                               f"temporal-trend, temporal-random, categorical")

    @pytest.mark.parametrize("trend", ["bogus", 3, None])
    def test_meta_trend_class_outside_the_cells(self, corpus_dir, tmp_path,
                                                capsys, trend):
        doc = json.loads((corpus_dir / "meta" / "000000.json").read_text())
        assert doc["category"] == "temporal-trend"
        doc["series"][0]["trend_class"] = trend
        meta = tmp_path / "meta.json"
        meta.write_text(json.dumps(doc))
        rc = main(["describe", "--meta", str(meta)])
        assert rc == 2
        one_line_error(capsys, f"{meta}: series[0].trend_class {trend!r} does "
                               f"not fit a temporal-trend chart of "
                               f"{len(doc['series'])} series")

    def test_meta_nested_too_deep(self, tmp_path, capsys):
        meta = tmp_path / "meta.json"
        meta.write_text(DEEP_JSON)
        rc = main(["describe", "--meta", str(meta)])
        assert rc == 2
        one_line_error(capsys, "is not chart metadata: RecursionError: "
                               "maximum recursion depth exceeded")

    def test_missing_meta(self, tmp_path, capsys):
        rc = main(["describe", "--meta", str(tmp_path / "none.json")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


def _box_off_canvas(doc, draw):
    box = draw(st.sampled_from([doc["title"]["bbox"], doc["plot_area"],
                                doc["legend"]["bbox"], doc["x_ticks"][0]["bbox"]]))
    box.update(draw(st.sampled_from([{"x": -5.0}, {"w": 900.0}, {"h": 0.0}])))


def _point(doc, draw):
    points = draw(st.sampled_from(
        [sm["points"] for sm in doc["series"] if sm["points"]]))
    return points[draw(st.integers(0, len(points) - 1))]


def _non_text_label(doc, draw):
    value = draw(st.sampled_from([7, 2.5, None, True, ["2013"], {"a": 1}]))
    field = draw(st.sampled_from(["title", "y_unit", "series", "point"]))
    if field == "title":
        doc["title"]["text"] = value
    elif field == "y_unit":
        doc["y_unit"] = value
    elif field == "series":
        draw(st.sampled_from(doc["series"]))["name"] = value
    else:
        _point(doc, draw)["x_label"] = value


# each way the contract test breaks a clean meta document
META_MUTATIONS = {
    "drop a point": lambda doc, draw: draw(
        st.sampled_from(doc["series"]))["points"].__delitem__(slice(-1, None)),
    "third series": lambda doc, draw: doc["series"].extend(
        copy.deepcopy(doc["series"][:1]) * (3 - len(doc["series"]))),
    "non-text label": _non_text_label,
    "bad value": lambda doc, draw: _point(doc, draw).__setitem__(
        "value", draw(st.sampled_from([math.nan, math.inf, -math.inf, True,
                                       False, 10 ** 400, 1e301, "12"]))),
    "unknown category": lambda doc, draw: doc.__setitem__(
        "category", draw(st.sampled_from(["pie", "Categorical", 3, None]))),
    "unknown kind": lambda doc, draw: doc.__setitem__(
        "chart_kind", draw(st.sampled_from(["pie", "bar", 0, None]))),
    "flip orientation": lambda doc, draw: doc["value_axis"].__setitem__(
        "orientation", {"x": "y", "y": "x"}[doc["value_axis"]["orientation"]]),
    "trend class": lambda doc, draw: draw(
        st.sampled_from(doc["series"])).__setitem__(
        "trend_class", draw(st.sampled_from(
            ["bogus", 3, None, "plateau", "linear-increase", ["plateau"]]))),
    "box off canvas": _box_off_canvas,
    "lo equals hi": lambda doc, draw: doc["value_axis"].__setitem__(
        "hi", doc["value_axis"]["lo"]),
}


@pytest.fixture(scope="module")
def contract_tree(tmp_path_factory):
    out = tmp_path_factory.mktemp("contract") / "corpus"
    assert main(["generate", "--seed", "41", "--count-scale", "0.002",
                 "--out", str(out)]) == 0
    return out, len(load_manifest(out)["records"])


@settings(max_examples=60)
@given(data=st.data(), record=st.integers(0, 1000),
       mutations=st.lists(st.sampled_from(sorted(META_MUTATIONS)), min_size=1,
                          max_size=2))
def test_describe_and_validate_share_the_meta_contract(contract_tree, data,
                                                       record, mutations):
    """describe exits 0 exactly when `meta_problems` finds nothing, else 2
    with its first problem, never with a traceback; validate reports every
    one of the record's problems."""
    root, n_records = contract_tree
    path = root / "meta" / f"{record % n_records:06d}.json"
    original = path.read_text(encoding="utf-8")
    doc = json.loads(original)
    for name in mutations:
        META_MUTATIONS[name](doc, data.draw)
    text = json.dumps(doc)
    problems = meta_problems(ChartMeta.from_json(text))
    err = io.StringIO()
    try:
        path.write_text(text, encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            rc = main(["describe", "--meta", str(path), "--variants", "1"])
        found = corpus.validate_corpus(root)
    finally:
        path.write_text(original, encoding="utf-8")
    if problems:
        assert (rc, err.getvalue()) == (
            2, f"error: describe: {path}: {problems[0]}\n")
    else:
        assert (rc, err.getvalue()) == (0, "")
    assert all(f"record {path.stem}: {p}" in found for p in problems)


@pytest.fixture(scope="module")
def eval_files(tmp_path_factory, corpus_dir):
    root = tmp_path_factory.mktemp("eval")
    hyp_lines, ref_lines = [], []
    for f in sorted((corpus_dir / "descriptions").iterdir()):
        lines = f.read_text().splitlines()
        hyp_lines.append(lines[0])
        ref_lines.extend(lines[1:] or lines[:1])
    hyp = root / "hyp.jsonl"
    ref = root / "ref.jsonl"
    hyp.write_text("\n".join(hyp_lines) + "\n")
    ref.write_text("\n".join(ref_lines) + "\n")
    return hyp, ref


def set_record(position, **fields):
    return lambda manifest: manifest["records"][position].update(fields)


class TestEval:
    """The eval subcommand."""

    def test_report(self, eval_files, capsys):
        hyp, ref = eval_files
        rc = main(["eval", "--hyp", str(hyp), "--ref", str(ref)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "bleu4" in out
        assert "overall" in out

    def test_by_kind_and_json_out(self, eval_files, corpus_dir, tmp_path,
                                  capsys):
        hyp, ref = eval_files
        report_path = tmp_path / "report.json"
        rc = main(["eval", "--hyp", str(hyp), "--ref", str(ref),
                   "--by-kind", str(corpus_dir / MANIFEST_NAME),
                   "--json-out", str(report_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "line" in out
        report = json.loads(report_path.read_text())
        assert "overall" in report
        assert set(report["overall"]) == {"bleu4", "rouge1", "rouge2",
                                          "rougeL"}
        per_key = Counter(json.loads(line)["image_index"]
                          for line in ref.read_text().splitlines())
        assert report["signature"] == (
            "tok:1|bleu:max_n=4|smooth:add-one,n>=2|bp:closest-ref,"
            f"tie-shorter|refs:min={min(per_key.values())},"
            f"max={max(per_key.values())}")

    def test_plain_text_mode(self, tmp_path, capsys):
        hyp = tmp_path / "hyp.txt"
        ref = tmp_path / "ref.txt"
        hyp.write_text("the cat sat\n")
        ref.write_text("the cat sat down\n")
        rc = main(["eval", "--hyp", str(hyp), "--ref", str(ref)])
        assert rc == 0
        assert "71.65" in capsys.readouterr().out

    def test_multiple_ref_files(self, tmp_path, capsys):
        hyp = tmp_path / "hyp.txt"
        hyp.write_text("the cat sat\n")
        ref_a = tmp_path / "ref_a.txt"
        ref_a.write_text("a completely different sentence\n")
        ref_b = tmp_path / "ref_b.txt"
        ref_b.write_text("the cat sat\n")
        rc = main(["eval", "--hyp", str(hyp), "--ref", str(ref_a),
                   "--ref", str(ref_b)])
        assert rc == 0
        # the exact-match reference dominates under max-over-refs
        assert "100.00" in capsys.readouterr().out

    def test_missing_reference_key(self, tmp_path, capsys):
        hyp = tmp_path / "hyp.jsonl"
        ref = tmp_path / "ref.jsonl"
        hyp.write_text(json.dumps({"image_index": 1, "text": "a"}) + "\n")
        ref.write_text(json.dumps({"image_index": 2, "text": "a"}) + "\n")
        rc = main(["eval", "--hyp", str(hyp), "--ref", str(ref)])
        assert rc == 2
        assert "no reference" in capsys.readouterr().err

    def test_mixed_style_rejected(self, tmp_path, capsys):
        hyp = tmp_path / "hyp.txt"
        hyp.write_text(json.dumps({"image_index": 1, "text": "a"})
                       + "\nplain line\n")
        ref = tmp_path / "ref.txt"
        ref.write_text("a\nb\n")
        rc = main(["eval", "--hyp", str(hyp), "--ref", str(ref)])
        assert rc == 2
        assert "mixes" in capsys.readouterr().err

    def test_unkeyed_json_line_does_not_join_a_keyed_record(self, tmp_path,
                                                            capsys):
        # the first line is keyed by its line number, 0, and once joined
        # record 0 (BLEU 50.00, exit 0)
        hyp = tmp_path / "hyp.jsonl"
        hyp.write_text(json.dumps({"text": "the value rose"}) + "\n"
                       + json.dumps({"image_index": 0,
                                     "text": "a different record"}) + "\n")
        ref = tmp_path / "ref.jsonl"
        ref.write_text(json.dumps({"image_index": 0, "text": "the value rose"})
                       + "\n")
        rc = main(["eval", "--hyp", str(hyp), "--ref", str(ref)])
        assert rc == 2
        one_line_error(capsys, f"eval: {hyp} mixes JSON lines with "
                       "image_index and JSON lines without image_index")

    @pytest.mark.parametrize("ref_line", [
        # once scored as the raw JSON text: BLEU 8.83, exit 0
        "the sales rose",
        # once "1 hypothesis key(s) have no reference, first: 0"
        json.dumps({"image_index": 1, "text": "the sales rose"}),
    ], ids=["plain-reference", "keyed-reference"])
    def test_json_line_without_text(self, tmp_path, capsys, ref_line):
        hyp = tmp_path / "hyp.jsonl"
        index = 0 if ref_line.startswith("the") else 1
        hyp.write_text(json.dumps({"image_index": index,
                                   "hyp": "the sales rose"}) + "\n")
        ref = tmp_path / "ref.jsonl"
        ref.write_text(ref_line + "\n")
        rc = main(["eval", "--hyp", str(hyp), "--ref", str(ref)])
        assert rc == 2
        one_line_error(capsys, f'eval: {hyp} line 1: no "text"')

    def test_reference_line_without_text(self, tmp_path, capsys):
        hyp = tmp_path / "hyp.jsonl"
        hyp.write_text(json.dumps({"image_index": 1, "text": "a"}) + "\n")
        ref = tmp_path / "ref.jsonl"
        ref.write_text(json.dumps({"image_index": 1, "text": "a"}) + "\n\n"
                       + json.dumps({"image_index": 1}) + "\n")
        rc = main(["eval", "--hyp", str(hyp), "--ref", str(ref)])
        assert rc == 2
        one_line_error(capsys, f'eval: {ref} line 3: no "text"')

    def test_unkeyed_json_lines_are_keyed_by_line_number(self, tmp_path,
                                                         capsys):
        hyp = tmp_path / "hyp.jsonl"
        hyp.write_text(json.dumps({"text": "the cat sat"}) + "\n")
        ref = tmp_path / "ref.jsonl"
        ref.write_text(json.dumps({"text": "the cat sat down"}) + "\n")
        rc = main(["eval", "--hyp", str(hyp), "--ref", str(ref)])
        assert rc == 0
        assert "71.65" in capsys.readouterr().out

    def test_empty_file(self, tmp_path, capsys):
        hyp = tmp_path / "hyp.txt"
        hyp.write_text("\n")
        ref = tmp_path / "ref.txt"
        ref.write_text("a\n")
        rc = main(["eval", "--hyp", str(hyp), "--ref", str(ref)])
        assert rc == 2

    @pytest.mark.parametrize("record, message, flag", [
        ({"image_index": 1, "text": 5}, '"text" is an int, not a str',
         "--hyp"),
        ({"image_index": [1], "text": "a"},
         '"image_index" is a list, not an int or a str', "--hyp"),
        ({"image_index": True, "text": "a"},
         '"image_index" is a bool, not an int or a str', "--hyp"),
        # 1.0 == 1: the line would be scored as, or join, record 1
        ({"image_index": 1.0, "text": "a"},
         '"image_index" is a float, not an int or a str', "--hyp"),
        ({"image_index": 1.0, "text": "a"},
         '"image_index" is a float, not an int or a str', "--ref"),
        ({"image_index": None, "text": "a"},
         '"image_index" is a NoneType, not an int or a str', "--ref"),
    ], ids=["text-not-string", "index-unhashable", "index-bool",
            "index-float-hyp", "index-float-ref", "index-null-ref"])
    def test_bad_json_line(self, tmp_path, capsys, record, message, flag):
        good = json.dumps({"image_index": 1, "text": "a"}) + "\n"
        files = {"--hyp": tmp_path / "hyp.jsonl", "--ref": tmp_path / "ref.jsonl"}
        for name, path in files.items():
            path.write_text(json.dumps(record) + "\n" if name == flag else good)
        rc = main(["eval", "--hyp", str(files["--hyp"]),
                   "--ref", str(files["--ref"])])
        assert rc == 2
        err = capsys.readouterr().err
        assert message in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("damage, message", [
        ("not json\n", "manifest: manifest.json does not parse: "),
        ("[1]", "manifest: is a list, not an object"),
        # --by-kind plans from the config: a damaged record is not read,
        # and the report is the clean one
        (lambda manifest: manifest["records"][1].pop("kind"), None),
        (lambda manifest: manifest["records"].__setitem__(1, "x"), None),
        (lambda manifest: manifest.pop("records"), None),
    ] + [
        (set_record(1, kind=kind), None) for kind in (5, None, ["x"])
    ] + [
        # true was once read as 1, and gave record 1 this record's kind
        (set_record(2, image_index=index), None)
        for index in (True, 1.0, "1", None)
    ] + [
        (lambda manifest: manifest.pop("config"),
         "manifest: config is malformed: KeyError: 'config'"),
        (lambda manifest: manifest["config"].update(seed=True),
         "manifest: config is malformed: TypeError: seed: True is not of "
         "type int"),
        (lambda manifest: manifest["config"]["cell_counts"].update(
            {"pie/line": 1}), "manifest: config is malformed: ConfigError: "
                              "cell_counts: unknown cell pie/line"),
    ], ids=["not-json", "no-records", "record-without-kind",
            "record-not-object", "records-missing", "kind-int", "kind-null",
            "kind-list", "index-bool", "index-float", "index-string",
            "index-null", "no-config", "config-seed-true",
            "config-unknown-cell"])
    def test_bad_by_kind_manifest(self, eval_files, corpus_dir, tmp_path,
                                  capsys, damage, message):
        hyp, ref = eval_files
        argv = ["eval", "--hyp", str(hyp), "--ref", str(ref), "--by-kind"]
        assert main(argv + [str(corpus_dir / MANIFEST_NAME)]) == 0
        clean = capsys.readouterr().out
        by_kind = tmp_path / "manifest.json"
        if isinstance(damage, str):
            by_kind.write_text(damage)
        else:
            manifest = load_manifest(corpus_dir)
            damage(manifest)
            by_kind.write_text(json.dumps(manifest))
        rc = main(argv + [str(by_kind)])
        if message is None:
            assert rc == 0
            assert capsys.readouterr().out == clean
        else:
            assert rc == 2
            one_line_error(capsys, message)

    def test_by_kind_key_outside_the_plan(self, corpus_dir, tmp_path, capsys):
        charts = load_manifest(corpus_dir)["totals"]["charts"]
        for key in (charts, -1, "1"):
            hyp = tmp_path / "hyp.jsonl"
            hyp.write_text(json.dumps({"image_index": key, "text": "a"}) + "\n")
            rc = main(["eval", "--hyp", str(hyp), "--ref", str(hyp),
                       "--by-kind", str(corpus_dir / MANIFEST_NAME)])
            assert rc == 2
            one_line_error(capsys, f"eval: key {key!r} not in --by-kind "
                                   f"manifest")

    def test_line_nested_too_deep_is_plain_text(self, tmp_path, capsys):
        hyp = tmp_path / "hyp.txt"
        hyp.write_text(DEEP_JSON + "\n")
        ref = tmp_path / "ref.txt"
        ref.write_text("a b c\n")
        rc = main(["eval", "--hyp", str(hyp), "--ref", str(ref)])
        assert rc == 0
        assert "bleu4" in capsys.readouterr().out

    def test_by_kind_manifest_nested_too_deep(self, tmp_path, capsys):
        hyp = tmp_path / "hyp.jsonl"
        hyp.write_text(json.dumps({"image_index": 1, "text": "a"}) + "\n")
        by_kind = tmp_path / "manifest.json"
        by_kind.write_text(DEEP_JSON)
        rc = main(["eval", "--hyp", str(hyp), "--ref", str(hyp),
                   "--by-kind", str(by_kind)])
        assert rc == 2
        one_line_error(capsys, "manifest: manifest.json does not parse: "
                               "maximum recursion depth exceeded")

    def test_hyp_is_directory(self, tmp_path, capsys):
        ref = tmp_path / "ref.txt"
        ref.write_text("a\n")
        rc = main(["eval", "--hyp", str(tmp_path), "--ref", str(ref)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


    @pytest.mark.parametrize("flag, message", [
        ("--hyp", "bad.txt is not UTF-8 text"),
        ("--by-kind", "manifest: bad.txt does not parse: 'utf-8' codec"),
    ], ids=["--hyp", "--by-kind"])
    def test_input_not_utf8(self, tmp_path, capsys, flag, message):
        good = tmp_path / "good.jsonl"
        good.write_text(json.dumps({"image_index": 1, "text": "a"}) + "\n")
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe a b\n")
        args = {"--hyp": good, "--ref": good, "--by-kind": None}
        args[flag] = bad
        argv = ["eval"] + [str(x) for k, v in args.items()
                           if v is not None for x in (k, v)]
        rc = main(argv)
        assert rc == 2
        one_line_error(capsys, message)


class TestPlannedFromTheConfig:
    """stats and eval --by-kind read a manifest's config and plan from it:
    they build no catalog or bank, and work wherever the corpus has moved."""

    def test_planning_builds_nothing(self, corpus_dir, eval_files, capsys,
                                     monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a catalog or bank was built")

        for name in ("synth_catalog", "load_catalog", "load_default_bank"):
            monkeypatch.setattr(corpus, name, refuse)
        hyp, ref = eval_files
        assert main(["stats", str(corpus_dir)]) == 0
        assert main(["eval", "--hyp", str(hyp), "--ref", str(ref), "--by-kind",
                     str(corpus_dir / MANIFEST_NAME)]) == 0
        assert "horizontal-bar" in capsys.readouterr().out

    def test_moved_corpus(self, tmp_path, capsys, monkeypatch):
        # a relative template_bank and a catalog file, both in the directory
        # generate ran in; the echo names them as given
        made = tmp_path / "made"
        made.mkdir()
        monkeypatch.chdir(made)
        Path("bank.tsv").write_text(serialize_bank(load_default_bank()),
                                    encoding="utf-8")
        write_catalog(synth_catalog(7, 24, 30), Path("catalog.csv"))
        Path("corpus.ini").write_text(
            "[corpus]\nseed = 41\ncount_scale = 0.002\noutput_dir = out\n"
            "template_bank = bank.tsv\ncatalog_source = catalog.csv\n")
        assert main(["generate", "--config", "corpus.ini"]) == 0
        assert "wrote 15 charts" in capsys.readouterr().out

        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        out = made / "out"
        assert main(["stats", str(out)]) == 0
        assert "charts: 15" in capsys.readouterr().out
        assert main(["validate", str(out)]) == 0
        assert "ok: 15 charts" in capsys.readouterr().out
        text = (out / "descriptions" / "000003.txt").read_text()
        hyp = elsewhere / "hyp.jsonl"
        hyp.write_text(text.splitlines()[0] + "\n")
        assert main(["eval", "--hyp", str(hyp), "--ref", str(hyp),
                     "--by-kind", str(out / MANIFEST_NAME)]) == 0
        assert "overall" in capsys.readouterr().out


class TestParser:
    """Top-level argument handling."""

    def test_prog_name(self):
        assert build_parser().prog == "chartscribe"

    def test_no_subcommand_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_subcommand_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
