"""The examples in docs/ work as written: each example row of the template
bank format loads, and the annotated config example loads as the
defaults it claims to show."""

import re
from pathlib import Path

import chartscribe
from chartscribe.corpus import CorpusConfig, load_config
from chartscribe.templatebank import parse_bank

DOCS = Path(__file__).resolve().parents[1] / "docs"
SEED_BANK = Path(chartscribe.__file__).parent / "data" / "seed_bank.tsv"


def fenced_blocks(name: str, lang: str = "") -> list:
    text = (DOCS / name).read_text(encoding="utf-8")
    return re.findall(rf"^```{lang}\n(.*?)^```", text, flags=re.M | re.S)


def test_template_schema_example_rows_load():
    # the line of field names has the shape of a row but is not an example
    rows = [line for block in fenced_blocks("template-schema.md")
            for line in block.splitlines()
            if line.count("\t") == 6 and not line.startswith("id\t")]
    assert rows
    seed = SEED_BANK.read_text(encoding="utf-8").splitlines()
    for row in rows:
        tid, move, category, trend, arity, origin, text = row.split("\t")
        # one row alone leaves cells uncovered: it replaces its namesake in
        # the seed bank
        kept = [line for line in seed if not line.startswith(tid + "\t")]
        bank = parse_bank("\n".join(kept + [row]), source="template-schema.md")
        (template,) = [t for t in bank.templates if t.id == tid]
        assert (template.move, template.category, template.series_arity,
                template.origin, template.text) == (
            move, category, 0 if arity == "any" else int(arity), origin, text)
        assert template.trend_applicability == (
            frozenset() if trend == "any" else frozenset(trend.split(",")))


def test_config_example_loads_as_the_defaults(tmp_path):
    (example,) = fenced_blocks("config.md", "ini")
    path = tmp_path / "corpus.ini"
    path.write_text(example, encoding="utf-8")
    assert load_config(path) == CorpusConfig(seed=20260816)
