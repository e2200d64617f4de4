"""The benchmark's nine injected faults against the real validator, in the
main suite: a validator change that stops flagging one of them fails here,
not only in a benchmark run.  A tree carrying all nine, plus foreign digit
tokens in three lines of one record (one wrapped in punctuation), must give
the violation list of digit and move-order audits that check every
description line on its own."""

import dataclasses
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from chartscribe import corpus, default_config, generate_corpus  # noqa: E402
from chartscribe import check_move_order, validate_corpus  # noqa: E402
from perfbench import workloads  # noqa: E402

# text appended to the first sentence of description lines 0, 1 and 2
FOREIGN = {0: " It peaked at 987654 units.", 1: " It stood at (4,242),",
           2: " It fell by 31,337.5 in all."}
MARKER = "\x00marker"


def test_fault_gate_passes_the_real_validator(tmp_path):
    run = workloads.Run("audit", 41, 1.0, False, tmp_path,
                        tmp_path / "trace.tsv.gz")
    workloads.fault_gate(run)
    assert run.problems == []
    assert run.attempted == len(workloads.FAULTS) + 1


def add_foreign_tokens(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    for line_no, extra in FOREIGN.items():
        doc = json.loads(lines[line_no])
        doc["sentences"][0]["text"] += extra
        doc["text"] = " ".join(s["text"] for s in doc["sentences"])
        lines[line_no] = json.dumps(doc, ensure_ascii=False)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def validate_line_by_line(root: Path, monkeypatch) -> list:
    """validate_corpus's list when every description line is audited on
    its own: a marker token makes each record-level audit find something,
    and the marker's own messages are dropped."""
    real = corpus.hallucination_check
    with monkeypatch.context() as patch:
        patch.setattr(corpus, "hallucination_check",
                      lambda text, facts: real(text, facts) + [MARKER])
        problems = validate_corpus(root)
    return [p for p in problems if repr(MARKER) not in p]


def move_order_line_by_line(root: Path, records: list) -> list:
    """The move-order messages of every record with all three files, each
    description line checked on its own."""
    problems = []
    for entry in records:
        if not all((root / rel).exists() for rel in entry["files"].values()):
            continue
        path = root / entry["files"]["descriptions"]
        for line_no, line in enumerate(path.read_text().splitlines()):
            moves = [s["move"] for s in json.loads(line)["sentences"]]
            problems += [f"record {entry['image_index']:06d}: description "
                         f"line {line_no} move order: {violation}"
                         for violation in check_move_order(moves)]
    return problems


def test_faulty_tree_gives_the_line_by_line_list(tmp_path, monkeypatch):
    root = tmp_path / "corpus"
    config = dataclasses.replace(default_config(41, str(root)),
                                 count_scale=workloads.FAULT_SCALE)
    records = generate_corpus(config)["records"]
    for _, _, inject in workloads.FAULTS:
        inject(root, records)
    add_foreign_tokens(root / records[8]["files"]["descriptions"])

    problems = validate_corpus(root)
    assert problems == validate_line_by_line(root, monkeypatch)
    assert [p for p in problems if " move order: " in p] == \
        move_order_line_by_line(root, records)
    for name, expected, _ in workloads.FAULTS:
        assert any(sub in p for p in problems for sub in expected), name
    assert [p for p in problems if p.startswith("record 000008")] == [
        "record 000008: description line 0 digit token '987654' matches no "
        "chart fact",
        "record 000008: description line 1 digit token '4,242' matches no "
        "chart fact",
        "record 000008: description line 2 digit token '31,337.5' matches no "
        "chart fact"]
