"""Self-tests of the benchmark: the tracer leaves the program as it found
it and does not change its output, the reference metrics and percentile
helper give hand-checked values, the audit gate has teeth, and no child
process outlives a run.

    python3 -m pytest perfbench -q
"""

import dataclasses
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import chartscribe  # noqa: E402
from chartscribe import corpus, evalmetrics  # noqa: E402

from perfbench import reference, tracing, workloads  # noqa: E402


def _targets():
    """Every (owner, attribute) the tracer replaces."""
    owners = [(tracing._owner(path), attr)
              for owners in tracing.WRAPPED.values() for path, attr in owners]
    owners += [(Path, attr) for attrs in tracing.IO_WRAPPED.values()
               for attr in attrs]
    owners += [(tracing._owner(path), attr)
               for path, attr in tracing.COUNTED.values()]
    owners.append((corpus, "ProcessPoolExecutor"))
    return owners


def _raw(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) \
        else getattr(owner, attr)


def test_restore_puts_every_original_back():
    before = [(owner, attr, _raw(owner, attr)) for owner, attr in _targets()]
    patches = tracing.install(tracing.Tracer())
    try:
        assert all(_raw(owner, attr) is not raw for owner, attr, raw in before)
    finally:
        patches.restore()
    assert all(_raw(owner, attr) is raw for owner, attr, raw in before)


def _tiny_corpus(tmp_path, name, jobs, tracer=None):
    out = tmp_path / name
    config = dataclasses.replace(
        chartscribe.default_config(seed=41, output_dir=str(out)),
        count_scale=0.002)
    if tracer is None:
        chartscribe.generate_corpus(config, jobs=jobs)
    else:
        patches = tracing.install(tracer)
        tracer.active = True
        try:
            tracer.timed(tracing.ROOT_SPAN, chartscribe.generate_corpus)(
                config, jobs=jobs)
        finally:
            tracer.active = False
            patches.restore()
    return workloads.tree_digest(out)[0]


@pytest.mark.parametrize("jobs", [1, 2])
def test_traced_generate_writes_the_untraced_tree(tmp_path, jobs):
    tracer = tracing.Tracer()
    assert _tiny_corpus(tmp_path, "traced", jobs, tracer) \
        == _tiny_corpus(tmp_path, "plain", jobs)
    seconds, calls = tracing.self_times(tracer.spans)
    assert calls[tracing.ROOT_SPAN] == 1
    charts = len(list((tmp_path / "plain" / "charts").iterdir()))
    assert calls["corpus.write"] == 3 * charts + 1  # three files a record, manifest
    if jobs == 1:
        assert calls["narrate.facts"] == 3 * charts
        assert set(seconds) <= set(tracing.SPAN_NAMES) | {tracing.ROOT_SPAN}
    else:
        assert calls[tracing.POOL_WAIT] >= charts
    # self times of every span add up to the traced wall time
    assert sum(seconds.values()) == pytest.approx(
        tracing.root_wall(tracer.spans), rel=1e-9)


def test_percentile_hand_cases():
    values = list(range(100, 0, -1))
    assert reference.percentile(values, 50) == 50
    assert reference.percentile(values, 90) == 90
    assert reference.percentile(values, 100) == 100
    assert reference.percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert reference.percentile([7.5], 90) == 7.5
    with pytest.raises(ValueError):
        reference.percentile([], 50)


def test_reference_metrics_hand_cases():
    hyp = reference.tokenize("the cat sat")
    ref = reference.tokenize("the cat sat down")
    assert reference.bleu(hyp, [ref]) == pytest.approx(71.6531, abs=1e-4)
    assert reference.rouge_l(list("abc"), [list("ac")]) == pytest.approx(80.0)
    assert reference.lcs_len("ABCBDAB", "BDCABA") == 4
    assert reference.bleu(hyp, [hyp]) == pytest.approx(100.0)
    assert reference.bleu(hyp, [["a", "dog"]]) == 0.0
    assert reference.tokenize("Up 3.5% to 120,000 (x2).") == \
        ["up", "3.5", "%", "to", "120,000", "(", "x2", ")", "."]


def test_reference_metrics_agree_with_the_program():
    rng = chartscribe.Rng(7)
    words = ["rose", "fell", "the", "share", "of", "3.5", "2010", "%", "."]
    for _ in range(40):
        hyp = [words[rng.randint(len(words))] for _ in range(3 + rng.randint(20))]
        refs = [[words[rng.randint(len(words))]
                 for _ in range(1 + rng.randint(20))] for _ in range(3)]
        assert abs(reference.bleu(hyp, refs) - evalmetrics.bleu(hyp, refs)) <= 1e-9
        assert abs(reference.rouge_l(hyp, refs)
                   - evalmetrics.rouge_l(hyp, refs)) <= 1e-9
        text = " ".join(hyp)
        assert reference.tokenize(text) == evalmetrics.tokenize(text)


def _gate_run(tmp_path):
    return workloads.Run("audit", 41, 1.0, False, tmp_path,
                         tmp_path / "trace.tsv.gz")


def test_fault_gate_passes_the_real_validator(tmp_path):
    run = _gate_run(tmp_path)
    workloads.fault_gate(run)
    assert run.failed == 0, run.problems
    assert run.attempted == len(workloads.FAULTS) + 1


def test_fault_gate_fails_a_validator_that_skips_the_digit_audit(
        tmp_path, monkeypatch):
    monkeypatch.setattr(corpus, "hallucination_check", lambda text, facts: [])
    run = _gate_run(tmp_path)
    workloads.fault_gate(run)
    assert run.problems == ["validate did not flag fault 'foreign digit token'"]


def test_run_child_stops_what_a_timed_out_child_started(tmp_path):
    pid_file = tmp_path / "grandchild.pid"
    code = ("import subprocess, sys, time\n"
            "p = subprocess.Popen([sys.executable, '-c', "
            "'import time; time.sleep(120)'])\n"
            f"open({str(pid_file)!r}, 'w').write(str(p.pid))\n"
            "time.sleep(120)\n")
    returned, out = workloads.run_child([sys.executable, "-c", code],
                                        tmp_path, timeout=3)
    assert (returned, out) == (None, "")
    with pytest.raises(ProcessLookupError):
        os.kill(int(pid_file.read_text()), 0)


def test_run_child_returns_code_and_output(tmp_path):
    assert workloads.run_child(
        [sys.executable, "-c", "print('hi'); raise SystemExit(3)"],
        tmp_path) == (3, "hi\n")

