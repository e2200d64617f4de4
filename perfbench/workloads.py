"""The benchmark's workloads, their correctness gates and their metrics.

Times are normalised to a reference machine speed (see calibration.py).
Every workload is driven through public entry points only:
`generate_corpus`, `validate_corpus`, `regenerate_record` and
`chartscribe.cli.main(["eval", ...])`.  Inputs are made from the run's seed;
the timed calls see only those inputs.  Each run reports the same
end-to-end metrics (see README.md for what `items` means per workload):

    setup_s        median fresh-process set-up (import, catalog, bank)
    items_per_s    median rate of the workload's timed calls
    bytes_per_item bytes of the workload's input or output per item
    peak_rss_mb    peak resident memory of this process
    ok_share       1 - failed / attempted over calls and gate checks
"""

import dataclasses
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from chartscribe import (
    ChartMeta, Rng, baseline_generate, cli, default_config, derive_seed,
    generate_corpus, generate_description, load_default_bank,
    regenerate_record, validate_corpus,
)
from chartscribe.corpus import MANIFEST_NAME, CorpusGenerationError

from . import calibration, reference, tracing

GEN_SCALE = 0.02      # 198 charts in the default grid proportions
AUDIT_SCALE = 0.02    # 198 charts, so one validate call is short
REGEN_SCALE = 0.2     # 2,043 charts: the manifest parse weighs on regenerate
EVAL_SCALE = 0.02     # 198 charts to draw eval keys and regenerate samples from
FAULT_SCALE = 0.002   # 15 charts, at least one per cell, for the fault gate
SET_UP_JOBS = 2       # workers for building inputs; never timed
PARALLEL_JOBS = 2     # workers of the parallel generate gate
TRACED_PARALLEL_CALLS = 2

MIN_REPS = 3          # timed calls per run at least, whatever --seconds says
SETUP_REPEATS = 11
REGEN_CHECKS = 10     # regenerated records checked byte for byte
REGEN_SAMPLES = 100   # traced run: latency samples, so 10 lie beyond p90
TRACED_REGEN_SAMPLES = 20

EVAL_REFS = 30        # references per key, as in acceptance criterion 5
EVAL_STRUCTURED = 3   # structured hypotheses per key, plus one baseline
EVAL_KEYS = 48        # one key per timed call, cycled
EVAL_WORDS = 100      # words in every hypothesis and reference
EVAL_GATE_PAIRS = 4
EVAL_TOLERANCE = 1e-9

_SETUP_CODE = """
import sys, time
from perfbench.calibration import calibrate
before = calibrate()
t0 = time.perf_counter()
import chartscribe
chartscribe.synth_catalog(int(sys.argv[1]), 24, 30)
chartscribe.load_default_bank()
seconds = time.perf_counter() - t0
print(repr(seconds), repr((before + calibrate()) / 2))
"""

_GENERATE_CODE = """
import dataclasses, sys
import chartscribe
seed, out, scale, jobs = sys.argv[1:]
config = chartscribe.default_config(int(seed), out)
config = dataclasses.replace(config, count_scale=float(scale))
chartscribe.generate_corpus(config, jobs=int(jobs))
"""


@dataclasses.dataclass
class Run:
    """State of one benchmark run: settings, gate ledger, results."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    work: Path
    trace_path: Path
    attempted: int = 0
    failed: int = 0
    problems: List[str] = dataclasses.field(default_factory=list)
    info: Dict[str, object] = dataclasses.field(default_factory=dict)
    metrics: Dict[str, Tuple[float, str]] = dataclasses.field(default_factory=dict)
    tracer: tracing.Tracer = dataclasses.field(default_factory=tracing.Tracer)
    layers: Dict[str, "Layers"] = dataclasses.field(default_factory=dict)
    overhead_share: float = 0.0
    retry_share: float = 0.0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    def op(self, fn: Callable, *args, **kwargs):
        """One public call; a CorpusGenerationError counts as failed."""
        try:
            out = fn(*args, **kwargs)
        except CorpusGenerationError as exc:
            self.check(False, f"{fn.__name__}: {exc}")
            return None
        self.check(True, "")
        return out

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (value, unit)


@dataclasses.dataclass
class Layers:
    """Per-layer totals over the traced calls of one phase."""

    items: int = 0
    wall: float = 0.0
    seconds: Dict[str, float] = dataclasses.field(default_factory=dict)
    calls: Dict[str, int] = dataclasses.field(default_factory=dict)
    counts: Dict[str, int] = dataclasses.field(default_factory=dict)
    cli_overhead: float = 0.0
    reps: int = 0

    def add(self, run: Run, phase: str, items: int) -> None:
        spans = run.tracer.spans
        seconds, calls = tracing.self_times(spans)
        for table, new in ((self.seconds, seconds), (self.calls, calls),
                           (self.counts, run.tracer.counts)):
            for name, value in new.items():
                table[name] = table.get(name, 0) + value
        self.wall += tracing.root_wall(spans)
        self.cli_overhead += tracing.root_wall(spans) \
            - tracing.inclusive(spans, "evalmetrics.score_pair")
        self.items += items
        tracing.dump(spans, run.trace_path, phase, self.reps)
        self.reps += 1
        run.tracer.clear()


# ---------------------------------------------------------------------------
# measurement helpers


def run_child(args: List[str], cwd: Path, env: Optional[dict] = None,
              timeout: float = 600.0) -> Tuple[Optional[int], str]:
    """(exit code, standard output) of a child process started in a process
    group of its own.  On every path out, the child and anything it started
    are killed if still running and waited for; a timeout gives code None."""
    proc = subprocess.Popen(args, cwd=cwd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        return None, ""
    finally:
        stop_group(proc)


def stop_group(proc: subprocess.Popen) -> None:
    """Kill what is left of proc's process group and wait until it is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def measure_setup(run: Run, root: Path) -> float:
    """Median seconds, at the reference speed, a fresh process needs to
    import chartscribe, synthesize the default-size catalog and load the
    template bank; the loop that calibrates it runs in the same process,
    before and after."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"),
                                                       str(root)]))
    times, raw = [], []
    for _ in range(SETUP_REPEATS):
        code, out = run_child([sys.executable, "-c", _SETUP_CODE,
                               str(run.seed)], root, env, timeout=120)
        if code != 0:
            raise RuntimeError(f"set-up process exited {code}")
        seconds, cal = map(float, out.strip().splitlines()[-1].split())
        raw.append(seconds)
        times.append(seconds / calibration.slowdown(cal))
    run.info["setup_raw_s_median"] = statistics.median(raw)
    return statistics.median(times)


def peak_rss_mb() -> float:
    """Peak resident set of this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def generate_elsewhere(run: Run, out: Path, scale: float) -> Optional[dict]:
    """Build an input tree in a child process with SET_UP_JOBS workers, so
    its memory does not count toward this process's peak; the manifest,
    or None when the build failed."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    code, _ = run_child([sys.executable, "-c", _GENERATE_CODE, str(run.seed),
                         str(out), repr(scale), str(SET_UP_JOBS)], root, env)
    if not run.check(code == 0, f"building {out.name} exited {code}"):
        return None
    return json.loads((out / MANIFEST_NAME).read_text(encoding="utf-8"))


def tree_digest(root: Path) -> Tuple[str, int]:
    """sha256 over every file's relative path and bytes, plus total bytes."""
    digest = hashlib.sha256()
    total = 0
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        total += len(data)
        digest.update(f"{path.relative_to(root).as_posix()}\0{len(data)}\0"
                      .encode())
        digest.update(data)
    return digest.hexdigest(), total


def measure(run: Run, phase: str,
            rep: Callable[[int], Optional[Tuple[float, int]]]) -> float:
    """Call rep(k), which makes one timed call on input k and returns
    (seconds, items), until run.seconds have passed and at least MIN_REPS
    calls were made; stop at the first failed call.

    Returns the median items/s of the untraced calls at the reference
    speed: the calibration loop runs before and after every call, and the
    call's wall time is divided by the mean slowdown the two read.  Raw
    rates go to run.info.  A traced run alternates an untraced and a
    traced call on each input; the traced calls feed run.layers[phase]."""
    rates: List[float] = []
    raw: List[float] = []
    slowdowns: List[float] = []
    traced_rates: List[float] = []
    layers = run.layers.setdefault(phase, Layers())
    want = 2 if run.trace else MIN_REPS
    start = time.perf_counter()
    i = 0
    while len(rates) < want or (run.trace and len(traced_rates) < want) \
            or time.perf_counter() - start < run.seconds:
        traced = run.trace and i % 2 == 1
        before = calibration.calibrate()
        patches = tracing.install(run.tracer) if traced else None
        run.tracer.active = traced
        try:
            result = rep(i // 2 if run.trace else i)
        finally:
            run.tracer.active = False
            if patches is not None:
                patches.restore()
        slow = calibration.slowdown((before + calibration.calibrate()) / 2)
        i += 1
        if result is None:
            run.tracer.clear()
            break
        seconds, items = result
        if traced:
            traced_rates.append(items * slow / seconds)
            layers.add(run, phase, items)
        else:
            rates.append(items * slow / seconds)
            raw.append(items / seconds)
            slowdowns.append(slow)
    if traced_rates and rates:
        run.overhead_share = statistics.median(rates) \
            / statistics.median(traced_rates) - 1.0
    if not rates:
        return 0.0
    run.info.update(calls=len(rates),
                    raw_items_per_s_median=statistics.median(raw),
                    raw_items_per_s_p90=reference.percentile(raw, 90),
                    slowdown_median=statistics.median(slowdowns))
    return statistics.median(rates)


def timed_call(run: Run, fn: Callable, *args, **kwargs):
    """(seconds, result) of one call wrapped in the tracer's root span."""
    t0 = time.perf_counter()
    out = run.tracer.timed(tracing.ROOT_SPAN, fn)(*args, **kwargs)
    return time.perf_counter() - t0, out


def regen_phase(run: Run, root: Path) -> None:
    """Regenerate a seeded sample of records and check that every call
    rewrites its record byte for byte.  A traced run samples REGEN_SAMPLES
    records, reports their untraced latency percentiles, and then traces
    TRACED_REGEN_SAMPLES of them."""
    manifest = json.loads((root / MANIFEST_NAME).read_text(encoding="utf-8"))
    entries = manifest["records"]
    picks = random.Random(run.seed).sample(
        range(len(entries)), REGEN_SAMPLES if run.trace else REGEN_CHECKS)
    times = [regen_call(run, root, entries[i]) for i in picks]
    if not run.trace:
        return
    patches = tracing.install(run.tracer)
    try:
        for i in picks[:TRACED_REGEN_SAMPLES]:
            run.tracer.active = True
            regen_call(run, root, entries[i])
            run.tracer.active = False
            run.layers.setdefault("regen", Layers()).add(run, "regen", 1)
    finally:
        run.tracer.active = False
        patches.restore()
    times = [t for t in times if t is not None]
    run.info["regen_samples"] = len(times)
    for p in (50, 90):
        run.metric(f"regen.p{p}_ms",
                   reference.percentile(times, p) if times else 0.0, "ms")


def regen_call(run: Run, root: Path, entry: dict) -> Optional[float]:
    """Milliseconds of one regenerate_record call, checked byte for byte."""
    files = [root / rel for rel in entry["files"].values()]
    stored = [p.read_bytes() for p in files]
    seconds, written = timed_call(run, run.op, regenerate_record, root,
                                  entry["image_index"])
    if written is None:
        return None
    run.check([p.read_bytes() for p in files] == stored,
              f"regenerated record {entry['image_index']} differs from the "
              f"stored one")
    return seconds * 1000.0


def scaled_config(run: Run, out: Path, scale: float):
    return dataclasses.replace(default_config(run.seed, str(out)),
                               count_scale=scale)


def retry_share(manifest: dict) -> float:
    records = manifest["records"]
    return sum(1 for e in records if e["attempt"] > 0) / len(records)


# ---------------------------------------------------------------------------
# generate-serial


def generate(run: Run) -> None:
    out = run.work / "corpus"
    config = scaled_config(run, out, GEN_SCALE)
    digests = set()
    last: Dict[str, dict] = {}

    def rep(_k: int):
        shutil.rmtree(out, ignore_errors=True)
        seconds, manifest = timed_call(run, run.op, generate_corpus, config)
        if manifest is None:
            return None
        digests.add(tree_digest(out)[0])
        last["manifest"] = manifest
        return seconds, manifest["totals"]["charts"]

    rate = measure(run, "main", rep)
    if "manifest" not in last:
        run.check(False, "no generate_corpus call succeeded")
        return
    regen_phase(run, out)
    manifest = last["manifest"]
    charts = manifest["totals"]["charts"]
    digest, size = tree_digest(out)
    run.check(digests == {digest},
              "repeated generate or regenerate calls wrote different trees")
    parallel_phase(run, charts, digest)
    problems = validate_corpus(out)
    run.check(problems == [], f"generated tree has {len(problems)} violations")

    run.info.update(count_scale=GEN_SCALE, jobs=1, charts=charts,
                    tree_sha256=digest)
    run.metric("items_per_s", rate, "items/s")
    run.metric("bytes_per_item", size / charts, "B/item")
    run.retry_share = retry_share(manifest)


def parallel_phase(run: Run, charts: int, serial_digest: str) -> None:
    """Generate the same config with PARALLEL_JOBS workers and check the
    tree equals the serial one.  A traced run traces these calls too; pool
    workers are not traced, so their layers are the parent's only."""
    out = run.work / "parallel"
    config = scaled_config(run, out, GEN_SCALE)
    patches = tracing.install(run.tracer) if run.trace else None
    try:
        for _ in range(TRACED_PARALLEL_CALLS if run.trace else 1):
            shutil.rmtree(out, ignore_errors=True)
            run.tracer.active = run.trace
            _, manifest = timed_call(run, run.op, generate_corpus, config,
                                     jobs=PARALLEL_JOBS)
            run.tracer.active = False
            if manifest is None:
                run.tracer.clear()
                return
            if run.trace:
                run.layers.setdefault("parallel", Layers()).add(
                    run, "parallel", charts)
            run.check(tree_digest(out)[0] == serial_digest,
                      f"jobs={PARALLEL_JOBS} tree differs from the serial tree")
    finally:
        run.tracer.active = False
        if patches is not None:
            patches.restore()
    shutil.rmtree(out)


# ---------------------------------------------------------------------------
# audit


def _edit_json(path: Path, mutate) -> None:
    doc = json.loads(path.read_text(encoding="utf-8"))
    mutate(doc)
    path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")


def _edit_description(path: Path, mutate) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    doc = json.loads(lines[0])
    mutate(doc)
    lines[0] = json.dumps(doc, ensure_ascii=False)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _set_first_sentence(doc: dict, text: str) -> None:
    doc["sentences"][0]["text"] = text
    doc["text"] = " ".join(s["text"] for s in doc["sentences"])


def _shift_value_coordinate(doc: dict) -> None:
    key = "y_canvas" if doc["value_axis"]["orientation"] == "y" else "x_canvas"
    doc["series"][0]["points"][0][key] += 40.0


def _file(root: Path, records: List[dict], index: int, kind: str) -> Path:
    return root / records[index]["files"][kind]


# (name, substrings of which a flagging violation contains one, injector);
# each fault breaks a different check of the validator
FAULTS = [
    ("bbox left of the canvas", ("bbox outside canvas",),
     lambda d, r: _edit_json(_file(d, r, 1, "meta"), lambda doc:
                             doc["title"]["bbox"].__setitem__("x", -5.0))),
    ("truncated svg", ("does not parse",),
     lambda d, r: _file(d, r, 2, "chart").write_bytes(
         _file(d, r, 2, "chart").read_bytes()[:120])),
    ("deleted meta file", ("missing meta",),
     lambda d, r: _file(d, r, 3, "meta").unlink()),
    ("shifted canvas coordinate", ("value transform", "off canvas"),
     lambda d, r: _edit_json(_file(d, r, 4, "meta"), _shift_value_coordinate)),
    ("residual template slot", ("residual slots",),
     lambda d, r: _edit_description(_file(d, r, 5, "descriptions"), lambda doc:
                                    _set_first_sentence(doc, "The {y_label} is shown."))),
    ("scrambled move order", ("move order",),
     lambda d, r: _edit_description(_file(d, r, 6, "descriptions"), lambda doc:
                                    doc.__setitem__("sentences", doc["sentences"][::-1]))),
    ("foreign digit token", ("matches no chart fact",),
     lambda d, r: _edit_description(_file(d, r, 7, "descriptions"), lambda doc:
                                    _set_first_sentence(doc, doc["sentences"][0]["text"]
                                                        + " It peaked at 987654 units."))),
    ("orphan chart file", ("not in manifest",),
     lambda d, r: (d / "charts" / "999999.svg").write_text("<svg/>",
                                                           encoding="utf-8")),
    ("tampered chart total", ("totals.charts",),
     lambda d, r: _edit_json(d / MANIFEST_NAME, lambda doc:
                             doc["totals"].__setitem__("charts", doc["totals"]["charts"] + 2))),
]


def fault_gate(run: Run) -> None:
    """A clean tiny corpus validates clean and every fault injected into a
    copy of it is flagged as itself."""
    base = run.work / "fault_base"
    manifest = generate_corpus(scaled_config(run, base, FAULT_SCALE))
    run.check(validate_corpus(base) == [], "clean fault-gate corpus has violations")
    for i, (name, expected, inject) in enumerate(FAULTS):
        copy = run.work / f"fault_{i:02d}"
        shutil.copytree(base, copy)
        inject(copy, manifest["records"])
        problems = validate_corpus(copy)
        run.check(any(sub in p for p in problems for sub in expected),
                  f"validate did not flag fault {name!r}")
        shutil.rmtree(copy)
    shutil.rmtree(base)


def audit(run: Run) -> None:
    out = run.work / "corpus"
    large = run.work / "large"
    manifest = generate_elsewhere(run, out, AUDIT_SCALE)
    large_manifest = generate_elsewhere(run, large, REGEN_SCALE)
    if manifest is None or large_manifest is None:
        return
    charts = manifest["totals"]["charts"]
    fault_gate(run)

    def rep(k: int):
        seconds, problems = timed_call(run, validate_corpus, out)
        run.check(problems == [],
                  f"validate call {k} reported {len(problems)} violations")
        return seconds, charts

    rate = measure(run, "main", rep)
    regen_phase(run, large)
    run.info.update(count_scale=AUDIT_SCALE, jobs=SET_UP_JOBS, charts=charts,
                    regen_count_scale=REGEN_SCALE,
                    regen_charts=large_manifest["totals"]["charts"])
    run.metric("items_per_s", rate, "items/s")
    run.metric("bytes_per_item", tree_digest(out)[1] / charts, "B/item")
    run.retry_share = retry_share(manifest)


# ---------------------------------------------------------------------------
# eval


def _fixed_words(make: Callable[[int], str]) -> str:
    """The first EVAL_WORDS words of make(0), make(1), ... joined: every
    text scored has the same size, so a pair costs the same whatever the
    seed, and so does every timed call."""
    words: List[str] = []
    j = 0
    while len(words) < EVAL_WORDS:
        words += make(j).split()
        j += 1
    return " ".join(words[:EVAL_WORDS])


def _eval_texts(run: Run, meta: ChartMeta, bank, key: int):
    """Hypotheses and references for one chart: structured descriptions,
    an unstructured baseline, and EVAL_REFS reference descriptions."""
    def described(tag: int, i: int):
        return lambda j: generate_description(
            meta, None, bank, i, Rng(derive_seed(run.seed, tag, key, i, j))).text

    hyps = [_fixed_words(described(2, i)) for i in range(EVAL_STRUCTURED)]
    hyps.append(_fixed_words(lambda j: baseline_generate(
        meta, None, bank, Rng(derive_seed(run.seed, 3, key, j))).text))
    refs = [_fixed_words(described(1, i)) for i in range(EVAL_REFS)]
    return hyps, refs


def _write_jsonl(path: Path, rows: List[Tuple[int, str]]) -> int:
    text = "".join(json.dumps({"image_index": key, "text": t}) + "\n"
                   for key, t in rows)
    path.write_text(text, encoding="utf-8")
    return len(text.encode("utf-8"))


def _eval_gate(run: Run, texts: Dict[int, tuple], kinds: Dict[int, str],
               manifest_path: Path) -> None:
    """Rescore a sample of pairs with the reference BLEU and ROUGE-L and
    compare with the CLI's report, per kind and overall."""
    keys = sorted(texts)[:EVAL_GATE_PAIRS]
    # a different hypothesis of each sampled key, the baseline among them
    picks = [(key, texts[key][0][(j * 3) % (EVAL_STRUCTURED + 1)])
             for j, key in enumerate(keys)]
    hyp_path, ref_path = run.work / "gate_hyp.jsonl", run.work / "gate_ref.jsonl"
    report_path = run.work / "gate_report.json"
    _write_jsonl(hyp_path, picks)
    _write_jsonl(ref_path, [(key, r) for key in keys for r in texts[key][1]])
    with redirect_stdout(io.StringIO()):
        code = cli.main(["eval", "--hyp", str(hyp_path), "--ref", str(ref_path),
                         "--by-kind", str(manifest_path),
                         "--json-out", str(report_path)])
    if not run.check(code == 0, f"eval gate CLI exited {code}"):
        return
    report = json.loads(report_path.read_text(encoding="utf-8"))
    expected: Dict[str, List[Tuple[float, float]]] = {}
    for key, hyp in sorted(picks, key=lambda kv: str(kv[0])):
        h = reference.tokenize(hyp)
        refs = [reference.tokenize(r) for r in texts[key][1]]
        scores = (reference.bleu(h, refs), reference.rouge_l(h, refs))
        expected.setdefault(kinds[key], []).append(scores)
        expected.setdefault("overall", []).append(scores)
    for row, scores in expected.items():
        for col, metric in enumerate(("bleu4", "rougeL")):
            want = sum(s[col] for s in scores) / len(scores)
            got = report.get(row, {}).get(metric, float("nan"))
            run.check(abs(got - want) <= EVAL_TOLERANCE,
                      f"eval {row}/{metric}: CLI {got!r}, reference {want!r}")


def eval_workload(run: Run) -> None:
    out = run.work / "corpus"
    manifest = run.op(generate_corpus, scaled_config(run, out, EVAL_SCALE))
    if manifest is None:
        return
    manifest_path = out / MANIFEST_NAME
    records = manifest["records"]
    kinds = {e["image_index"]: e["kind"] for e in records}
    bank = load_default_bank()
    texts: Dict[int, tuple] = {}
    inputs: List[Tuple[Path, Path]] = []
    size = 0
    for idx in random.Random(run.seed).sample(range(len(records)), EVAL_KEYS):
        entry = records[idx]
        meta = ChartMeta.from_json(
            (out / entry["files"]["meta"]).read_text(encoding="utf-8"))
        key = entry["image_index"]
        hyps, refs = texts[key] = _eval_texts(run, meta, bank, key)
        hyp_path = run.work / f"hyp_{key:06d}.jsonl"
        ref_path = run.work / f"ref_{key:06d}.jsonl"
        size += _write_jsonl(hyp_path, [(key, t) for t in hyps])
        size += _write_jsonl(ref_path, [(key, t) for t in refs])
        inputs.append((hyp_path, ref_path))
    _eval_gate(run, texts, kinds, manifest_path)

    pairs = EVAL_STRUCTURED + 1

    def rep(k: int):
        hyp_path, ref_path = inputs[k % len(inputs)]
        with redirect_stdout(io.StringIO()):
            seconds, code = timed_call(
                run, cli.main, ["eval", "--hyp", str(hyp_path), "--ref",
                                str(ref_path), "--by-kind", str(manifest_path)])
        if not run.check(code == 0, f"eval CLI exited {code} on call {k}"):
            return None
        return seconds, pairs

    rate = measure(run, "main", rep)
    regen_phase(run, out)
    run.info.update(count_scale=EVAL_SCALE, jobs=1, charts=len(records),
                    eval_keys=len(texts), eval_refs_per_key=EVAL_REFS,
                    eval_hyps_per_key=pairs, eval_words_per_text=EVAL_WORDS)
    run.metric("items_per_s", rate, "items/s")
    run.metric("bytes_per_item", size / (pairs * len(texts)), "B/item")
    run.retry_share = retry_share(manifest)


WORKLOADS = {
    "generate-serial": generate,
    "audit": audit,
    "eval": eval_workload,
}


# ---------------------------------------------------------------------------
# results

CALL_COUNTS = ("trend.classify", "templatebank.query", "narrate.facts",
               "evalmetrics.tokenize")
# regenerate spans grouped into the set-up a regenerate call repeats, its
# reads and writes, and the record it rebuilds (every other layer)
REGEN_GROUPS = {
    "corpus.manifest_load": "regen.manifest_load_ms",
    "corpus.read": "regen.read_ms",
    "catalog.synth": "regen.synth_ms",
    "templatebank.load": "regen.bank_load_ms",
    "corpus.write": "regen.write_ms",
    tracing.ROOT_SPAN: "regen.unattributed_ms",
}


# parent-side spans of a parallel generate call; they add up to its wall time
PARALLEL_GROUPS = {
    tracing.POOL_WAIT: "parallel.pool_wait_ms",
    "corpus.write": "parallel.write_ms",
    tracing.ROOT_SPAN: "parallel.unattributed_ms",
}


def layer_metrics(run: Run) -> None:
    """Per-layer self time per item of the main phase, exact call counts
    per item, the parent-side breakdown of a parallel generate per chart,
    and the regenerate breakdown per regenerate call."""
    main = run.layers.get("main", Layers())
    n = max(main.items, 1)
    for name in tracing.SPAN_NAMES:
        run.metric(f"{name}_ms", main.seconds.get(name, 0.0) * 1000 / n,
                   "ms/item")
    for name in CALL_COUNTS:
        run.metric(f"{name}_calls", main.calls.get(name, 0) / n, "calls/item")
    perturbs = main.calls.get("catalog.perturb", 0)
    run.metric("catalog.gate_accept_ratio",
               main.counts.get("catalog.gate_accept", 0) / perturbs
               if perturbs else 0.0, "ratio")
    run.metric("corpus.retry_share", run.retry_share, "ratio")
    run.metric("cli.eval_overhead_ms",
               main.cli_overhead * 1000 / n
               if main.calls.get("evalmetrics.score_pair") else 0.0, "ms/item")
    run.metric("trace.wall_ms", main.wall * 1000 / n, "ms/item")
    run.metric("trace.unattributed_ms",
               main.seconds.get(tracing.ROOT_SPAN, 0.0) * 1000 / n, "ms/item")
    run.metric("trace.overhead_share", run.overhead_share, "ratio")

    parallel = run.layers.get("parallel", Layers())
    p = max(parallel.items, 1)
    for name, metric in PARALLEL_GROUPS.items():
        run.metric(metric, parallel.seconds.get(name, 0.0) * 1000 / p,
                   "ms/item")
    run.metric("parallel.wall_ms", parallel.wall * 1000 / p, "ms/item")

    regen = run.layers.get("regen", Layers())
    r = max(regen.items, 1)
    record = sum(t for name, t in regen.seconds.items()
                 if name not in REGEN_GROUPS)
    for name, metric in REGEN_GROUPS.items():
        run.metric(metric, regen.seconds.get(name, 0.0) * 1000 / r, "ms/item")
    run.metric("regen.record_ms", record * 1000 / r, "ms/item")
    run.metric("regen.wall_ms", regen.wall * 1000 / r, "ms/item")


def filesystem(path: Path) -> str:
    """Filesystem type of a directory, as `stat -f` names it."""
    try:
        code, out = run_child(["stat", "-f", "-c", "%T", str(path)], path,
                              timeout=30)
    except OSError:
        return "unknown"
    return out.strip() if code == 0 and out.strip() else "unknown"


def execute(workload: str, seed: int, seconds: float, trace: bool,
            root: Path) -> Run:
    """Run one workload in a scratch directory under root/.perfbench."""
    base = root / ".perfbench"
    work = base / "work" / f"{workload}-{os.getpid()}"
    trace_path = base / f"trace-{workload}-seed{seed}.tsv.gz"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    if trace:
        trace_path.unlink(missing_ok=True)
    run = Run(workload, seed, seconds, trace, work, trace_path)
    run.info.update(workload=workload, seed=seed, seconds=seconds,
                    trace=int(trace), machine=platform.machine(),
                    platform=platform.platform(), nproc=os.cpu_count(),
                    python=platform.python_version(),
                    filesystem=filesystem(work))
    try:
        if not trace:
            run.metric("setup_s", measure_setup(run, root), "s")
        WORKLOADS[workload](run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if trace:
        layer_metrics(run)
        run.info["trace_file"] = str(trace_path.relative_to(root))
    else:
        run.metric("peak_rss_mb",
                   peak_rss_mb(), "MB")
        run.metric("ok_share", 1.0 - run.failed / max(run.attempted, 1), "ratio")
    return run
