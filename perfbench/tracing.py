"""Span tracer for the traced run, installed from outside the program.

`from .x import y` binds a name in each importing module, so every layer
is wrapped under the name its caller looks it up by, for example
`chartscribe.corpus.render` and `chartscribe.narrate.query`.  Each call
records a span (name, start, end, parent) in memory; a layer's self time
is its span time minus the time of its child spans.  Spans opened in a
forked pool worker are not recorded: the tracer switches itself off in
the child, so per-layer numbers of a parallel run are parent-side only.
"""

import functools
import gzip
import os
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

ROOT_SPAN = "root"

# span name -> owners whose attribute is wrapped: (module path, attribute);
# a module path with ":Class" wraps a class attribute
WRAPPED: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "catalog.synth": (("chartscribe.corpus", "synth_catalog"),),
    "catalog.sample": (("chartscribe.corpus", "sample_series"),),
    "catalog.perturb": (("chartscribe.corpus", "perturb_to_trend"),),
    "trend.classify": (("chartscribe.corpus", "classify_trend"),
                       ("chartscribe.chartgen", "classify_trend"),
                       ("chartscribe.trend", "classify_trend")),
    "chartgen.spec": (("chartscribe.corpus", "build_chart_spec"),),
    "chartgen.render": (("chartscribe.corpus", "render"),),
    "chartgen.meta_encode": (("chartscribe.chartgen:ChartMeta", "to_json"),),
    "chartgen.meta_decode": (("chartscribe.chartgen:ChartMeta", "from_json"),),
    "templatebank.load": (("chartscribe.corpus", "load_default_bank"),),
    "templatebank.query": (("chartscribe.narrate", "query"),),
    "narrate.describe": (("chartscribe.corpus", "generate_description_set"),),
    "narrate.realize": (("chartscribe.narrate", "realize"),),
    "narrate.plan": (("chartscribe.narrate", "plan_moves"),),
    "narrate.facts": (("chartscribe.narrate", "extract_facts"),
                      ("chartscribe.corpus", "extract_facts")),
    "narrate.desc_encode": (("chartscribe.narrate:Description", "to_json_line"),),
    "narrate.desc_decode": (("chartscribe.narrate:Description", "from_json_line"),),
    "narrate.audit": (("chartscribe.corpus", "hallucination_check"),),
    "narrate.move_order": (("chartscribe.corpus", "check_move_order"),),
    "evalmetrics.tokenize": (("chartscribe.narrate", "tokenize"),
                             ("chartscribe.evalmetrics", "tokenize")),
    "evalmetrics.bleu": (("chartscribe.evalmetrics", "bleu"),),
    "evalmetrics.rouge_n": (("chartscribe.evalmetrics", "rouge_n"),),
    "evalmetrics.rouge_l": (("chartscribe.evalmetrics", "rouge_l"),),
    "evalmetrics.score_pair": (("chartscribe.cli", "score_pair"),),
    "corpus.manifest_load": (("chartscribe.corpus", "load_manifest"),),
    "corpus.svg_parse": (("xml.etree.ElementTree", "fromstring"),),
}

# file I/O spans count only calls made from chartscribe.corpus
IO_WRAPPED = {
    "corpus.read": ("read_bytes", "read_text"),
    "corpus.write": ("write_bytes", "write_text"),
}
IO_CALLER = "chartscribe.corpus"

# counted, not timed: a successful return of the trend gate is one
# accepted perturbation
COUNTED = {"catalog.gate_accept": ("chartscribe.corpus", "_gate_perturb")}

POOL_WAIT = "corpus.pool_wait"

# every span name below the root of a serial call, in report order
SPAN_NAMES = tuple(WRAPPED) + tuple(IO_WRAPPED)


class Tracer:
    """Spans of the current traced call, kept as [name, start, end, parent]."""

    def __init__(self):
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.counts: Dict[str, int] = {}
        self.active = False
        os.register_at_fork(after_in_child=self._stop)

    def _stop(self):
        self.active = False

    def clear(self):
        del self.spans[:]
        del self.stack[:]
        self.counts.clear()

    def timed(self, name: str, fn):
        """fn, recording a span for each call made while active."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
        return wrapper

    def timed_io(self, name: str, fn):
        """A Path method, timed only when called from IO_CALLER."""
        inner = self.timed(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active and \
                    sys._getframe(1).f_globals.get("__name__") == IO_CALLER:
                return inner(*args, **kwargs)
            return fn(*args, **kwargs)
        return wrapper

    def counted(self, name: str, fn):
        """fn, counting its successful returns while active."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if self.active:
                self.counts[name] = self.counts.get(name, 0) + 1
            return out
        return wrapper


def _owner(path: str):
    module_name, _, class_name = path.partition(":")
    __import__(module_name)
    module = sys.modules[module_name]
    return getattr(module, class_name) if class_name else module


def _rewrap(raw, wrap):
    """Wrap a raw attribute, keeping staticmethod/classmethod binding."""
    if isinstance(raw, (staticmethod, classmethod)):
        return type(raw)(wrap(raw.__func__))
    return wrap(raw)


class Patches:
    """The replaced attributes; restore() puts every original back."""

    def __init__(self):
        self.saved: List[Tuple[object, str, object]] = []

    def replace(self, owner, attr: str, wrap):
        raw = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self.saved.append((owner, attr, raw))
        setattr(owner, attr, _rewrap(raw, wrap))

    def restore(self):
        while self.saved:
            owner, attr, raw = self.saved.pop()
            setattr(owner, attr, raw)


def install(tracer: Tracer) -> Patches:
    """Wrap every traced name; the caller must restore() the result."""
    patches = Patches()
    try:
        for name, owners in WRAPPED.items():
            for path, attr in owners:
                patches.replace(_owner(path), attr,
                                functools.partial(tracer.timed, name))
        for name, attrs in IO_WRAPPED.items():
            for attr in attrs:
                patches.replace(Path, attr,
                                functools.partial(tracer.timed_io, name))
        for name, (path, attr) in COUNTED.items():
            patches.replace(_owner(path), attr,
                            functools.partial(tracer.counted, name))

        corpus = _owner("chartscribe.corpus")
        base = corpus.ProcessPoolExecutor

        class WaitTimedPool(base):
            """Times the parent's wait for each pool.map result."""

            def map(self, fn, *iterables, **kwargs):
                results = super().map(fn, *iterables, **kwargs)
                wait = tracer.timed(POOL_WAIT, next)
                done = object()

                def waited():
                    while (item := wait(results, done)) is not done:
                        yield item
                return waited()

        patches.replace(corpus, "ProcessPoolExecutor", lambda _: WaitTimedPool)
    except BaseException:
        patches.restore()
        raise
    return patches



def self_times(spans: List[list]) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Self seconds and call counts per span name.  A root span's self time
    is time no wrapped layer accounts for."""
    durations = [rec[2] - rec[1] for rec in spans]
    own = list(durations)
    for i, rec in enumerate(spans):
        if rec[3] >= 0:
            own[rec[3]] -= durations[i]
    seconds: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for rec, t in zip(spans, own):
        seconds[rec[0]] = seconds.get(rec[0], 0.0) + t
        calls[rec[0]] = calls.get(rec[0], 0) + 1
    return seconds, calls


def root_wall(spans: List[list]) -> float:
    return sum(rec[2] - rec[1] for rec in spans if rec[3] < 0)


def inclusive(spans: List[list], name: str) -> float:
    """Total time inside spans of one name, not counting nested repeats."""
    total = 0.0
    for rec in spans:
        if rec[0] == name and (rec[3] < 0 or spans[rec[3]][0] != name):
            total += rec[2] - rec[1]
    return total


def dump(spans: List[list], path: Path, phase: str, rep: int) -> None:
    """Append spans as tab-separated lines: phase, rep, index, name,
    start and end in microseconds, parent index (-1 for a root)."""
    with gzip.open(path, "at", encoding="utf-8") as out:
        for i, (name, start, end, parent) in enumerate(spans):
            out.write(f"{phase}\t{rep}\t{i}\t{name}\t{start * 1e6:.1f}\t"
                      f"{end * 1e6:.1f}\t{parent}\n")
