"""Command-line interface.

Five subcommands cover the corpus life cycle:

    chartscribe generate --config corpus.ini [--seed N] [--count-scale F]
                         [--out DIR] [--jobs N]
    chartscribe stats CORPUS_DIR
    chartscribe validate CORPUS_DIR
    chartscribe describe --meta META_JSON [--bank BANK] [--seed N]
                         [--variants N]
    chartscribe eval --hyp FILE --ref FILE [--ref FILE ...]
                     [--by-kind MANIFEST] [--json-out FILE]

`validate` exits nonzero when violations are found; everything else exits
nonzero only on usage or I/O errors.

Each subcommand imports the modules it uses when it runs, so an `eval`
without `--by-kind` loads no corpus, chart, narration or catalog code.
`evalmetrics` stays a top-level import, so `score_pair` is an attribute of
this module, where it can be wrapped or patched.
"""

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

from . import BUILTIN_BANK, DEFAULT_VARIANTS
from .evalmetrics import (
    SIGNATURE, References, corpus_report, format_report, score_pair,
)


class CliError(Exception):
    """User-facing failure; main() prints it and exits 2."""


# the error classes main turns into exit 2 besides CliError and OSError,
# by the module that defines them
_USER_ERRORS = {"chartscribe.corpus": ("ConfigError", "ManifestError",
                                       "CorpusGenerationError"),
                "chartscribe.templatebank": ("BankFormatError",),
                "chartscribe.catalog": ("CatalogFormatError",)}


def _user_errors() -> Tuple[type, ...]:
    """The classes main reports in one line: those of the modules loaded
    by now, as a class whose module never loaded cannot have been raised."""
    classes = [CliError, OSError]
    for name, attrs in _USER_ERRORS.items():
        module = sys.modules.get(name)
        if module is not None:
            classes += [getattr(module, attr) for attr in attrs]
    return tuple(classes)


def _cmd_generate(args) -> int:
    import logging  # only generate logs: its record retries
    from .corpus import default_config, generate_corpus, load_config
    logging.basicConfig(level=logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    if args.config is None and args.seed is None:
        raise CliError("generate: need --config or --seed")
    if args.config is not None:
        config = load_config(args.config)
    else:
        config = default_config(seed=args.seed)
    overrides = {}
    if args.config is not None and args.seed is not None:
        overrides["seed"] = args.seed
    if args.count_scale is not None:
        overrides["count_scale"] = args.count_scale
    if args.out is not None:
        overrides["output_dir"] = args.out
    if overrides:
        config = dataclasses.replace(config, **overrides)
    if args.jobs < 1:
        raise CliError(f"generate: --jobs must be >= 1, got {args.jobs}")
    manifest = generate_corpus(config, jobs=args.jobs)
    totals = manifest["totals"]
    print(f"wrote {totals['charts']} charts, {totals['descriptions']} "
          f"descriptions to {config.output_dir}")
    return 0


def _cmd_stats(args) -> int:
    from .corpus import stats
    _, table = stats(args.corpus_dir)
    print(table)
    return 0


def _cmd_validate(args) -> int:
    from .corpus import _validate
    problems, totals = _validate(Path(args.corpus_dir))
    for problem in problems:
        print(problem)
    if problems:
        print(f"{len(problems)} violation(s)")
        return 1
    print(f"ok: {totals['charts']} charts, "
          f"{totals['descriptions']} descriptions, 0 violations")
    return 0


def _cmd_describe(args) -> int:
    from .chartgen import ChartMeta, meta_problems
    from .corpus import _MALFORMED, _build_bank
    from .narrate import generate_description_set
    from .rng import Rng
    if args.variants < 1:
        raise CliError(f"describe: --variants must be >= 1, got {args.variants}")
    meta_path = Path(args.meta)
    if not meta_path.exists():
        raise CliError(f"describe: no meta file at {args.meta}")
    try:
        meta = ChartMeta.from_json(meta_path.read_text(encoding="utf-8"))
    except _MALFORMED as exc:
        raise CliError(f"describe: {args.meta} is not chart metadata: "
                       f"{type(exc).__name__}: {exc}") from None
    problems = meta_problems(meta)
    if problems:
        raise CliError(f"describe: {args.meta}: {problems[0]}")
    bank = _build_bank(args.bank)
    descriptions = generate_description_set(
        meta, None, bank, Rng(args.seed), n_variants=args.variants)
    for desc in descriptions:
        print(desc.to_json_line())
    return 0


def _read_scored_lines(path) -> Dict[object, List[str]]:
    """Parse an eval input file into {key: [text, ...]}.

    Lines that parse as JSON objects must have a "text" field, and are
    keyed by their image_index, an int or a string, or by line number if
    they have none; anything else is a plain text line keyed by line
    number.  A file must not mix the styles: plain, keyed or unkeyed JSON.
    """
    texts: Dict[object, List[str]] = {}
    styles = set()
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CliError(f"eval: {path} is not UTF-8 text: {exc}") from None
    for line_no, line in enumerate(raw.splitlines()):
        if not line.strip():
            continue
        key: object
        try:
            doc = json.loads(line)
        except (json.JSONDecodeError, RecursionError):
            doc = None
        if isinstance(doc, dict):
            if "text" not in doc:
                raise CliError(f'eval: {path} line {line_no + 1}: no "text"')
            key = doc.get("image_index", line_no)
            text = doc["text"]
            # an image_index true or 1.0 equals 1 and would join record 1
            for name, value, allowed in (("text", text, (str,)),
                                         ("image_index", key, (int, str))):
                if type(value) not in allowed:
                    from .chartgen import _a
                    raise CliError(
                        f"eval: {path} line {line_no + 1}: \"{name}\" is "
                        f"{_a(type(value).__name__)}, not "
                        f"{' or '.join(_a(t.__name__) for t in allowed)}")
            styles.add("JSON lines with image_index" if "image_index" in doc
                       else "JSON lines without image_index")
        else:
            key, text = line_no, line
            styles.add("plain-text lines")
        texts.setdefault(key, []).append(text)
    if len(styles) > 1:
        raise CliError(f"eval: {path} mixes {' and '.join(sorted(styles))}")
    if not texts:
        raise CliError(f"eval: {path} is empty")
    return texts


def _cmd_eval(args) -> int:
    hyps = _read_scored_lines(args.hyp)
    refs: Dict[object, List[str]] = {}
    for ref_path in args.ref:
        for key, texts in _read_scored_lines(ref_path).items():
            refs.setdefault(key, []).extend(texts)

    # the kind of record i is its config's plan of i: the records are not read
    planner = None
    if args.by_kind is not None:
        from .corpus import _config_builder, _read_manifest_head
        planner = _config_builder(_read_manifest_head(Path(args.by_kind)))

    pairs = []
    missing = [key for key in hyps if key not in refs]
    if missing:
        raise CliError(
            f"eval: {len(missing)} hypothesis key(s) have no reference, "
            f"first: {missing[0]!r}")
    for key, hyp_texts in sorted(hyps.items(), key=lambda kv: str(kv[0])):
        kind = "all"
        if planner is not None:
            if type(key) is not int or not 0 <= key < planner.starts[-1]:
                raise CliError(f"eval: key {key!r} not in --by-kind manifest")
            kind = planner.plan(key).kind
        key_refs = References.from_texts(refs[key])
        for hyp_text in hyp_texts:
            pairs.append(score_pair(hyp_text, key_refs, kind=kind))

    report = corpus_report(pairs)
    print(format_report(report))
    if args.json_out is not None:
        counts = [len(refs[key]) for key in hyps]
        signature = f"{SIGNATURE}|refs:min={min(counts)},max={max(counts)}"
        Path(args.json_out).write_text(
            json.dumps({**report, "signature": signature}, indent=1,
                       sort_keys=True) + "\n", encoding="utf-8")
    return 0


@functools.cache  # built once per process: parsing does not change it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chartscribe",
        description="Deterministic chart and description corpus generator.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a corpus")
    p.add_argument("--config", help="INI config file")
    p.add_argument("--seed", type=int, help="global seed (overrides config)")
    p.add_argument("--count-scale", type=float, dest="count_scale",
                   help="scale every cell count (floor, min 1)")
    p.add_argument("--out", help="output directory (overrides config)")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (default 1)")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("stats", help="print the category/kind grid")
    p.add_argument("corpus_dir")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("validate", help="check a corpus on disk")
    p.add_argument("corpus_dir")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("describe",
                       help="generate descriptions for one chart's metadata")
    p.add_argument("--meta", required=True, help="chart metadata JSON file")
    p.add_argument("--bank", default=BUILTIN_BANK,
                   help=f"template bank TSV, or {BUILTIN_BANK!r}")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--variants", type=int, default=DEFAULT_VARIANTS)
    p.set_defaults(func=_cmd_describe)

    p = sub.add_parser("eval", help="score hypotheses against references")
    p.add_argument("--hyp", required=True,
                   help="hypothesis file (JSON lines or plain text)")
    p.add_argument("--ref", required=True, action="append",
                   help="reference file; repeatable")
    p.add_argument("--by-kind", dest="by_kind",
                   help="corpus manifest, groups scores by chart kind")
    p.add_argument("--json-out", dest="json_out",
                   help="also write the report as JSON")
    p.set_defaults(func=_cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _user_errors() as exc:  # evaluated once the handler has run
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
