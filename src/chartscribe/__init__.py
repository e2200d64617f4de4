"""chartscribe: deterministic charts with ground-truth annotations and
templated analytical descriptions, plus n-gram metrics to score them."""

__version__ = "0.1.0"

# the public names, by the submodule that defines each; `import chartscribe`
# loads none of the submodules, and a name or a submodule is imported on
# its first lookup (PEP 562), then kept in this module's globals
_EXPORTS = {
    "rng": ("Rng", "derive_seed", "mix64"),
    "trend": ("GbmParams", "ShapeTransform", "TrendClass", "TrendSpec",
              "apply_transform", "classify_trend", "gbm_path", "preset",
              "synth_trend_series"),
    "catalog": ("Catalog", "DataSeries", "load_catalog", "perturb_to_trend",
                "sample_series", "synth_catalog", "write_catalog"),
    "chartgen": ("ChartKind", "ChartMeta", "ChartSpec", "build_chart_spec",
                 "render"),
    "templatebank": ("Template", "TemplateBank", "load_bank",
                     "load_default_bank", "query"),
    "narrate": ("ChartFacts", "Description", "PlanParams", "baseline_generate",
                "check_move_order", "extract_facts", "format_number",
                "generate_description", "generate_description_set",
                "hallucination_check", "plan_moves", "realize"),
    "evalmetrics": ("References", "bleu", "corpus_report", "format_report",
                    "rouge_l", "rouge_n", "score_pair", "tokenize"),
    "corpus": ("CorpusConfig", "default_config", "generate_corpus",
               "load_config", "load_manifest", "regenerate_record", "stats",
               "validate_corpus"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items()
           for name in names}

__all__ = list(_SOURCE)


def __getattr__(name: str):
    module = _SOURCE.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = import_module(f"{__name__}.{module}")  # binds the submodule here
    if name != module:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
