"""chartscribe: deterministic charts with ground-truth annotations and
templated analytical descriptions, plus n-gram metrics to score them."""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .rng import Rng, derive_seed, mix64
from .trend import (
    GbmParams,
    ShapeTransform,
    TrendClass,
    TrendSpec,
    apply_transform,
    classify_trend,
    gbm_path,
    preset,
    synth_trend_series,
)
from .catalog import (
    Catalog,
    DataSeries,
    load_catalog,
    perturb_to_trend,
    sample_series,
    synth_catalog,
    write_catalog,
)
from .chartgen import ChartKind, ChartMeta, ChartSpec, build_chart_spec, render
from .templatebank import Template, TemplateBank, load_bank, load_default_bank, query
from .narrate import (
    ChartFacts,
    Description,
    PlanParams,
    baseline_generate,
    check_move_order,
    extract_facts,
    format_number,
    generate_description,
    generate_description_set,
    hallucination_check,
    plan_moves,
    realize,
)
from .evalmetrics import (
    References,
    bleu,
    corpus_report,
    format_report,
    rouge_l,
    rouge_n,
    score_pair,
    tokenize,
)
from .corpus import (
    CorpusConfig,
    default_config,
    generate_corpus,
    load_config,
    load_manifest,
    regenerate_record,
    stats,
    validate_corpus,
)

# the public names are the ones imported above; the submodules those
# imports bind (rng, trend, ...) are not exports
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
