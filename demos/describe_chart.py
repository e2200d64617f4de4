"""Generate move-structured description variants for one chart."""

from chartscribe import (
    ChartKind, Rng, build_chart_spec, extract_facts,
    generate_description_set, load_default_bank, perturb_to_trend, preset,
    render, sample_series, synth_catalog,
)
from chartscribe.trend import TrendClass

catalog = synth_catalog(seed=11, n_indicators=14, n_entities=18)
bank = load_default_bank()
rng = Rng(99)

# A two-series chart: one rising series, one falling
series = sample_series(catalog, temporal=True, arity=2, rng=rng, min_len=5)
series = [
    perturb_to_trend(series[0], preset(TrendClass.LINEAR_INCREASE, len(series[0].y_values)), rng),
    perturb_to_trend(series[1], preset(TrendClass.CONVEX_DECREASE, len(series[1].y_values)), rng),
]
spec = build_chart_spec(series, ChartKind.LINE, rng, image_index=0)
svg, meta = render(spec)

# The facts every sentence is realized from
facts = extract_facts(meta, series)
print("series:", [s.name for s in facts.series])
print("trends:", [s.trend_class for s in facts.series])
print("dominance:", facts.dominance)

# Three variants from one seed; each sentence is tagged with its move
descriptions = generate_description_set(meta, series, bank, Rng(5))
for desc in descriptions:
    print(f"\n--- variant {desc.variant_index} "
          f"({len(desc.sentences)} sentences) ---")
    for sentence in desc.sentences:
        print(f"[{sentence.move:<4}] {sentence.text}")
