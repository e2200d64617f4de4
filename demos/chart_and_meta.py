"""Sample data, render one chart, and poke at its metadata."""

from dataclasses import asdict
from pathlib import Path

from chartscribe import (
    ChartKind, Rng, build_chart_spec, perturb_to_trend, preset, render,
    sample_series, synth_catalog,
)
from chartscribe.trend import TrendClass

out = Path("demo_out")
out.mkdir(exist_ok=True)

# A synthetic catalog of indicator/entity statistics
catalog = synth_catalog(seed=11, n_indicators=14, n_entities=18)
rng = Rng(2024)

# One temporal series, pushed toward a concave increase
series = sample_series(catalog, temporal=True, arity=1, rng=rng, min_len=5)
series = [perturb_to_trend(series[0],
                           preset(TrendClass.CONCAVE_INCREASE,
                                  len(series[0].y_values)), rng)]

spec = build_chart_spec(series, ChartKind.LINE, rng, image_index=0)
svg, meta = render(spec)
(out / "chart.svg").write_bytes(svg)
(out / "chart.json").write_text(meta.to_json())
print("wrote", out / "chart.svg", "and", out / "chart.json")

# The metadata records everything the renderer decided
print("\ntitle:     ", meta.title.text)
print("category:  ", meta.category)
print("trend:     ", meta.series[0].trend_class)
print("y ticks:   ", [t.label for t in meta.y_ticks])
print("plot area: ", asdict(meta.plot_area))

# Every point carries data and canvas coordinates tied together by the
# value axis transform
axis = meta.value_axis
print("\npoints (value -> canvas, transform check):")
for p in meta.series[0].points:
    print(f"  {p.x_label}: {p.value:12.3f} -> y={p.y_canvas:7.2f}"
          f"   to_canvas={axis.to_canvas(p.value):7.2f}")
