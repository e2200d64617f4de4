"""Benchmark entry point.

    python3 perfbench/run.py --workload audit --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Runs from any directory; the program is imported from the `src/` next to
this directory.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`.  With --trace 0 the metrics are the end_to_end
metrics of BENCHMARK.json, with --trace 1 its per_layer metrics.
"""

import argparse
import json
import multiprocessing
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("generate-serial", "audit", "eval")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=41)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 64:
        parser.error("--seed must be in [0, 2**64)")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def _declared_metrics(trace: int):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def _print_layers(metrics):
    """Self time per module and layer; layers plus unattributed time add
    up to the traced wall time."""
    from perfbench import tracing

    names = tracing.SPAN_NAMES
    total = sum(metrics[f"{n}_ms"][0] for n in names)
    modules = {}
    for n in names:
        modules[n.split(".")[0]] = modules.get(n.split(".")[0], 0.0) \
            + metrics[f"{n}_ms"][0]
    print("self time per module (ms/item): " + ", ".join(
        f"{m} {v:.4f}" for m, v in modules.items()))
    print(f"layers {total:.4f} + unattributed "
          f"{metrics['trace.unattributed_ms'][0]:.4f} = traced wall "
          f"{metrics['trace.wall_ms'][0]:.4f} ms/item; tracing overhead "
          f"{metrics['trace.overhead_share'][0]:+.1%}")


def run_one(args) -> int:
    import chartscribe
    from perfbench import workloads

    if Path(chartscribe.__file__).resolve().parent != SRC / "chartscribe":
        print(f"error: imported chartscribe from {chartscribe.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    names = _declared_metrics(args.trace)
    run = workloads.execute(args.workload, args.seed, args.seconds,
                            bool(args.trace), ROOT)
    missing = [n for n in names if n not in run.metrics]
    if missing:
        print(f"error: run produced no value for {missing}", file=sys.stderr)
        return 1
    for problem in run.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    for name in names:
        value, unit = run.metrics[name]
        print(f"{args.workload:16} {name:34} {value:14.6g} {unit}")
    if args.trace:
        _print_layers(run.metrics)
    print("run " + json.dumps(run.info, sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": run.metrics[n][0], "unit": run.metrics[n][1]}
                    for n in names},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; the last line sums the gates and
    prefixes each metric with its workload."""
    from perfbench.workloads import run_child

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        code, out = run_child(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)], ROOT, timeout=900)
        lines = out.strip().splitlines()
        print("\n".join(lines[:-1]))
        if code != 0 or not lines:
            print(f"error: workload {workload} exited {code}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            summary["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "chartscribe" / "__init__.py").is_file():
        print(f"error: no chartscribe source under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    try:
        return run_all(args) if args.workload == "all" else run_one(args)
    finally:
        # pool workers left behind by a call that raised
        for child in multiprocessing.active_children():
            child.kill()
            child.join()


if __name__ == "__main__":
    sys.exit(main())
