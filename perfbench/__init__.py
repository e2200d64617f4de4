"""Benchmark for chartscribe: generate, audit and eval workloads plus a
traced per-layer run.  Run it with `python3 perfbench/run.py --help`."""
