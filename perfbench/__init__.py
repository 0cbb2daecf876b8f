"""Benchmark for the ssrgd package: closed-loop workloads with checked
outputs, plus an outside-in per-layer tracer.  Entry point: ``run.py``."""
