"""Benchmark for paprlab: workloads, tracing and reporting (see README.md)."""
