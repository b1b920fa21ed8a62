"""Benchmark for the movestruct package: seeded inputs, three workloads, a
closed-loop harness and span tracing installed from outside the package."""
