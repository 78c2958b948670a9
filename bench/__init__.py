"""Layered benchmark of the reproduction: five workloads, end-to-end
metrics from untraced runs, per-layer metrics from a traced run."""
