"""Latency of split-replicated and erasure-coded storage clusters.

The package has three layers: analytic queue-length models and latency
bounds (``queue_models``, ``bounds``), a discrete-event simulator of
FCFS server banks under randomized dispatch (``simulator``), and a
sweep harness plus CLI that checks the two against each other
(``harness``, ``cli``).
"""
