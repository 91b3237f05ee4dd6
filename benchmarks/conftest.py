"""Shared configuration for the benchmark harness.

Each benchmark module regenerates one experiment (E1 -- E13; the
"Experiments <-> paper" table in docs/ARCHITECTURE.md and the README map
each to its paper section).  The experiment logic lives in
:mod:`repro.experiments`; the benchmarks run it once under pytest-benchmark
(to record wall-clock cost), print the regenerated table, and assert the
*shape* of the result the paper predicts.
"""

from __future__ import annotations

import pytest


def run_once(benchmark, function, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark.

    The experiments are themselves statistical (they average over many
    samples internally), so repeating them for timing stability would only
    waste the benchmark budget.
    """
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)


@pytest.fixture
def once(benchmark):
    """Fixture form of :func:`run_once`."""

    def runner(function, *args, **kwargs):
        return run_once(benchmark, function, *args, **kwargs)

    return runner
