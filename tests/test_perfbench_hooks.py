"""The benchmark's layer hooks still find every entry point they wrap.

``perfbench/layers.py`` rebinds named module globals and class attributes
of the library to time each layer.  A refactor that renames or moves one
of them would otherwise surface only in a traced benchmark run
(``perfbench/run.py --trace 1``); here it fails ``pytest``.  The checks
also pin that ``Runtime`` calls through the wrapped distributed entry
points, and that ``uninstall`` puts every original back.
"""

from __future__ import annotations

import threading
from pathlib import Path

import pytest

from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.worker import ClusterWorker
from repro.gibbs import SamplingInstance
from repro.graphs import cycle_graph
from repro.models import hardcore_model
from repro.runtime import Runtime, executor

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import spans

    return layers, spans


def _instance():
    return SamplingInstance(hardcore_model(cycle_graph(8), 1.1), {0: 0})


def test_install_then_uninstall_restores_every_original(layers):
    layers, spans = layers
    before = {
        "run_chain_blocks": executor.run_chain_blocks,
        "stream_padded": executor.stream_padded_ball_marginals,
        "chain_samples": ClusterCoordinator.__dict__["chain_samples"],
        "cluster_stream": ClusterCoordinator.__dict__["stream_padded_ball_marginals"],
    }
    installed = layers.install(spans.Recorder())
    try:
        assert executor.run_chain_blocks is not before["run_chain_blocks"]
        assert ClusterCoordinator.__dict__["chain_samples"] is not before["chain_samples"]
    finally:
        installed.uninstall()
    assert executor.run_chain_blocks is before["run_chain_blocks"]
    assert executor.stream_padded_ball_marginals is before["stream_padded"]
    assert ClusterCoordinator.__dict__["chain_samples"] is before["chain_samples"]
    assert (
        ClusterCoordinator.__dict__["stream_padded_ball_marginals"]
        is before["cluster_stream"]
    )


def test_runtime_calls_through_the_wrapped_process_entry_points(layers, monkeypatch):
    layers, spans = layers
    monkeypatch.setattr(executor, "INLINE_CHAIN_UPDATES", 0)
    recorder = spans.Recorder()
    instance = _instance()
    installed = layers.install(recorder)
    try:
        runtime = Runtime("process", n_chains=2, n_workers=1)
        runtime.ball_marginals(instance, instance.free_nodes, 1)
        runtime.run_chains("glauber", instance, 10, seed=0)
    finally:
        installed.uninstall()
    names = {span.name for span in recorder.spans}
    assert {"shards.stream_padded", "shards.chain_blocks"} <= names


def test_runtime_calls_through_the_wrapped_cluster_entry_points(layers):
    layers, spans = layers
    workers = [ClusterWorker()]
    threading.Thread(target=workers[0].serve_forever, daemon=True).start()
    recorder = spans.Recorder()
    instance = _instance()
    installed = layers.install(recorder)
    try:
        with Runtime("cluster", n_chains=2, addresses=[workers[0].address]) as runtime:
            runtime.ball_marginals(instance, instance.free_nodes, 1)
            runtime.run_chains("glauber", instance, 10, seed=0)
    finally:
        installed.uninstall()
        workers[0].close()
    names = {span.name for span in recorder.spans}
    assert {"cluster.stream_padded", "cluster.chain_samples"} <= names
