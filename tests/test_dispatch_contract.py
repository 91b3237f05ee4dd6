"""The dispatch contract of the shared distributed drivers.

The streaming driver (``stream_ball_marginal_tasks`` and its wrappers) and
the chain-block driver (``run_chain_blocks``) of :mod:`repro.runtime.shards`
serve both distributed backends: a per-call process pool and a cluster
coordinator.  Every check here runs on both, through the same call with
only the routing arguments changed:

* a failing chunk raises a ``RuntimeError`` that names it and chains the
  cause;
* abandoning a stream cancels the pending work and leaks neither a pool
  process nor an in-flight cluster task;
* ``stats=True`` JVV blocks return the same configurations and rejection
  counts as one in-process batch;
* the default chunk count follows the one policy (8 chunks at 2 workers).
"""

from __future__ import annotations

import multiprocessing
import threading

import pytest

from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.worker import ClusterWorker
from repro.gibbs import SamplingInstance
from repro.graphs import cycle_graph
from repro.models import coloring_model, hardcore_model
from repro.runtime import ChainBatch, chain_seed_sequences, shards
from repro.sampling import get_kernel


@pytest.fixture(params=["process", "cluster"])
def backend(request, monkeypatch):
    """``(route, submitted)`` for one backend with two workers.

    ``route`` holds the keyword arguments that send a driver call to the
    backend; ``submitted`` collects the kind and args of every task the
    driver hands to the dispatcher's ``submit_task``.
    """
    submitted = []

    def spy(original):
        def submit_task(self, kind, args, spec=None):
            submitted.append((kind, args))
            return original(self, kind, args, spec=spec)

        return submit_task

    if request.param == "process":
        monkeypatch.setattr(
            shards.PoolDispatcher,
            "submit_task",
            spy(shards.PoolDispatcher.submit_task),
        )
        yield {"n_workers": 2}, submitted
        return
    monkeypatch.setattr(
        ClusterCoordinator, "submit_task", spy(ClusterCoordinator.submit_task)
    )
    workers = [ClusterWorker() for _ in range(2)]
    for worker in workers:
        threading.Thread(target=worker.serve_forever, daemon=True).start()
    coordinator = ClusterCoordinator([worker.address for worker in workers])
    try:
        yield {"dispatcher": coordinator}, submitted
    finally:
        coordinator.shutdown()
        for worker in workers:
            worker.close()


def test_a_failing_chunk_raises_naming_it(backend):
    route, _ = backend
    instance = SamplingInstance(hardcore_model(cycle_graph(8), 1.0))
    tasks = [(0, 1), (1, 1), ("no-such-node", 1), (2, 1)]
    with pytest.raises(
        RuntimeError, match=r"ball shard failed on chunk \[\('no-such-node', 1\)\]"
    ) as failure:
        list(shards.stream_ball_marginal_tasks(instance, tasks, chunk_size=1, **route))
    assert failure.value.__cause__ is not None


def test_abandoning_the_stream_cancels_and_leaks_nothing(backend, monkeypatch):
    route, _ = backend
    discarded = []
    dispatcher = route.get("dispatcher")
    owner = dispatcher if dispatcher is not None else shards.PoolDispatcher
    original = owner.discard

    def discard(futures):
        futures = list(futures)
        discarded.extend(futures)
        original(futures)

    monkeypatch.setattr(
        owner, "discard", discard if dispatcher is not None else staticmethod(discard)
    )
    children = set(multiprocessing.active_children())
    instance = SamplingInstance(coloring_model(cycle_graph(12), 3), {0: 1})
    stream = shards.stream_padded_ball_marginals(
        instance, instance.free_nodes, 2, chunk_size=1, **route
    )
    next(stream)
    stream.close()
    assert len(discarded) == len(instance.free_nodes)
    # Every chunk either landed or was cancelled: nothing is left pending.
    assert all(future.done() for future in discarded)
    assert set(multiprocessing.active_children()) <= children
    if dispatcher is not None:
        assert dispatcher.snapshot()["queue_depth"] == 0


def test_jvv_stats_blocks_match_one_in_process_batch(backend):
    route, submitted = backend
    instance = SamplingInstance(hardcore_model(cycle_graph(9), 1.4), {0: 1})
    seeds = chain_seed_sequences(4, 5)
    states, counts = shards.run_chain_blocks(
        instance, "jvv", 40, seeds, stats=True, **route
    )
    kernel = get_kernel("jvv")
    batch = ChainBatch(instance, seeds=seeds)
    batch.advance(kernel, 40)
    assert states == batch.configurations()
    assert counts == kernel.failure_counts(batch).tolist()
    # One contiguous block per worker, in seed order.
    blocks = [args["seeds"] for kind, args in submitted if kind == "chain_block"]
    assert blocks == [seeds[:3], seeds[3:]]


def test_default_chunk_count_follows_the_one_policy(backend):
    route, submitted = backend
    instance = SamplingInstance(hardcore_model(cycle_graph(41), 1.0), {0: 0})
    dict(shards.stream_padded_ball_marginals(instance, instance.free_nodes, 1, **route))
    chunks = [args["tasks"] for kind, args in submitted if kind == "ball_marginals"]
    assert len(chunks) == shards._chunk_count(2) == 8
    assert sorted(center for chunk in chunks for center, _ in chunk) == sorted(
        instance.free_nodes
    )
