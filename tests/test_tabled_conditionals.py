"""Tabled cumulative conditionals and the per-model batched-chain set-up cache.

Every batched heat-bath step takes a node's cumulative conditional row either
from a precomputed table (nodes under ``TABLE_CELL_CAP``) or from the factor
gather.  Both must be bit-identical to the serial reference, alone and mixed
in one step, and the cached tables must follow the model's weights.
"""

from __future__ import annotations

import itertools
import pickle

import networkx as nx
import numpy as np
import pytest

from repro.gibbs import GibbsDistribution, SamplingInstance
from repro.gibbs.factors import Factor
from repro.graphs import cycle_graph, path_graph
from repro.models import coloring_model, hardcore_model
from repro.runtime import Runtime, chain_seed_sequences
from repro.runtime.chains import TABLE_CELL_CAP, ChainBatch, _BatchedTables

KERNELS = ("glauber", "luby-glauber", "jvv", "sequential")


def _wheel_instance(fugacity: float = 1.3) -> SamplingInstance:
    """Hardcore on a wheel: a degree-8 hub (gathered) among degree-3 rim nodes."""
    return SamplingInstance(hardcore_model(nx.wheel_graph(9), fugacity), {3: 0})


def _random_wheel_instance() -> SamplingInstance:
    """Asymmetric random weights on a wheel over a 3-letter alphabet.

    Rim nodes (blanket of 3, 81 cells) are tabled and the hub (blanket of 8)
    is not.  Pairwise tables with distinct entries per edge, plus triangle
    factors in shuffled scope order, make every blanket position matter.
    """
    graph = nx.wheel_graph(9)
    alphabet = ("a", "b", "c")
    rng = np.random.default_rng(17)

    def table(scope):
        keys = itertools.product(alphabet, repeat=len(scope))
        return Factor.from_table(scope, {key: rng.uniform(0.2, 2.0) for key in keys})

    factors = [table((node,)) for node in graph.nodes()]
    factors += [table((u, v)) for u, v in graph.edges()]
    factors += [table((rim % 8 + 1, 0, rim)) for rim in (1, 3, 6)]
    distribution = GibbsDistribution(graph, alphabet, factors)
    return SamplingInstance(distribution, {5: "c"})


INSTANCES = {"hardcore-wheel": _wheel_instance, "random-wheel": _random_wheel_instance}


def _serial(kernel, instance, count, seeds):
    return Runtime("serial").run_chains(kernel, instance, count, seeds=seeds)


class TestTableRows:
    @pytest.mark.parametrize("build", INSTANCES.values(), ids=INSTANCES)
    def test_every_row_equals_the_gather(self, build):
        compiled = build().distribution.compiled_engine()
        tables = _BatchedTables.of(compiled)
        q, n = compiled.q, len(compiled.nodes)
        for variable in np.flatnonzero(tables.tabled):
            size = int(np.count_nonzero(tables.radix[variable]))
            blanket = tables.blanket[variable, :size]
            assignments = np.array(list(itertools.product(range(q), repeat=size)))
            codes = np.zeros((len(assignments), n), dtype=np.int64)
            codes[:, blanket] = assignments
            rows = np.arange(len(assignments))
            variables = np.full(len(assignments), variable)
            gathered = np.cumsum(tables.weights(codes, rows, variables), axis=1)
            np.testing.assert_array_equal(tables._lookup(codes, rows, variables), gathered)

    @pytest.mark.parametrize("build", INSTANCES.values(), ids=INSTANCES)
    def test_cap_splits_the_wheel(self, build):
        compiled = build().distribution.compiled_engine()
        tables = _BatchedTables.of(compiled)
        hub = compiled.node_index[0]
        q = compiled.q
        # Rim blankets count each neighbour once, however many factors share it.
        assert q ** (8 + 1) > TABLE_CELL_CAP >= q ** (3 + 1)
        assert not tables.tabled[hub]
        assert tables.tabled.sum() == len(compiled.nodes) - 1
        assert tables.any_tabled and not tables.all_tabled

    def test_colouring_above_the_cap_stays_on_the_gather(self):
        compiled = coloring_model(cycle_graph(6), 5).compiled_engine()
        tables = _BatchedTables.of(compiled)
        assert 5 ** (2 + 1) <= TABLE_CELL_CAP
        assert tables.all_tabled
        torus = coloring_model(nx.grid_2d_graph(4, 4, periodic=True), 5)
        assert not _BatchedTables.of(torus.compiled_engine()).any_tabled


class TestMixedBatch:
    @pytest.mark.parametrize("build", INSTANCES.values(), ids=INSTANCES)
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_bit_identical_to_serial(self, kernel, build):
        instance = build()
        seeds = chain_seed_sequences(11, 6)
        batched = Runtime("batched").run_chains(kernel, instance, 40, seeds=seeds)
        assert batched == _serial(kernel, instance, 40, seeds)

    @pytest.mark.parametrize("kernel", ("glauber", "luby-glauber"))
    def test_packed_groups_bit_identical_to_serial(self, kernel):
        wheel = _random_wheel_instance()
        ring = SamplingInstance(coloring_model(cycle_graph(7), 3))
        wheel_seeds = chain_seed_sequences(3, 4)
        ring_seeds = chain_seed_sequences(4, 3)
        packed = Runtime("batched").run_packed(
            kernel, [(wheel, wheel_seeds), (ring, ring_seeds)], 30
        )
        assert packed == [
            _serial(kernel, wheel, 30, wheel_seeds),
            _serial(kernel, ring, 30, ring_seeds),
        ]


class TestZeroTotalRows:
    def _instance(self):
        # A proper 2-colouring of a path with both ends pinned to different
        # colours leaves the middle node no feasible value.
        return SamplingInstance(coloring_model(path_graph(3), 2), {0: 0, 2: 1})

    def test_table_builds_with_zero_total_rows(self):
        tables = _BatchedTables.of(self._instance().distribution.compiled_engine())
        assert tables.all_tabled
        assert np.any(tables.cumulative[:, -1] == 0.0)

    @pytest.mark.parametrize("kernel", ("glauber", "luby-glauber", "sequential"))
    def test_stuck_message_unchanged(self, kernel):
        instance = self._instance()
        initial = {0: 0, 1: 0, 2: 1}
        with pytest.raises(ValueError) as serial:
            Runtime("serial").run_chains(kernel, instance, 3, seed=0, initial=initial)
        with pytest.raises(ValueError) as batched:
            Runtime("batched", n_chains=2).run_chains(
                kernel, instance, 3, seed=0, initial=initial
            )
        assert str(batched.value) == str(serial.value) == (
            "node 1 has no feasible value given its neighbourhood; "
            "the single-site dynamics is not ergodic here"
        )


class TestCacheFreshness:
    def test_batches_share_the_model_tables_and_start(self):
        instance = _wheel_instance()
        first = ChainBatch(instance, n_chains=2)
        second = ChainBatch(instance, n_chains=3)
        assert first.tables is second.tables
        assert first.tables is _BatchedTables.of(instance.distribution.compiled_engine())
        np.testing.assert_array_equal(first.codes[0], second.codes[0])

    def test_greedy_start_is_keyed_by_pinning(self):
        distribution = hardcore_model(cycle_graph(6), 1.0)
        free = SamplingInstance(distribution)
        pinned = SamplingInstance(distribution, {0: 0, 1: 1})
        assert ChainBatch(free, n_chains=1).codes[0, 1] == 0
        assert ChainBatch(pinned, n_chains=1).codes[0, 1] == 1
        assert len(distribution.compiled_engine()._greedy_starts) == 2
        seeds = chain_seed_sequences(5, 3)
        for instance in (free, pinned):
            assert Runtime("batched").run_chains(
                "glauber", instance, 25, seeds=seeds
            ) == _serial("glauber", instance, 25, seeds)

    def test_update_factors_gives_fresh_tables(self):
        graph = cycle_graph(9)
        distribution = hardcore_model(graph, 1.0)
        instance = SamplingInstance(distribution)
        seeds = chain_seed_sequences(8, 4)
        Runtime("batched").run_chains("glauber", instance, 20, seeds=seeds)
        stale = _BatchedTables.of(distribution.compiled_engine())
        distribution.update_factors(hardcore_model(graph, 3.0).factors)
        assert ChainBatch(instance, seeds=seeds).tables is not stale
        assert Runtime("batched").run_chains(
            "glauber", instance, 20, seeds=seeds
        ) == _serial("glauber", instance, 20, seeds)

    def test_reweighted_twin_starts_empty(self):
        compiled = _wheel_instance().distribution.compiled_engine()
        ChainBatch(_wheel_instance(), n_chains=1)
        _BatchedTables.of(compiled)
        twin = compiled.reweighted([array * 2.0 for array in compiled.arrays])
        assert twin._batched_tables is None
        assert twin._greedy_starts == {}
        assert _BatchedTables.of(twin) is not _BatchedTables.of(compiled)

    def test_pcd_retarget_uses_fresh_tables(self):
        graph = cycle_graph(8)
        distribution = hardcore_model(graph, 1.2)
        instance = SamplingInstance(distribution, {0: 1})
        batched = Runtime("batched", n_chains=3)
        serial = Runtime("serial", n_chains=3)
        _, state_b = batched.run_chains("glauber", instance, 15, seed=4, return_state=True)
        _, state_s = serial.run_chains("glauber", instance, 15, seed=4, return_state=True)
        stale = state_b.batches[0].tables
        distribution.update_factors(hardcore_model(graph, 2.5).factors)
        resumed = batched.run_chains("glauber", instance, 15, state=state_b)
        assert state_b.batches[0].tables is not stale
        assert state_b.batches[0].tables is _BatchedTables.of(distribution.compiled_engine())
        assert resumed == serial.run_chains("glauber", instance, 15, state=state_s)

    def test_pickle_drops_the_cache(self):
        instance = _wheel_instance()
        ChainBatch(instance, n_chains=1)
        compiled = instance.distribution.compiled_engine()
        assert compiled._batched_tables is not None and compiled._greedy_starts
        restored = pickle.loads(pickle.dumps(compiled))
        assert len(compiled.__getstate__()) == 4
        assert restored._batched_tables is None
        assert restored._greedy_starts == {}
