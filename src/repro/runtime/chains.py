"""Batched chain execution: many independent chains as one code matrix.

A :class:`ChainBatch` holds ``n_chains`` independent chains of the same
instance as a ``(chains, n)`` integer code matrix and advances *all* of
them per step with a handful of vectorised NumPy gathers into the model's
precomputed conditional tables (:class:`_BatchedTables`, cached on the
compiled model) -- one batched conditional computation instead of a
Python loop per chain.  This amortises the interpreter
overhead of the serial chain across the batch, which is where
E6/E7/E12-style experiments spend their time.

The *dynamics* advanced by a batch is a :class:`~repro.sampling.kernels.ChainKernel`
(Glauber, LubyGlauber, JVV rejection, sequential scan, or any registered
kernel): the batch owns the shared execution state (code matrix, per-chain
generators and buffered streams, padded gather tables, kernel scratch
space) and :meth:`ChainBatch.advance` hands it to the kernel's
``batched_advance``.

Determinism contract
--------------------

Every chain owns its own :class:`numpy.random.Generator`.  The per-chain
draw pattern reproduces the serial samplers exactly:

* Glauber draws ``integers(0, free_count, size=chunk)`` then
  ``random(chunk)`` per RNG chunk, with the serial chunk sizes;
* LubyGlauber draws ``random(n_free)`` priorities then
  ``random(n_selected)`` update points per round.  These are served from a
  per-chain buffer, which is safe because NumPy generators are
  *prefix-consistent*: one large ``random(k)`` call yields the same stream
  as any sequence of smaller calls;
* the scan kernels (JVV, sequential) draw ``random(chunk)`` proposal
  points (then ``random(chunk)`` acceptance points for gated kernels) per
  chunk.

All floating-point reductions (factor products, cumulative weights, totals)
run in the same order as the serial inner loop, so chain ``c`` of a batch is
**bit-identical** to the serial chain run with ``seed=seeds[c]`` for the same
number of steps/rounds (matched against a single ``advance`` call; splitting
one serial run across several calls changes the chunk boundaries and hence
the stream).  The default seeding convention spawns per-chain
``SeedSequence`` streams from one root seed (:func:`chain_seed_sequences`),
the standard way to get statistically independent chains from a single seed.
"""

from __future__ import annotations

import time
from typing import Dict, Hashable, List, Optional, Sequence, Union

import numpy as np

from repro import obs
from repro.engine import resolve_engine
from repro.gibbs.instance import SamplingInstance
from repro.sampling.glauber import greedy_feasible_configuration
from repro.sampling.kernels import ChainKernel, resolve_kernel, stuck_node_error

Node = Hashable
Value = Hashable

Seed = Union[int, np.random.SeedSequence]

#: Histogram boundaries for chain throughput (steps/second): decades 1..1e9.
_THROUGHPUT_BUCKETS = tuple(10.0**i for i in range(10))


def chain_seed_sequences(seed: Seed, n_chains: int) -> List[np.random.SeedSequence]:
    """Per-chain seed sequences spawned from one root seed.

    Chain ``c`` of a batch seeded this way is bit-identical to the serial
    chain run with ``seed=chain_seed_sequences(seed, n)[c]`` (the serial
    samplers accept ``SeedSequence`` seeds directly).

    Parameters
    ----------
    seed : int or numpy.random.SeedSequence
        Root seed for the batch.
    n_chains : int
        Number of chains to seed.

    Returns
    -------
    list of numpy.random.SeedSequence
        ``n_chains`` statistically independent spawned streams.
    """
    if n_chains < 1:
        raise ValueError("n_chains must be at least 1")
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return list(root.spawn(n_chains))


class _Stream:
    """Buffered uniform draws from one chain's generator.

    ``take(k)`` returns the next ``k`` doubles of the stream.  Buffering
    changes the call pattern but not the values (prefix-consistency of
    ``Generator.random``), so the buffered chain matches the serial chain's
    unbuffered draws bit for bit.
    """

    __slots__ = ("rng", "_buffer", "_cursor")

    _BLOCK = 4096

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self._buffer = np.empty(0)
        self._cursor = 0

    def take(self, count: int) -> np.ndarray:
        end = self._cursor + count
        if end > len(self._buffer):
            tail = self._buffer[self._cursor :]
            fresh = self.rng.random(max(self._BLOCK, count - len(tail)))
            self._buffer = np.concatenate([tail, fresh])
            self._cursor = 0
            end = count
        out = self._buffer[self._cursor : end]
        self._cursor = end
        return out


#: Largest conditional table a node gets precomputed, in cells
#: (``q ** (|blanket| + 1)``).  256 tables hardcore and Ising nodes up to
#: degree 7 and leaves e.g. the 5-colouring of a degree-4 graph (3,125
#: cells per node) on the factor gather, whose table build would cost more
#: set-up time and memory than its steps save.
TABLE_CELL_CAP = 256
#: Table rows built per vectorised chunk (bounds the build's temporary arrays).
_TABLE_CHUNK_ROWS = 2048
#: Cap on cached greedy start vectors per model (distinct pinnings).
_GREEDY_START_LIMIT = 256


class _BatchedTables:
    """Per-node conditional tables for whole-batch heat-bath updates.

    Two representations of the same conditionals:

    * **Factor gather.**  The per-node factor entries of
      :class:`~repro.engine.conditionals.CompiledConditionals` flattened into
      rectangular arrays: entry ``j`` of node ``v`` contributes the weight
      table at ``pool[base[v, j] + a * stride0[v, j]]`` for alphabet code
      ``a``, with the offset determined by the neighbour codes at
      ``other[v, j, :]`` (strides ``ostride[v, j, :]``).  Missing entries
      point at an all-ones table (pool offset 0, stride 1, zero neighbour
      strides), so a single ``multiply.reduce`` over the entry axis
      reproduces the serial per-factor product exactly -- the padding
      multiplies by 1.0 *after* the real entries, which leaves the float
      result bit-identical.
    * **Tabled cumulative conditionals.**  Every node whose table fits in
      :data:`TABLE_CELL_CAP` cells (``tabled[v]``) has its cumulative
      conditional row precomputed for each assignment of its *blanket* --
      the distinct other nodes of its factors, ``blanket[v, :]``.  The row
      for the current state sits at ``cumulative[row_base[v] + sum_k
      codes[blanket[v, k]] * radix[v, k]]`` (``radix[v, k] = q ** k``).
      The rows are built by :meth:`weights`' own product and ``np.cumsum``
      on the enumerated blanket codes, so every float is the one the gather
      would compute: a table lookup is bit-identical to the gather.

    One instance per model is cached on the
    :class:`~repro.engine.compiled.CompiledGibbs` (:meth:`of`), so it lives
    and dies with the compiled weights.
    """

    __slots__ = (
        "q",
        "pool",
        "base",
        "stride0",
        "other",
        "ostride",
        "factorless",
        "aq",
        "tabled",
        "all_tabled",
        "any_tabled",
        "blanket",
        "radix",
        "row_base",
        "cumulative",
    )

    def __init__(self, compiled) -> None:
        tables = compiled.conditionals.tables
        q = compiled.q
        self.q = q
        n = len(compiled.nodes)
        max_entries = max((len(entries) for entries in tables), default=0) or 1
        max_others = (
            max(
                (len(entry[2]) for entries in tables for entry in entries),
                default=0,
            )
            or 1
        )
        pool: List[float] = [1.0] * q  # the all-ones padding table at offset 0
        base = np.zeros((n, max_entries), dtype=np.int64)
        stride0 = np.ones((n, max_entries), dtype=np.int64)
        other = np.zeros((n, max_entries, max_others), dtype=np.int64)
        ostride = np.zeros((n, max_entries, max_others), dtype=np.int64)
        for variable, entries in enumerate(tables):
            for j, (flat, entry_stride0, others, strides) in enumerate(entries):
                base[variable, j] = len(pool)
                pool.extend(flat)
                stride0[variable, j] = entry_stride0
                for k, (other_node, stride) in enumerate(zip(others, strides)):
                    other[variable, j, k] = other_node
                    ostride[variable, j, k] = stride
        self.pool = np.asarray(pool, dtype=np.float64)
        self.base = base
        self.stride0 = stride0
        self.other = other
        self.ostride = ostride
        self.factorless = np.array([len(entries) == 0 for entries in tables], dtype=bool)
        self.aq = np.arange(q)
        self._tabulate()

    @classmethod
    def of(cls, compiled) -> "_BatchedTables":
        """The model's cached tables (built on first use).

        Stored on the compiled model, so a reweighted twin, a rebuilt
        model after ``update_factors`` and an unpickled copy all start
        without tables and build their own.  Two threads racing on a cold
        model each build an identical copy; either one is correct.
        """
        tables = compiled._batched_tables
        if tables is None:
            tables = compiled._batched_tables = cls(compiled)
        return tables

    def _tabulate(self) -> None:
        """Precompute the cumulative conditional rows of every node under the cap.

        Row ``r`` of a node's table assigns its blanket the radix-``q``
        digits of ``r`` (slot ``k`` weighs ``q ** k``).  The rows are built
        in vectorised chunks: each entry's neighbour codes are read from
        ``grid`` (every assignment of the widest tabled blanket) at the
        neighbour's blanket slot, then :meth:`_product` and ``np.cumsum``
        run exactly as on the gather path.  A zero-total row is stored as
        is; :meth:`sample_codes` raises only when a chain reaches it.
        """
        q = self.q
        n = len(self.other)
        # Blankets: each node's distinct neighbours, ascending; ``n`` pads.
        ids = np.where(self.ostride != 0, self.other, n).reshape(n, -1)
        ids.sort(axis=1)
        ids[:, 1:][ids[:, 1:] == ids[:, :-1]] = n
        ids.sort(axis=1)
        sizes = (ids < n).sum(axis=1)
        largest = int(sizes.max(initial=0))
        fits = [q ** (size + 1) <= TABLE_CELL_CAP for size in range(largest + 1)]
        tabled = np.array(fits, dtype=bool)[sizes]
        # At least one slot, so an all-empty blanket still indexes ``grid``.
        width = max(int(sizes[tabled].max(initial=0)), 1)
        kept = np.where(tabled[:, None], ids[:, :width], n)
        powers = np.array([q**k for k in range(width + 1)], dtype=np.int64)
        self.blanket = np.where(kept < n, kept, 0)
        self.radix = np.where(kept < n, powers[:width], 0)
        rows_per = np.where(tabled, powers[np.minimum(sizes, width)], 0)
        self.row_base = np.cumsum(rows_per) - rows_per
        self.tabled = tabled
        self.all_tabled = bool(tabled.all())
        self.any_tabled = bool(tabled.any())
        # Blanket slot of each entry neighbour (padding and untabled read 0).
        slot = (kept[:, None, None, :] == self.other[..., None]).argmax(axis=3)
        # ``grid[r * width + k]``: digit ``k`` of row ``r``.
        grid = np.indices((q,) * width).reshape(width, -1)[::-1].T.ravel()
        variables = np.repeat(np.arange(n), rows_per)
        local = np.arange(len(variables)) - self.row_base[variables]
        self.cumulative = np.empty((len(variables), q))
        for lo in range(0, len(variables), _TABLE_CHUNK_ROWS):
            rows = slice(lo, lo + _TABLE_CHUNK_ROWS)
            chunk = variables[rows]
            neighbour_codes = grid.take(
                local[rows, None, None] * width + slot.take(chunk, axis=0)
            )
            weights = self._product(neighbour_codes, chunk)
            self.cumulative[rows] = np.cumsum(weights, axis=1)

    def _product(self, neighbour_codes: np.ndarray, variables: np.ndarray) -> np.ndarray:
        """Per-factor gather and product, given each entry's neighbour codes."""
        offsets = self.base.take(variables, axis=0) + (
            neighbour_codes * self.ostride.take(variables, axis=0)
        ).sum(axis=2)
        stride0 = self.stride0.take(variables, axis=0)
        indices = offsets[:, :, None] + self.aq * stride0[:, :, None]
        return np.multiply.reduce(self.pool.take(indices), axis=1)

    def weights(
        self, codes: np.ndarray, rows: np.ndarray, variables: np.ndarray
    ) -> np.ndarray:
        """Unnormalised conditional weights, one length-``q`` row per pair.

        ``rows[i]`` selects the chain (a row of ``codes``) and
        ``variables[i]`` the node being resampled; the result row ``i`` equals
        the serial ``weights_by_codes(variables[i], codes[rows[i]])``.
        """
        columns = self.other.take(variables, axis=0)
        neighbour_codes = codes.take(rows[:, None, None] * codes.shape[1] + columns)
        return self._product(neighbour_codes, variables)

    def _cumulative(
        self, codes: np.ndarray, rows: np.ndarray, variables: np.ndarray
    ) -> np.ndarray:
        """Cumulative conditional rows: table lookups where tabled, else gathers."""
        if self.all_tabled:
            return self._lookup(codes, rows, variables)
        if not self.any_tabled:
            return np.cumsum(self.weights(codes, rows, variables), axis=1)
        tabled = self.tabled[variables]
        gathered = ~tabled
        cumulative = np.empty((len(variables), self.q))
        cumulative[tabled] = self._lookup(codes, rows[tabled], variables[tabled])
        cumulative[gathered] = np.cumsum(
            self.weights(codes, rows[gathered], variables[gathered]), axis=1
        )
        return cumulative

    def _lookup(
        self, codes: np.ndarray, rows: np.ndarray, variables: np.ndarray
    ) -> np.ndarray:
        """Tabled rows: one radix dot over the blanket codes and one gather."""
        columns = self.blanket.take(variables, axis=0)
        blanket_codes = codes.take(rows[:, None] * codes.shape[1] + columns)
        digits = blanket_codes * self.radix.take(variables, axis=0)
        index = self.row_base.take(variables) + digits @ np.ones(digits.shape[1], np.int64)
        return self.cumulative.take(index, axis=0)

    def sample_codes(
        self,
        codes: np.ndarray,
        rows: np.ndarray,
        variables: np.ndarray,
        points: np.ndarray,
        compiled,
    ) -> np.ndarray:
        """Batched heat-bath resample: the new code for each (row, variable).

        THE bit-identity-critical inner loop, shared by every kernel's
        batched step (Glauber, LubyGlauber rounds, the scan kernels): take
        each pair's cumulative conditional row -- a table lookup for tabled
        nodes, the factor gather plus ``cumsum`` otherwise, split per row
        when a step mixes both -- and pick the first code whose cumulative
        weight covers ``points[i] * total``.  The strict ``<`` comparison
        and the ``q - 1`` clamp reproduce the serial :func:`sample_code`
        exactly.  A non-positive total raises the shared stuck-node error
        (padded factorless rows total exactly ``q``, so they can never trip
        it; callers that need the serial factorless *fast path* -- uniform
        resample via truncation -- handle it before or after this call).
        """
        cumulative = self._cumulative(codes, rows, variables)
        totals = cumulative[:, -1]
        if not (totals > 0.0).all():
            stuck = int(np.flatnonzero(totals <= 0.0)[0])
            raise stuck_node_error(compiled, variables[stuck])
        return np.minimum((cumulative < (points * totals)[:, None]).sum(axis=1), self.q - 1)


def _greedy_start(instance: SamplingInstance, compiled) -> np.ndarray:
    """The greedy feasible start as codes, cached on the model per pinning."""
    starts = compiled._greedy_starts
    start = starts.get(instance.pinning)
    if start is None:
        configuration = greedy_feasible_configuration(instance)
        start = np.array(
            [compiled.symbol_index[configuration[node]] for node in compiled.nodes],
            dtype=np.int64,
        )
        start.setflags(write=False)
        if len(starts) >= _GREEDY_START_LIMIT:
            starts.clear()
        starts[instance.pinning] = start
    return start


class ChainBatch:
    """A batch of independent chains over one instance, as a code matrix.

    The batch is the kernel-agnostic execution state; the dynamics comes
    from the :class:`~repro.sampling.kernels.ChainKernel` handed to
    :meth:`advance` (one batch runs one kernel for its lifetime -- the
    per-chain RNG streams are not interchangeable between dynamics).

    Parameters
    ----------
    instance:
        The sampling instance all chains target.
    n_chains:
        Number of chains (ignored when ``seeds`` is given explicitly).
    seed, seeds:
        Either a root ``seed`` from which per-chain streams are spawned
        (:func:`chain_seed_sequences`), or an explicit ``seeds`` sequence --
        one entry per chain, each anything ``numpy.random.default_rng``
        accepts.  Explicit seeds make chain ``c`` bit-identical to the serial
        sampler called with ``seed=seeds[c]``.
    initial:
        Optional shared initial configuration (default: the deterministic
        greedy feasible configuration, exactly like the serial samplers;
        cached on the compiled model per pinning).
    initial_codes:
        Optional ``(chains, n)`` integer code matrix giving each chain its
        *own* starting state (the resume path of :class:`ChainState`);
        mutually exclusive with ``initial``.
    engine:
        Must resolve to the compiled engine; the batched runner *is* a
        compiled-engine execution strategy.
    """

    def __init__(
        self,
        instance: SamplingInstance,
        n_chains: Optional[int] = None,
        seed: Seed = 0,
        seeds: Optional[Sequence] = None,
        initial: Optional[Dict[Node, Value]] = None,
        engine: Optional[str] = None,
        initial_codes: Optional[np.ndarray] = None,
    ) -> None:
        if resolve_engine(engine) != "compiled":
            raise ValueError(
                "the batched chain runner requires the compiled engine; "
                'pass engine=None or engine="compiled"'
            )
        if seeds is None:
            if n_chains is None:
                raise ValueError("pass n_chains (with a root seed) or explicit seeds")
            seeds = chain_seed_sequences(seed, n_chains)
        else:
            seeds = list(seeds)
            if n_chains is not None and n_chains != len(seeds):
                raise ValueError("n_chains disagrees with the number of explicit seeds")
        if not seeds:
            raise ValueError("a chain batch needs at least one chain")
        self.instance = instance
        self.seeds = seeds
        self.n_chains = len(seeds)
        compiled = instance.distribution.compiled_engine()
        self.compiled = compiled
        self.tables = _BatchedTables.of(compiled)
        if initial_codes is not None:
            if initial is not None:
                raise ValueError("pass initial or initial_codes, not both")
            initial_codes = np.asarray(initial_codes, dtype=np.int64)
            if initial_codes.shape != (self.n_chains, len(compiled.nodes)):
                raise ValueError(
                    f"initial_codes has shape {initial_codes.shape}, expected "
                    f"{(self.n_chains, len(compiled.nodes))}"
                )
            #: The ``(chains, n)`` state matrix of alphabet codes.
            self.codes = initial_codes.copy()
        elif initial is not None:
            start = np.array(
                [compiled.symbol_index[initial[node]] for node in compiled.nodes],
                dtype=np.int64,
            )
            self.codes = np.tile(start, (self.n_chains, 1))
        else:
            self.codes = np.tile(_greedy_start(instance, compiled), (self.n_chains, 1))
        self.rngs = [np.random.default_rng(chain_seed) for chain_seed in seeds]
        self._streams: Optional[List[_Stream]] = None
        self._kind: Optional[str] = None
        self._scratch: Dict[str, dict] = {}
        #: Integer ids of the free nodes, in ``instance.free_nodes`` order.
        self.free_index = np.array(
            [compiled.node_index[node] for node in instance.free_nodes], dtype=np.int64
        )
        #: ``arange(n_chains)``, the row selector of whole-batch gathers.
        self.chain_ids = np.arange(self.n_chains)
        #: Whether any free node has no factor (kernels replicate the serial
        #: uniform-resample fast path for those).
        self.any_factorless = bool(
            len(self.free_index) and np.any(self.tables.factorless[self.free_index])
        )

    # ------------------------------------------------------------------
    def scratch(self, kernel_name: str) -> dict:
        """Kernel-private persistent state (scan positions, masks, caches)."""
        return self._scratch.setdefault(kernel_name, {})

    def streams(self) -> List[_Stream]:
        """Per-chain prefix-consistent buffered streams (created on first use)."""
        if self._streams is None:
            self._streams = [_Stream(rng) for rng in self.rngs]
        return self._streams

    def stack_trace(self, trace: List[np.ndarray]) -> np.ndarray:
        """Stack per-unit statistic snapshots into a ``(chains, units)`` array."""
        if not trace:
            return np.empty((self.n_chains, 0))
        return np.stack(trace, axis=1)

    def _claim_kind(self, kind: str) -> None:
        """One batch runs one chain kernel.

        Different kernels consume the per-chain streams with different
        draw patterns; interleaving them on the same generators would yield
        chains that correspond to no serial execution, silently voiding the
        bit-identity contract.  Fail loudly instead.
        """
        if self._kind is None:
            self._kind = kind
        elif self._kind != kind:
            raise RuntimeError(
                f"this ChainBatch already ran {self._kind} updates; create a "
                f"fresh batch for {kind} updates (the per-chain RNG streams "
                "are not interchangeable between chain kernels)"
            )

    # ------------------------------------------------------------------
    def advance(self, kernel, count: int, statistic=None):
        """Advance every chain by ``count`` units of ``kernel``.

        Parameters
        ----------
        kernel : str or ChainKernel
            The dynamics (a registered kernel name or instance).  A batch
            is claimed by the first kernel it runs; mixing kernels raises.
        count : int
            Units (steps/rounds) per chain.
        statistic : callable, optional
            Applied to the ``(chains, n)`` code matrix after every unit;
            when given, the per-chain traces are returned as a
            ``(chains, count)`` array (the input of the convergence
            diagnostics in :mod:`repro.analysis.convergence`).

        Returns
        -------
        ChainBatch or numpy.ndarray
            ``self`` (for chaining) without ``statistic``, else the trace.
        """
        resolved: ChainKernel = resolve_kernel(kernel)
        self._claim_kind(resolved.name)
        handle = obs.active()
        if handle is None:
            trace = resolved.batched_advance(self, count, statistic=statistic)
        else:
            chains = self.codes.shape[0]
            with handle.span(
                "chains.advance", kernel=resolved.name, chains=chains, count=count
            ):
                started = time.perf_counter()
                trace = resolved.batched_advance(self, count, statistic=statistic)
                elapsed = time.perf_counter() - started
            if elapsed > 0.0:
                handle.metrics.histogram(
                    "runtime.chains.steps_per_second", _THROUGHPUT_BUCKETS
                ).observe(chains * count / elapsed)
        if statistic is not None:
            return trace
        return self

    # ------------------------------------------------------------------
    def retarget(self, instance: SamplingInstance) -> "ChainBatch":
        """Rebind these chains to a reweighted twin of their instance.

        Persistent contrastive divergence keeps one set of chains alive
        while the model's factor *weights* move every gradient step.  The
        structure (nodes, alphabet, free set) is fixed, so the live chain
        state transfers verbatim: the returned batch targets ``instance``,
        takes that model's own (weight-dependent) tables, and *adopts* this
        batch's code matrix, per-chain generators, buffered streams and
        kernel scratch by reference -- continuing the exact RNG streams, so
        resuming on the twin is bit-identical to having run on it all along.
        The old batch must not be advanced afterwards.
        """
        compiled = instance.distribution.compiled_engine()
        if (
            compiled.nodes != self.compiled.nodes
            or compiled.alphabet != self.compiled.alphabet
        ):
            raise ValueError(
                "retarget requires an instance with identical nodes and alphabet"
            )
        twin = ChainBatch(instance, seeds=self.seeds, initial_codes=self.codes)
        if not np.array_equal(twin.free_index, self.free_index):
            raise ValueError("retarget requires an instance with the same free nodes")
        twin.rngs = self.rngs
        twin._streams = self._streams
        twin._scratch = self._scratch
        twin._kind = self._kind
        return twin

    # ------------------------------------------------------------------
    def configurations(self) -> List[Dict[Node, Value]]:
        """The current state of every chain, decoded to configurations.

        Returns
        -------
        list of dict
            One ``{node: value}`` configuration per chain, in chain order.
        """
        alphabet = self.compiled.alphabet
        nodes = self.compiled.nodes
        return [
            {node: alphabet[code] for node, code in zip(nodes, row)}
            for row in self.codes.tolist()
        ]


#: Histogram boundaries for pack efficiency (used cells / padded cells).
_PACK_EFFICIENCY_BUCKETS = tuple(i / 10.0 for i in range(1, 11))


class _PackedLayout:
    """The fused execution layout of a :class:`PackedBatch` (cached).

    Precomputes everything a mask-aware kernel step needs to advance all
    groups' chains as one padded ``(total_chains, n_max)`` code matrix:

    * merged gather tables -- the per-group :class:`_BatchedTables` pools
      and cumulative tables concatenated with rebased pool and row
      offsets, node axes stacked so the *global* variable id
      ``node_offset[g] + local_id`` selects group ``g``'s table row.
      Neighbour and blanket columns (``other``, ``blanket``) stay
      **column-local**:
      each packed row belongs to exactly one group whose variables occupy
      columns ``[0, n_g)``, so a row's gathers never cross into padding.
      Per-group padding entries multiply by 1.0 after the real entries,
      exactly like solo padding, keeping float products bit-identical.
    * per-chain group ids, node offsets, free counts and a padded
      ``free_lookup`` (the local column of each group's ``j``-th free
      node), so per-chain draws replicate each solo batch's RNG calls.
    * ``nodes`` -- the concatenated node labels, letting the shared
      stuck-node error name the right node from a global variable id.

    Requires every group to share one alphabet size ``q`` (kernels fall
    back to groupwise advance otherwise).
    """

    __slots__ = (
        "tables",
        "nodes",
        "node_offsets",
        "chain_group",
        "chain_node_offset",
        "free_counts",
        "free_lookup",
        "rngs",
        "any_factorless",
        "total_chains",
        "n_max",
        "row_offsets",
    )

    def __init__(self, groups: Sequence["ChainBatch"]) -> None:
        qs = {group.tables.q for group in groups}
        if len(qs) != 1:
            raise ValueError("a fused packed layout requires one alphabet size")
        q = qs.pop()
        tables_list = [group.tables for group in groups]
        entries = max(t.base.shape[1] for t in tables_list)
        others = max(t.other.shape[2] for t in tables_list)
        width = max(t.blanket.shape[1] for t in tables_list)
        pool_offsets = np.cumsum([0] + [len(t.pool) for t in tables_list])
        row_offsets = np.cumsum([0] + [len(t.cumulative) for t in tables_list])

        def stack(name, trailing, fill=0, shifts=None):
            """One table array over all groups, each padded to ``trailing``."""
            parts = []
            shifts = [0] * len(tables_list) if shifts is None else shifts
            for t, shift in zip(tables_list, shifts):
                array = getattr(t, name) + shift
                padded = np.full((len(array),) + trailing, fill + shift, dtype=np.int64)
                padded[(slice(None),) + tuple(map(slice, array.shape[1:]))] = array
                parts.append(padded)
            return np.concatenate(parts)

        merged = _BatchedTables.__new__(_BatchedTables)
        merged.q = q
        merged.aq = np.arange(q)
        merged.pool = np.concatenate([t.pool for t in tables_list])
        merged.cumulative = np.concatenate([t.cumulative for t in tables_list])
        # Padding entries point at each group's own all-ones pool table.
        merged.base = stack("base", (entries,), shifts=pool_offsets)
        merged.stride0 = stack("stride0", (entries,), fill=1)
        merged.other = stack("other", (entries, others))
        merged.ostride = stack("ostride", (entries, others))
        merged.blanket = stack("blanket", (width,))
        merged.radix = stack("radix", (width,))
        merged.row_base = stack("row_base", (), shifts=row_offsets)
        merged.factorless = np.concatenate([t.factorless for t in tables_list])
        merged.tabled = np.concatenate([t.tabled for t in tables_list])
        merged.all_tabled = bool(merged.tabled.all())
        merged.any_tabled = bool(merged.tabled.any())
        self.tables = merged
        self.nodes = tuple(
            node for group in groups for node in group.compiled.nodes
        )
        sizes = [len(group.compiled.nodes) for group in groups]
        self.node_offsets = np.cumsum([0] + sizes[:-1]).astype(np.int64)
        self.n_max = max(sizes)
        counts = [group.n_chains for group in groups]
        self.total_chains = sum(counts)
        self.row_offsets = np.cumsum([0] + counts[:-1]).astype(np.int64)
        self.chain_group = np.repeat(np.arange(len(groups)), counts)
        self.chain_node_offset = self.node_offsets[self.chain_group]
        group_free = np.array(
            [len(group.free_index) for group in groups], dtype=np.int64
        )
        self.free_counts = group_free[self.chain_group]
        max_free = int(group_free.max()) if len(group_free) else 0
        free_lookup = np.zeros((self.total_chains, max(1, max_free)), dtype=np.int64)
        for g, group in enumerate(groups):
            rows = slice(self.row_offsets[g], self.row_offsets[g] + counts[g])
            free_lookup[rows, : len(group.free_index)] = group.free_index
        self.free_lookup = free_lookup
        self.rngs = [rng for group in groups for rng in group.rngs]
        self.any_factorless = any(group.any_factorless for group in groups)


class PackedBatch:
    """Many small instances (possibly different models) as one padded matrix.

    The million-user serving shape: concurrent requests target *different*
    registered models, each a small instance with a handful of chains.
    Advancing them one :class:`ChainBatch` at a time pays the per-step
    Python overhead once **per model**; a ``PackedBatch`` packs all groups
    into one ``(total_chains, n_max)`` code matrix -- rows left-aligned,
    group ``g``'s variables in columns ``[0, n_g)``, per-instance column
    masks implied by the layout -- so mask-aware kernels
    (:meth:`~repro.sampling.kernels.ChainKernel.packed_advance`) pay it
    once per **step** across every model.

    Determinism contract: group ``g`` seeded with ``seeds_g`` leaves its
    chains bit-identical to a solo ``ChainBatch(instance_g,
    seeds=seeds_g)`` advanced the same ``count`` -- the fused step
    replicates each chain's exact solo draw pattern (same per-chain
    ``integers``/``random`` calls, same float product order thanks to
    all-ones padding), and kernels without a fused step fall back to
    advancing each group independently, which is solo execution by
    definition.  Same per-request seed contract as the serving coalescer.

    Parameters
    ----------
    requests:
        One entry per group: a ``(instance, seeds)`` pair, an
        ``(instance, seeds, initial)`` triple, or a ready
        :class:`ChainBatch`.
    engine:
        Must resolve to the compiled engine (as for :class:`ChainBatch`).
    """

    def __init__(self, requests: Sequence, engine: Optional[str] = None) -> None:
        groups: List[ChainBatch] = []
        for request in requests:
            if isinstance(request, ChainBatch):
                groups.append(request)
            else:
                instance, seeds, *rest = request
                initial = rest[0] if rest else None
                groups.append(
                    ChainBatch(instance, seeds=seeds, initial=initial, engine=engine)
                )
        if not groups:
            raise ValueError("a packed batch needs at least one group")
        self.groups = groups
        self._layout: Optional[_PackedLayout] = None

    # ------------------------------------------------------------------
    @property
    def n_groups(self) -> int:
        return len(self.groups)

    @property
    def total_chains(self) -> int:
        return sum(group.n_chains for group in self.groups)

    @property
    def n_max(self) -> int:
        return max(len(group.compiled.nodes) for group in self.groups)

    def pack_efficiency(self) -> float:
        """Used cells / padded cells of the ``(total_chains, n_max)`` matrix."""
        used = sum(
            group.n_chains * len(group.compiled.nodes) for group in self.groups
        )
        return used / float(self.total_chains * self.n_max)

    def fusable(self) -> bool:
        """Whether a single fused kernel step can cover every group.

        Requires one shared alphabet size (the padded gather tables merge
        along the node axis) and at least one free node per group (a group
        with nothing to resample draws nothing, which no uniform fused
        draw pattern can replicate).  Non-fusable packs still run -- group
        by group.
        """
        qs = {group.tables.q for group in self.groups}
        return len(qs) == 1 and all(
            len(group.free_index) > 0 for group in self.groups
        )

    def layout(self) -> _PackedLayout:
        """The cached fused layout (build on first use; requires fusable)."""
        if self._layout is None:
            self._layout = _PackedLayout(self.groups)
        return self._layout

    # ------------------------------------------------------------------
    def gather_codes(self) -> np.ndarray:
        """Assemble the padded ``(total_chains, n_max)`` code matrix.

        Padding cells (columns ``>= n_g`` of group ``g``'s rows) are zero;
        they are never read -- neighbour gathers are column-local -- and
        never written.
        """
        layout = self.layout()
        codes = np.zeros((layout.total_chains, layout.n_max), dtype=np.int64)
        for g, group in enumerate(self.groups):
            rows = slice(
                layout.row_offsets[g], layout.row_offsets[g] + group.n_chains
            )
            codes[rows, : group.codes.shape[1]] = group.codes
        return codes

    def scatter_codes(self, codes: np.ndarray) -> None:
        """Write the packed matrix back into each group's own code matrix."""
        layout = self.layout()
        for g, group in enumerate(self.groups):
            rows = slice(
                layout.row_offsets[g], layout.row_offsets[g] + group.n_chains
            )
            group.codes[...] = codes[rows, : group.codes.shape[1]]

    # ------------------------------------------------------------------
    def advance(self, kernel, count: int) -> "PackedBatch":
        """Advance every chain of every group by ``count`` units of ``kernel``.

        Dispatches to the kernel's
        :meth:`~repro.sampling.kernels.ChainKernel.packed_advance` -- the
        fused mask-aware step where the kernel defines one and the pack is
        fusable, the groupwise solo loop otherwise.  Either way each
        group's chains end bit-identical to its solo batch.
        """
        resolved: ChainKernel = resolve_kernel(kernel)
        for group in self.groups:
            group._claim_kind(resolved.name)
        handle = obs.active()
        if handle is None:
            resolved.packed_advance(self, count)
            return self
        with handle.span(
            "chains.packed_advance",
            kernel=resolved.name,
            groups=self.n_groups,
            chains=self.total_chains,
            count=count,
        ):
            started = time.perf_counter()
            resolved.packed_advance(self, count)
            elapsed = time.perf_counter() - started
        handle.metrics.histogram(
            "runtime.chains.pack_efficiency", _PACK_EFFICIENCY_BUCKETS
        ).observe(self.pack_efficiency())
        if elapsed > 0.0:
            handle.metrics.histogram(
                "runtime.chains.steps_per_second", _THROUGHPUT_BUCKETS
            ).observe(self.total_chains * count / elapsed)
        return self

    def configurations(self) -> List[List[Dict[Node, Value]]]:
        """Per-group lists of decoded chain states, in request order."""
        return [group.configurations() for group in self.groups]


class ChainState:
    """Resumable per-chain execution state across ``run_chains`` calls.

    Returned by :meth:`repro.runtime.executor.Runtime.run_chains` with
    ``return_state=True`` and accepted back via ``state=``: the final code
    matrix, the per-chain generators (with their buffered stream positions)
    and the kernel scratch all persist, so a later segment continues the
    *same* chains -- the resume path persistent contrastive divergence needs.

    Determinism contract: for a fixed segmentation, the serial and batched
    backends produce bit-identical chains (a one-chain batched advance
    replays the serial draw pattern exactly).  Splitting a run into
    *different* segments changes the RNG chunk boundaries, so
    ``advance(30); advance(30)`` is a valid chain but not bit-equal to a
    single ``advance(60)`` -- the same caveat the serial samplers document.

    The state may be resumed against a *reweighted* twin of its instance
    (same nodes/alphabet/free set, new factor weights): each segment
    retargets its batches when the instance's compiled engine has moved
    (see :meth:`ChainBatch.retarget`).
    """

    __slots__ = ("kernel_name", "batches", "layout", "units")

    def __init__(
        self, kernel_name: str, batches: List[ChainBatch], layout: str = "batched"
    ) -> None:
        self.kernel_name = kernel_name
        self.batches = batches
        #: ``"batched"`` (all chains in one batch) or ``"serial"`` (one
        #: single-chain batch per chain).
        self.layout = layout
        #: Total units (steps/rounds) advanced through this state so far.
        self.units = 0

    @property
    def n_chains(self) -> int:
        return sum(batch.n_chains for batch in self.batches)

    @property
    def seeds(self) -> List:
        """Per-chain seeds, in chain order."""
        return [seed for batch in self.batches for seed in batch.seeds]

    @property
    def codes(self) -> np.ndarray:
        """The current ``(chains, n)`` code matrix (a fresh copy)."""
        return np.concatenate([batch.codes for batch in self.batches], axis=0).copy()

    def advance(self, kernel, instance: SamplingInstance, count: int) -> List[Dict[Node, Value]]:
        """Advance every chain by ``count`` units against ``instance``.

        ``instance`` may be the original instance or a reweighted twin
        (batches are retargeted on the fly); the kernel must match the one
        that created the state.  Returns the per-chain final configurations.
        """
        resolved: ChainKernel = resolve_kernel(kernel)
        if resolved.name != self.kernel_name:
            raise ValueError(
                f"this ChainState ran {self.kernel_name!r} chains; "
                f"cannot resume it with kernel {resolved.name!r}"
            )
        compiled = instance.distribution.compiled_engine()
        for i, batch in enumerate(self.batches):
            if batch.compiled is not compiled:
                self.batches[i] = batch.retarget(instance)
        for batch in self.batches:
            batch.advance(resolved, count)
        self.units += count
        return self.configurations()

    def configurations(self) -> List[Dict[Node, Value]]:
        """The current state of every chain, in chain order."""
        states: List[Dict[Node, Value]] = []
        for batch in self.batches:
            states.extend(batch.configurations())
        return states

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ChainState(kernel={self.kernel_name!r}, chains={self.n_chains}, "
            f"batches={len(self.batches)}, units={self.units})"
        )


def make_chain_state(
    kernel,
    instance: SamplingInstance,
    seeds: Sequence,
    initial: Optional[Dict[Node, Value]] = None,
    initial_codes: Optional[np.ndarray] = None,
    layout: str = "batched",
    engine: Optional[str] = None,
) -> ChainState:
    """Build a fresh :class:`ChainState` without advancing any chain.

    Parameters
    ----------
    kernel : str or ChainKernel
        The dynamics the state will run (fixed for its lifetime).
    instance, seeds, initial, engine
        As for :class:`ChainBatch`; one chain per entry of ``seeds``.
    initial_codes : numpy.ndarray, optional
        A ``(chains, n)`` code matrix giving each chain its own start
        (e.g. data configurations for persistent CD).
    layout : str
        ``"batched"`` advances all chains as one code matrix;
        ``"serial"`` keeps one single-chain batch per chain (the serial
        backend's layout -- bit-identical to batched per chain for the
        same segmentation, kept for conformance testing).
    """
    resolved: ChainKernel = resolve_kernel(kernel)
    seeds = list(seeds)
    if layout == "batched":
        batches = [
            ChainBatch(
                instance,
                seeds=seeds,
                initial=initial,
                initial_codes=initial_codes,
                engine=engine,
            )
        ]
    elif layout == "serial":
        batches = [
            ChainBatch(
                instance,
                seeds=[chain_seed],
                initial=initial,
                initial_codes=(
                    None if initial_codes is None else initial_codes[chain : chain + 1]
                ),
                engine=engine,
            )
            for chain, chain_seed in enumerate(seeds)
        ]
    else:
        raise ValueError(f"unknown ChainState layout {layout!r}")
    return ChainState(resolved.name, batches, layout=layout)


def batched_kernel_sample(
    kernel,
    instance: SamplingInstance,
    count: int,
    n_chains: Optional[int] = None,
    seed: Seed = 0,
    seeds: Optional[Sequence] = None,
    initial: Optional[Dict[Node, Value]] = None,
    engine: Optional[str] = None,
) -> List[Dict[Node, Value]]:
    """Run a batch of chains of one kernel; return the per-chain final states.

    The single batched entry point behind
    :meth:`repro.runtime.executor.Runtime.run_chains` (and the cluster
    workers' chain blocks): entry ``c`` is bit-identical to
    ``kernel.serial_run(instance, count, seed=seeds[c], initial=initial)``.

    Parameters
    ----------
    kernel : str or ChainKernel
        The dynamics to advance.
    instance, count, n_chains, seed, seeds, initial, engine
        As for :class:`ChainBatch`; ``count`` is the per-chain unit count.

    Returns
    -------
    list of dict
        Final configurations, one per chain.
    """
    batch = ChainBatch(
        instance, n_chains=n_chains, seed=seed, seeds=seeds, initial=initial, engine=engine
    )
    batch.advance(kernel, count)
    return batch.configurations()

