"""Process-sharded execution of per-node LOCAL computations.

The paper's Theorem 5.1 inference algorithm is embarrassingly parallel
across nodes: each node compiles a ball around itself, greedily extends the
pinning onto the boundary shell, and eliminates the ball restriction.  This
module fans that per-node work out across OS processes:

* :class:`InstanceSpec` -- a picklable snapshot of a sampling instance
  (integer adjacency, dense factor arrays, pinning, locality).  The model
  factories build :class:`~repro.gibbs.factors.Factor` objects around
  closures, which do not pickle; the spec instead carries the
  already-materialised dense tables of the compiled engine, which is exactly
  the data the ball computations run on.
* :func:`stream_ball_marginal_tasks` / :func:`stream_padded_ball_marginals`
  / :func:`stream_compiled_balls` and :func:`run_chain_blocks` -- the
  *streaming* driver and the chain-block driver of both distributed
  backends: tasks are chunked onto a dispatcher's ``submit_task(kind,
  args) -> Future`` face -- a per-call :class:`PoolDispatcher` (the
  :class:`InstanceSpec` crosses the pipe exactly once per worker via the
  pool initializer) or a :class:`~repro.cluster.coordinator.ClusterCoordinator`
  -- and every chunk's results -- compiled balls, memoised boundary
  extensions and capped per-pinning marginal-memo deltas -- are merged
  into the parent's :class:`~repro.engine.cache.BallCache`
  (:meth:`~repro.engine.cache.BallCache.adopt`) and yielded the moment the
  chunk lands.  Consumers overlap parent-side work with in-flight shards,
  mirroring the barrier-free LOCAL model.
* :func:`process_map` / :func:`process_map_unordered` -- generic fork-based
  maps used by the :class:`~repro.runtime.executor.Runtime` facade for
  coarse-grained task parallelism.  The fork start method lets workers
  inherit the mapped function (and anything it closes over) without
  pickling; only items and results cross the pipe.

Worker computations replay the exact serial code paths on equal compiled
inputs, so sharded results are bit-identical to the serial ones and merging
them into the parent cache is transparent regardless of arrival order.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import Future, ProcessPoolExecutor, as_completed
from contextlib import contextmanager
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro import obs
from repro.engine.compiled import CompiledGibbs
from repro.gibbs.instance import SamplingInstance

Node = Hashable
Value = Hashable
BallKey = Tuple[Node, int]


class InstanceSpec:
    """A picklable snapshot of a sampling instance for process workers.

    Carries the compiled full instance (node order, alphabet, integer factor
    scopes, dense weight arrays), the integer adjacency structure, the
    pinning and the factor locality -- everything the per-node ball
    computations of E5/E8 read, and nothing that closes over Python
    callables.  Ball compilations are memoised so a worker's results can be
    shipped back wholesale and adopted by the parent cache.
    """

    __slots__ = (
        "nodes",
        "alphabet",
        "scopes",
        "arrays",
        "adjacency",
        "pinning",
        "locality",
        "_node_index",
        "_ball_memo",
        "_extras",
        "_instance",
    )

    def __init__(
        self,
        nodes: Sequence[Node],
        alphabet: Sequence[Value],
        scopes: Sequence[Tuple[int, ...]],
        arrays: Sequence[np.ndarray],
        adjacency: Sequence[Tuple[int, ...]],
        pinning: Dict[Node, Value],
        locality: int,
    ) -> None:
        self.nodes = tuple(nodes)
        self.alphabet = tuple(alphabet)
        self.scopes = tuple(tuple(scope) for scope in scopes)
        self.arrays = tuple(arrays)
        self.adjacency = tuple(tuple(neighbours) for neighbours in adjacency)
        self.pinning = dict(pinning)
        self.locality = int(locality)
        self._node_index: Optional[Dict[Node, int]] = None
        self._ball_memo: Dict[BallKey, CompiledGibbs] = {}
        self._extras: Dict = {}
        self._instance: Optional[SamplingInstance] = None

    # The reconstructed instance closes over Python callables (table-backed
    # factors), so it must never travel; derived indexes are rebuilt lazily.
    _UNPICKLED_SLOTS = ("_node_index", "_instance")

    def __getstate__(self):
        return {
            slot: getattr(self, slot)
            for slot in self.__slots__
            if slot not in self._UNPICKLED_SLOTS
        }

    def __setstate__(self, state) -> None:
        # The unpickled slots are absent from ``state``, so they start None.
        for slot in self.__slots__:
            setattr(self, slot, state.get(slot))

    @classmethod
    def from_instance(cls, instance: SamplingInstance) -> "InstanceSpec":
        """Snapshot an instance (dense tables come from the compiled engine).

        Parameters
        ----------
        instance : SamplingInstance
            The conditioned instance to snapshot.

        Returns
        -------
        InstanceSpec
            A picklable spec replaying the instance's ball computations.
        """
        distribution = instance.distribution
        compiled = distribution.compiled_engine()
        node_index = compiled.node_index
        adjacency = tuple(
            tuple(sorted(node_index[neighbour] for neighbour in distribution.graph.neighbors(node)))
            for node in compiled.nodes
        )
        return cls(
            nodes=compiled.nodes,
            alphabet=compiled.alphabet,
            scopes=compiled.scopes,
            arrays=compiled.arrays,
            adjacency=adjacency,
            pinning=instance.pinning.as_dict(),
            locality=distribution.locality(),
        )

    # ------------------------------------------------------------------
    @property
    def node_index(self) -> Dict[Node, int]:
        if self._node_index is None:
            self._node_index = {node: i for i, node in enumerate(self.nodes)}
        return self._node_index

    def ball_variables(self, center_variable: int, radius: int) -> frozenset:
        """Variable ids of ``B_radius(center)`` by BFS on the adjacency.

        Parameters
        ----------
        center_variable : int
            Integer id of the ball center.
        radius : int
            Ball radius in graph distance.

        Returns
        -------
        frozenset of int
            Ids of every variable within ``radius`` of the center.
        """
        seen = {center_variable}
        frontier = [center_variable]
        for _ in range(radius):
            if not frontier:
                break
            next_frontier: List[int] = []
            for variable in frontier:
                for neighbour in self.adjacency[variable]:
                    if neighbour not in seen:
                        seen.add(neighbour)
                        next_frontier.append(neighbour)
            frontier = next_frontier
        return frozenset(seen)

    def compile_ball(self, center: Node, radius: int) -> CompiledGibbs:
        """The compiled restriction to ``B_radius(center)`` (memoised).

        Node order (``repr``-sorted) and factor order (instance factor
        order) match :meth:`repro.engine.cache.BallCache.compiled_ball`
        exactly, so worker results merge transparently into the parent
        cache.
        """
        key = (center, radius)
        compiled = self._ball_memo.get(key)
        if compiled is None:
            variables = self.ball_variables(self.node_index[center], radius)
            labels = sorted((self.nodes[v] for v in variables), key=repr)
            label_index = {node: i for i, node in enumerate(labels)}
            scopes: List[Tuple[int, ...]] = []
            arrays: List[np.ndarray] = []
            for scope, array in zip(self.scopes, self.arrays):
                if all(variable in variables for variable in scope):
                    scopes.append(tuple(label_index[self.nodes[v]] for v in scope))
                    arrays.append(array)
            compiled = CompiledGibbs(labels, self.alphabet, scopes, arrays)
            self._ball_memo[key] = compiled
        return compiled

    def to_instance(self) -> SamplingInstance:
        """Reconstruct a fully functional :class:`SamplingInstance` (memoised).

        The inverse of :meth:`from_instance`, up to model metadata: the
        graph is rebuilt from the integer adjacency, each factor becomes a
        table-backed lookup into its dense weight array, and the compiled
        engine is installed *directly from the spec's arrays* -- so every
        compiled-engine computation on the reconstruction (batched chain
        matrices included) is bit-identical to the original instance.
        This is what lets a cluster worker run chain blocks from nothing
        but the shipped spec.
        """
        if self._instance is not None:
            return self._instance
        import networkx as nx

        from repro.gibbs.distribution import GibbsDistribution
        from repro.gibbs.factors import Factor

        graph = nx.Graph()
        graph.add_nodes_from(self.nodes)
        for variable, neighbours in enumerate(self.adjacency):
            for neighbour in neighbours:
                if neighbour > variable:
                    graph.add_edge(self.nodes[variable], self.nodes[neighbour])
        symbol_index = {value: code for code, value in enumerate(self.alphabet)}
        factors = []
        for scope, array in zip(self.scopes, self.arrays):
            scope_nodes = tuple(self.nodes[variable] for variable in scope)

            def lookup(*values, _array=array):
                return float(_array[tuple(symbol_index[value] for value in values)])

            factors.append(Factor(scope_nodes, lookup, name="spec-factor"))
        distribution = GibbsDistribution(
            graph, self.alphabet, factors, name="spec-reconstruction"
        )
        # Install the compiled engine straight from the shipped arrays: the
        # node order of `from_instance` is the distribution's deterministic
        # order, so this is exactly what `compiled_engine()` would rebuild,
        # without re-evaluating a single factor.
        distribution._compiled = CompiledGibbs(
            self.nodes, self.alphabet, self.scopes, self.arrays
        )
        self._instance = SamplingInstance(distribution, self.pinning)
        return self._instance

    # ------------------------------------------------------------------
    def padded_ball_marginal(self, center: Node, radius: int) -> Dict[Value, float]:
        """The Theorem 5.1 marginal at ``center`` for the given radius.

        Worker-side mirror of
        :func:`repro.inference.ssm_inference.padded_ball_marginal`: gather
        ``B_{radius + 2l}``, greedily extend the pinning over the shell
        between ``radius`` and ``radius + l`` (first feasible alphabet value
        per ``repr``-sorted shell node, exactly the reference rule), and
        return the exact conditional marginal of the padded ball.
        """
        locality = self.locality
        center_variable = self.node_index[center]
        context_ball = self.compile_ball(center, radius + 2 * locality)
        padded_variables = self.ball_variables(center_variable, radius + locality)
        inner_variables = self.ball_variables(center_variable, radius)
        padded_nodes = {self.nodes[v] for v in padded_variables}
        inner_nodes = {self.nodes[v] for v in inner_variables}
        shell = [
            node
            for node in padded_nodes
            if node not in inner_nodes and node not in self.pinning
        ]
        context_pinning = frozenset(
            (node, value)
            for node, value in self.pinning.items()
            if node in context_ball.node_index
        )
        extras_key = ("boundary-extension", center, radius, context_pinning)
        boundary = self._extras.get(extras_key)
        if boundary is None:
            boundary = self._greedy_boundary_extension(context_ball, shell)
            self._extras[extras_key] = boundary
        pinning = {
            node: value for node, value in self.pinning.items() if node in padded_nodes
        }
        pinning.update(boundary)
        if center in pinning:
            return {
                value: (1.0 if value == pinning[center] else 0.0)
                for value in self.alphabet
            }
        padded_ball = self.compile_ball(center, radius + locality)
        restricted = {
            node: value
            for node, value in pinning.items()
            if node in padded_ball.node_index
        }
        return padded_ball.marginal(center, restricted)

    def _greedy_boundary_extension(
        self, context_ball: CompiledGibbs, shell: Iterable[Node]
    ) -> Dict[Node, Value]:
        """Greedy locally-feasible extension on the compiled context ball.

        ``weights_partial`` only consults factors whose scope is fully
        assigned, which is precisely the reference rule (factors inside both
        the context and the assigned set).
        """
        codes = [-1] * len(context_ball.nodes)
        symbol_index = context_ball.symbol_index
        for node, value in self.pinning.items():
            variable = context_ball.node_index.get(node)
            if variable is not None:
                code = symbol_index.get(value)
                if code is not None:
                    codes[variable] = code
        conditionals = context_ball.conditionals
        boundary: Dict[Node, Value] = {}
        for node in sorted(shell, key=repr):
            variable = context_ball.node_index[node]
            if codes[variable] >= 0:
                continue
            weights = conditionals.weights_partial(variable, codes)
            chosen = next(
                (code for code, weight in enumerate(weights) if weight > 0.0), None
            )
            if chosen is None:
                raise RuntimeError(
                    "could not extend the pinning onto the boundary shell; "
                    "the distribution does not appear to be locally admissible"
                )
            codes[variable] = chosen
            boundary[node] = self.alphabet[chosen]
        return boundary


# ----------------------------------------------------------------------
# transport: how the spec (and chain-result matrices) cross the pipe
# ----------------------------------------------------------------------
#: Accepted values of the ``transport=`` knob threaded down from
#: :class:`~repro.runtime.executor.Runtime`.
TRANSPORTS = ("pickle", "shm")


class _ShmSpec:
    """Wire form of an :class:`InstanceSpec` with its arrays in shared memory.

    Pickles as the spec's light state (nodes, alphabet, scopes, adjacency,
    pinning, locality) plus one ``(name, dtype, shape, offset)`` descriptor
    per dense factor array; :meth:`restore` rebuilds the spec worker-side
    with zero-copy read-only views into the owner's segment.  The owner
    keeps the backing :class:`~repro.runtime.shm.SharedArrayPack` alive for
    the lifetime of the pool and unlinks it afterwards.
    """

    __slots__ = ("state", "descriptors")

    def __init__(self, state: Dict, descriptors: Tuple) -> None:
        self.state = state
        self.descriptors = descriptors

    def __getstate__(self):
        return (self.state, self.descriptors)

    def __setstate__(self, wire) -> None:
        self.state, self.descriptors = wire

    def restore(self) -> InstanceSpec:
        from repro.runtime import shm

        spec = InstanceSpec.__new__(InstanceSpec)
        spec.__setstate__(self.state)
        spec.arrays = tuple(
            shm.attach_array(descriptor) for descriptor in self.descriptors
        )
        return spec


def _spec_wire(spec: InstanceSpec, transport: str):
    """The pool-initializer payload for ``spec`` under ``transport``.

    Returns ``(payload, pack)``: with ``transport="shm"`` (and shared memory
    actually available) the payload is a :class:`_ShmSpec` whose dense
    arrays live in ``pack``; otherwise the spec itself travels by pickle and
    ``pack`` is None.  The caller owns ``pack`` and must release it once the
    pool is done.
    """
    if transport == "shm":
        from repro.runtime import shm

        pack = shm.pack_arrays(spec.arrays, label="instance-spec")
        if pack is not None:
            state = spec.__getstate__()
            state.pop("arrays")
            # Workers rebuild ball memos locally; never ship the parent's.
            state["_ball_memo"] = {}
            state["_extras"] = {}
            return _ShmSpec(state, pack.descriptors), pack
    return spec, None


# ----------------------------------------------------------------------
# task bodies (must be importable at module top level)
# ----------------------------------------------------------------------
#: The spec installed once per worker process by the pool initializer, so a
#: worker that serves many chunks deserialises the instance exactly once and
#: keeps its ball memo warm across chunks.
_WORKER_SPEC: Optional[InstanceSpec] = None

#: The task registry: every spec-bound task body that a distributed backend
#: can execute, by kind.  One body per kind, shared by *all* backends: pool
#: workers run them through :func:`_run_pool_task`, the cluster worker looks
#: them up by the kind carried in the ``TASK`` frame, and the in-process
#: fallbacks call them with an explicit spec -- so a result is bit-identical
#: no matter where it ran.  Bodies take ``(args, spec)`` where ``args`` is
#: the picklable task payload and ``spec`` the connection/pool-level
#: :class:`InstanceSpec`.
TASK_REGISTRY: Dict[str, Callable] = {}


def register_task(kind: str) -> Callable:
    """Decorator: register a ``(args, spec) -> result`` task body by kind."""

    def decorate(body: Callable) -> Callable:
        TASK_REGISTRY[kind] = body
        return body

    return decorate

#: Default cap on the per-ball marginal-memo delta a worker ships back.
MEMO_DELTA_CAP = 64


def _install_worker_spec(spec: InstanceSpec, obs_ctx=None) -> None:
    """Pool initializer: pin the shared :class:`InstanceSpec` in this worker.

    ``spec`` is either the pickled :class:`InstanceSpec` itself or -- under
    ``transport="shm"`` -- a :class:`_ShmSpec` of descriptors, restored here
    into a spec whose dense arrays are zero-copy views of the owner's
    shared-memory segment.

    ``obs_ctx`` is the parent's trace context as a versioned wire dict
    (``None`` when tracing is off): when present, the worker process arms
    a recorder continuing the parent's trace, so spans recorded by task
    bodies stitch into the parent timeline (shipped back by
    :func:`_run_pool_task`).  Unknown/foreign contexts are ignored.
    """
    global _WORKER_SPEC
    if isinstance(spec, _ShmSpec):
        spec = spec.restore()
    _WORKER_SPEC = spec
    if obs_ctx is not None:
        obs.arm_remote(obs_ctx, proc="pool-worker")


def _run_pool_task(kind: str, args: Dict):
    """Pool-worker entry point: the registered body of ``kind`` on the installed spec.

    The pool's counterpart of a cluster worker's ``RESULT`` frame: returns
    ``(result, events)``, where ``events`` are the trace events recorded
    while the task ran -- drained per task, so each ships exactly once, and
    empty unless the initializer armed a trace context.
    """
    with obs.span("shards.task", kind=kind):
        result = TASK_REGISTRY[kind](args, spec=_WORKER_SPEC)
    return result, obs.drain_events()


@register_task("ball_marginals")
def _ball_marginals_task(args: Dict, spec: InstanceSpec):
    """Registered body: Theorem 5.1 marginals for one chunk of ball tasks.

    ``args`` carries ``{"tasks", "memo_cap"}``; returns ``(marginals, balls,
    extras, memos)``.  Only the artefacts of *this* chunk are shipped: the
    padded balls the parent's serial replay queries
    (``compiled_ball(center, radius + locality)``; the context balls the
    greedy extension used stay worker-local), the chunk's boundary
    extensions, and a ``memo_cap``-capped export of each shipped ball's
    per-pinning marginal memo.  A pool worker's spec persists across
    chunks, so nothing already shipped by an earlier chunk is resent.
    """
    tasks = args["tasks"]
    marginals = {key: spec.padded_ball_marginal(*key) for key in tasks}
    wanted = {(center, radius + spec.locality) for center, radius in tasks}
    balls = {key: ball for key, ball in spec._ball_memo.items() if key in wanted}
    memos = {
        key: memo
        for key, ball in balls.items()
        if (memo := ball.export_marginal_memo(cap=args["memo_cap"]))
    }
    chunk_keys = {(center, radius) for center, radius in tasks}
    extras = {
        key: value
        for key, value in spec._extras.items()
        if (key[1], key[2]) in chunk_keys
    }
    return marginals, balls, extras, memos


@register_task("compile_balls")
def _compile_balls_task(args: Dict, spec: InstanceSpec):
    """Registered body: compile one chunk of ``(center, radius)`` balls."""
    return {key: spec.compile_ball(*key) for key in args["tasks"]}


@register_task("chain_block")
def _chain_block_task(args: Dict, spec: InstanceSpec):
    """Registered body: advance one block of chains of one kernel.

    ``args`` carries ``{"kernel", "count", "seeds", "initial"}`` (plus the
    transport-level ``spec_id``); the block runs as a batched code matrix
    on the instance reconstructed from the spec
    (:meth:`InstanceSpec.to_instance`), so entry ``c`` of the result is
    bit-identical to the kernel's serial chain run with ``seed=seeds[c]``
    -- the contract that makes chain blocks freely movable between the
    process pool, cluster workers and the in-process fallback.

    An optional ``"stats": True`` flag switches the return value to
    ``(configurations, counts)`` where ``counts[c]`` is chain ``c``'s
    accumulated failure count (gated kernels report rejected proposals via
    :meth:`~repro.sampling.kernels.ScanKernel.failure_counts`; ungated
    kernels report zeros).  This is how JVV rejection statistics (the E4
    rejection-law rows, E12's jvv-kernel row) ride the existing block wire
    format across the process and cluster backends.

    An optional ``"out": (descriptor, row_offset)`` entry -- set by the
    parent under ``transport="shm"`` -- switches the result channel: the
    block's final ``(chains, n)`` code matrix is written straight into the
    parent-owned shared segment at ``row_offset`` (no pickling of result
    configurations), and the return value shrinks to ``None`` (or
    ``(None, counts)`` with stats).  The codes written are exactly
    ``ChainBatch.codes``, so the parent's decode replays
    :meth:`~repro.runtime.chains.ChainBatch.configurations` bit for bit.
    """
    from repro.runtime.chains import ChainBatch, batched_kernel_sample
    from repro.sampling.kernels import get_kernel

    kernel = get_kernel(args["kernel"])
    out = args.get("out")
    if out is None and not args.get("stats"):
        return batched_kernel_sample(
            kernel,
            spec.to_instance(),
            args["count"],
            seeds=args["seeds"],
            initial=args.get("initial"),
        )
    batch = ChainBatch(
        spec.to_instance(), seeds=args["seeds"], initial=args.get("initial")
    )
    batch.advance(kernel, args["count"])
    counts: Optional[List[int]] = None
    if args.get("stats"):
        counter = getattr(kernel, "failure_counts", None)
        counts = (
            counter(batch).tolist()
            if counter is not None
            else [0] * batch.n_chains
        )
    if out is not None:
        from repro.runtime import shm

        descriptor, row_offset = out
        matrix = shm.attach_array(descriptor, writable=True)
        matrix[row_offset : row_offset + batch.n_chains] = batch.codes
        return None if counts is None else (None, counts)
    return batch.configurations(), counts


# ----------------------------------------------------------------------
# dispatch: one call's fan-out over a process pool or a cluster
# ----------------------------------------------------------------------
def _chunk_count(n_workers: int) -> int:
    """The default number of chunks one call splits its tasks into.

    Scales with the fleet but caps the chunk COUNT: four chunks per worker
    would shrink chunks linearly with the worker count, and over TCP the
    fixed per-chunk dispatch cost (frame + payload round trip) then
    dominates -- the measured 4-worker regression in BENCH_runtime.json.
    A few chunks per worker is plenty of load-balancing slack; beyond ~2x
    the fleet (floor 8, so small fleets keep four chunks per worker) more
    chunks only buy more round trips.
    """
    return min(4 * n_workers, max(2 * n_workers, 8))


def _chunk_tasks(
    tasks: Sequence, n_workers: int, chunk_size: Optional[int] = None
) -> List[List]:
    """Split tasks into contiguous chunks sized for streaming.

    The default aims at :func:`_chunk_count` chunks -- small enough that
    the first result lands early and stragglers stay balanced, large
    enough to amortise the per-chunk submit/pickle round trip.
    """
    tasks = list(tasks)
    if not tasks:
        return []
    if chunk_size is None:
        chunk_size = -(-len(tasks) // _chunk_count(max(1, n_workers)))
    if chunk_size < 1:
        raise ValueError("chunk_size must be at least 1")
    return [tasks[i : i + chunk_size] for i in range(0, len(tasks), chunk_size)]


class _TaskFuture(Future):
    """A pool future resolving to a task's result, its trace events absorbed.

    Wraps the future of one :func:`_run_pool_task` call: when that lands,
    the worker's events merge into the parent tracer and this future
    resolves to the bare result -- the shape a cluster task future has.
    Cancelling it cancels the pool's future too.
    """

    def __init__(self, inner: Future) -> None:
        super().__init__()
        self._inner = inner
        inner.add_done_callback(self._settle)

    def cancel(self) -> bool:
        self._inner.cancel()
        return super().cancel()

    def _settle(self, inner: Future) -> None:
        if not self.set_running_or_notify_cancel():
            return  # the consumer cancelled the task; drop the result
        try:
            result, events = inner.result()
        except BaseException as error:
            # A failed or cancelled task -- or a worker-side SystemExit,
            # which the pool also ships back: this future must resolve
            # either way, or a stream waiting on it never ends.
            self.set_exception(error)
        else:
            obs.absorb_events(events)
            self.set_result(result)


class PoolDispatcher:
    """One call's process pool behind the cluster coordinator's dispatch face.

    The drivers below drive this pool and a
    :class:`~repro.cluster.coordinator.ClusterCoordinator` through the same
    members: ``live_worker_count``, ``submit_task`` and ``discard``.  A
    task runs the registered body of ``kind`` on a pool worker against the
    spec the initializer installed once per worker (as shared-memory
    descriptors under ``transport="shm"``), so ``submit_task``'s ``spec``
    is accepted for parity and ignored.  When the parent is tracing, its
    context rides the initializer.  :meth:`close` shuts the pool down and
    unlinks the spec's segment.
    """

    def __init__(
        self, spec: InstanceSpec, n_workers: int, transport: str = "pickle"
    ) -> None:
        self.live_worker_count = n_workers
        wire_spec, self._pack = _spec_wire(spec, transport)
        try:
            self._pool = ProcessPoolExecutor(
                max_workers=n_workers,
                initializer=_install_worker_spec,
                initargs=(wire_spec, obs.wire_context()),
            )
        except BaseException:
            self.close()
            raise

    def submit_task(self, kind: str, args: Dict, spec=None) -> Future:
        """Schedule one registered task on the pool; resolves to its result."""
        return _TaskFuture(self._pool.submit(_run_pool_task, kind, args))

    @staticmethod
    def discard(futures: Iterable[Future]) -> None:
        """Cancel every still-pending future (running ones finish unread)."""
        for future in futures:
            future.cancel()

    def close(self) -> None:
        pool = getattr(self, "_pool", None)
        try:
            if pool is not None:
                pool.shutdown()
        finally:
            if self._pack is not None:
                self._pack.release()


@contextmanager
def _dispatch(instance: SamplingInstance, dispatcher, n_workers: int, transport: str):
    """``(dispatcher, spec)`` for one distributed call.

    A given dispatcher (a cluster coordinator) is used as is, with its
    memoised ``(spec_id, spec)`` snapshot of the instance
    (:meth:`~repro.cluster.coordinator.ClusterCoordinator.spec_for`);
    ``None`` makes a :class:`PoolDispatcher` of ``n_workers`` processes
    that lives exactly as long as the call.
    """
    if dispatcher is not None:
        yield dispatcher, dispatcher.spec_for(instance)
        return
    spec = InstanceSpec.from_instance(instance)
    pool = PoolDispatcher(spec, n_workers, transport)
    try:
        yield pool, (0, spec)
    finally:
        pool.close()


# ----------------------------------------------------------------------
# the drivers, shared by the process and cluster backends
# ----------------------------------------------------------------------
def _stream_tasks(
    instance, kind, tasks, args, adopt, n_workers, chunk_size, transport, dispatcher
):
    """The streaming driver: chunk ``tasks``, fan them out, adopt as they land.

    Each chunk runs as one ``kind`` task (``args`` plus the chunk's
    ``"tasks"``); each landed payload goes through ``adopt(cache,
    payload)`` into the instance's ball cache, and the items that returns
    are yielded.  With no dispatcher and one worker or one chunk, the
    registered body runs in-process, lazily, chunk by chunk.  The failure
    and cancellation contract is :func:`stream_ball_marginal_tasks`'s.
    """
    if not tasks:
        return
    cache = instance.distribution.ball_cache()
    if dispatcher is not None:
        n_workers = max(1, dispatcher.live_worker_count)
    chunks = _chunk_tasks(tasks, n_workers, chunk_size)
    if dispatcher is None and min(n_workers, len(chunks)) <= 1:
        spec = InstanceSpec.from_instance(instance)
        for chunk in chunks:
            try:
                with obs.span(
                    "shards.task", kind=kind, tasks=len(chunk), mode="inprocess"
                ):
                    payload = TASK_REGISTRY[kind](dict(args, tasks=chunk), spec=spec)
            except Exception as error:
                raise RuntimeError(
                    f"ball shard failed on chunk {chunk!r}: {error}"
                ) from error
            yield from adopt(cache, payload)
        return
    handle = obs.active()
    pending = (
        handle.metrics.gauge("runtime.shards.pending") if handle is not None else None
    )
    width = min(n_workers, len(chunks))
    with _dispatch(instance, dispatcher, width, transport) as (dispatch, spec):
        futures: Dict[Future, List] = {}
        try:
            for chunk in chunks:
                chunk_args = dict(args, spec_id=spec[0], tasks=chunk)
                futures[dispatch.submit_task(kind, chunk_args, spec=spec)] = chunk
            if pending is not None:
                pending.set(len(futures))
            for future in as_completed(futures):
                try:
                    payload = future.result()
                except Exception as error:
                    raise RuntimeError(
                        f"ball shard failed on chunk {futures[future]!r}: {error}"
                    ) from error
                if pending is not None:
                    handle.metrics.counter("runtime.shards.chunks").inc()
                    pending.add(-1)
                yield from adopt(cache, payload)
        finally:
            dispatch.discard(futures)


def run_chain_blocks(
    instance: SamplingInstance,
    kernel_name: str,
    count: int,
    seeds: Sequence,
    initial=None,
    n_workers: int = 2,
    stats: bool = False,
    transport: str = "pickle",
    dispatcher=None,
) -> List[Dict[Node, Value]]:
    """Run independent chains as batched blocks: the chain-block driver.

    The distributed leg of the unified chain path
    (:meth:`repro.runtime.executor.Runtime.run_chains`), shared by both
    backends: the seed list is split into one contiguous block per worker,
    each block executes the registered ``chain_block`` task body on a
    worker, and the per-block results concatenate back in seed order.
    ``dispatcher`` is a cluster coordinator (one block per live worker,
    the spec shipped once per connection) or ``None`` for a per-call pool
    of ``n_workers`` processes; with one block or one worker the body
    runs in-process -- same body, same results.

    ``transport="shm"`` (process pool only) moves the two bulk payloads
    out of pickle: the spec's dense factor arrays ship as shared-memory
    descriptors (:class:`_ShmSpec`) and each block writes its final code
    matrix into one parent-owned ``(len(seeds), n)`` shared segment,
    decoded here with the exact
    :meth:`~repro.runtime.chains.ChainBatch.configurations` rule --
    results are bit-identical to the pickle transport.  When shared memory
    is unavailable the call silently degrades to pickle; the parent
    unlinks both segments before returning.

    Returns
    -------
    list of dict
        Final configurations, one per seed, bit-identical to the kernel's
        serial chains.  With ``stats=True``: ``(configurations, counts)``,
        where ``counts`` are the per-chain failure counts of gated kernels
        (zeros for ungated ones).

    Raises
    ------
    ValueError
        For an unknown kernel name, before anything is dispatched.
    """
    from repro.sampling.kernels import get_kernel

    get_kernel(kernel_name)  # fail fast on unknown kernels, caller-side
    seeds = list(seeds)
    if not seeds:
        return ([], []) if stats else []
    if dispatcher is not None:
        n_workers = max(1, dispatcher.live_worker_count)
    blocks = _chunk_tasks(seeds, 1, chunk_size=-(-len(seeds) // max(1, n_workers)))
    args = {
        "kernel": kernel_name,
        "count": count,
        "initial": dict(initial) if initial is not None else None,
    }
    if stats:
        args["stats"] = True
    results: List[Dict[Node, Value]] = []
    counts: List[int] = []

    def merge(block_result) -> None:
        if stats:
            block_result, block_counts = block_result
            counts.extend(block_counts)
        if block_result is not None:
            results.extend(block_result)

    if dispatcher is None and min(n_workers, len(blocks)) <= 1:
        spec = InstanceSpec.from_instance(instance)
        for block in blocks:
            with obs.span(
                "shards.chain_block", kernel=kernel_name, chains=len(block),
                mode="inprocess",
            ):
                merge(_chain_block_task(dict(args, seeds=block), spec=spec))
        return (results, counts) if stats else results
    out_pack = None
    try:
        width = min(n_workers, len(blocks))
        with _dispatch(instance, dispatcher, width, transport) as (dispatch, spec):
            if dispatcher is None and transport == "shm":
                from repro.runtime import shm

                # None (pickled results) where shared memory is unavailable.
                out_pack = shm.pack_arrays(
                    [np.zeros((len(seeds), len(spec[1].nodes)), dtype=np.int64)],
                    label="chain-codes",
                )
            futures: List[Future] = []
            try:
                offset = 0
                for block in blocks:
                    block_args = dict(args, spec_id=spec[0], seeds=block)
                    if out_pack is not None:
                        block_args["out"] = (out_pack.descriptors[0], offset)
                    offset += len(block)
                    futures.append(
                        dispatch.submit_task("chain_block", block_args, spec=spec)
                    )
                for future in futures:  # block order == seed order
                    merge(future.result())
            finally:
                dispatch.discard(futures)
        if out_pack is not None:
            # Decode the shared code matrix with the exact
            # ChainBatch.configurations() rule (spec.nodes/alphabet are the
            # compiled engine's, so this is bit-identical to pickled results).
            alphabet, nodes = spec[1].alphabet, spec[1].nodes
            results = [
                {node: alphabet[code] for node, code in zip(nodes, row)}
                for row in out_pack.view(0).tolist()
            ]
        return (results, counts) if stats else results
    finally:
        if out_pack is not None:
            out_pack.release()


# ----------------------------------------------------------------------
# parent-side streaming API
# ----------------------------------------------------------------------
def _adopt_ball_marginals(cache, payload):
    marginals, balls, extras, memos = payload
    cache.adopt(balls=balls, extras=extras, memos=memos)
    return marginals.items()


def _adopt_compiled_balls(cache, compiled):
    cache.adopt(balls=compiled)
    return compiled.items()


def stream_ball_marginal_tasks(
    instance: SamplingInstance,
    tasks: Sequence[BallKey],
    n_workers: int = 2,
    chunk_size: Optional[int] = None,
    memo_cap: Optional[int] = MEMO_DELTA_CAP,
    transport: str = "pickle",
    dispatcher=None,
) -> Iterator[Tuple[BallKey, Dict[Value, float]]]:
    """Stream Theorem 5.1 marginals for heterogeneous ``(center, radius)`` tasks.

    The barrier-free core of both distributed backends: tasks are chunked,
    the chunks run on a per-call ``ProcessPoolExecutor`` (the picklable
    :class:`InstanceSpec` is shipped once per worker via the pool
    initializer) or -- with ``dispatcher`` -- on a cluster coordinator's
    workers, and each chunk's results are yielded -- and merged into the
    parent's :class:`~repro.engine.cache.BallCache` via
    :meth:`~repro.engine.cache.BallCache.adopt` -- the moment the chunk
    completes, in *completion* order.  The parent can therefore consume
    radius-``r`` results while radius-``r + 1`` balls are still compiling in
    the workers, which is exactly the overlap of the paper's barrier-free
    LOCAL model.

    Parameters
    ----------
    instance : SamplingInstance
        The instance whose distribution owns the target ball cache.
    tasks : sequence of (node, int)
        ``(center, radius)`` pairs; radii may differ between tasks.
    n_workers : int
        Process-pool width; with one worker (or one chunk) the stream runs
        in-process with no pool, bit-identically.
    chunk_size : int, optional
        Tasks per submitted chunk (default: :func:`_chunk_count` chunks).
    memo_cap : int, optional
        Per-ball cap on the marginal-memo delta shipped back (``None``
        ships every entry, ``0`` disables memo deltas).
    transport : str
        ``"pickle"`` (default) ships the spec by value; ``"shm"`` ships its
        dense arrays as shared-memory descriptors (pickle fallback when
        unavailable).
    dispatcher : ClusterCoordinator, optional
        Run the chunks on this coordinator's workers instead of a pool
        (``n_workers`` and ``transport`` then do not apply).

    Yields
    ------
    ((node, int), dict)
        ``((center, radius), marginal)`` pairs in completion order.

    Raises
    ------
    RuntimeError
        When a chunk fails, naming the chunk and chaining the cause;
        remaining chunks are cancelled.  Abandoning the generator early
        (``close()``) likewise cancels everything still pending.
    """
    yield from _stream_tasks(
        instance, "ball_marginals", list(tasks), {"memo_cap": memo_cap},
        _adopt_ball_marginals, n_workers, chunk_size, transport, dispatcher,
    )


def stream_padded_ball_marginals(
    instance: SamplingInstance,
    centers: Sequence[Node],
    radius: int,
    n_workers: int = 2,
    chunk_size: Optional[int] = None,
    memo_cap: Optional[int] = MEMO_DELTA_CAP,
    transport: str = "pickle",
    dispatcher=None,
) -> Iterator[Tuple[Node, Dict[Value, float]]]:
    """Stream Theorem 5.1 marginals at many centers of one radius.

    A single-radius convenience wrapper over
    :func:`stream_ball_marginal_tasks` yielding ``(center, marginal)`` pairs
    in completion order; each shard's compiled balls, boundary extensions
    and capped marginal-memo deltas are adopted into the parent cache as the
    shard arrives.  Per-ball results are bit-identical to the serial
    :func:`repro.inference.ssm_inference.padded_ball_marginal` loop.
    """
    for (center, _), marginal in stream_ball_marginal_tasks(
        instance,
        [(center, radius) for center in centers],
        n_workers=n_workers,
        chunk_size=chunk_size,
        memo_cap=memo_cap,
        transport=transport,
        dispatcher=dispatcher,
    ):
        yield center, marginal


def stream_compiled_balls(
    instance: SamplingInstance,
    tasks: Sequence[BallKey],
    n_workers: int = 2,
    chunk_size: Optional[int] = None,
    transport: str = "pickle",
    dispatcher=None,
) -> Iterator[Tuple[BallKey, CompiledGibbs]]:
    """Stream ``(center, radius)`` ball compilations from the workers.

    Duplicate tasks are dropped; each chunk of compiled balls is adopted
    into the distribution's :class:`~repro.engine.cache.BallCache` and
    yielded the moment it completes, so the parent can start querying early
    balls while later ones are still compiling.  ``dispatcher`` as for
    :func:`stream_ball_marginal_tasks`.
    """
    yield from _stream_tasks(
        instance, "compile_balls", list(dict.fromkeys(tasks)), {},
        _adopt_compiled_balls, n_workers, chunk_size, transport, dispatcher,
    )


# ----------------------------------------------------------------------
# generic fork-based map
# ----------------------------------------------------------------------
_FORK_TASK: Optional[Callable] = None


def _invoke_fork_task(item):
    return _FORK_TASK(item)


def _invoke_fork_task_indexed(pair):
    index, item = pair
    return index, _FORK_TASK(item)


def process_map(
    function: Callable,
    items: Iterable,
    n_workers: int = 2,
    fallback_serial: bool = True,
) -> List:
    """Map ``function`` over ``items`` in a pool of forked processes.

    The fork start method lets workers inherit ``function`` -- including
    closures over unpicklable model objects -- from the parent's address
    space; only the items and results round-trip through pickle.  On
    platforms without fork (or with a single item) the map degrades to a
    serial loop when ``fallback_serial`` is set.

    Parameters
    ----------
    function : callable
        Applied to every item; inherited by forked workers.
    items : iterable
        Work items; each item and its result must pickle.
    n_workers : int
        Size of the forked pool.
    fallback_serial : bool
        Whether to degrade to a serial loop without fork support.

    Returns
    -------
    list
        ``[function(item) for item in items]``, in item order.
    """
    items = list(items)
    if not items:
        return []
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:
        context = None
    if context is None or len(items) == 1:
        if context is None and not fallback_serial:
            raise RuntimeError("process_map requires the fork start method")
        return [function(item) for item in items]
    global _FORK_TASK
    previous = _FORK_TASK
    _FORK_TASK = function
    try:
        with context.Pool(processes=max(1, n_workers)) as pool:
            return pool.map(_invoke_fork_task, items)
    finally:
        _FORK_TASK = previous


def process_map_unordered(
    function: Callable,
    items: Iterable,
    n_workers: int = 2,
) -> Iterator[Tuple[int, object]]:
    """Map ``function`` over ``items``, yielding results as they complete.

    The streaming sibling of :func:`process_map`: results are yielded as
    ``(index, result)`` pairs in *completion* order -- ``index`` is the
    item's position in ``items``, so callers can reassociate out-of-order
    results.  Like :func:`process_map`, the fork start method lets workers
    inherit ``function`` (closures included) without pickling; on platforms
    without fork, or with a single item, the map degrades to a lazy serial
    loop yielding in order.

    Parameters
    ----------
    function : callable
        Applied to every item; inherited by forked workers.
    items : iterable
        Work items; each item and its result must pickle.
    n_workers : int
        Size of the forked pool.

    Yields
    ------
    (int, object)
        ``(index, function(items[index]))`` in completion order.
    """
    items = list(items)
    if not items:
        return
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:
        context = None
    if context is None or len(items) == 1:
        for index, item in enumerate(items):
            yield index, function(item)
        return
    global _FORK_TASK
    _FORK_TASK = function
    try:
        # The pool forks here, snapshotting the function global; clearing it
        # in the finally block cannot affect the already-forked workers.
        with context.Pool(processes=max(1, n_workers)) as pool:
            yield from pool.imap_unordered(_invoke_fork_task_indexed, enumerate(items))
    finally:
        # Reset to None rather than a saved "previous" value: interleaved
        # generators would otherwise reinstall each other's functions on
        # exit, pinning a stale closure (and its captured model) for the
        # life of the process.
        if _FORK_TASK is function:
            _FORK_TASK = None
