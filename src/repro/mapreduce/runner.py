"""Job execution engine.

:func:`run_job` executes one configured job against a file system.  Three
executors are available:

* ``"serial"`` — deterministic single-threaded execution (default; what
  tests and benchmarks use — parallelism is *simulated* by the cost model,
  which is how the paper's cluster numbers are reproduced in shape).
* ``"threads"`` — map AND reduce tasks run on a thread pool.  Useful for
  smoke-testing that task code is self-contained; CPython's GIL means
  this is about realism of the execution model, not speed.
* ``"processes"`` — map AND reduce tasks run on a shared
  :class:`~concurrent.futures.ProcessPoolExecutor` for true multi-core
  execution.  Tasks (records, mapper/combiner/reducer instances) travel
  in chunks, each chunk pre-pickled into one byte envelope; the worker
  decodes it, runs its tasks and encodes their outputs plus counters
  and wall-clock durations with the cyclic collector paused, and the
  parent merges counters in task-submission order — so totals, outputs
  and recorded span sets are bit-identical to ``serial`` (pinned by the
  executor parity tests).  Worker-side object mutations (e.g. a
  stateful mapper) are *not* shipped back.

The executor may also be selected via the ``REPRO_EXECUTOR`` environment
variable (an explicit ``executor=`` argument wins), and the worker count
via ``REPRO_WORKERS`` — this is how CI runs the whole suite under the
``processes`` backend.  Orthogonally, ``REPRO_DATA_PLANE=columnar`` (or
``data_plane="columnar"``) moves protocol-aware jobs onto the columnar
data plane — struct-of-arrays batches, an argsort shuffle and
shared-memory reduce transport under ``processes`` — with bit-identical
outputs and counters (see ``docs/data_plane.md``).

Execution follows Hadoop's lifecycle: per-input map tasks (setup, map each
record, cleanup), optional per-map-task combiner, sort-shuffle, reduce
tasks (setup, reduce each key group in key order, cleanup), each reduce
task writing one ``part-*`` file under the job's output path.

Every map and reduce task, on every executor and plane, runs through one
engine: a worker-safe task body (:func:`_run_attempt`) dispatched in
*waves* through one :class:`Backend`, and one seam (``_Engine._settle``)
where each attempt ends.  Wave *k* runs attempt *k* of every task still
pending; a fault-free run is a single wave with an empty fault plan.

When an :class:`~repro.obs.TraceRecorder` observer is passed, every job,
phase (map / shuffle / reduce) and task is recorded as a span carrying
counter deltas and — when a cost model is supplied — its modelled-seconds
charge.  An in-process task's span is opened live on the thread that runs
it (parented explicitly under the phase span); the ``processes``
executor ships ``(output, counters, duration)`` records back and the
parent materialises the spans via
:meth:`~repro.obs.TraceRecorder.record_completed`.  Observation is
passive: with ``observer=None`` the execution path, results and counters
are identical to an unobserved run.

Fault tolerance (:mod:`repro.faults`) mirrors Hadoop's task-attempt
semantics.  A failed attempt — injected crash, corrupt output detected at
commit, a timeout, or a genuine task exception — is retried in the next
wave after exponential backoff (charged as virtual time on the winner's
span under ``serial``; one real, capped sleep per wave under the
parallel executors), its counters discarded so job totals stay
bit-identical to a fault-free run.  Only winning reduce attempts are
committed as ``part-*`` files through the file system's
``_temporary``/promote protocol; an attempt failing at its commit point
stages its output and discards it.  Speculative backups of plan-delayed
or watchdog-stalled winners run as one more wave after the phase drains
— the committed result is the first attempt to finish, so the backup is
discarded before commit and counted as ``faults:speculative_wasted``.
Failed and speculative attempts are recorded as ``kind="attempt"`` spans
with ``attempt=`` metadata.

Every job, on every executor and plane, runs with the interpreter's
automatic cyclic-GC passes paused (:func:`_collector_paused`): the
engine's data path is acyclic, so those passes only re-scan live rows,
pairs and output tuples.  The collector's previous state comes back when
the last concurrent job ends.
"""

from __future__ import annotations

import copy
import functools
import gc
import math
import os
import pickle
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
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

from repro.columnar.batch import (
    ColumnarPairs,
    PayloadStore,
    job_columnar_gate,
)
from repro.columnar.codec import KEY_CODECS
from repro.columnar.plane import resolve_data_plane
from repro.columnar.shm import pack_reduce_task, unpack_reduce_task
from repro.errors import (
    FaultInjectedError,
    MapReduceError,
    TaskTimeoutError,
    WorkerPoolError,
)
from repro.faults import (
    CORRUPT,
    FAULTS_GROUP,
    AttemptInjector,
    ResolvedFaults,
    resolve_faults,
)
from repro.mapreduce.counters import Counters
from repro.mapreduce.fs import FileSystem
from repro.mapreduce.job import JobConf, JobResult
from repro.mapreduce.shuffle import columnar_shuffle, partition_stats, shuffle
from repro.mapreduce.task import MapContext, Mapper, ReduceContext, Reducer
from repro.obs.metrics import GROUP_FAULTS, GROUP_LIVE, LOAD_BUCKETS
from repro.obs.profile import run_profiled_task

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mapreduce.cost import CostModel
    from repro.obs.profile import Profiler
    from repro.obs.recorder import TraceRecorder
    from repro.obs.span import Span


def _profiler_of(observer: Optional["TraceRecorder"]) -> Optional["Profiler"]:
    """The attached data-plane profiler, if any."""
    return getattr(observer, "profiler", None) if observer is not None else None


def _live_of(observer: Optional["TraceRecorder"]) -> Optional[Any]:
    """The attached live telemetry hub, if any."""
    return getattr(observer, "live", None) if observer is not None else None


__all__ = [
    "run_job",
    "EXECUTORS",
    "resolve_executor",
    "resolve_workers",
    "shutdown_worker_pools",
]

#: The recognised execution backends.
EXECUTORS = ("serial", "threads", "processes")

#: Environment variables consulted when ``executor``/``workers`` are not
#: given explicitly (how CI forces a whole test run onto one backend).
EXECUTOR_ENV = "REPRO_EXECUTOR"
WORKERS_ENV = "REPRO_WORKERS"

#: Default worker-count ceiling — beyond this, per-task pickling overhead
#: dominates on the workloads the simulator runs.
_DEFAULT_WORKERS_CAP = 8


def resolve_executor(executor: Optional[str] = None) -> str:
    """The effective executor name: explicit argument, else
    ``$REPRO_EXECUTOR``, else ``"serial"``.  Unknown names raise."""
    name = executor or os.environ.get(EXECUTOR_ENV, "").strip() or "serial"
    if name not in EXECUTORS:
        raise MapReduceError(
            f"unknown executor {name!r}; expected one of {EXECUTORS}"
        )
    return name


def resolve_workers(workers: Optional[int] = None) -> int:
    """The effective worker count: explicit argument, else
    ``$REPRO_WORKERS``, else ``min(cpu_count, 8)``.  Must be >= 1."""
    if workers is None:
        env = os.environ.get(WORKERS_ENV, "").strip()
        if env:
            try:
                workers = int(env)
            except ValueError:
                raise MapReduceError(
                    f"{WORKERS_ENV} must be an integer, got {env!r}"
                ) from None
        else:
            workers = min(os.cpu_count() or 1, _DEFAULT_WORKERS_CAP)
    if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
        raise MapReduceError(
            f"workers must be a positive integer, got {workers!r}"
        )
    return workers


# ----------------------------------------------------------------------
# The collector pause.  The engine's data path (rows, pairs, output
# tuples) is acyclic, so automatic cyclic-GC passes during a job only
# re-scan live objects (DESIGN.md §4 has the counts: hundreds of passes
# per query that free a handful of objects).  Every job therefore runs
# with automatic passes off; the first pass after the job frees whatever
# cyclic garbage it made (fault tracebacks, say).  An explicit
# ``gc.collect()`` still works inside.
# ----------------------------------------------------------------------

_pause_lock = threading.Lock()
_pause_depth = 0
_pause_restore = False


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Pause automatic collector passes; re-entrant and thread-safe.

    The first holder records whether the collector was on and turns it
    off; the last one out restores what it recorded (so a caller's
    disabled collector stays disabled), exceptions included.
    """
    global _pause_depth, _pause_restore
    with _pause_lock:
        if _pause_depth == 0:
            _pause_restore = gc.isenabled()
            gc.disable()
        _pause_depth += 1
    try:
        yield
    finally:
        with _pause_lock:
            _pause_depth -= 1
            if _pause_depth == 0 and _pause_restore:
                gc.enable()


# ----------------------------------------------------------------------
# Worker-process pool.  One shared pool per worker count, reused across
# jobs (and across a whole pipeline / test session) so process start-up
# is amortised.  All pool interaction happens on the parent; workers
# only ever run the module-level envelope entries below, which keeps the
# backend safe under both fork and spawn start methods.
# ----------------------------------------------------------------------

_pools_lock = threading.Lock()
_pools: Dict[int, ProcessPoolExecutor] = {}


def _init_pool_worker() -> None:
    """Pool initializer.  The pool is forked lazily, usually from inside
    a paused job, so a worker would inherit the pause (and a lock another
    thread may have held at the fork) for life: start it unpaused with
    the collector on.  Workers then pause only inside an envelope."""
    global _pause_lock, _pause_depth
    _pause_lock = threading.Lock()
    _pause_depth = 0
    gc.enable()


def _run_envelope(
    blob: bytes, profiled: bool = False
) -> Tuple[bytes, Optional[Dict[str, Any]]]:
    """Worker entry for one envelope: decode the pickled
    ``(fn, payload)``, run it and encode its result, all with the
    collector paused.

    Returns the pickled result and, for a profiled run, the worker
    profile :func:`repro.obs.profile.run_profiled_task` adds (else
    ``None``).
    """
    with _collector_paused():
        if profiled:
            return run_profiled_task(blob)
        fn, payload = pickle.loads(blob)
        return pickle.dumps(fn(payload), protocol=pickle.HIGHEST_PROTOCOL), None


def _run_each(fn: Callable[[Any], Any], payloads: Sequence[Any]) -> List[Any]:
    """One chunk's tasks, in order, inside one envelope.  A chunk
    pickles as one unit, so a row its tasks share (a replicated row, an
    output row) travels and is rebuilt once per chunk, not once per
    task."""
    return [fn(payload) for payload in payloads]


#: The envelope with the profiler's timers and stack sampler.
_run_profiled_envelope = functools.partial(_run_envelope, profiled=True)


def _process_pool(workers: int) -> ProcessPoolExecutor:
    with _pools_lock:
        pool = _pools.get(workers)
        if pool is None:
            # Start the multiprocessing resource tracker *before* the
            # first worker is forked so every worker inherits it.  The
            # columnar reduce path has workers attach SharedMemory
            # blocks; with one shared tracker the attach-registrations
            # collapse into the creator's entry and the parent's
            # ``unlink()`` is the single clean removal.  A worker forked
            # without a tracker would lazily spawn its own and report
            # the parent's already-unlinked blocks as leaked at exit.
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
            pool = ProcessPoolExecutor(
                max_workers=workers, initializer=_init_pool_worker
            )
            _pools[workers] = pool
        return pool


def shutdown_worker_pools() -> None:
    """Shut down every cached worker pool (fresh pools are created on
    demand afterwards).  Mostly useful for embedders and tests."""
    with _pools_lock:
        pools = list(_pools.values())
        _pools.clear()
    for pool in pools:
        pool.shutdown(wait=True, cancel_futures=True)


def _discard_broken_pool(pool: ProcessPoolExecutor, workers: int) -> None:
    with _pools_lock:
        if _pools.get(workers) is pool:
            _pools.pop(workers)
    pool.shutdown(wait=False)


def _encode(
    fn: Callable[[Any], Any],
    payload: Any,
    job: str,
    phase: str,
    profiler: Optional["Profiler"],
) -> bytes:
    """Pickle one ``(fn, payload)`` envelope (parent side)."""
    started = time.perf_counter()
    blob = pickle.dumps((fn, payload), protocol=pickle.HIGHEST_PROTOCOL)
    if profiler is not None:
        profiler.record_pickle(
            job, phase, "parent", "encode", time.perf_counter() - started
        )
        profiler.record_pickle_bytes(job, phase, "request", len(blob))
    return blob


def _decode_results(
    shipped: Iterable[Tuple[bytes, Optional[Dict[str, Any]]]],
    job: str,
    phase: str,
    profiler: Optional["Profiler"],
) -> List[Any]:
    """Unpickle envelope results in order as they arrive (parent side),
    folding each worker profile in when the run is profiled."""
    results = []
    decode_seconds = 0.0
    response_bytes = 0
    for result_blob, wprof in shipped:
        started = time.perf_counter()
        results.append(pickle.loads(result_blob))
        decode_seconds += time.perf_counter() - started
        response_bytes += len(result_blob)
        if profiler is not None:
            profiler.absorb_worker(job, phase, wprof)
    if profiler is not None:
        profiler.record_pickle(job, phase, "parent", "decode", decode_seconds)
        profiler.record_pickle_bytes(job, phase, "response", response_bytes)
    return results


def _pool_map(
    fn: Callable[[Any], Any],
    payloads: Sequence[Any],
    workers: int,
    job: str,
    phase: str,
    indices: Sequence[int],
    profiler: Optional["Profiler"] = None,
) -> List[Any]:
    """Dispatch payloads to the worker pool in chunks, preserving order.

    Each chunk of tasks travels as one envelope (see
    :func:`_run_envelope`), and results are decoded as they arrive.
    With a profiler attached the envelope adds timers, so the recorded
    encode/decode seconds and byte counts measure exactly the
    serialization an unprofiled run pays.

    A broken pool surfaces as :class:`WorkerPoolError` carrying the job,
    the phase and the submitted task indices — with chunked ``pool.map``
    dispatch no result is retrievable once the pool dies, so the whole
    batch is reported as pending.
    """
    pool = _process_pool(workers)
    chunksize = max(1, math.ceil(len(payloads) / (workers * 4)))
    entry = _run_envelope if profiler is None else _run_profiled_envelope
    run_chunk = functools.partial(_run_each, fn)
    blobs = [
        _encode(run_chunk, payloads[start:start + chunksize], job, phase,
                profiler)
        for start in range(0, len(payloads), chunksize)
    ]
    try:
        chunks = _decode_results(pool.map(entry, blobs), job, phase, profiler)
    except BrokenProcessPool as exc:
        _discard_broken_pool(pool, workers)
        raise WorkerPoolError(job, phase, indices, str(exc)) from exc
    return [result for chunk in chunks for result in chunk]


class Backend:
    """Where one wave of task attempts runs — the one place the executor
    is branched on.

    ``serial`` runs the wave in order on the calling thread, ``threads``
    on a thread pool, ``processes`` on the shared worker pool in chunked
    byte envelopes (:func:`_pool_map`).
    """

    def __init__(
        self,
        executor: str,
        workers: int,
        job: str,
        profiler: Optional["Profiler"] = None,
    ) -> None:
        self.executor = executor
        self.workers = workers
        self.job = job
        self.profiler = profiler
        #: Attempts run in this process: their task spans open on the
        #: thread that runs them, and they share user objects unless
        #: copied.
        self.in_process = executor != "processes"
        #: Injected delays and retry backoff really sleep (capped);
        #: ``serial`` charges them as virtual time instead.
        self.sleeps = executor != "serial"

    def map(
        self,
        fn: Callable[[Any], Any],
        payloads: Sequence[Any],
        phase: str,
        indices: Sequence[int],
    ) -> List[Any]:
        """``[fn(payload) for payload in payloads]`` on this backend, in
        order.  A broken worker pool raises :class:`WorkerPoolError`
        naming ``phase`` and every task index in ``indices``."""
        if self.executor == "serial":
            return [fn(payload) for payload in payloads]
        if self.executor == "threads":
            with ThreadPoolExecutor(max_workers=self.workers) as pool:
                return list(pool.map(fn, payloads))
        return _pool_map(
            fn, payloads, self.workers, self.job, phase, indices,
            profiler=self.profiler,
        )


# ----------------------------------------------------------------------
# Task bodies.  Each task runs against a *fresh* Counters instance so the
# same code executes identically in-process and in a worker process; the
# parent merges per-task counters in task-submission order, which makes
# totals independent of the executor.
# ----------------------------------------------------------------------

def _map_task_core(
    path: str,
    records: Sequence[Any],
    mapper: Mapper,
    combiner: Optional[Reducer],
    faults: AttemptInjector,
    beat: Optional[Any] = None,
) -> Tuple[List[Tuple[Hashable, Any]], Counters]:
    """Run one map task (one input spec), combiner included."""
    counters = Counters()
    context = MapContext(counters, path, beat)
    mapper.setup(context)
    if beat is None:
        # Telemetry off: the seed's loop, byte for byte.
        for record in records:
            counters.increment("framework", "map_input_records")
            mapper.map(record, context)
    else:
        processed = 0
        for record in records:
            counters.increment("framework", "map_input_records")
            mapper.map(record, context)
            processed += 1
            beat.progress(processed)
        beat.progress(processed, force=True)
    faults.check("cleanup")
    mapper.cleanup(context)
    task_pairs = context.drain()
    counters.increment("framework", "map_output_records", len(task_pairs))
    if combiner is not None:
        if beat is not None:
            # Boundary beat before the combiner takes over the attempt.
            beat.progress(force=True)
        task_pairs = _run_combiner(combiner, task_pairs, counters, faults)
    return task_pairs, counters


def _run_combiner(
    combiner: Reducer,
    pairs: List[Tuple[Hashable, Any]],
    counters: Counters,
    faults: AttemptInjector,
) -> List[Tuple[Hashable, Any]]:
    """Apply a combiner to one map task's output, Hadoop style: the
    combiner reduces each key's values locally and re-emits pairs under
    the same key."""
    faults.check("combiner")
    counters.increment("framework", "combine_input_records", len(pairs))
    grouped: Dict[Hashable, List[Any]] = defaultdict(list)
    for key, value in pairs:
        grouped[key].append(value)
    combined: List[Tuple[Hashable, Any]] = []
    context = ReduceContext(counters, task_index=-1)
    combiner.setup(context)
    for key in sorted(grouped.keys(), key=repr):
        combiner.reduce(key, grouped[key], context)
        for record in context.drain():
            combined.append((key, record))
    combiner.cleanup(context)
    counters.increment("framework", "combine_output_records", len(combined))
    return combined


def _reduce_task_core(
    reducer: Reducer,
    task_index: int,
    groups: List[Tuple[Hashable, List[Any]]],
    faults: AttemptInjector,
    beat: Optional[Any] = None,
) -> Tuple[List[Any], Counters]:
    """The untraced body of one physical reduce task."""
    counters = Counters()
    # Zero-initialise so even an empty task reports its input counters
    # (key routing decides which tasks receive groups at all).
    counters.increment("framework", "reduce_input_groups", 0)
    counters.increment("framework", "reduce_input_records", 0)
    context = ReduceContext(counters, task_index, beat)
    reducer.setup(context)
    output: List[Any] = []
    if beat is None:
        for key, values in groups:
            counters.increment("framework", "reduce_input_groups")
            counters.increment(
                "framework", "reduce_input_records", len(values)
            )
            reducer.reduce(key, values, context)
            output.extend(context.drain())
    else:
        processed = 0
        for key, values in groups:
            counters.increment("framework", "reduce_input_groups")
            counters.increment(
                "framework", "reduce_input_records", len(values)
            )
            reducer.reduce(key, values, context)
            output.extend(context.drain())
            processed += len(values)
            beat.progress(processed)
        beat.progress(processed, force=True)
    faults.check("cleanup")
    reducer.cleanup(context)
    output.extend(context.drain())
    counters.increment("framework", "reduce_output_records", len(output))
    return output, counters


# ----------------------------------------------------------------------
# Metric recording (parent side).  Only winning attempts record, so the
# "run"-group families are invariant under fault injection; increments
# are commutative, so the "threads" executor's concurrent recording
# yields the same samples as serial execution.
# ----------------------------------------------------------------------

def _record_map_task_metrics(
    observer: Optional["TraceRecorder"],
    job: str,
    input_path: str,
    task_counters: Counters,
    num_pairs: int,
) -> None:
    """Per-map-task tuple in/out, labelled by input relation path.

    The in/out ratio per input is the paper's *replication factor* of
    that relation: intermediate tuples emitted per distinct input tuple.
    """
    if observer is None:
        return
    records = observer.metrics.counter(
        "repro_map_records_total",
        "Records entering (direction=in) and pairs leaving "
        "(direction=out) map tasks, per input relation.",
        labels=("job", "input", "direction"),
    )
    reads = task_counters.value("framework", "map_input_records")
    records.inc(reads, job=job, input=input_path, direction="in")
    records.inc(num_pairs, job=job, input=input_path, direction="out")


def _record_reduce_task_metrics(
    observer: Optional["TraceRecorder"],
    job: str,
    task_counters: Counters,
    output: Sequence[Any],
) -> None:
    """Per-reduce-task tuple in/out plus the per-reducer load histogram."""
    if observer is None:
        return
    metrics = observer.metrics
    load = task_counters.value("framework", "reduce_input_records")
    records = metrics.counter(
        "repro_reduce_records_total",
        "Records entering (direction=in) and leaving (direction=out) "
        "reduce tasks.",
        labels=("job", "direction"),
    )
    records.inc(load, job=job, direction="in")
    records.inc(len(output), job=job, direction="out")
    metrics.histogram(
        "repro_reduce_task_load",
        "Distribution of physical reduce-task input loads (records).",
        labels=("job",),
        buckets=LOAD_BUCKETS,
    ).observe(load, job=job)


def _record_job_metrics(
    observer: Optional["TraceRecorder"],
    conf: JobConf,
    pairs: Sequence[Any],
    tasks: Sequence[Any],
    logical_loads: Dict[Hashable, int],
    counters: Counters,
) -> None:
    """Job-level shuffle, skew, replication and fault metrics."""
    if observer is None:
        return
    metrics = observer.metrics
    shuffled = metrics.counter(
        "repro_shuffle_records_total",
        "Intermediate pairs routed through the shuffle.",
        labels=("job",),
    )
    shuffled.inc(len(pairs), job=conf.name)
    partition_records = metrics.gauge(
        "repro_shuffle_partition_records",
        "Records routed to each physical reduce partition.",
        labels=("job", "partition"),
    )
    partition_bytes = metrics.gauge(
        "repro_shuffle_partition_repr_bytes",
        "Bytes-ish (UTF-8 repr size) routed to each reduce partition — "
        "the paper's communication-cost proxy.",
        labels=("job", "partition"),
    )
    for stat in partition_stats(tasks):
        label = f"{stat.index:05d}"
        partition_records.set(stat.records, job=conf.name, partition=label)
        partition_bytes.set(stat.repr_bytes, job=conf.name, partition=label)
    key_skew = metrics.histogram(
        "repro_key_load",
        "Per-logical-reducer (distinct intermediate key) load "
        "distribution — the key-skew histogram.",
        labels=("job",),
        buckets=LOAD_BUCKETS,
    )
    for load in logical_loads.values():
        key_skew.observe(load, job=conf.name)
    reads = counters.value("framework", "map_input_records")
    emitted = counters.value("framework", "map_output_records")
    if reads:
        metrics.gauge(
            "repro_replication_factor",
            "Map-output pairs emitted per input record of the job "
            "(tuples emitted / distinct input tuples).",
            labels=("job",),
        ).set(emitted / reads, job=conf.name)
    faults_total = metrics.counter(
        "repro_faults_total",
        "Fault-injection bookkeeping: failed/retried/speculative "
        "attempts per job.",
        labels=("job", "kind"),
        group=GROUP_FAULTS,
    )
    for kind, value in sorted(counters.as_dict().get(FAULTS_GROUP, {}).items()):
        if value:
            faults_total.inc(value, job=conf.name, kind=kind)


# ----------------------------------------------------------------------
# Tasks.  One class per task kind; an instance is the worker-safe part
# of an attempt's payload (it pickles to the worker pool by reference to
# its module-level class) plus the parent-side hooks the recording seam
# calls when an attempt ends.
# ----------------------------------------------------------------------

class _MapTask:
    """One map task: an input's records through its mapper and the
    job's combiner."""

    phase = "map"

    def __init__(
        self,
        index: int,
        path: str,
        records: List[Any],
        mapper: Mapper,
        combiner: Optional[Reducer],
    ) -> None:
        self.index = index
        self.path = path
        self.records = records
        self.mapper = mapper
        self.combiner = combiner

    @property
    def name(self) -> str:
        return f"map:{self.path}"

    def run(
        self, faults: AttemptInjector, beat: Optional[Any]
    ) -> Tuple[Any, Counters]:
        return _map_task_core(
            self.path, self.records, self.mapper, self.combiner, faults, beat
        )

    def pristine(self) -> "_MapTask":
        """This task on fresh copies of its user objects — what pickling
        gives a worker process — so a failed attempt leaves no state
        behind for the next one."""
        return type(self)(
            self.index, self.path, self.records,
            copy.deepcopy(self.mapper), copy.deepcopy(self.combiner),
        )

    def records_done(self, counters: Counters) -> int:
        return counters.value("framework", "map_input_records")

    def pairs_out(self, output: Any) -> int:
        return len(output)

    def materialize(self, output: Any) -> Any:
        return output

    def span_counters(self, counters: Counters) -> Dict[str, Dict[str, int]]:
        return counters.delta({})

    def span_attrs(
        self, counters: Counters, output: Any,
        cost_model: Optional["CostModel"],
    ) -> Dict[str, Any]:
        attrs: Dict[str, Any] = {"output_pairs": self.pairs_out(output)}
        if cost_model is not None:
            reads = counters.value("framework", "map_input_records")
            attrs["modelled_seconds"] = (
                reads * cost_model.read_cost / cost_model.parallelism
            )
        return attrs

    def record_metrics(
        self, observer: Optional["TraceRecorder"], job: str,
        counters: Counters, output: Any,
    ) -> None:
        _record_map_task_metrics(
            observer, job, self.path, counters, self.pairs_out(output)
        )

    def discard(
        self, fs: FileSystem, base: str, attempt: int, output: Any
    ) -> None:
        """Drop a losing attempt's output (map output is never staged)."""


class _ColumnarMapTask(_MapTask):
    """A map task on the columnar plane: its output is the emitted block
    plus the per-record routing-interval columns.

    Counter parity with :func:`_map_task_core` is deliberate:
    ``map_input_records`` appears only when the input is non-empty (the
    records plane increments per record), user counters come from the
    block (non-zero amounts only), ``map_output_records`` is always
    recorded.
    """

    def run(
        self, faults: AttemptInjector, beat: Optional[Any]
    ) -> Tuple[Any, Counters]:
        mapper, records = self.mapper, self.records
        counters = Counters()
        context = MapContext(counters, self.path)
        mapper.setup(context)
        if records:
            counters.increment("framework", "map_input_records", len(records))
        starts, ends = mapper.encode_intervals(records)
        block = mapper.map_columns(starts, ends, records)
        mapper.cleanup(context)
        if context.drain():
            raise MapReduceError(
                f"columnar mapper {type(mapper).__name__} emitted records "
                "through the context; columnar emission must go through "
                "map_columns"
            )
        for (group, name), amount in block.counters.items():
            counters.increment(group, name, amount)
        counters.increment("framework", "map_output_records", len(block))
        return (block, starts, ends), counters

    def pairs_out(self, output: Any) -> int:
        return len(output[0])


class _ReduceTask:
    """One physical reduce task over its key groups."""

    phase = "reduce"

    def __init__(self, index: int, reducer: Reducer, groups: Any) -> None:
        self.index = index
        self.reducer = reducer
        self.groups = groups

    @property
    def name(self) -> str:
        return f"reduce[{self.index}]"

    def run(
        self, faults: AttemptInjector, beat: Optional[Any]
    ) -> Tuple[Any, Counters]:
        return _reduce_task_core(
            self.reducer, self.index, self.groups, faults, beat
        )

    def pristine(self) -> "_ReduceTask":
        """See :meth:`_MapTask.pristine`: reducers may cache state on
        ``self``, which must not leak across attempts."""
        return _ReduceTask(
            self.index, copy.deepcopy(self.reducer), self.groups
        )

    def records_done(self, counters: Counters) -> int:
        return counters.value("framework", "reduce_input_records")

    def materialize(self, output: Any) -> Any:
        return output

    def span_counters(self, counters: Counters) -> Dict[str, Dict[str, int]]:
        return counters.snapshot()

    def span_attrs(
        self, counters: Counters, output: Any,
        cost_model: Optional["CostModel"],
    ) -> Dict[str, Any]:
        load = counters.value("framework", "reduce_input_records")
        attrs: Dict[str, Any] = {
            "input_records": load,
            "output_records": len(output),
        }
        if cost_model is not None:
            attrs["modelled_seconds"] = (
                load * cost_model.shuffle_cost
                + counters.value("work", "comparisons")
                * cost_model.comparison_cost
                + len(output) * cost_model.output_cost
            )
        return attrs

    def record_metrics(
        self, observer: Optional["TraceRecorder"], job: str,
        counters: Counters, output: Any,
    ) -> None:
        _record_reduce_task_metrics(observer, job, counters, output)

    def discard(
        self, fs: FileSystem, base: str, attempt: int, output: Any
    ) -> None:
        """Stage a losing attempt's output under ``_temporary``, then
        discard it without promotion: only a winner's output ever
        becomes a part file."""
        fs.write_attempt(base, self.index, attempt, output)
        fs.discard_attempt(base, self.index, attempt)


class _SharedReduceTask(_ReduceTask):
    """A columnar reduce task whose groups travel to a worker process in
    a shared-memory block (created, and always unlinked, by the parent).

    The reducer sees store-less :class:`ColumnValues` groups and emits
    compact gid-shaped outputs, which :meth:`materialize` turns back
    into records through the parent's payload store — so the recorded
    task facts describe the final records, exactly as on the records
    plane.
    """

    def __init__(
        self, index: int, reducer: Reducer, groups: Any, store: PayloadStore
    ) -> None:
        super().__init__(index, reducer, groups)
        self.store: Optional[PayloadStore] = store

    def __getstate__(self) -> Dict[str, Any]:
        # The payload store stays on the parent.
        return dict(self.__dict__, store=None)

    def run(
        self, faults: AttemptInjector, beat: Optional[Any]
    ) -> Tuple[Any, Counters]:
        # Every array view into the block must be dropped before close().
        groups, shm = unpack_reduce_task(self.groups)
        try:
            return _reduce_task_core(
                self.reducer, self.index, groups, faults, beat
            )
        finally:
            del groups
            if shm is not None:
                shm.close()

    def materialize(self, output: Any) -> Any:
        return [
            self.reducer.materialize_output(out, self.store) for out in output
        ]


# ----------------------------------------------------------------------
# The attempt: one task body for every backend.
# ----------------------------------------------------------------------

@dataclass
class _Attempt:
    """One attempt of one task, as dispatched to the backend: the task,
    the attempt number, its fault events, its heartbeat emitter, the
    real seconds its injected delay sleeps, and — for a speculative
    backup — what triggered it."""

    task: Any
    number: int
    events: Tuple[Any, ...] = ()
    beat: Optional[Any] = None
    sleep: float = 0.0
    speculative: bool = False
    trigger: Optional[str] = None


def _run_attempt(
    attempt: _Attempt,
) -> Tuple[Any, Optional[Dict[str, Dict[str, int]]], float]:
    """Run one attempt; worker-safe, so every backend runs this.

    Walks Hadoop's attempt lifecycle: the injected ``setup`` crash, the
    start heartbeat (*before* any injected delay, so a delayed attempt
    looks to the watchdog exactly like an observed straggler: started,
    then silent), the delay, the task body (``combiner``/``cleanup``
    crashes fire inside it) and the finish heartbeat.  Returns
    ``(output, counters, elapsed)`` with the counters as a plain-dict
    snapshot, or ``(exception, None, elapsed)`` when the attempt raised —
    so one failing task never aborts the rest of its chunk.
    """
    faults = AttemptInjector(attempt.events)
    beat = attempt.beat
    started = time.perf_counter()
    try:
        faults.check("setup")
        if beat is not None:
            beat.start()
        if attempt.sleep:
            time.sleep(attempt.sleep)
        output, counters = attempt.task.run(faults, beat)
        if beat is not None:
            beat.finish(attempt.task.records_done(counters))
    except Exception as exc:
        return exc, None, time.perf_counter() - started
    return output, counters.as_dict(), time.perf_counter() - started


@dataclass
class _Outcome:
    """How one attempt ended: its (materialised) output and counters,
    or the error that failed it, plus whether the plan delayed it.  The
    phase driver keeps each task's winning outcome and accumulates the
    task's fault bookkeeping on it."""

    output: Any
    counters: Optional[Counters]
    attempt: int
    delayed: bool
    error: Optional[BaseException] = None
    faults: Counters = field(default_factory=Counters)


class _Engine:
    """Runs one job's map and reduce phases: every task, on every
    backend and plane, with faults or without, goes through
    :meth:`run_phase`'s attempt waves and ends in :meth:`_settle`."""

    def __init__(
        self,
        fs: FileSystem,
        conf: JobConf,
        observer: Optional["TraceRecorder"],
        cost_model: Optional["CostModel"],
        fctx: ResolvedFaults,
    ) -> None:
        self.fs = fs
        self.conf = conf
        self.observer = observer
        self.cost_model = cost_model
        self.fctx = fctx
        self.live = _live_of(observer)

    @contextmanager
    def phase(self, name: str, total: int) -> Iterator[Optional["Span"]]:
        """One phase: its span (``None`` unobserved) and its live
        progress bracket."""
        job = self.conf.name
        if self.live is not None:
            self.live.phase_started(job, name, total)
        span = (
            self.observer.start_span(name, kind="phase", job=job)
            if self.observer is not None
            else None
        )
        try:
            yield span
        finally:
            if span is not None:
                self.observer.end_span(span)
            if self.live is not None:
                self.live.phase_finished(job, name)

    def run_phase(
        self, backend: Backend, tasks: Sequence[Any], parent: Optional["Span"]
    ) -> List[_Outcome]:
        """Run every task of one phase to success; returns the winning
        outcomes in task order.

        Wave *k* dispatches attempt *k* of every task still pending
        through ``backend``; failed tasks go again in the next wave,
        after one exponential backoff (a capped real sleep when the
        backend really sleeps, else virtual time charged to the
        winner's span).  A failed attempt's counters are discarded —
        only winners merge into the job, which keeps a chaos run's
        totals bit-identical to a fault-free one.  A task that spends
        its budget raises its last attempt's exception.  A fault-free
        run is one wave.
        """
        fctx = self.fctx
        # Attempts that may run again get fresh user objects each time;
        # the process pool gets them from pickling.
        pristine = backend.in_process and (
            fctx.max_attempts > 1 or fctx.speculative
        )
        outcomes: List[Any] = [None] * len(tasks)
        failures = [Counters() for _ in tasks]
        pending = list(range(len(tasks)))
        for number in range(fctx.max_attempts):
            if number and backend.sleeps:
                time.sleep(min(fctx.backoff_seconds(number), fctx.sleep_cap))
            attempts = [
                self._attempt(backend, tasks[index], number, pristine)
                for index in pending
            ]
            retry = []
            for index, outcome in zip(
                pending, self._wave(backend, attempts, parent)
            ):
                if outcome.error is None:
                    outcome.faults = failures[index]
                    outcomes[index] = outcome
                    continue
                failures[index].increment(FAULTS_GROUP, "tasks_failed")
                if number + 1 >= fctx.max_attempts:
                    raise outcome.error
                failures[index].increment(FAULTS_GROUP, "tasks_retried")
                retry.append(index)
            pending = retry
            if not pending:
                break
        self._speculate(backend, tasks, outcomes, pristine, parent)
        return outcomes

    def _attempt(
        self, backend: Backend, task: Any, number: int, pristine: bool
    ) -> _Attempt:
        events = self.fctx.events_for(
            self.conf.name, task.phase, task.index, number
        )
        attempt = _Attempt(task.pristine() if pristine else task, number, events)
        if self.live is not None:
            attempt.beat = self.live.task_beat(
                self.conf.name, task.phase, task.index, number,
                backend.executor,
            )
        if backend.sleeps and events:
            attempt.sleep = min(
                AttemptInjector(events).delay_seconds(), self.fctx.sleep_cap
            )
        return attempt

    def _speculate(
        self,
        backend: Backend,
        tasks: Sequence[Any],
        outcomes: List[_Outcome],
        pristine: bool,
        parent: Optional["Span"],
    ) -> None:
        """Run backup attempts of straggling winners as one more wave.

        Candidates are winners the fault plan delayed and tasks the live
        telemetry watchdog flagged from stalled heartbeats (those
        backups carry ``trigger="watchdog"``).  First to finish wins,
        and the original already has: each backup's output is discarded
        before commit and counted as ``faults:speculative_wasted``.  A
        backup that fails is recorded and otherwise ignored — a lost
        speculation never fails the job.
        """
        if not self.fctx.speculative:
            return
        stalled = (
            self.live.stalled_indices(self.conf.name, tasks[0].phase)
            if self.live is not None
            else frozenset()
        )
        backups = [
            _Attempt(
                task.pristine() if pristine else task,
                outcome.attempt + 1,
                speculative=True,
                trigger=None if outcome.delayed else "watchdog",
            )
            for task, outcome in zip(tasks, outcomes)
            if outcome.delayed or task.index in stalled
        ]
        if not backups:
            return
        self._wave(backend, backups, parent)
        for attempt in backups:
            outcomes[attempt.task.index].faults.increment(
                FAULTS_GROUP, "speculative_wasted"
            )

    def _wave(
        self,
        backend: Backend,
        attempts: List[_Attempt],
        parent: Optional["Span"],
    ) -> List[_Outcome]:
        """Dispatch one wave of attempts and settle each one.

        An in-process attempt settles on the thread that ran it, inside
        the task span opened there; a worker process's attempt settles
        here, from the result it shipped back, in submission order.
        """
        phase = attempts[0].task.phase
        indices = [attempt.task.index for attempt in attempts]
        if backend.in_process:
            return backend.map(
                functools.partial(self._run_here, backend, parent),
                attempts, phase, indices,
            )
        shipped = backend.map(_run_attempt, attempts, phase, indices)
        return [
            self._settle(backend, attempt, result, parent)
            for attempt, result in zip(attempts, shipped)
        ]

    def _run_here(
        self, backend: Backend, parent: Optional["Span"], attempt: _Attempt
    ) -> _Outcome:
        """Run one attempt on this thread, its span open around it."""
        span = None
        if self.observer is not None:
            task = attempt.task
            span = self.observer.start_span(
                task.name,
                kind="attempt" if attempt.speculative else "task",
                parent=parent,
                job=self.conf.name,
                phase=task.phase,
                task_index=task.index,
            )
        try:
            result = _run_attempt(attempt)
        except BaseException:
            if span is not None:
                self.observer.end_span(span)
            raise
        return self._settle(backend, attempt, result, parent, span)

    def _settle(
        self,
        backend: Backend,
        attempt: _Attempt,
        result: Tuple[Any, Optional[Dict[str, Dict[str, int]]], float],
        parent: Optional["Span"],
        span: Optional["Span"] = None,
    ) -> _Outcome:
        """The one end of every attempt: decide whether it commits, then
        record its span, metrics and discarded output.

        A winner keeps a ``kind="task"`` span with its counters and
        records its task metrics (winners only, which keeps the
        ``run`` metric group invariant under chaos); a failed or
        speculative attempt becomes a ``kind="attempt"`` span.  ``span``
        is the live span of an in-process attempt; a worker process's
        attempt is recorded as a completed span instead.
        """
        task = attempt.task
        output, snapshot, elapsed = result
        counters = None if snapshot is None else Counters.from_dict(snapshot)
        faults = AttemptInjector(attempt.events)
        delay = faults.delay_seconds()
        # Nothing sleeps on a serial backend: the injected delay counts
        # towards the timeout, and with the retry backoff is charged to
        # the winner's span, as virtual time.
        unslept = 0.0 if backend.sleeps else delay
        error = output if counters is None else None
        if error is None:
            output = task.materialize(output)
            try:
                self._commit(attempt, faults, output, elapsed + unslept)
            except Exception as exc:
                error = exc
        outcome = _Outcome(output, counters, attempt.number, delay > 0, error)
        if error is None and attempt.speculative:
            task.discard(self.fs, self.conf.output, attempt.number, output)
        if self.observer is None:
            return outcome
        attrs: Dict[str, Any] = {"attempt": attempt.number}
        if attempt.speculative:
            attrs["speculative"] = True
            if attempt.trigger is not None:
                attrs["trigger"] = attempt.trigger
        kind, view, virtual = "attempt", None, 0.0
        if error is not None:
            attrs["error"] = type(error).__name__
            if isinstance(error, FaultInjectedError):
                attrs["fault"] = error.kind
        elif not attempt.speculative:
            kind = "task"
            if delay:
                attrs["fault_delay_seconds"] = delay
            attrs.update(task.span_attrs(counters, output, self.cost_model))
            view = task.span_counters(counters)
            task.record_metrics(self.observer, self.conf.name, counters, output)
            if not backend.sleeps:
                virtual = delay + self.fctx.backoff_seconds(attempt.number)
        if span is not None:
            span.kind = kind
            # Backdated as record_completed does: never before the epoch.
            span.start = max(0.0, span.start - virtual)
            if view is not None:
                span.counters = view
            span.annotate(**attrs)
            self.observer.end_span(span)
        else:
            self.observer.record_completed(
                task.name,
                kind=kind,
                parent=parent,
                duration=elapsed + virtual,
                counters=view,
                job=self.conf.name,
                phase=task.phase,
                task_index=task.index,
                **attrs,
            )
        return outcome

    def _commit(
        self,
        attempt: _Attempt,
        faults: AttemptInjector,
        output: Any,
        observed: float,
    ) -> None:
        """The commit-point checks: the task timeout, then the injected
        ``corrupt-output`` and ``commit`` faults, which discard the
        attempt's staged output."""
        timeout = self.fctx.task_timeout
        if timeout is not None and observed > timeout:
            raise TaskTimeoutError(
                self.conf.name, attempt.task.phase, attempt.task.index,
                observed, timeout,
            )
        try:
            if faults.corrupts_output():
                raise FaultInjectedError(CORRUPT, "commit")
            faults.check("commit")
        except FaultInjectedError:
            attempt.task.discard(
                self.fs, self.conf.output, attempt.number, output
            )
            raise


@_collector_paused()
def run_job(
    fs: FileSystem,
    conf: JobConf,
    executor: Optional[str] = None,
    observer: Optional["TraceRecorder"] = None,
    cost_model: Optional["CostModel"] = None,
    workers: Optional[int] = None,
    faults: Any = None,
    max_attempts: Optional[int] = None,
    speculative: Optional[bool] = None,
    data_plane: Optional[str] = None,
    task_timeout: Optional[float] = None,
) -> JobResult:
    """Execute one MapReduce job and return its measurements.

    Parameters
    ----------
    fs:
        The file system holding the inputs; outputs are written back to it.
    conf:
        The job configuration.
    executor:
        ``"serial"``, ``"threads"`` or ``"processes"``; ``None`` defers to
        ``$REPRO_EXECUTOR`` and then ``"serial"``.  All three produce
        bit-identical outputs and counters.
    observer:
        Optional :class:`~repro.obs.TraceRecorder`; when given, the job,
        its phases and its tasks are recorded as spans and the
        :class:`JobResult` is registered via ``observer.record_job``.
    cost_model:
        Optional :class:`~repro.mapreduce.cost.CostModel` used only to
        attach modelled-seconds charges to the recorded spans (never
        affects execution).
    workers:
        Worker count for the parallel executors; ``None`` defers to
        ``$REPRO_WORKERS`` and then ``min(cpu_count, 8)``.
    faults:
        Fault-injection plan — a seed, a ``$REPRO_FAULTS``-style spec
        string, a :class:`~repro.faults.FaultPlan`-like object, ``False``
        (force off) or ``None`` (defer to ``$REPRO_FAULTS``).  See
        :func:`repro.faults.resolve_faults`.
    max_attempts:
        Retry budget per task; ``JobConf.max_attempts`` beats this, this
        beats ``$REPRO_MAX_ATTEMPTS``.
    speculative:
        Speculative re-execution of plan-delayed stragglers;
        ``JobConf.speculative`` beats this, this beats
        ``$REPRO_SPECULATIVE``.
    data_plane:
        ``"records"`` (the default) or ``"columnar"``; ``None`` defers to
        ``$REPRO_DATA_PLANE``.  The columnar plane engages per job, only
        when every mapper and the reducer implement the columnar
        protocol, no combiner is configured and no fault machinery is
        active — otherwise the job runs on the records plane, and with an
        observer attached the fallback and its reason are recorded in the
        ``repro_data_plane_fallback_total`` metric, the job span and the
        :class:`JobResult`.  Both planes produce bit-identical outputs
        and counters.
    task_timeout:
        Per-task attempt timeout in seconds; ``None`` defers to
        ``$REPRO_TASK_TIMEOUT``, then unlimited.  A timed-out attempt
        fails and retries with the established backoff semantics.

    The whole job — map, shuffle, reduce and commit — runs with automatic
    collector passes paused; see :func:`_collector_paused`.
    """
    executor = resolve_executor(executor)
    workers = resolve_workers(workers)
    plane = resolve_data_plane(data_plane)
    fctx = resolve_faults(
        faults,
        conf.max_attempts if conf.max_attempts is not None else max_attempts,
        conf.speculative if conf.speculative is not None else speculative,
        task_timeout,
    )
    if conf.num_reduce_tasks < 1:
        raise MapReduceError("a job needs at least one reduce task")
    if not conf.inputs:
        raise MapReduceError(f"job {conf.name!r} has no inputs")
    counters = Counters()
    # The commit protocol reports through the observer's registry for
    # the duration of this job; cleared when running unobserved so a
    # later unobserved run never writes into a stale registry.  The
    # profiler rides along the same way (staged-bytes accounting).
    fs.metrics = observer.metrics if observer is not None else None
    profiler = _profiler_of(observer)
    fs.profiler = profiler

    columnar_kind: Optional[str] = None
    plane_fallback: Optional[str] = None
    if plane == "columnar":
        if fctx.active:
            plane_fallback = "fault-machinery-active"
        elif conf.combiner is not None:
            plane_fallback = "combiner-configured"
        else:
            columnar_kind, plane_fallback = job_columnar_gate(conf)
    store = PayloadStore() if columnar_kind is not None else None
    if plane_fallback is not None and observer is not None:
        observer.metrics.counter(
            "repro_data_plane_fallback_total",
            "Jobs that fell back from the requested columnar plane to "
            "the records plane, by reason.",
            labels=("job", "reason"),
            group=GROUP_LIVE,
        ).inc(job=conf.name, reason=plane_fallback)

    job_attrs: Dict[str, Any] = {}
    if fctx.active:
        job_attrs["max_attempts"] = fctx.max_attempts
    if columnar_kind is not None:
        job_attrs["data_plane"] = "columnar"
    if plane_fallback is not None:
        job_attrs["data_plane_fallback"] = plane_fallback
    job_span = (
        observer.start_span(
            f"job:{conf.name}",
            kind="job",
            job=conf.name,
            executor=executor,
            num_reduce_tasks=conf.num_reduce_tasks,
            **job_attrs,
        )
        if observer is not None
        else None
    )
    backend = Backend(executor, workers, conf.name, profiler)
    engine = _Engine(fs, conf, observer, cost_model, fctx)
    live = engine.live
    if live is not None:
        live.job_started(conf.name)
    try:
        with engine.phase("map", len(conf.inputs)) as map_span:
            if columnar_kind is not None:
                # Inline under every executor: a handful of vectorised
                # numpy passes per input costs less than shipping it.
                map_backend = Backend("serial", 1, conf.name, profiler)
                task_type = _ColumnarMapTask
            else:
                map_backend, task_type = backend, _MapTask
            map_tasks = [
                task_type(
                    index, spec.path, list(fs.read_dir(spec.path)),
                    spec.mapper, conf.combiner,
                )
                for index, spec in enumerate(conf.inputs)
            ]
            map_outcomes = engine.run_phase(map_backend, map_tasks, map_span)
        pairs: Any = (
            ColumnarPairs(KEY_CODECS[columnar_kind])
            if columnar_kind is not None
            else []
        )
        for task, outcome in zip(map_tasks, map_outcomes):
            counters.merge(outcome.counters)
            counters.merge(outcome.faults)
            if columnar_kind is not None:
                # Input records stay in the job's payload store: the
                # batch carries payload ids, and values materialise
                # lazily wherever the records-plane objects are needed.
                block, starts, ends = outcome.output
                store.add_segment(task.index, task.records, task.mapper)
                pairs.append_block(block, task.index, starts, ends)
            else:
                pairs.extend(outcome.output)
        # The pair stream is all the shuffle needs: free the per-task
        # inputs and outputs before it and the reduce phase peak.
        del map_tasks, map_outcomes
        counters.increment("framework", "shuffle_records", len(pairs))

        if columnar_kind is not None:
            logical_loads: Dict[Hashable, int] = pairs.logical_loads()
        else:
            logical_loads = defaultdict(int)
            for key, _ in pairs:
                logical_loads[key] += 1

        with engine.phase("shuffle", 1) as shuffle_span:
            if columnar_kind is not None:
                tasks = columnar_shuffle(
                    pairs, conf.num_reduce_tasks, conf.partitioner,
                    store=store, profiler=profiler, job=conf.name,
                )
            else:
                tasks = shuffle(
                    pairs, conf.num_reduce_tasks, conf.partitioner,
                    profiler=profiler, job=conf.name,
                )
            if shuffle_span is not None:
                shuffle_span.annotate(
                    records=len(pairs), reduce_tasks=conf.num_reduce_tasks
                )
                if cost_model is not None:
                    shuffle_span.annotate(
                        modelled_seconds=len(pairs)
                        * cost_model.shuffle_cost
                        / cost_model.parallelism
                    )
        reduce_task_loads = [
            sum(len(values) for _, values in groups) for groups in tasks
        ]

        with engine.phase("reduce", len(tasks)) as reduce_span:
            if columnar_kind is not None and not backend.in_process:
                packed = [pack_reduce_task(groups) for groups in tasks]
                try:
                    if profiler is not None:
                        profiler.record_shm_bytes(
                            conf.name, "reduce", "request",
                            sum(descriptor.nbytes for descriptor, _ in packed),
                        )
                    reduce_outcomes = engine.run_phase(
                        backend,
                        [
                            _SharedReduceTask(
                                index, conf.reducer, descriptor, store
                            )
                            for index, (descriptor, _) in enumerate(packed)
                        ],
                        reduce_span,
                    )
                finally:
                    for _, shm in packed:
                        if shm is not None:
                            shm.close()
                            shm.unlink()
            else:
                reduce_outcomes = engine.run_phase(
                    backend,
                    [
                        _ReduceTask(index, conf.reducer, groups)
                        for index, groups in enumerate(tasks)
                    ],
                    reduce_span,
                )

        total_output = 0
        task_outputs: List[int] = []
        task_comparisons: List[int] = []
        for index, outcome in enumerate(reduce_outcomes):
            records = outcome.output
            counters.merge(outcome.counters)
            counters.merge(outcome.faults)
            fs.append_partition(conf.output, index, records)
            total_output += len(records)
            task_outputs.append(len(records))
            task_comparisons.append(
                outcome.counters.value("work", "comparisons")
            )

        _record_job_metrics(
            observer, conf, pairs, tasks, logical_loads, counters
        )
        result = JobResult(
            name=conf.name,
            counters=counters,
            reduce_task_loads=reduce_task_loads,
            logical_reducer_loads=dict(logical_loads),
            output=conf.output,
            output_records=total_output,
            reduce_task_outputs=task_outputs,
            reduce_task_comparisons=task_comparisons,
            data_plane="columnar" if columnar_kind is not None else "records",
            data_plane_fallback=plane_fallback,
        )
        if observer is not None and job_span is not None:
            job_span.counters = counters.snapshot()
            job_span.annotate(
                output_records=total_output,
                shuffled_records=len(pairs),
                reduce_task_loads=list(reduce_task_loads),
            )
            if cost_model is not None:
                job_span.annotate(modelled_seconds=cost_model.job_time(result))
            observer.record_job(result)
        return result
    finally:
        if live is not None:
            live.job_finished(conf.name)
        if observer is not None and job_span is not None:
            observer.end_span(job_span)
