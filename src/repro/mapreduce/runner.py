"""Job execution engines.

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
  decodes it, runs its tasks and encodes their outputs plus counter
  snapshots and wall-clock durations with the cyclic collector paused,
  and the parent merges counters in task-submission order — so totals,
  outputs and recorded span sets are bit-identical to ``serial``
  (pinned by the executor parity tests).  Worker-side object mutations
  (e.g. a stateful mapper) are *not* shipped back.

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

When an :class:`~repro.obs.TraceRecorder` observer is passed, every job,
phase (map / shuffle / reduce) and task is recorded as a span carrying
counter deltas and — when a cost model is supplied — its modelled-seconds
charge.  Task spans from the ``threads`` executor are recorded live on
the worker threads (parented explicitly under the phase span); the
``processes`` executor ships lightweight ``(duration, counters)`` task
records back and the parent materialises the spans via
:meth:`~repro.obs.TraceRecorder.record_completed`.  Observation is
passive: with ``observer=None`` the execution path, results and counters
are identical to an unobserved run.

Fault tolerance (:mod:`repro.faults`) mirrors Hadoop's task-attempt
semantics.  When a fault plan, a retry budget (``max_attempts`` > 1) or
speculation is active, every map/reduce task becomes an *attempt loop*:
a failed attempt — injected crash, corrupt output detected at commit, or
a genuine task exception — is retried with exponential backoff (charged
as virtual time on the retry's span; real sleeping only happens under
the parallel executors, capped), its counters discarded so job totals
stay bit-identical to a fault-free run.  Reduce attempts stage output
through the file system's ``_temporary``/promote commit protocol, and
speculative backups of plan-delayed stragglers run after the phase wave
— the committed result is the first attempt to finish, the backup is
discarded before commit and counted as ``faults:speculative_wasted``.
Failed and speculative attempts are recorded as ``kind="attempt"`` spans
with ``attempt=`` metadata.  With no fault machinery active the
original single-attempt code paths run unchanged.

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
from dataclasses import dataclass
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
    MapBlock,
    PayloadStore,
    job_columnar_gate,
)
from repro.columnar.codec import KEY_CODECS, KeyCodec
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
from repro.mapreduce.job import InputSpec, JobConf, JobResult
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


def _task_beat(
    live: Optional[Any], job: str, phase: str, index: int, executor: str
) -> Optional[Any]:
    """A heartbeat emitter for one task, or ``None`` with telemetry off."""
    if live is None:
        return None
    return live.task_beat(job, phase, index, 0, executor)

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


def _submit_attempt(
    fn: Callable[[Any], Any],
    payload: Any,
    workers: int,
    job: str,
    phase: str,
    task_index: int,
    profiler: Optional["Profiler"] = None,
) -> Tuple[Any, Counters, float]:
    """Run one task attempt on the worker pool.

    Fault-tolerant execution submits attempts individually (never
    chunked): a retry must re-run exactly the failed task, and a
    per-attempt future lets injected worker-side failures map back to
    the one attempt that raised them.  The attempt travels as an
    envelope of its own, like one of :func:`_pool_map`'s chunks;
    injected faults still raise through the attempt's future unchanged.
    """
    pool = _process_pool(workers)
    entry = _run_envelope if profiler is None else _run_profiled_envelope
    blob = _encode(fn, payload, job, phase, profiler)
    try:
        shipped = pool.submit(entry, blob).result()
    except BrokenProcessPool as exc:
        _discard_broken_pool(pool, workers)
        raise WorkerPoolError(job, phase, (task_index,), str(exc)) from exc
    ((result, counter_dict, elapsed),) = _decode_results(
        (shipped,), job, phase, profiler
    )
    return result, Counters.from_dict(counter_dict), elapsed


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
    faults: Optional[AttemptInjector] = None,
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
    if faults is not None:
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
    faults: Optional[AttemptInjector] = None,
) -> List[Tuple[Hashable, Any]]:
    """Apply a combiner to one map task's output, Hadoop style: the
    combiner reduces each key's values locally and re-emits pairs under
    the same key."""
    if faults is not None:
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
    faults: Optional[AttemptInjector] = None,
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
    if faults is not None:
        faults.check("cleanup")
    reducer.cleanup(context)
    output.extend(context.drain())
    counters.increment("framework", "reduce_output_records", len(output))
    return output, counters


# ----------------------------------------------------------------------
# Span annotation helpers (shared by all executors so recorded spans are
# identical regardless of where the task ran).
# ----------------------------------------------------------------------

def _map_span_attrs(
    task_counters: Counters,
    num_pairs: int,
    cost_model: Optional["CostModel"],
) -> Dict[str, Any]:
    attrs: Dict[str, Any] = {"output_pairs": num_pairs}
    if cost_model is not None:
        reads = task_counters.value("framework", "map_input_records")
        attrs["modelled_seconds"] = (
            reads * cost_model.read_cost / cost_model.parallelism
        )
    return attrs


def _reduce_span_attrs(
    task_counters: Counters,
    output: Sequence[Any],
    cost_model: Optional["CostModel"],
) -> Dict[str, Any]:
    load = task_counters.value("framework", "reduce_input_records")
    attrs: Dict[str, Any] = {
        "input_records": load,
        "output_records": len(output),
    }
    if cost_model is not None:
        attrs["modelled_seconds"] = (
            load * cost_model.shuffle_cost
            + task_counters.value("work", "comparisons")
            * cost_model.comparison_cost
            + len(output) * cost_model.output_cost
        )
    return attrs


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
# In-process task wrappers (serial + threads): the span is recorded live
# around the task body, parented explicitly so worker threads attach to
# the right phase span.
# ----------------------------------------------------------------------

def _run_map_task_traced(
    spec: InputSpec,
    index: int,
    records: Sequence[Any],
    combiner: Optional[Reducer],
    job_name: str,
    observer: Optional["TraceRecorder"],
    parent: Optional["Span"],
    cost_model: Optional["CostModel"],
    beat: Optional[Any] = None,
) -> Tuple[List[Tuple[Hashable, Any]], Counters]:
    if observer is None:
        return _map_task_core(spec.path, records, spec.mapper, combiner)
    with observer.span(
        f"map:{spec.path}",
        kind="task",
        parent=parent,
        job=job_name,
        phase="map",
        task_index=index,
    ) as span:
        if beat is not None:
            beat.start()
        task_pairs, task_counters = _map_task_core(
            spec.path, records, spec.mapper, combiner, beat=beat
        )
        if beat is not None:
            beat.finish(
                task_counters.value("framework", "map_input_records")
            )
        span.counters = task_counters.delta({})
        span.annotate(
            **_map_span_attrs(task_counters, len(task_pairs), cost_model)
        )
        _record_map_task_metrics(
            observer, job_name, spec.path, task_counters, len(task_pairs)
        )
        return task_pairs, task_counters


def _run_reduce_task(
    conf: JobConf,
    task_index: int,
    groups: List[Tuple[Hashable, List[Any]]],
    observer: Optional["TraceRecorder"] = None,
    parent: Optional["Span"] = None,
    cost_model: Optional["CostModel"] = None,
    beat: Optional[Any] = None,
) -> Tuple[List[Any], Counters]:
    """Run one physical reduce task over its key groups.

    With an observer the task gets its own span — parented explicitly
    under the reduce-phase span so recording is correct even when this
    runs on a ``threads``-executor worker thread.
    """
    if observer is None:
        return _reduce_task_core(conf.reducer, task_index, groups)
    with observer.span(
        f"reduce[{task_index}]",
        kind="task",
        parent=parent,
        job=conf.name,
        phase="reduce",
        task_index=task_index,
    ) as span:
        if beat is not None:
            beat.start()
        output, counters = _reduce_task_core(
            conf.reducer, task_index, groups, beat=beat
        )
        if beat is not None:
            beat.finish(
                counters.value("framework", "reduce_input_records")
            )
        span.counters = counters.snapshot()
        span.annotate(**_reduce_span_attrs(counters, output, cost_model))
        _record_reduce_task_metrics(observer, conf.name, counters, output)
        return output, counters


# ----------------------------------------------------------------------
# Process-pool task entry points.  Module-level so they pickle by
# reference under spawn; they return ``(output, counters_dict, seconds)``
# records the parent folds back in.
# ----------------------------------------------------------------------

def _process_map_task(
    payload: Tuple[str, Sequence[Any], Mapper, Optional[Reducer]],
) -> Tuple[List[Tuple[Hashable, Any]], Dict[str, Dict[str, int]], float]:
    # Live telemetry appends a heartbeat emitter as an optional fifth
    # element (a manager-queue channel, picklable); len-gating keeps the
    # telemetry-off payload — and therefore its pickle — byte-identical
    # to the seed's.
    path, records, mapper, combiner = payload[:4]
    beat = payload[4] if len(payload) > 4 else None
    if beat is not None:
        beat.start()
    started = time.perf_counter()
    task_pairs, task_counters = _map_task_core(
        path, records, mapper, combiner, beat=beat
    )
    elapsed = time.perf_counter() - started
    if beat is not None:
        beat.finish(task_counters.value("framework", "map_input_records"))
    return task_pairs, task_counters.as_dict(), elapsed


def _process_reduce_task(
    payload: Tuple[Reducer, int, List[Tuple[Hashable, List[Any]]]],
) -> Tuple[List[Any], Dict[str, Dict[str, int]], float]:
    reducer, task_index, groups = payload[:3]
    beat = payload[3] if len(payload) > 3 else None
    if beat is not None:
        beat.start()
    started = time.perf_counter()
    output, task_counters = _reduce_task_core(
        reducer, task_index, groups, beat=beat
    )
    elapsed = time.perf_counter() - started
    if beat is not None:
        beat.finish(
            task_counters.value("framework", "reduce_input_records")
        )
    return output, task_counters.as_dict(), elapsed


def _process_map_attempt(
    payload: Tuple[str, Sequence[Any], Mapper, Optional[Reducer], Tuple],
) -> Tuple[List[Tuple[Hashable, Any]], Dict[str, Dict[str, int]], float]:
    """One fault-aware map attempt: the injected events travel in the
    payload so worker-side lifecycle crashes fire inside the worker and
    propagate back through the attempt's future."""
    path, records, mapper, combiner, events = payload[:5]
    beat = payload[5] if len(payload) > 5 else None
    injector = AttemptInjector(events)
    started = time.perf_counter()
    task_pairs, task_counters = _map_task_core(
        path, records, mapper, combiner, faults=injector, beat=beat
    )
    return task_pairs, task_counters.as_dict(), time.perf_counter() - started


def _process_reduce_attempt(
    payload: Tuple[Reducer, int, List[Tuple[Hashable, List[Any]]], Tuple],
) -> Tuple[List[Any], Dict[str, Dict[str, int]], float]:
    reducer, task_index, groups, events = payload[:4]
    beat = payload[4] if len(payload) > 4 else None
    injector = AttemptInjector(events)
    started = time.perf_counter()
    output, task_counters = _reduce_task_core(
        reducer, task_index, groups, faults=injector, beat=beat
    )
    return output, task_counters.as_dict(), time.perf_counter() - started


# ----------------------------------------------------------------------
# Phase drivers.
# ----------------------------------------------------------------------

def _run_map_tasks_processes(
    conf: JobConf,
    tasks: Sequence[Tuple[int, InputSpec, List[Any]]],
    observer: Optional["TraceRecorder"],
    phase_span: Optional["Span"],
    cost_model: Optional["CostModel"],
    workers: int,
) -> List[Tuple[List[Tuple[Hashable, Any]], Counters]]:
    live = _live_of(observer)
    if live is None:
        payloads = [
            (spec.path, records, spec.mapper, conf.combiner)
            for _, spec, records in tasks
        ]
    else:
        payloads = [
            (
                spec.path, records, spec.mapper, conf.combiner,
                _task_beat(live, conf.name, "map", index, "processes"),
            )
            for index, spec, records in tasks
        ]
    shipped = _pool_map(
        _process_map_task, payloads, workers,
        conf.name, "map", [index for index, _, _ in tasks],
        profiler=_profiler_of(observer),
    )
    results = []
    for (index, spec, _), (task_pairs, counter_dict, elapsed) in zip(
        tasks, shipped
    ):
        task_counters = Counters.from_dict(counter_dict)
        if observer is not None:
            observer.record_completed(
                f"map:{spec.path}",
                kind="task",
                parent=phase_span,
                duration=elapsed,
                counters=task_counters.delta({}),
                job=conf.name,
                phase="map",
                task_index=index,
                **_map_span_attrs(task_counters, len(task_pairs), cost_model),
            )
            _record_map_task_metrics(
                observer, conf.name, spec.path, task_counters, len(task_pairs)
            )
        results.append((task_pairs, task_counters))
    return results


def _run_reduce_tasks_processes(
    conf: JobConf,
    tasks: Sequence[List[Tuple[Hashable, List[Any]]]],
    observer: Optional["TraceRecorder"],
    phase_span: Optional["Span"],
    cost_model: Optional["CostModel"],
    workers: int,
) -> List[Tuple[List[Any], Counters]]:
    live = _live_of(observer)
    if live is None:
        payloads = [
            (conf.reducer, index, groups)
            for index, groups in enumerate(tasks)
        ]
    else:
        payloads = [
            (
                conf.reducer, index, groups,
                _task_beat(live, conf.name, "reduce", index, "processes"),
            )
            for index, groups in enumerate(tasks)
        ]
    shipped = _pool_map(
        _process_reduce_task, payloads, workers,
        conf.name, "reduce", range(len(payloads)),
        profiler=_profiler_of(observer),
    )
    results = []
    for index, (output, counter_dict, elapsed) in enumerate(shipped):
        task_counters = Counters.from_dict(counter_dict)
        if observer is not None:
            observer.record_completed(
                f"reduce[{index}]",
                kind="task",
                parent=phase_span,
                duration=elapsed,
                counters=task_counters.snapshot(),
                job=conf.name,
                phase="reduce",
                task_index=index,
                **_reduce_span_attrs(task_counters, output, cost_model),
            )
            _record_reduce_task_metrics(
                observer, conf.name, task_counters, output
            )
        results.append((output, task_counters))
    return results


def _run_map_phase(
    fs: FileSystem,
    conf: JobConf,
    counters: Counters,
    observer: Optional["TraceRecorder"],
    cost_model: Optional["CostModel"],
    executor: str,
    workers: int,
) -> List[Tuple[Hashable, Any]]:
    """Run all map tasks; returns the intermediate pair stream.

    Per-task counters merge (and pairs concatenate) in input-spec order
    under every executor, so the stream and the totals are identical
    whether tasks ran serially, on threads, or in worker processes.
    """
    pairs: List[Tuple[Hashable, Any]] = []
    if executor == "serial":
        if observer is None:
            for spec in conf.inputs:
                task_pairs, task_counters = _map_task_core(
                    spec.path, fs.read_dir(spec.path), spec.mapper, conf.combiner
                )
                counters.merge(task_counters)
                pairs.extend(task_pairs)
            return pairs
        live = _live_of(observer)
        with observer.span("map", kind="phase", job=conf.name) as phase_span:
            for index, spec in enumerate(conf.inputs):
                task_pairs, task_counters = _run_map_task_traced(
                    spec, index, fs.read_dir(spec.path), conf.combiner,
                    conf.name, observer, phase_span, cost_model,
                    beat=_task_beat(live, conf.name, "map", index, "serial"),
                )
                counters.merge(task_counters)
                pairs.extend(task_pairs)
        return pairs

    # Parallel executors materialise each input up front: records must be
    # shippable to workers, and file-system access stays on the parent.
    tasks = [
        (index, spec, list(fs.read_dir(spec.path)))
        for index, spec in enumerate(conf.inputs)
    ]
    phase_span = (
        observer.start_span("map", kind="phase", job=conf.name)
        if observer is not None
        else None
    )
    try:
        if executor == "threads":
            live = _live_of(observer)
            with ThreadPoolExecutor(max_workers=workers) as pool:
                futures = [
                    pool.submit(
                        _run_map_task_traced,
                        spec, index, records, conf.combiner,
                        conf.name, observer, phase_span, cost_model,
                        _task_beat(live, conf.name, "map", index, "threads"),
                    )
                    for index, spec, records in tasks
                ]
                results = [future.result() for future in futures]
        else:
            results = _run_map_tasks_processes(
                conf, tasks, observer, phase_span, cost_model, workers
            )
        for task_pairs, task_counters in results:
            counters.merge(task_counters)
            pairs.extend(task_pairs)
    finally:
        if observer is not None and phase_span is not None:
            observer.end_span(phase_span)
    return pairs


# ----------------------------------------------------------------------
# Columnar data plane (REPRO_DATA_PLANE=columnar; see docs/data_plane.md).
# The map phase runs inline on the parent under every executor — it is a
# handful of vectorised numpy passes per input, so the records plane's
# per-task pickling would cost more than it saves — while the reduce
# phase keeps each executor's dispatch, with the ``processes`` backend
# shipping column blocks through shared memory instead of pickles.
# ----------------------------------------------------------------------

def _columnar_map_task(
    path: str, records: Sequence[Any], mapper: Mapper
) -> Tuple[MapBlock, Counters, Any, Any]:
    """Run one map task on the columnar plane.

    Returns the emitted block, the task counters and the per-record
    routing-interval columns.  Counter parity with :func:`_map_task_core`
    is deliberate: ``map_input_records`` appears only when the input is
    non-empty (the records plane increments per record), user counters
    come from the block (non-zero amounts only), ``map_output_records``
    is always recorded.
    """
    counters = Counters()
    context = MapContext(counters, path)
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
    return block, counters, starts, ends


def _run_map_phase_columnar(
    fs: FileSystem,
    conf: JobConf,
    counters: Counters,
    observer: Optional["TraceRecorder"],
    cost_model: Optional["CostModel"],
    codec: KeyCodec,
    store: PayloadStore,
) -> ColumnarPairs:
    """Run all map tasks on the columnar plane (inline, every executor).

    Input records are retained in the job's payload store — the batch
    carries only payload ids, and values materialise lazily wherever the
    framework (or a reducer) actually needs the records-plane objects.
    """
    pairs = ColumnarPairs(codec)

    def run_task(index: int, spec: InputSpec) -> Tuple[int, Counters]:
        records = list(fs.read_dir(spec.path))
        block, task_counters, starts, ends = _columnar_map_task(
            spec.path, records, spec.mapper
        )
        store.add_segment(index, records, spec.mapper)
        pairs.append_block(block, index, starts, ends)
        return len(block), task_counters

    if observer is None:
        for index, spec in enumerate(conf.inputs):
            _, task_counters = run_task(index, spec)
            counters.merge(task_counters)
        return pairs
    live = _live_of(observer)
    with observer.span("map", kind="phase", job=conf.name) as phase_span:
        for index, spec in enumerate(conf.inputs):
            with observer.span(
                f"map:{spec.path}",
                kind="task",
                parent=phase_span,
                job=conf.name,
                phase="map",
                task_index=index,
            ) as span:
                beat = _task_beat(live, conf.name, "map", index, "serial")
                if beat is not None:
                    beat.start()
                num_pairs, task_counters = run_task(index, spec)
                if beat is not None:
                    beat.finish(num_pairs)
                span.counters = task_counters.delta({})
                span.annotate(
                    **_map_span_attrs(task_counters, num_pairs, cost_model)
                )
                _record_map_task_metrics(
                    observer, conf.name, spec.path, task_counters, num_pairs
                )
            counters.merge(task_counters)
    return pairs


def _process_columnar_reduce_task(
    payload: Tuple[Reducer, int, Any],
) -> Tuple[List[Any], Dict[str, Dict[str, int]], float]:
    """Worker entry for one shared-memory columnar reduce task.

    The reducer sees store-less :class:`ColumnValues` groups and emits
    compact gid-shaped outputs; the parent materialises them.  Every
    array view into the block must be dropped before ``close()``.
    """
    reducer, task_index, task = payload[:3]
    beat = payload[3] if len(payload) > 3 else None
    if beat is not None:
        beat.start()
    started = time.perf_counter()
    groups, shm = unpack_reduce_task(task)
    try:
        output, task_counters = _reduce_task_core(
            reducer, task_index, groups, beat=beat
        )
    finally:
        del groups
        if shm is not None:
            shm.close()
    elapsed = time.perf_counter() - started
    if beat is not None:
        beat.finish(
            task_counters.value("framework", "reduce_input_records")
        )
    return output, task_counters.as_dict(), elapsed


def _run_reduce_tasks_processes_columnar(
    conf: JobConf,
    tasks: Sequence[List[Tuple[Hashable, Any]]],
    observer: Optional["TraceRecorder"],
    phase_span: Optional["Span"],
    cost_model: Optional["CostModel"],
    workers: int,
    store: PayloadStore,
) -> List[Tuple[List[Any], Counters]]:
    """The ``processes`` reduce phase on the columnar plane.

    Each non-empty task's group columns travel in one shared-memory
    block (created, and always unlinked, by the parent); the pickled
    payload shrinks to the reducer plus a small descriptor.  Workers
    return gid-shaped outputs, which the parent materialises through the
    payload store before recording spans and metrics — so the recorded
    task facts describe the final records, exactly as on the records
    plane.
    """
    profiler = _profiler_of(observer)
    packed = [pack_reduce_task(groups) for groups in tasks]
    try:
        if profiler is not None:
            profiler.record_shm_bytes(
                conf.name, "reduce", "request",
                sum(descriptor.nbytes for descriptor, _ in packed),
            )
        live = _live_of(observer)
        if live is None:
            payloads = [
                (conf.reducer, index, descriptor)
                for index, (descriptor, _) in enumerate(packed)
            ]
        else:
            payloads = [
                (
                    conf.reducer, index, descriptor,
                    _task_beat(
                        live, conf.name, "reduce", index, "processes"
                    ),
                )
                for index, (descriptor, _) in enumerate(packed)
            ]
        shipped = _pool_map(
            _process_columnar_reduce_task, payloads, workers,
            conf.name, "reduce", range(len(payloads)),
            profiler=profiler,
        )
    finally:
        for _, shm in packed:
            if shm is not None:
                shm.close()
                shm.unlink()
    results = []
    for index, (gid_output, counter_dict, elapsed) in enumerate(shipped):
        output = [
            conf.reducer.materialize_output(out, store) for out in gid_output
        ]
        task_counters = Counters.from_dict(counter_dict)
        if observer is not None:
            observer.record_completed(
                f"reduce[{index}]",
                kind="task",
                parent=phase_span,
                duration=elapsed,
                counters=task_counters.snapshot(),
                job=conf.name,
                phase="reduce",
                task_index=index,
                **_reduce_span_attrs(task_counters, output, cost_model),
            )
            _record_reduce_task_metrics(
                observer, conf.name, task_counters, output
            )
        results.append((output, task_counters))
    return results


# ----------------------------------------------------------------------
# Fault-tolerant execution: the task-attempt loop (Hadoop semantics).
# Active only when a fault plan / retry budget / speculation is resolved;
# otherwise the single-attempt phase drivers above run unchanged.
# ----------------------------------------------------------------------

@dataclass
class _TaskOutcome:
    """What one task's attempt loop produced: the winning attempt's
    result and counters, the fault bookkeeping accumulated along the
    way, which attempt number won, and whether the winner was
    plan-delayed (making it a speculation candidate)."""

    result: Any
    counters: Counters
    fault_counters: Counters
    attempt: int
    delayed: bool


def _run_task_attempts(
    *,
    job: str,
    phase: str,
    task_index: int,
    span_name: str,
    execute: Callable[
        [int, AttemptInjector, Optional[Any]], Tuple[Any, Counters, float]
    ],
    fctx: ResolvedFaults,
    executor: str,
    observer: Optional["TraceRecorder"],
    parent: Optional["Span"],
    attrs_fn: Callable[[Counters, Any], Dict[str, Any]],
    counters_view: Callable[[Counters], Dict[str, Dict[str, int]]],
    stage: Optional[Callable[[Any, int], None]] = None,
    discard: Optional[Callable[[int], None]] = None,
    metrics_fn: Optional[Callable[[Counters, Any], None]] = None,
    beat: Optional[Any] = None,
) -> _TaskOutcome:
    """Run one task to success within its retry budget.

    Each attempt walks Hadoop's lifecycle: exponential backoff (real
    sleeping — capped — only under the parallel executors; the serial
    executor charges it as virtual time on the winning span), injected
    ``setup`` crashes, injected delays, the task body via ``execute``,
    optional output staging via ``stage``, then the commit-point checks
    (a ``corrupt-output`` event discards the staged output and fails the
    attempt).  A failed attempt's counters are discarded — only the
    winner's merge into the job, which is what keeps chaos-run totals
    bit-identical to fault-free runs — and the failure is recorded as a
    ``kind="attempt"`` span.  The winner keeps the regular
    ``kind="task"`` span, annotated with its ``attempt`` number.  Once
    the budget is spent the *original* exception propagates.

    With live telemetry attached, ``beat`` reports each attempt: its
    start is emitted *before* the injected-delay sleep, so a delayed
    attempt looks to the watchdog exactly like an observed straggler —
    started, then silent.  ``fctx.task_timeout`` additionally fails any
    attempt whose observed time (injected delay included; virtual under
    ``serial``) exceeds the limit, feeding this same retry loop.
    """
    fault_counters = Counters()
    real_sleep = executor != "serial"
    for attempt in range(fctx.max_attempts):
        injector = AttemptInjector(
            fctx.events_for(job, phase, task_index, attempt)
        )
        backoff = fctx.backoff_seconds(attempt)
        if backoff and real_sleep:
            time.sleep(min(backoff, fctx.sleep_cap))
        delay = injector.delay_seconds()
        attempt_beat = beat.for_attempt(attempt) if beat is not None else None
        started = time.perf_counter()
        staged = False
        try:
            injector.check("setup")
            if attempt_beat is not None:
                attempt_beat.start()
            if delay and real_sleep:
                time.sleep(min(delay, fctx.sleep_cap))
            result, task_counters, elapsed = execute(
                attempt, injector, attempt_beat
            )
            if fctx.task_timeout is not None:
                observed = (
                    time.perf_counter() - started
                    if real_sleep
                    else elapsed + delay
                )
                if observed > fctx.task_timeout:
                    raise TaskTimeoutError(
                        job, phase, task_index, observed, fctx.task_timeout
                    )
            if stage is not None:
                stage(result, attempt)
                staged = True
            if injector.corrupts_output():
                raise FaultInjectedError(CORRUPT, "commit")
            injector.check("commit")
        except Exception as exc:
            if staged and discard is not None:
                discard(attempt)
            fault_counters.increment(FAULTS_GROUP, "tasks_failed")
            if observer is not None:
                failure_attrs: Dict[str, Any] = {
                    "job": job,
                    "phase": phase,
                    "task_index": task_index,
                    "attempt": attempt,
                    "error": type(exc).__name__,
                }
                if isinstance(exc, FaultInjectedError):
                    failure_attrs["fault"] = exc.kind
                observer.record_completed(
                    span_name,
                    kind="attempt",
                    parent=parent,
                    duration=time.perf_counter() - started,
                    **failure_attrs,
                )
            if attempt + 1 >= fctx.max_attempts:
                raise
            fault_counters.increment(FAULTS_GROUP, "tasks_retried")
            continue
        if attempt_beat is not None:
            attempt_beat.finish()
        duration = elapsed
        if not real_sleep:
            duration += delay + backoff  # straggling is virtual when serial
        if observer is not None:
            attrs: Dict[str, Any] = {
                "job": job,
                "phase": phase,
                "task_index": task_index,
                "attempt": attempt,
            }
            if delay:
                attrs["fault_delay_seconds"] = delay
            attrs.update(attrs_fn(task_counters, result))
            observer.record_completed(
                span_name,
                kind="task",
                parent=parent,
                duration=duration,
                counters=counters_view(task_counters),
                **attrs,
            )
            if metrics_fn is not None:
                # Winner only: failed attempts never reach the metrics,
                # keeping the "run" group chaos-invariant.
                metrics_fn(task_counters, result)
        return _TaskOutcome(
            result, task_counters, fault_counters, attempt, delay > 0
        )
    raise MapReduceError(  # pragma: no cover - loop always returns/raises
        f"task {task_index} of job {job!r} exhausted its attempt budget"
    )


def _speculate(
    job: str,
    phase: str,
    outcomes: Sequence[_TaskOutcome],
    name_of: Callable[[int], str],
    rerun: Callable[[int, int], None],
    fctx: ResolvedFaults,
    observer: Optional["TraceRecorder"],
    parent: Optional["Span"],
    live: Optional[Any] = None,
) -> None:
    """Run backup attempts for straggling winners.

    Candidates come from two sources: winners the fault *plan* delayed
    (the scripted path), and tasks the live telemetry *watchdog* flagged
    as observed stragglers — no script involved, just stalled
    heartbeats.  First-to-finish wins — and by construction the original
    attempt has already finished, so the backup is pure wasted work: its
    output is discarded before commit and it is counted as
    ``faults:speculative_wasted`` and recorded as a speculative
    ``kind="attempt"`` span (watchdog-launched backups additionally
    carry ``trigger="watchdog"``).  A backup that itself fails is
    swallowed (a lost speculation never fails the job)."""
    if not fctx.speculative:
        return
    stalled = (
        live.stalled_indices(job, phase) if live is not None else frozenset()
    )
    if fctx.plan is None and not stalled:
        return
    for index, outcome in enumerate(outcomes):
        watchdog = index in stalled and not outcome.delayed
        if not outcome.delayed and not watchdog:
            continue
        backup = outcome.attempt + 1
        started = time.perf_counter()
        error: Optional[BaseException] = None
        try:
            rerun(index, backup)
        except Exception as exc:
            error = exc
        outcome.fault_counters.increment(FAULTS_GROUP, "speculative_wasted")
        if observer is not None:
            attrs: Dict[str, Any] = {
                "job": job,
                "phase": phase,
                "task_index": index,
                "attempt": backup,
                "speculative": True,
            }
            if watchdog:
                attrs["trigger"] = "watchdog"
            if error is not None:
                attrs["error"] = type(error).__name__
            observer.record_completed(
                name_of(index),
                kind="attempt",
                parent=parent,
                duration=time.perf_counter() - started,
                **attrs,
            )


def _run_map_phase_faulted(
    fs: FileSystem,
    conf: JobConf,
    counters: Counters,
    observer: Optional["TraceRecorder"],
    cost_model: Optional["CostModel"],
    executor: str,
    workers: int,
    fctx: ResolvedFaults,
) -> List[Tuple[Hashable, Any]]:
    """The map phase under fault-tolerant semantics.

    Inputs are materialised up front under every executor (an attempt
    must be re-runnable from identical records).  ``serial`` drives the
    attempt loops inline; ``threads`` and ``processes`` drive one loop
    per task on parent-side driver threads — under ``processes`` each
    attempt is shipped to the worker pool individually.  Outcomes merge
    in task order, so pairs and totals stay executor-independent.
    """
    tasks = [
        (index, spec, list(fs.read_dir(spec.path)))
        for index, spec in enumerate(conf.inputs)
    ]
    phase_span = (
        observer.start_span("map", kind="phase", job=conf.name)
        if observer is not None
        else None
    )
    pairs: List[Tuple[Hashable, Any]] = []
    live = _live_of(observer)
    try:
        def run_attempt(index, spec, records, injector, beat=None):
            if executor == "processes":
                if beat is None:
                    payload = (
                        spec.path, records, spec.mapper, conf.combiner,
                        injector.events,
                    )
                else:
                    payload = (
                        spec.path, records, spec.mapper, conf.combiner,
                        injector.events, beat,
                    )
                return _submit_attempt(
                    _process_map_attempt, payload, workers,
                    conf.name, "map", index,
                    profiler=_profiler_of(observer),
                )
            started = time.perf_counter()
            # Hadoop semantics: every attempt deserialises a pristine
            # mapper, so a failed attempt leaves no state behind (the
            # process pool gets this for free from pickling).
            task_pairs, task_counters = _map_task_core(
                spec.path, records, copy.deepcopy(spec.mapper),
                copy.deepcopy(conf.combiner), faults=injector, beat=beat,
            )
            return task_pairs, task_counters, time.perf_counter() - started

        def attempts(index, spec, records):
            return _run_task_attempts(
                job=conf.name,
                phase="map",
                task_index=index,
                span_name=f"map:{spec.path}",
                execute=lambda attempt, injector, beat: run_attempt(
                    index, spec, records, injector, beat
                ),
                fctx=fctx,
                executor=executor,
                observer=observer,
                parent=phase_span,
                attrs_fn=lambda c, r: _map_span_attrs(c, len(r), cost_model),
                counters_view=lambda c: c.delta({}),
                metrics_fn=lambda c, r, path=spec.path: (
                    _record_map_task_metrics(
                        observer, conf.name, path, c, len(r)
                    )
                ),
                beat=_task_beat(live, conf.name, "map", index, executor),
            )

        if executor == "serial":
            outcomes = [attempts(i, spec, recs) for i, spec, recs in tasks]
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                futures = [
                    pool.submit(attempts, i, spec, recs)
                    for i, spec, recs in tasks
                ]
                outcomes = [future.result() for future in futures]

        def rerun(index, attempt):
            _, spec, records = tasks[index]
            if executor == "processes":
                _submit_attempt(
                    _process_map_attempt,
                    (spec.path, records, spec.mapper, conf.combiner, ()),
                    workers, conf.name, "map", index,
                )
            else:
                _map_task_core(
                    spec.path, records, copy.deepcopy(spec.mapper),
                    copy.deepcopy(conf.combiner),
                )

        _speculate(
            conf.name, "map", outcomes,
            lambda i: f"map:{tasks[i][1].path}",
            rerun, fctx, observer, phase_span, live=live,
        )

        for outcome in outcomes:
            counters.merge(outcome.counters)
            counters.merge(outcome.fault_counters)
            pairs.extend(outcome.result)
    finally:
        if observer is not None and phase_span is not None:
            observer.end_span(phase_span)
    return pairs


def _run_reduce_phase_faulted(
    fs: FileSystem,
    conf: JobConf,
    tasks: Sequence[List[Tuple[Hashable, List[Any]]]],
    observer: Optional["TraceRecorder"],
    reduce_span: Optional["Span"],
    cost_model: Optional["CostModel"],
    executor: str,
    workers: int,
    fctx: ResolvedFaults,
) -> List[_TaskOutcome]:
    """The reduce phase under fault-tolerant semantics.

    Every attempt stages its output through the file system's commit
    protocol (``_temporary/task-NNNNN/attempt-K``); corrupt attempts are
    discarded, and the caller promotes each winner to its ``part-*``
    file when gathering results.
    """
    live = _live_of(observer)

    def run_attempt(index, groups, injector, beat=None):
        if executor == "processes":
            if beat is None:
                payload = (conf.reducer, index, groups, injector.events)
            else:
                payload = (
                    conf.reducer, index, groups, injector.events, beat
                )
            return _submit_attempt(
                _process_reduce_attempt, payload, workers,
                conf.name, "reduce", index,
                profiler=_profiler_of(observer),
            )
        started = time.perf_counter()
        # A pristine reducer per attempt (matching what pickling gives
        # the process pool): reducers may cache state on ``self``, and a
        # shared instance would let a failed attempt's work leak into a
        # concurrent task's counters.
        output, task_counters = _reduce_task_core(
            copy.deepcopy(conf.reducer), index, groups, faults=injector,
            beat=beat,
        )
        return output, task_counters, time.perf_counter() - started

    def attempts(index, groups):
        return _run_task_attempts(
            job=conf.name,
            phase="reduce",
            task_index=index,
            span_name=f"reduce[{index}]",
            execute=lambda attempt, injector, beat: run_attempt(
                index, groups, injector, beat
            ),
            fctx=fctx,
            executor=executor,
            observer=observer,
            parent=reduce_span,
            attrs_fn=lambda c, r: _reduce_span_attrs(c, r, cost_model),
            counters_view=lambda c: c.snapshot(),
            stage=lambda records, attempt: fs.write_attempt(
                conf.output, index, attempt, records
            ),
            discard=lambda attempt: fs.discard_attempt(
                conf.output, index, attempt
            ),
            metrics_fn=lambda c, r: _record_reduce_task_metrics(
                observer, conf.name, c, r
            ),
            beat=_task_beat(live, conf.name, "reduce", index, executor),
        )

    if executor == "serial":
        outcomes = [attempts(i, groups) for i, groups in enumerate(tasks)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(attempts, i, groups)
                for i, groups in enumerate(tasks)
            ]
            outcomes = [future.result() for future in futures]

    def rerun(index, attempt):
        groups = tasks[index]
        if executor == "processes":
            output, _, _ = _submit_attempt(
                _process_reduce_attempt,
                (conf.reducer, index, groups, ()),
                workers, conf.name, "reduce", index,
            )
        else:
            output, _ = _reduce_task_core(
                copy.deepcopy(conf.reducer), index, groups
            )
        # The backup lost the race: stage its output, then discard it
        # without promotion — the winner's attempt file commits instead.
        fs.write_attempt(conf.output, index, attempt, output)
        fs.discard_attempt(conf.output, index, attempt)

    _speculate(
        conf.name, "reduce", outcomes,
        lambda i: f"reduce[{i}]",
        rerun, fctx, observer, reduce_span, live=live,
    )
    return outcomes


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
    fs.profiler = _profiler_of(observer)

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
    live = _live_of(observer)
    if live is not None:
        live.job_started(conf.name)
    try:
        if live is not None:
            live.phase_started(conf.name, "map", len(conf.inputs))
        if fctx.active:
            pairs = _run_map_phase_faulted(
                fs, conf, counters, observer, cost_model, executor, workers,
                fctx,
            )
        elif columnar_kind is not None:
            pairs = _run_map_phase_columnar(
                fs, conf, counters, observer, cost_model,
                KEY_CODECS[columnar_kind], store,
            )
        else:
            pairs = _run_map_phase(
                fs, conf, counters, observer, cost_model, executor, workers
            )
        if live is not None:
            live.phase_finished(conf.name, "map")
        counters.increment("framework", "shuffle_records", len(pairs))

        if columnar_kind is not None:
            logical_loads: Dict[Hashable, int] = pairs.logical_loads()
        else:
            logical_loads = defaultdict(int)
            for key, _ in pairs:
                logical_loads[key] += 1

        def run_shuffle(profiler=None, job=""):
            if columnar_kind is not None:
                return columnar_shuffle(
                    pairs, conf.num_reduce_tasks, conf.partitioner,
                    store=store, profiler=profiler, job=job,
                )
            return shuffle(
                pairs, conf.num_reduce_tasks, conf.partitioner,
                profiler=profiler, job=job,
            )

        if live is not None:
            live.phase_started(conf.name, "shuffle", 1)
        if observer is not None:
            with observer.span(
                "shuffle", kind="phase", job=conf.name
            ) as shuffle_span:
                tasks = run_shuffle(
                    profiler=_profiler_of(observer), job=conf.name
                )
                shuffle_span.annotate(
                    records=len(pairs), reduce_tasks=conf.num_reduce_tasks
                )
                if cost_model is not None:
                    shuffle_span.annotate(
                        modelled_seconds=len(pairs)
                        * cost_model.shuffle_cost
                        / cost_model.parallelism
                    )
        else:
            tasks = run_shuffle()
        if live is not None:
            live.phase_finished(conf.name, "shuffle")
        reduce_task_loads = [
            sum(len(values) for _, values in groups) for groups in tasks
        ]

        if live is not None:
            live.phase_started(conf.name, "reduce", len(tasks))
        reduce_span = (
            observer.start_span("reduce", kind="phase", job=conf.name)
            if observer is not None
            else None
        )
        reduce_outcomes: Optional[List[_TaskOutcome]] = None
        try:
            if fctx.active:
                reduce_outcomes = _run_reduce_phase_faulted(
                    fs, conf, tasks, observer, reduce_span, cost_model,
                    executor, workers, fctx,
                )
                results = [
                    (outcome.result, outcome.counters)
                    for outcome in reduce_outcomes
                ]
            elif executor == "serial":
                results = [
                    _run_reduce_task(
                        conf, index, groups, observer, reduce_span, cost_model,
                        beat=_task_beat(live, conf.name, "reduce", index, "serial"),
                    )
                    for index, groups in enumerate(tasks)
                ]
            elif executor == "threads":
                with ThreadPoolExecutor(max_workers=workers) as pool:
                    futures = [
                        pool.submit(
                            _run_reduce_task,
                            conf,
                            index,
                            groups,
                            observer,
                            reduce_span,
                            cost_model,
                            beat=_task_beat(
                                live, conf.name, "reduce", index, "threads"
                            ),
                        )
                        for index, groups in enumerate(tasks)
                    ]
                    results = [future.result() for future in futures]
            elif columnar_kind is not None:
                results = _run_reduce_tasks_processes_columnar(
                    conf, tasks, observer, reduce_span, cost_model, workers,
                    store,
                )
            else:
                results = _run_reduce_tasks_processes(
                    conf, tasks, observer, reduce_span, cost_model, workers
                )
        finally:
            if observer is not None and reduce_span is not None:
                observer.end_span(reduce_span)
            if live is not None:
                live.phase_finished(conf.name, "reduce")

        total_output = 0
        task_outputs: List[int] = []
        task_comparisons: List[int] = []
        for index, (records, task_counters) in enumerate(results):
            counters.merge(task_counters)
            if reduce_outcomes is not None:
                outcome = reduce_outcomes[index]
                counters.merge(outcome.fault_counters)
                # Commit: promote the winning attempt's staged file.
                fs.promote_attempt(conf.output, index, outcome.attempt)
            else:
                fs.append_partition(conf.output, index, records)
            total_output += len(records)
            task_outputs.append(len(records))
            task_comparisons.append(task_counters.value("work", "comparisons"))

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
