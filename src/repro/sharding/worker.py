"""The shard worker process and its parent-side handle.

Each :class:`ShardWorker` is one OS process owning one row stripe of the
propagation operator.  Its loop is deliberately tiny: wait for a command
on its pipe, run one **block-local iterate sweep step** — a
:func:`repro.kernels.spmm` (or ``spmv``) of its stripe against the full
shared iterate panel ``X``, written into its own row slice of ``Y`` —
and reply.  All heavy state (the CSR stripe, the panels) lives in shared
memory mapped zero-copy; the pipes carry only small command tuples, so a
step costs one roundtrip per worker regardless of graph size.

The protocol is strict request-reply with **sequence numbers**: every
command carries a monotonically increasing ``seq`` the worker echoes in
its reply, and the parent discards replies older than the one it awaits.
That is what makes recovery sound — after a timed-out step is retried, a
late reply from the slow (but alive) worker cannot be mistaken for the
retry's answer, so a recovered sweep stays bitwise identical.

Failures surface as typed :class:`~repro.exceptions.WorkerFailure`
(``died`` / ``timeout`` / ``error`` / ``init``), which the sweep retry
and the :class:`~repro.resilience.Supervisor` use to decide between
respawn (process-level failure) and plain retry (step-level error).

Workers pre-scale their stripe's value array by the commanded decay
(scaled then cast, exactly as :meth:`Graph._operator_for` builds the
in-memory decayed operator) and cache the scaled copy per
``(decay, dtype)``, so steady serving touches only the SpMM itself.
Because every output row is computed with the same per-row arithmetic
and accumulation order as the single-process kernels, the sharded sweep
is **bitwise identical** to the serial one — the property the router's
equivalence tests pin down.

Each worker stamps its process with
:func:`repro.kernels.set_shard_annotation`, registers itself with the
fault-injection harness (scope ``shard<i>``, its respawn generation),
and honors the :mod:`repro.resilience.faults` injection points the
chaos suite drives.
"""

from __future__ import annotations

import signal
import time
import traceback
from multiprocessing.connection import Connection

import numpy as np
import scipy.sparse as sp

from repro.exceptions import WorkerFailure
from repro.obs.logs import get_logger
from repro.sharding.store import StripeSpec, attach_segment

__all__ = ["ShardWorker", "shard_worker_main"]

_log = get_logger("sharding.worker")

#: Default seconds the parent waits for one step reply before declaring
#: the worker hung.  Generous: a step is one stripe product, milliseconds
#: to seconds even at 200k nodes, so only a wedged worker comes near it
#: and a slow or heavily shared host never trips it.
DEFAULT_STEP_TIMEOUT = 300.0


def _counter_deltas(registry, shipped: dict) -> dict:
    """Counter increments earned since the last call.

    ``shipped`` caches the last-shipped value per ``(family, labelnames,
    labelvalues)``; seeding it once right after fork means values the
    child *inherited* from the parent's registry never ship.  The format
    is pipe-friendly: ``{name: [[labelnames, labelvalues, delta, help]]}``.
    """
    deltas: dict = {}
    for name, family in registry.families().items():
        if family.kind != "counter":
            continue
        labelnames = family.labelnames
        for key, child in family.children().items():
            token = (name, labelnames, key)
            value = float(child.value)
            delta = value - shipped.get(token, 0.0)
            if delta > 0:
                shipped[token] = value
                deltas.setdefault(name, []).append(
                    [list(labelnames), list(key), delta, family.help]
                )
    return deltas


def _spec_payload(spec: StripeSpec) -> dict:
    """The picklable recipe a child needs to rebuild its stripe views."""
    return {
        "shard": spec.shard,
        "row_begin": spec.row_begin,
        "row_end": spec.row_end,
        "num_cols": spec.num_cols,
        "nnz": spec.nnz,
        "indptr_offset": spec.indptr_offset,
        "indices_offset": spec.indices_offset,
        "data_offset": spec.data_offset,
        "index_dtype": spec.index_dtype,
    }


def shard_worker_main(
    payload: dict,
    segments: tuple[str, str, str],
    num_shards: int,
    conn: Connection,
    pin_cpus: tuple[int, ...] | None = None,
    generation: int = 0,
) -> None:
    """Child-process entry: serve step commands until told to stop.

    Importable at module level so it works under both the ``fork`` and
    ``spawn`` start methods.  ``pin_cpus`` (from a
    :func:`repro.tune.plan_pinning` plan) pins this worker to its own
    core set and caps its kernel threads to that set's size — placement
    only, never results: a failed pin warns and the worker serves
    unpinned.  ``generation`` counts respawns of this shard's worker
    (0 = original), so targeted fault clauses can hit exactly one
    incarnation.
    """
    from repro import kernels
    from repro.obs import metrics as obs_metrics
    from repro.obs import profile as obs_profile
    from repro.resilience import faults

    # A forked child inherits the parent's resolved fault plan and its
    # visit counters — both wrong here.  Re-resolve from the environment
    # with fresh counters, under this worker's scope.  Same hygiene for
    # the profiler: the inherited sampler object has no live thread and
    # the inherited samples are the parent's, not ours.
    faults.reset_fault_plan()
    obs_profile.reset_after_fork()

    # Mutable binding state: the "remap" command (a partial republish
    # after a dynamic-graph compaction) swaps the worker onto a new
    # store's segments mid-serve, so everything derived from the mapped
    # buffers lives here rather than in loop-invariant locals.
    state: dict = {"segments": (), "views": (), "cache": {}}

    def unbind() -> None:
        # Views into the buffers must die before the mappings close.
        state["views"] = ()
        state["cache"] = {}
        for segment in state["segments"]:
            try:
                segment.close()
            except Exception:  # pragma: no cover - interpreter exit
                pass
        state["segments"] = ()

    def bind(spec: dict, names: tuple) -> None:
        unbind()
        # Workers inherit the creator's resource tracker (fork and spawn
        # alike), so attaching must not disturb its bookkeeping — see
        # attach_segment.
        operator_shm = attach_segment(names[0])
        panel_x = attach_segment(names[1])
        panel_y = attach_segment(names[2])
        state["segments"] = (operator_shm, panel_x, panel_y)
        rows = spec["row_end"] - spec["row_begin"]
        indptr = np.ndarray(
            (rows + 1,), dtype=spec["index_dtype"],
            buffer=operator_shm.buf, offset=spec["indptr_offset"],
        )
        indices = np.ndarray(
            (spec["nnz"],), dtype=spec["index_dtype"],
            buffer=operator_shm.buf, offset=spec["indices_offset"],
        )
        base_data = np.ndarray(
            (spec["nnz"],), dtype=np.float64,
            buffer=operator_shm.buf, offset=spec["data_offset"],
        )
        state["views"] = (indptr, indices, base_data)
        # Fault the stripe's pages in from this worker (first-touch /
        # warm): the serving loop then never stalls on a cold mapping,
        # and on a pinned worker the pages are pulled toward its node.
        from repro.tune.pinning import first_touch

        first_touch(indptr, indices, base_data)
        n = spec["num_cols"]
        cache: dict = {}
        state["cache"] = cache

        def stripe_for(decay: float | None, dtype: np.dtype) -> sp.csr_array:
            key = (decay, dtype.name)
            stripe = cache.get(key)
            if stripe is None:
                stripe = sp.csr_array(
                    (kernels.scaled_values(base_data, decay, dtype),
                     indices, indptr),
                    shape=(rows, n),
                )
                cache[key] = stripe
            return stripe

        state["stripe_for"] = stripe_for
        state["n"] = n
        state["begin"] = spec["row_begin"]
        state["end"] = spec["row_end"]
        state["panel_x"] = panel_x
        state["panel_y"] = panel_y

    try:
        shard = payload["shard"]
        kernels.set_shard_annotation(f"{shard}/{num_shards}")
        faults.set_scope(f"shard{shard}", generation)
        # Armed like REPRO_FAULTS: re-read from the (inherited)
        # environment, sampler started in *this* process.
        obs_profile.arm()
        registry = obs_metrics.get_registry()
        steps_total = registry.counter(
            "repro_worker_steps_total",
            help_text="Sweep steps completed inside shard worker processes",
            labelnames=("shard",),
        ).labels(shard=shard)
        step_seconds_total = registry.counter(
            "repro_worker_step_seconds_total",
            help_text="Cumulative in-worker sweep seconds",
            labelnames=("shard",),
        ).labels(shard=shard)
        # Baseline the shipping cache on whatever counter values the
        # fork carried over, so only this process's increments ship.
        shipped: dict = {}
        _counter_deltas(registry, shipped)
        # The kernels must not oversubscribe this worker's share of the
        # machine — its pinned cores, else an equal split of the cores
        # among the shards; thread count never changes results (bitwise
        # contract), only placement.
        from repro.tune.fingerprint import affinity_cpus

        share = max(1, len(affinity_cpus()) // num_shards)
        if pin_cpus:
            from repro.tune.pinning import pin_current

            if pin_current(pin_cpus):
                share = len(pin_cpus)
        kernels.set_num_threads(min(kernels.num_threads(), share))
        bind(payload, segments)
        conn.send(("ready", 0, shard))
        while True:
            try:
                command = conn.recv()
            except EOFError:  # parent vanished: exit quietly
                return
            verb = command[0]
            seq = (
                command[1]
                if len(command) > 1 and isinstance(command[1], int)
                else 0
            )
            try:
                if verb == "stop":
                    hang = faults.fire("hang_on_stop")
                    if hang is not None:
                        # A worker wedged so hard even SIGTERM is lost:
                        # the parent's stop() must escalate to SIGKILL.
                        signal.signal(signal.SIGTERM, signal.SIG_IGN)
                        time.sleep(float(hang.get("seconds", 60)))
                    conn.send(("ok", seq, None))
                    return
                if verb == "ping":
                    conn.send(("ok", seq, shard))
                    continue
                if verb == "remap":
                    _, _, new_payload, new_segments = command
                    bind(new_payload, new_segments)
                    if faults.fire("drop_remap_ack") is not None:
                        # Rebound but silent: the parent times out and
                        # must respawn against the new store.
                        continue
                    conn.send(("ok", seq, shard))
                    continue
                if verb != "step":
                    raise ValueError(f"unknown shard command {verb!r}")
                if faults.fire("poison_batch") is not None:
                    raise RuntimeError("injected fault: poisoned batch")
                faults.fire_kill("kill_before_sweep")
                _, _, ncols, dtype_name, decay, trace = command
                dtype = np.dtype(dtype_name)
                stripe = state["stripe_for"](decay, dtype)
                n = state["n"]
                begin, end = state["begin"], state["end"]
                panel_x, panel_y = state["panel_x"], state["panel_y"]
                step_begin = time.perf_counter()
                if ncols == 0:
                    x = np.ndarray((n,), dtype=dtype, buffer=panel_x.buf)
                    y = np.ndarray((n,), dtype=dtype, buffer=panel_y.buf)
                    kernels.spmv(stripe, x, out=y[begin:end])
                else:
                    x = np.ndarray(
                        (n, ncols), dtype=dtype, buffer=panel_x.buf
                    )
                    y = np.ndarray(
                        (n, ncols), dtype=dtype, buffer=panel_y.buf
                    )
                    kernels.spmm(stripe, x, out=y[begin:end])
                step_end = time.perf_counter()
                steps_total.inc()
                step_seconds_total.inc(step_end - step_begin)
                faults.fire_kill("kill_mid_sweep")
                faults.fire_delay("delay_reply")
                # The reply detail carries the worker-side measurement
                # (and, when the step was traced, a child span for the
                # parent to adopt) back across the pipe — the only way
                # a trace can see inside another process.  Profiler
                # samples and counter increments ride the same reply:
                # no second channel, and the parent's merged view
                # converges on worker truth one step behind at worst.
                detail: dict = {"seconds": step_end - step_begin}
                if obs_profile.running():
                    folded = obs_profile.drain_local()
                    if folded:
                        detail["profile"] = folded
                if obs_metrics._enabled:
                    counter_deltas = _counter_deltas(registry, shipped)
                    if counter_deltas:
                        detail["counters"] = counter_deltas
                if trace is not None:
                    trace_id, parent_span_id, attempt = trace
                    from repro.obs import trace as obs_trace

                    span = obs_trace.Span(
                        "sweep_shard",
                        trace_id,
                        parent_id=parent_span_id,
                        begin=step_begin,
                        shard=shard,
                        generation=generation,
                        attempt=attempt,
                    )
                    span.end = step_end
                    detail["spans"] = [span.to_dict()]
                conn.send(("ok", seq, detail))
                faults.fire_kill("kill_after_sweep")
            except Exception:  # noqa: BLE001 - forwarded to the router
                conn.send(("err", seq, traceback.format_exc()))
    finally:
        unbind()
        try:
            conn.close()
        except Exception:  # pragma: no cover
            pass


class ShardWorker:
    """Parent-side handle of one shard worker process.

    Parameters
    ----------
    context:
        The ``multiprocessing`` context to spawn under.
    spec:
        The worker's stripe (from :attr:`ShardStore.specs`).
    segments:
        The store's ``(operator, X, Y)`` segment names.
    num_shards:
        Total worker count (for the shard annotation).
    pin_cpus:
        Optional cpu ids this worker pins itself to at startup (one
        entry of a :func:`repro.tune.plan_pinning` plan).
    generation:
        Respawn generation of this shard's worker (0 = spawned at
        deployment construction; each respawn increments it).
    """

    def __init__(
        self,
        context,
        spec: StripeSpec,
        segments: tuple[str, str, str],
        num_shards: int,
        pin_cpus: tuple[int, ...] | None = None,
        generation: int = 0,
    ):
        self.spec = spec
        self.pin_cpus = pin_cpus
        self.generation = int(generation)
        payload = _spec_payload(spec)
        parent_conn, child_conn = context.Pipe()
        self._conn = parent_conn
        self._seq = 0
        self._awaiting = 0
        self._process = context.Process(
            target=shard_worker_main,
            args=(
                payload, segments, num_shards, child_conn,
                pin_cpus, self.generation,
            ),
            name=f"repro-shard-{spec.shard}",
            daemon=True,
        )
        self._process.start()
        child_conn.close()

    @property
    def shard(self) -> int:
        return self.spec.shard

    @property
    def alive(self) -> bool:
        return self._process.is_alive()

    @property
    def pid(self) -> int | None:
        return self._process.pid

    def _next_seq(self) -> int:
        self._seq += 1
        self._awaiting = self._seq
        return self._seq

    def _send(self, command: tuple) -> None:
        try:
            self._conn.send(command)
        except (BrokenPipeError, OSError) as error:
            raise WorkerFailure(
                self.shard, "died", f"send failed: {error}"
            ) from error

    def wait_ready(self, timeout: float) -> None:
        reply = self._receive(timeout)
        if reply[0] != "ready":
            raise WorkerFailure(
                self.shard, "init", f"failed to initialize: {reply[2]}"
            )

    def send_step(
        self,
        ncols: int,
        dtype: np.dtype,
        decay: float | None,
        trace: tuple[str, str, int] | None = None,
    ) -> None:
        """Command one sweep step.  ``trace`` is the optional
        ``(trace_id, parent_span_id, attempt)`` triple of a traced
        request — the worker answers with a child span to adopt."""
        self._send(
            (
                "step", self._next_seq(), ncols, np.dtype(dtype).name,
                decay, trace,
            )
        )

    def send_remap(
        self, spec: StripeSpec, segments: tuple[str, str, str],
        timeout: float,
    ) -> None:
        """Rebind the worker onto a republished store's segments.

        The worker drops its stripe views and scaled-value cache,
        detaches the old segments, and attaches the new ones; the reply
        is awaited so the caller knows the old store can be closed.
        """
        self.spec = spec
        self._send(("remap", self._next_seq(), _spec_payload(spec), segments))
        self.wait_ok(timeout)

    def ping(self, timeout: float) -> None:
        self._send(("ping", self._next_seq()))
        self.wait_ok(timeout)

    def wait_ok(self, timeout: float):
        """Await the reply to the last command sent, discarding stale
        replies (answers to commands a recovery pass abandoned).
        Returns the reply's detail payload (step timing + shipped
        spans for step commands, the shard id for ping/remap)."""
        deadline = time.perf_counter() + timeout
        while True:
            remaining = max(deadline - time.perf_counter(), 0.0)
            reply = self._receive(remaining)
            status, seq, detail = reply[0], reply[1], reply[2]
            if seq < self._awaiting:
                continue  # stale reply to an abandoned command
            if status != "ok":
                raise WorkerFailure(
                    self.shard, "error", f"step failed:\n{detail}"
                )
            return detail

    def _receive(self, timeout: float):
        try:
            ready = self._conn.poll(timeout)
        except (BrokenPipeError, OSError) as error:
            raise WorkerFailure(
                self.shard, "died", f"pipe failed: {error}"
            ) from error
        if not ready:
            raise WorkerFailure(
                self.shard, "timeout",
                f"no reply within {timeout:g}s (alive={self.alive})",
            )
        try:
            return self._conn.recv()
        except (EOFError, OSError) as error:
            raise WorkerFailure(
                self.shard, "died", "worker process died"
            ) from error

    def stop(self, timeout: float = 5.0) -> None:
        """Ask the worker to exit; escalate terminate → kill if it will
        not.  A worker ignoring both the stop command and SIGTERM (hung
        in native code, or chaos-injected) is SIGKILLed — shutdown must
        never hang on a wedged child."""
        try:
            self._conn.send(("stop", self._next_seq()))
            self._conn.poll(timeout)
        except (BrokenPipeError, OSError):
            _log.info(
                "shard %d pipe already gone during stop", self.shard
            )
        self._process.join(timeout)
        if self._process.is_alive():
            _log.warning(
                "shard %d (pid %s) ignored stop; escalating to SIGTERM",
                self.shard, self.pid,
            )
            self._process.terminate()
            self._process.join(timeout)
        if self._process.is_alive():
            _log.warning(
                "shard %d (pid %s) survived SIGTERM; escalating to SIGKILL",
                self.shard, self.pid,
            )
            self._process.kill()
            self._process.join(timeout)
        try:
            self._conn.close()
        except OSError:  # pragma: no cover
            pass

    def kill(self, timeout: float = 5.0) -> None:
        """SIGKILL the worker outright (recovery path: it is already
        considered dead or wedged; no goodbye protocol)."""
        try:
            self._process.kill()
        except Exception:  # pragma: no cover - already gone
            pass
        self._process.join(timeout)
        try:
            self._conn.close()
        except OSError:  # pragma: no cover
            pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardWorker(shard={self.shard}, "
            f"rows=[{self.spec.row_begin}, {self.spec.row_end}), "
            f"generation={self.generation}, alive={self.alive})"
        )
