"""Span recording around the library's public calls, from outside it.

Nothing under ``src/`` knows it is being traced.  The traced run hands
the library proxies instead of the real objects: a queue proxy around
:class:`~repro.core.native.NativeBGPQ`, a kernel-set proxy passed as
``kernels=`` (it keeps ``fused=True``, so the one-C-call-per-op path is
the one measured), and proxies around the durable service's WAL and
checkpoint store.  Each proxy opens a span around the call it forwards.

Spans nest on one stack, and a layer's self time is its span duration
minus the time its child spans cover.  Aggregates (self time, total
time, call count, per-call durations) are kept in memory; the run
turns them into metrics when it ends.  Spans are taken only while
``Tracer.on`` is set: the traced run alternates traced and untraced
blocks, so the same run also measures the tracing overhead.  Counts
that must repeat exactly (kernel calls, records) are taken on every
call, traced or not.
"""

from __future__ import annotations

import time
from collections import defaultdict

__all__ = [
    "TracedKernels",
    "TracedQueue",
    "TracedStore",
    "TracedWal",
    "Tracer",
    "charge_twin",
]

_now = time.perf_counter_ns


class Tracer:
    """Per-layer span aggregates for one run."""

    def __init__(self) -> None:
        self.on = False
        self._stack: list[list] = []
        self.self_ns: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.durations: dict[str, list[int]] = defaultdict(list)

    def begin(self, layer: str) -> None:
        self._stack.append([layer, _now(), 0])

    def end(self) -> None:
        layer, t0, child = self._stack.pop()
        d = _now() - t0
        self.self_ns[layer] += d - child
        self.total_ns[layer] += d
        self.calls[layer] += 1
        self.durations[layer].append(d)
        if self._stack:
            self._stack[-1][2] += d

    def wrap(self, layer: str, fn):
        """``fn`` with a ``layer`` span around each call while on."""

        def call(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            self.begin(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()

        return call

    def mean_us(self, layer: str, self_time: bool = False) -> float:
        n = self.calls.get(layer, 0)
        if not n:
            return 0.0
        ns = self.self_ns[layer] if self_time else self.total_ns[layer]
        return ns / n / 1e3


class TracedQueue:
    """NativeBGPQ proxy: ``native.*`` spans plus an op recording.

    The recording (method, args, kwargs) feeds :func:`charge_twin`.
    ``timed_from`` marks where the set-up calls end; from there on the
    recording stops once ``record_cap`` records have been captured.
    ``calls`` counts the public calls since then, recorded or not.
    """

    def __init__(self, pq, tracer: Tracer, record_cap: int = 0):
        self.pq = pq
        self.ops: list[tuple] = []
        self.timed_from = 0
        self.calls = 0
        self._cap = record_cap
        self.recorded = 0
        w = tracer.wrap
        self._insert = w("native.insert", pq.insert)
        self._insert_bulk = w("native.insert", pq.insert_bulk)
        self._build = w("native.build", pq.build)
        self._deletemin = w("native.deletemin", pq.deletemin)
        self.export_state = w("ckpt.export", pq.export_state)

    def mark_timed(self) -> None:
        self.timed_from = len(self.ops)
        self.calls = self.recorded = 0

    def _record(self, name: str, args, kwargs, n: int) -> None:
        self.calls += 1
        if self.recorded < self._cap:
            self.ops.append((name, args, kwargs))
            self.recorded += n

    def insert(self, keys, *args, **kwargs):
        self._record("insert_bulk", (keys,) + args, kwargs, len(keys))
        return self._insert(keys, *args, **kwargs)

    def insert_bulk(self, keys, *args, **kwargs):
        self._record("insert_bulk", (keys,) + args, kwargs, len(keys))
        return self._insert_bulk(keys, *args, **kwargs)

    def build(self, keys, *args, **kwargs):
        self._record("build", (keys,) + args, kwargs, len(keys))
        return self._build(keys, *args, **kwargs)

    def deletemin(self, count):
        self._record("deletemin", (count,), {}, count)
        return self._deletemin(count)

    def __len__(self) -> int:
        return len(self.pq)

    def __bool__(self) -> bool:
        return bool(self.pq)

    def __getattr__(self, item):
        return getattr(self.pq, item)


class _TracedMod:
    """The compiled module behind a kernel set, with fused-op spans."""

    def __init__(self, mod, owner: "TracedKernels", tracer: Tracer):
        self._mod = mod
        self._owner = owner
        self._insert_sorted = tracer.wrap("kernels.fused_insert", mod.insert_sorted)
        self._deletemin = tracer.wrap("kernels.fused_deletemin", mod.deletemin)

    # argument positions follow the C entry points' signatures:
    # insert_sorted(keys, pay, counts, ik, ip, scratch, k, rb, n, hs, log)
    # deletemin(keys, pay, counts, hs, k, rb, count, out_k, out_p, scratch, log)
    def insert_sorted(self, *args):
        self._owner.count(int(args[8]))
        return self._insert_sorted(*args)

    def deletemin(self, *args):
        self._owner.count(int(args[6]))
        return self._deletemin(*args)

    def __getattr__(self, item):
        return getattr(self._mod, item)


class TracedKernels:
    """Kernel-set proxy for ``NativeBGPQ(kernels=...)``.

    Forwards to the backend the registry resolved and keeps its
    ``fused`` flag, so the queue still runs one C call per op.  Counts
    every kernel call and the records handed to it.
    """

    def __init__(self, base, tracer: Tracer):
        self._base = base
        self.name = base.name
        self.releases_gil = base.releases_gil
        self.fused = base.fused
        self.calls = 0
        self.records = 0
        if hasattr(base, "mod"):
            self.mod = _TracedMod(base.mod, self, tracer)
        self._sort_records = tracer.wrap("kernels.sort_records", base.sort_records)
        self._sort_split = tracer.wrap("kernels.sort_split", base.sort_split_into)

    def count(self, records: int) -> None:
        self.calls += 1
        self.records += records

    def sort_records(self, keys, pay):
        self.count(len(keys))
        return self._sort_records(keys, pay)

    def sort_split_into(self, a, b, *args, **kwargs):
        self.count(len(a) + len(b))
        return self._sort_split(a, b, *args, **kwargs)

    def provenance(self) -> dict:
        return self._base.provenance()

    def __getattr__(self, item):
        return getattr(self._base, item)


class TracedWal:
    """WriteAheadLog proxy: a ``wal.append`` span per record."""

    def __init__(self, wal, tracer: Tracer):
        self.wal = wal
        self.append = tracer.wrap("wal.append", wal.append)

    def __len__(self) -> int:
        return len(self.wal)

    def __getattr__(self, item):
        return getattr(self.wal, item)


class TracedStore:
    """CheckpointStore proxy: a ``ckpt.save`` span per checkpoint, and
    the size of each file written against the keys it holds."""

    def __init__(self, store, tracer: Tracer):
        self.store = store
        self._save = tracer.wrap("ckpt.save", store.save)
        self.saved = 0
        self.last_bytes = 0
        self.last_keys = 0

    def save(self, state, lsn, extra=None):
        path = self._save(state, lsn, extra)
        self.saved += 1
        self.last_bytes = path.stat().st_size
        self.last_keys = len(state["buffer"]["keys"]) + sum(
            len(n["keys"]) for n in state["nodes"]
        )
        return path

    def __getattr__(self, item):
        return getattr(self.store, item)


def _replay(pq, ops) -> None:
    for name, args, kwargs in ops:
        getattr(pq, name)(*args, **kwargs)


def charge_twin(recordings, make_queue, ctx, unit: int = 50) -> tuple[float, int]:
    """Host time the cost-model charge replay adds, by difference.

    Replays each recorded op sequence on two fresh queues, one built
    with ``ctx`` and one with ``ctx=None``; their only difference is
    the device-cost charging.  The set-up prefix runs untimed, then
    units of ``unit`` ops alternate between the twins (which goes first
    alternates too).  Returns (charge seconds, timed ops).
    """
    extra_ns = 0
    nops = 0
    flip = False
    for rec in recordings:
        with_ctx, bare = make_queue(ctx), make_queue(None)
        _replay(with_ctx, rec.ops[: rec.timed_from])
        _replay(bare, rec.ops[: rec.timed_from])
        timed = rec.ops[rec.timed_from :]
        for i in range(0, len(timed), unit):
            chunk = timed[i : i + unit]
            spent = {}
            order = (bare, with_ctx) if flip else (with_ctx, bare)
            flip = not flip
            for pq in order:
                t0 = _now()
                _replay(pq, chunk)
                spent[id(pq)] = _now() - t0
            extra_ns += spent[id(with_ctx)] - spent[id(bare)]
            nops += len(chunk)
    return extra_ns / 1e9, nops
