"""Write-ahead op journal: CRC-framed binary records, redo-log semantics.

Every operation the durable server applies is appended here *in the
same atomic step* that applies it (the server's journal+apply block
runs between engine yields, so a simulated crash can never separate
them).  Recovery loads the newest valid checkpoint and replays the
journal suffix — the classic redo-log protocol, with the BGPQ twist
that ``deletemin`` results are *recorded* in the journal: replay
re-executes the op and cross-checks the recorded result, turning any
divergence into a hard :class:`~repro.errors.DurabilityError` instead
of silently serving from a corrupt queue.

File format
-----------
``wal.bin`` is a run of frames, one per record, all little-endian::

    frame head  u32 body length | u32 crc32(body) | u32 crc32(the 8 bytes before it)
    body        record head | sid (UTF-8) | keys | payload rows

The record head (:data:`_HEAD`) holds ``lsn``, ``op_id``, ``count``,
the key count ``n``, the payload width, the byte length of ``sid``, the
kind code and one dtype code each for the keys and the payload rows.
The keys follow as ``n`` raw values and the payload as ``n * width``,
so every key round-trips bit for bit, float keys included.  An insert
frame carries the inserted records; a deletemin frame carries the
records the op returned.

Because appends are written and flushed one frame at a time, the only
damage a crash can leave is a torn final frame.  Exactly three shapes
count as one, and :meth:`WriteAheadLog.open` truncates the file in
place back to the end of the last whole frame:

1. fewer bytes than a frame head remain;
2. the frame head checks but its body runs past the end of the file;
3. the frame head checks, the body ends exactly at the end of the file,
   but the body CRC fails.

Anything else is corruption and raises :class:`DurabilityError`: a
frame head whose own CRC fails (so a flipped length bit mid-file can
never pass for a torn tail and drop the records after it), a body CRC
failure with bytes after it, a record head that does not describe its
body exactly (byte count, kind or dtype code, non-UTF-8 ``sid``), or a
gap in the LSNs, which run contiguously from 1.
"""

from __future__ import annotations

import os
import struct
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import DurabilityError
from ..obs.events import WAL_APPEND

__all__ = ["WalRecord", "WriteAheadLog"]

#: body length, crc32 of the body, crc32 of those two packed as _LEN_CRC
_FRAME = struct.Struct("<III")
_LEN_CRC = struct.Struct("<II")
#: lsn, op_id, count, n, payload width, sid bytes, kind, key/payload dtype
_HEAD = struct.Struct("<QqqIIIBBB")
_KINDS = ("insert", "deletemin")
_DTYPES = tuple(np.dtype(c) for c in (
    "<i8", "<i4", "<i2", "<i1", "<u8", "<u4", "<u2", "<u1", "<f8", "<f4",
))
_SIZES = tuple(dt.itemsize for dt in _DTYPES)
_CODES = {dt: code for code, dt in enumerate(_DTYPES)}


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


_NO_KEYS = _frozen(np.empty(0, dtype=np.int64))
#: the ``pay`` of records without payload, one per dtype code
_NO_PAYS = tuple(_frozen(np.empty((0, 0), dtype=dt)) for dt in _DTYPES)


@dataclass(slots=True, eq=False)
class WalRecord:
    """One journaled operation.

    ``keys``/``pay`` are the inserted records (empty for a deletemin);
    ``result`` is ``None`` for inserts and, for deletemins, holds the
    ``keys`` and ``pay`` rows the op returned, which replay
    cross-checks and the conservation audit treats as the
    removed-multiset ledger.  Every array is a read-only view of the
    record's frame bytes; ``pay`` has shape ``(n, width)``, or
    ``(0, 0)`` when the records carry no payload.  Records are shared
    by the journal and the service's dedupe cache and are never
    mutated (not ``frozen``: that makes building one several times
    slower, a cost every append and every recovered frame pays).
    """

    lsn: int
    sid: str
    op_id: int
    kind: str  # "insert" | "deletemin"
    keys: np.ndarray
    pay: np.ndarray
    count: int
    result: dict | None


def _code(a: np.ndarray) -> int:
    """The dtype code of ``a`` (of either byte order)."""
    code = _CODES.get(a.dtype)
    if code is None:
        code = _CODES.get(a.dtype.newbyteorder("<"))
        if code is None:
            raise ValueError(f"the WAL cannot journal {a.dtype} arrays")
    return code


def _record(buf: bytes, off: int, lsn: int, sid: str, op_id: int,
            kind: int, count: int, n: int, width: int, kc: int,
            pc: int) -> WalRecord:
    """The record whose keys start at ``buf[off]``, as views of ``buf``."""
    keys = np.frombuffer(buf, _DTYPES[kc], n, off)
    if width:
        pay = np.frombuffer(buf, _DTYPES[pc], n * width,
                            off + n * _SIZES[kc]).reshape(n, width)
    else:
        pay = _NO_PAYS[pc]
    if kind == 0:
        return WalRecord(lsn, sid, op_id, "insert", keys, pay, count, None)
    return WalRecord(lsn, sid, op_id, "deletemin", _NO_KEYS, _NO_PAYS[0],
                     count, {"keys": keys, "pay": pay})


def _encode(lsn: int, sid: str, op_id: int, kind: str, count: int, keys,
            pay) -> tuple[bytes, WalRecord]:
    """One frame, and the record as views of it.

    ``keys``/``pay`` are the frame's records: the inserted ones for an
    insert, the returned ones for a deletemin.  ``pay`` is ``None`` (or
    empty) for records without payload, else ``n`` rows.
    """
    keys = np.asarray(keys)
    n, kc = keys.size, _code(keys)
    width = pc = 0
    pay_b = b""
    if pay is not None:
        pay = np.asarray(pay)
        width = pay.shape[1] if pay.ndim == 2 else 0
        if pay.shape[0] != n if width else pay.size > 0:
            raise ValueError(f"payload of shape {pay.shape} for {n} keys")
        pc = _code(pay)
        pay_b = pay.astype(_DTYPES[pc], copy=False).tobytes()
    kind_code = _KINDS.index(kind)
    sid_b = sid.encode("utf-8")
    body = b"".join((
        _HEAD.pack(lsn, op_id, count, n, width, len(sid_b), kind_code, kc, pc),
        sid_b,
        keys.astype(_DTYPES[kc], copy=False).tobytes(),
        pay_b,
    ))
    length, crc = len(body), zlib.crc32(body)
    frame = b"".join((
        _FRAME.pack(length, crc, zlib.crc32(_LEN_CRC.pack(length, crc))), body))
    return frame, _record(frame, _FRAME.size + _HEAD.size + len(sid_b), lsn, sid,
                          op_id, kind_code, count, n, width, kc, pc)


def _decode(buf: bytes, start: int, stop: int) -> WalRecord:
    """The record in a CRC-valid body ``buf[start:stop]``; raises
    :class:`DurabilityError` unless its head describes it exactly."""
    if stop - start < _HEAD.size:
        raise DurabilityError("body shorter than a record head")
    lsn, op_id, count, n, width, sid_len, kind, kc, pc = _HEAD.unpack_from(
        buf, start)
    if kind >= len(_KINDS) or kc >= len(_DTYPES) or pc >= len(_DTYPES):
        raise DurabilityError(
            f"unknown kind or dtype code ({kind}, {kc}, {pc})")
    off = start + _HEAD.size + sid_len
    size = n * (_SIZES[kc] + width * _SIZES[pc])
    if off + size != stop:
        raise DurabilityError(
            f"head describes {off + size - start} body bytes, "
            f"the frame holds {stop - start}")
    try:
        sid = buf[start + _HEAD.size : off].decode("utf-8")
    except UnicodeDecodeError:
        raise DurabilityError("sid is not UTF-8") from None
    return _record(buf, off, lsn, sid, op_id, kind, count, n, width, kc, pc)


def _scan(buf: bytes, path: Path) -> tuple[list[WalRecord], int]:
    """The records of a journal image and the end of its last whole
    frame (short of ``len(buf)`` only when the tail is torn)."""
    records: list[WalRecord] = []
    view = memoryview(buf)
    pos, end = 0, len(buf)
    while end - pos >= _FRAME.size:
        length, body_crc, head_crc = _FRAME.unpack_from(buf, pos)
        if zlib.crc32(view[pos : pos + _LEN_CRC.size]) != head_crc:
            raise DurabilityError(f"{path}: corrupt frame head at byte {pos}")
        start = pos + _FRAME.size
        stop = start + length
        if stop > end:
            break
        if zlib.crc32(view[start:stop]) != body_crc:
            if stop == end:
                break
            raise DurabilityError(
                f"{path}: corrupt record at byte {pos} with "
                f"{end - stop} bytes after it")
        try:
            rec = _decode(buf, start, stop)
        except DurabilityError as exc:
            raise DurabilityError(f"{path}: frame at byte {pos}: {exc}") from None
        if rec.lsn != len(records) + 1:
            raise DurabilityError(
                f"{path}: LSN gap at byte {pos}: {len(records)} -> {rec.lsn}")
        records.append(rec)
        pos = stop
    return records, pos


class WriteAheadLog:
    """Append-only journal of :class:`WalRecord` frames.

    Construct via :meth:`open`, which scans the existing file, recovers
    its tail discipline (truncating a torn final frame), and positions
    the next LSN after the last durable one.  ``obs`` (optional
    :class:`~repro.obs.events.EventBus`) gets a ``wal.append`` event
    per record.
    """

    FILENAME = "wal.bin"
    #: the JSON-lines journal of earlier versions, which is not read
    LEGACY_FILENAME = "wal.jsonl"

    def __init__(self, path: Path, records: list[WalRecord], obs=None,
                 fsync: bool = False, metrics=None):
        self.path = path
        self._records = records
        self._next_lsn = len(records) + 1
        self._fh = open(path, "ab")
        self._obs = obs
        self._fsync = fsync
        self.metrics = metrics

    @classmethod
    def open(cls, directory: str | Path, obs=None,
             fsync: bool = False, metrics=None) -> "WriteAheadLog":
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        legacy = directory / cls.LEGACY_FILENAME
        if legacy.exists():
            # a fresh wal.bin beside it would silently drop its history
            raise DurabilityError(
                f"{legacy}: a JSON-lines journal, which this version does "
                f"not read; refusing to start a new {cls.FILENAME} over it"
            )
        path = directory / cls.FILENAME
        records: list[WalRecord] = []
        if path.exists():
            buf = path.read_bytes()
            records, end = _scan(buf, path)
            if end < len(buf):
                # torn tail: the crash interrupted the final append; cut
                # it off in place, so the durable prefix is never rewritten
                os.truncate(path, end)
        return cls(path, records, obs=obs, fsync=fsync, metrics=metrics)

    # -- append side -----------------------------------------------------
    @property
    def next_lsn(self) -> int:
        return self._next_lsn

    @property
    def last_lsn(self) -> int:
        return self._next_lsn - 1

    def append(self, sid: str, op_id: int, kind: str, *, keys=(), pay=None,
               count: int = 0, result: dict | None = None) -> WalRecord:
        """Durably journal one op; returns the record with its LSN.

        An insert journals ``keys`` (and ``pay`` rows); a deletemin
        journals ``result["keys"]`` (and ``result["pay"]``).  Arrays
        keep their dtype; lists go through :func:`numpy.asarray`.
        """
        if kind == "deletemin":
            keys, pay = result["keys"], result.get("pay")
        # host wall clock, measurement only: the elapsed time feeds a
        # histogram and never a decision, so determinism is untouched
        t0 = time.perf_counter_ns() if self.metrics is not None else 0
        frame, rec = _encode(self._next_lsn, sid, op_id, kind, count, keys, pay)
        self._fh.write(frame)
        self._fh.flush()
        if self._fsync:
            # simulated crashes kill the server thread, not the host, so
            # a flush already makes the record durable for campaigns;
            # fsync is the knob for real power-loss durability
            os.fsync(self._fh.fileno())
        self._records.append(rec)
        self._next_lsn += 1
        if self.metrics is not None:
            mode = "fsync" if self._fsync else "flush"
            self.metrics.histogram(
                "repro_wal_append_host_ns",
                help="host wall time of one WAL append (write+flush)",
                mode=mode,
            ).observe(time.perf_counter_ns() - t0)
            self.metrics.counter(
                "repro_wal_records_total",
                help="records appended to the write-ahead log",
                kind=kind,
            ).inc()
        if self._obs is not None:
            self._obs.emit_here(WAL_APPEND, kind=kind, lsn=rec.lsn)
        return rec

    # -- read side -------------------------------------------------------
    def records(self, from_lsn: int = 1) -> list[WalRecord]:
        """All durable records with ``lsn >= from_lsn``, in LSN order."""
        return self._records[max(0, from_lsn - 1) :]

    def __len__(self) -> int:
        return len(self._records)

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
