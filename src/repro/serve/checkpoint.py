"""Checkpoint store: integrity-hashed queue snapshots + state digests.

A queue state (:meth:`~repro.core.native.NativeBGPQ.export_state`) has
one canonical binary encoding, :func:`encode_state`::

    MAGIC | u32 header length | canonical-JSON header | keys | payloads

The header holds the layout (k, dtypes, payload width), ``heap_size``,
the per-row live ``counts`` (pBuffer first, then nodes 1..heap_size),
the exact clock ``sim_ns`` and the op ``stats``.  The live keys of all
rows follow, concatenated in row order as little-endian bytes, then
the payload rows in the same order — the arena's node-sized sorted
batches, byte for byte, with the dead tail of each row left out.

A checkpoint is one file ``ckpt-<lsn>.bin``: the LSN of the last WAL
record it covers (u64 little-endian), the encoding, and a sha256 over
both as a 32-byte trailer — so a half-written checkpoint (crash during
save) or a swapped LSN is detected and skipped, and recovery falls back
to the previous one plus a longer WAL replay.  :func:`decode_state`
rejects any body whose header does not describe its bytes exactly, so a
well-hashed but inconsistent file is skipped the same way.  The store
keeps the newest ``keep`` checkpoints and prunes older files on save.

:func:`state_digest` is the byte-identity yardstick of the whole
durability design: two queues are *the same state* iff the sha256 of
their encoded exported state matches.  Arena capacity, scratch
contents and growth history are excluded from the export precisely so
that "recovered replica" and "uninterrupted oracle" can be compared
with one string equality.
"""

from __future__ import annotations

import hashlib
import json
import struct
from fractions import Fraction
from pathlib import Path

import numpy as np

from ..errors import DurabilityError
from ..obs.events import SERVE_CHECKPOINT

__all__ = ["CheckpointStore", "decode_state", "encode_state", "state_digest"]

MAGIC = b"BGPQSNP1"
_HEAD_LEN = struct.Struct("<I")
_LSN = struct.Struct("<Q")
_SHA_LEN = hashlib.sha256().digest_size
_HEADER_FIELDS = frozenset(
    {"k", "key_dtype", "payload_width", "payload_dtype", "heap_size",
     "counts", "sim_ns", "stats"}
)


def canonical_json(obj) -> str:
    """Canonical encoding of the checkpoint header."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def encode_state(state: dict, extra: dict | None = None) -> bytes:
    """The canonical binary encoding of a queue state.

    ``extra`` (optional, JSON-serializable) rides in the header as
    annotations; it is not part of the state and is not decoded back.
    """
    key_dt = np.dtype(state["key_dtype"]).newbyteorder("<")
    pay_dt = np.dtype(state["payload_dtype"]).newbyteorder("<")
    rows = [state["buffer"], *state["nodes"]]
    keys = [np.asarray(r["keys"], dtype=key_dt).reshape(-1) for r in rows]
    pay = [np.asarray(r["pay"], dtype=pay_dt).reshape(-1) for r in rows]
    header = {
        "k": state["k"],
        "key_dtype": state["key_dtype"],
        "payload_width": state["payload_width"],
        "payload_dtype": state["payload_dtype"],
        "heap_size": state["heap_size"],
        "counts": [int(a.size) for a in keys],
        "sim_ns": state["sim_ns"],
        "stats": state["stats"],
    }
    if extra:
        header["extra"] = extra
    head = canonical_json(header).encode("utf-8")
    return b"".join((MAGIC, _HEAD_LEN.pack(len(head)), head,
                     np.concatenate(keys).tobytes(),
                     np.concatenate(pay).tobytes()))


def _bad(why: str) -> DurabilityError:
    return DurabilityError(f"malformed state encoding: {why}")


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _dtype(name) -> np.dtype:
    """A numeric dtype named canonically, or a DurabilityError."""
    try:
        dt = np.dtype(name) if isinstance(name, str) else None
    except (TypeError, ValueError, SyntaxError):
        dt = None
    if dt is None or dt.name != name or dt.kind not in "iuf":
        raise _bad(f"dtype {name!r}")
    return dt


def _header(buf: memoryview) -> tuple[dict, int]:
    """Parse and check the header; returns (header, body offset)."""
    start = len(MAGIC) + _HEAD_LEN.size
    if len(buf) < start or bytes(buf[: len(MAGIC)]) != MAGIC:
        raise _bad("bad magic")
    (head_len,) = _HEAD_LEN.unpack_from(buf, len(MAGIC))
    if start + head_len > len(buf):
        raise _bad("header runs past the end")
    try:
        head = json.loads(bytes(buf[start : start + head_len]))
    except (ValueError, RecursionError):
        raise _bad("header is not JSON") from None
    if not isinstance(head, dict) or head.keys() - {"extra"} != _HEADER_FIELDS:
        raise _bad("header fields")
    k, width, heap_size = head["k"], head["payload_width"], head["heap_size"]
    if not (_is_int(k) and k >= 1 and _is_int(width) and width >= 0
            and _is_int(heap_size) and heap_size >= 0):
        raise _bad(f"layout k={k!r} payload_width={width!r} "
                   f"heap_size={heap_size!r}")
    counts = head["counts"]
    if not isinstance(counts, list) or len(counts) != heap_size + 1:
        raise _bad(f"row counts do not match heap_size={heap_size}")
    if not all(_is_int(c) and 0 <= c <= k for c in counts):
        raise _bad(f"a row count outside [0, k={k}]")
    sim_ns = head["sim_ns"]
    try:
        ok = isinstance(sim_ns, str) and str(Fraction(sim_ns)) == sim_ns \
            and Fraction(sim_ns) >= 0
    except (ValueError, ZeroDivisionError):
        ok = False
    if not ok:
        raise _bad(f"sim_ns {sim_ns!r}")
    stats = head["stats"]
    if not isinstance(stats, dict) or not all(_is_int(v) for v in stats.values()):
        raise _bad("stats")
    return head, start + head_len


def decode_state(buf) -> dict:
    """Inverse of :func:`encode_state` (``extra`` is dropped).

    Raises :class:`DurabilityError` unless the bytes are exactly what
    the header describes: known numeric dtypes, ``heap_size + 1`` row
    counts each within ``[0, k]``, a canonical non-negative ``sim_ns``
    Fraction, integer stats, and a body of exactly the counted keys and
    payload rows.  Rows come back as arrays in native byte order.
    """
    buf = memoryview(buf).cast("B")
    head, off = _header(buf)
    key_dt, pay_dt = _dtype(head["key_dtype"]), _dtype(head["payload_dtype"])
    width, counts = head["payload_width"], head["counts"]
    total = sum(counts)
    key_bytes = total * key_dt.itemsize
    if len(buf) - off != key_bytes + total * width * pay_dt.itemsize:
        raise _bad(f"body of {len(buf) - off} bytes for {total} records")
    keys = np.frombuffer(buf, dtype=key_dt.newbyteorder("<"), count=total,
                         offset=off).astype(key_dt)
    pay = np.frombuffer(buf, dtype=pay_dt.newbyteorder("<"),
                        count=total * width, offset=off + key_bytes
                        ).astype(pay_dt).reshape(total, width)
    bounds = np.cumsum([0, *counts]).tolist()
    rows = [{"keys": keys[a:b], "pay": pay[a:b]}
            for a, b in zip(bounds, bounds[1:])]
    return {
        "k": head["k"],
        "key_dtype": head["key_dtype"],
        "payload_width": width,
        "payload_dtype": head["payload_dtype"],
        "heap_size": head["heap_size"],
        "buffer": rows[0],
        "nodes": rows[1:],
        "sim_ns": head["sim_ns"],
        "stats": head["stats"],
    }


def state_digest(state: dict) -> str:
    """sha256 hex of the canonical binary encoding of a queue state."""
    return hashlib.sha256(encode_state(state)).hexdigest()


class CheckpointStore:
    """Manages ``ckpt-<lsn>.bin`` files in one data directory."""

    PREFIX = "ckpt-"
    SUFFIX = ".bin"

    def __init__(self, directory: str | Path, keep: int = 2, obs=None):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.keep = max(1, keep)
        self._obs = obs

    def _path_for(self, lsn: int) -> Path:
        return self.directory / f"{self.PREFIX}{lsn:012d}{self.SUFFIX}"

    def _checkpoint_paths(self) -> list[Path]:
        """All checkpoint files, oldest LSN first."""
        return sorted(self.directory.glob(f"{self.PREFIX}*{self.SUFFIX}"))

    # -- save ------------------------------------------------------------
    def save(self, state: dict, lsn: int, extra: dict | None = None) -> Path:
        """Write a checkpoint covering the WAL up to ``lsn`` (inclusive).

        The state is encoded once and hashed once: the sha256 trailer
        covers the LSN and the encoding, so neither can be swapped
        without detection.  Writes via a temp file + rename so a crash
        mid-save leaves no plausible-looking partial file under the
        checkpoint name.
        """
        head = _LSN.pack(lsn)
        body = encode_state(state, extra)
        sha = hashlib.sha256(head)
        sha.update(body)
        path = self._path_for(lsn)
        tmp = path.with_suffix(".tmp")
        with open(tmp, "wb") as fh:
            fh.write(head)
            fh.write(body)
            fh.write(sha.digest())
        tmp.rename(path)
        self._prune()
        if self._obs is not None:
            keys = len(state["buffer"]["keys"])
            keys += sum(len(n["keys"]) for n in state["nodes"])
            self._obs.emit_here(SERVE_CHECKPOINT, lsn=lsn, keys=keys)
        return path

    def _prune(self) -> None:
        paths = self._checkpoint_paths()
        for old in paths[: -self.keep]:
            old.unlink(missing_ok=True)

    # -- load ------------------------------------------------------------
    def load_latest(self) -> tuple[dict, int] | None:
        """Newest checkpoint that passes integrity verification.

        Returns ``(state, lsn)``, or ``None`` when no checkpoint exists
        yet (recovery then replays the WAL from LSN 1 against an empty
        queue).  A corrupt newest checkpoint falls back to the previous
        one; if *every* present checkpoint is corrupt there is no safe
        state to serve from and :class:`DurabilityError` is raised.
        """
        paths = self._checkpoint_paths()
        if not paths:
            return None
        for path in reversed(paths):
            loaded = self._verify(path)
            if loaded is not None:
                return loaded
        raise DurabilityError(
            f"all {len(paths)} checkpoints in {self.directory} fail "
            "integrity verification; no safe state to recover from"
        )

    def _verify(self, path: Path) -> tuple[dict, int] | None:
        try:
            data = memoryview(path.read_bytes())
        except OSError:
            return None
        if len(data) < _LSN.size + _SHA_LEN:
            return None
        body = data[:-_SHA_LEN]
        if hashlib.sha256(body).digest() != bytes(data[-_SHA_LEN:]):
            return None
        (lsn,) = _LSN.unpack_from(body)
        try:
            return decode_state(body[_LSN.size :]), lsn
        except DurabilityError:
            return None
