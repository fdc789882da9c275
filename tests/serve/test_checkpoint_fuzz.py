"""Malformed checkpoint bytes are rejected, never accepted.

Every case writes a damaged newest checkpoint beside an intact older
one: ``load_latest`` must fall back to the older checkpoint, and with
the damaged file alone it must raise :class:`DurabilityError`.  No other
exception type may escape, and no state may come back from the damaged
file.  The damage covers truncation at every offset, random byte flips
(which the sha256 trailer catches), and bodies that carry a *valid*
trailer but whose header does not describe their bytes (which
``decode_state`` must catch).
"""

import hashlib
import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.native import NativeBGPQ
from repro.device.kernels import GpuContext
from repro.errors import ConfigurationError, DurabilityError
from repro.serve.checkpoint import (
    MAGIC,
    CheckpointStore,
    encode_state,
    state_digest,
)

K, WIDTH = 4, 2


def _state(seed: int, n: int) -> dict:
    pq = NativeBGPQ(node_capacity=K, payload_width=WIDTH,
                    ctx=GpuContext.default())
    keys = np.random.default_rng(seed).integers(-99, 99, size=n)
    pq.insert_bulk(keys, np.stack([keys, keys * 3], axis=1))
    pq.deletemin(1)
    return pq.export_state()


OLD, NEW = _state(1, 6), _state(2, 11)


def _file(lsn: int, body: bytes) -> bytes:
    """A checkpoint file with a valid trailer over ``lsn`` + ``body``."""
    head = struct.pack("<Q", lsn)
    return head + body + hashlib.sha256(head + body).digest()


def _parts(state: dict) -> tuple[dict, bytes]:
    """(header, key + payload bytes) of a state's encoding."""
    enc = encode_state(state)
    (n,) = struct.unpack_from("<I", enc, len(MAGIC))
    start = len(MAGIC) + 4
    return json.loads(enc[start : start + n]), enc[start + n :]


def _forge(header: dict, data: bytes) -> bytes:
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return MAGIC + struct.pack("<I", len(head)) + head + data


def _check_rejected(newest: bytes) -> None:
    """Fallback beside an intact older checkpoint; DurabilityError alone."""
    with tempfile.TemporaryDirectory() as d:
        store = CheckpointStore(d)
        store.save(OLD, lsn=1)
        Path(d, "ckpt-000000000002.bin").write_bytes(newest)
        state, lsn = store.load_latest()
        assert lsn == 1
        assert state_digest(state) == state_digest(OLD)
    with tempfile.TemporaryDirectory() as d:
        Path(d, "ckpt-000000000002.bin").write_bytes(newest)
        with pytest.raises(DurabilityError):
            CheckpointStore(d).load_latest()


def _good_new() -> bytes:
    with tempfile.TemporaryDirectory() as d:
        return CheckpointStore(d).save(NEW, lsn=2).read_bytes()


def test_intact_newest_is_loaded():
    with tempfile.TemporaryDirectory() as d:
        store = CheckpointStore(d)
        store.save(OLD, lsn=1)
        Path(d, "ckpt-000000000002.bin").write_bytes(_good_new())
        state, lsn = store.load_latest()
    assert lsn == 2
    assert state_digest(state) == state_digest(NEW)


def test_truncation_at_every_offset():
    data = _good_new()
    for cut in range(len(data)):
        _check_rejected(data[:cut])


@settings(max_examples=150, deadline=None)
@given(flips=st.lists(st.tuples(st.integers(min_value=0),
                                st.integers(min_value=1, max_value=255)),
                      min_size=1, max_size=4))
def test_random_byte_flips(flips):
    data = bytearray(_good_new())
    for pos, mask in flips:
        data[pos % len(data)] ^= mask
    if bytes(data) != _good_new():  # two flips of one byte can cancel
        _check_rejected(bytes(data))


def _bump(field, fn):
    def edit(header):
        header[field] = fn(header[field])
    return edit


def _set(field, value):
    def edit(header):
        header[field] = value
    return edit


def _drop(field):
    def edit(header):
        del header[field]
    return edit


# (name, header edit); the key/payload bytes stay the valid ones
INCONSISTENT = [
    ("counts exceed the body", _bump("counts", lambda c: [c[0] + 1] + c[1:])),
    ("counts fall short of the body", _bump("counts", lambda c: c[:-1] + [c[-1] - 1])),
    # moves the root's keys into the buffer: the sum still fits the body
    ("row count > k", _bump("counts", lambda c: [c[0] + c[1], 0] + c[2:])),
    ("negative row count", _bump("counts", lambda c: [-1] + c[1:])),
    ("boolean row count", _bump("counts", lambda c: [True] + c[1:])),
    ("counts not a list", _set("counts", 11)),
    ("len(counts) > heap_size + 1", _bump("counts", lambda c: c + [0])),
    ("len(counts) < heap_size + 1", _bump("heap_size", lambda h: h + 1)),
    ("negative heap_size", _set("heap_size", -1)),
    ("unknown key dtype", _set("key_dtype", "int65")),
    ("object key dtype", _set("key_dtype", "object")),
    ("non-canonical key dtype", _set("key_dtype", "i8")),
    ("unknown payload dtype", _set("payload_dtype", "complexity")),
    ("dtype not a string", _set("key_dtype", 8)),
    ("sim_ns not a number", _set("sim_ns", "soon")),
    ("sim_ns divides by zero", _set("sim_ns", "1/0")),
    ("sim_ns negative", _set("sim_ns", "-5")),
    ("sim_ns non-canonical", _set("sim_ns", "2/4")),
    ("sim_ns not a string", _set("sim_ns", 12)),
    ("k zero", _set("k", 0)),
    ("k not an int", _set("k", 4.0)),
    ("payload width negative", _set("payload_width", -2)),
    ("payload width disagrees", _set("payload_width", WIDTH + 1)),
    ("stats not a dict", _set("stats", [1, 2])),
    ("stats value not an int", _set("stats", {"ops": "7"})),
    ("field missing", _drop("stats")),
    ("unknown field", _set("colour", "red")),
]


@pytest.mark.parametrize("edit", [e for _, e in INCONSISTENT],
                         ids=[n for n, _ in INCONSISTENT])
def test_valid_trailer_over_inconsistent_header(edit):
    header, data = _parts(NEW)
    edit(header)
    _check_rejected(_file(2, _forge(header, data)))


@pytest.mark.parametrize("body", [
    b"",
    b"BGPQSNP0" + b"\0" * 8,
    MAGIC,
    MAGIC + struct.pack("<I", 1 << 20) + b"{}",
    MAGIC + struct.pack("<I", 3) + b"[1]",
    MAGIC + struct.pack("<I", 2) + b"\xff\xfe",
], ids=["empty", "bad-magic", "no-length", "long-header", "header-list", "not-utf8"])
def test_valid_trailer_over_broken_framing(body):
    _check_rejected(_file(2, body))


_json = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 10) | st.floats(allow_nan=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


@settings(max_examples=200, deadline=None)
@given(field=st.sampled_from(sorted(_parts(NEW)[0])), value=_json,
       cut=st.integers(min_value=0, max_value=8))
def test_any_accepted_body_is_canonical(field, value, cut):
    """Replace one header field with arbitrary JSON (and maybe drop
    trailing body bytes): the store either falls back, or the body it
    accepts is exactly the canonical encoding of the state it returns —
    and that state restores into a queue or is refused as a layout
    mismatch, never with another error."""
    header, data = _parts(NEW)
    header[field] = value
    body = _forge(header, data[: len(data) - cut])
    with tempfile.TemporaryDirectory() as d:
        store = CheckpointStore(d)
        store.save(OLD, lsn=1)
        Path(d, "ckpt-000000000002.bin").write_bytes(_file(2, body))
        state, lsn = store.load_latest()
    if lsn == 1:
        assert state_digest(state) == state_digest(OLD)
        return
    assert encode_state(state) == body
    pq = NativeBGPQ(node_capacity=K, payload_width=WIDTH)
    try:
        pq.restore_state(state)
    except ConfigurationError:
        return
    assert state_digest(pq.export_state()) == state_digest(state)
