"""Malformed journal bytes are rejected, never accepted.

Each case writes a damaged ``wal.bin`` and opens it.  The reader may
only do one of two things: raise :class:`DurabilityError`, or accept a
prefix of whole frames and truncate the file to exactly that prefix —
and then every record it returns re-encodes to the file byte for byte.
No other exception may escape.  The damage covers truncation at every
offset, random byte flips, frames whose CRCs pass but whose record head
does not describe the body, and arbitrary record heads.
"""

import struct
import tempfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DurabilityError
from repro.serve.wal import WriteAheadLog, _encode

HEAD = struct.Struct("<QqqIIIBBB")


def _journal() -> bytes:
    """A short journal mixing kinds, dtypes, payloads and empty results."""
    keys = np.array([7, -3, 7], dtype=np.int64)
    with tempfile.TemporaryDirectory() as d:
        with WriteAheadLog.open(d) as wal:
            wal.append("s0", 0, "insert", keys=keys,
                       pay=np.stack([keys, keys * 2], axis=1))
            wal.append("s1", 4, "deletemin", count=2,
                       result={"keys": keys[1:], "pay": np.array([[1, 2]] * 2)})
            wal.append("sé", 1, "insert",
                       keys=np.array([0.5, -0.0, np.nan], dtype=np.float32))
            wal.append("s0", 1, "deletemin", count=3,
                       result={"keys": np.array([], dtype=np.int32)})
            wal.append("s2", 9, "insert", keys=np.array([2**63 - 1]),
                       pay=np.array([[255]], dtype=np.uint8))
        return Path(d, WriteAheadLog.FILENAME).read_bytes()


GOOD = _journal()


def _frame_ends(data: bytes) -> list[int]:
    ends, pos = [], 0
    while pos < len(data):
        pos += 12 + struct.unpack_from("<I", data, pos)[0]
        ends.append(pos)
    return ends


ENDS = _frame_ends(GOOD)


def _reencode(records) -> bytes:
    out = []
    for r in records:
        keys, pay = (r.keys, r.pay) if r.kind == "insert" else (
            r.result["keys"], r.result["pay"])
        out.append(_encode(r.lsn, r.sid, r.op_id, r.kind, r.count, keys, pay)[0])
    return b"".join(out)


def _open(data: bytes):
    """(records, file bytes after open), or DurabilityError."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d, WriteAheadLog.FILENAME)
        path.write_bytes(data)
        with WriteAheadLog.open(d) as wal:
            records = wal.records()
        return records, path.read_bytes()


def _accepted(data: bytes):
    """Open ``data``; if accepted, the kept file is a prefix of ``data``
    that the returned records re-encode byte for byte."""
    records, kept = _open(data)
    assert data.startswith(kept)
    assert _reencode(records) == kept
    assert [r.lsn for r in records] == list(range(1, len(records) + 1))
    return records, kept


def _frame(body: bytes) -> bytes:
    """A frame with valid CRCs around any body."""
    crc = zlib.crc32(body)
    return struct.pack("<III", len(body), crc,
                       zlib.crc32(struct.pack("<II", len(body), crc))) + body


def test_intact_journal_is_accepted_whole():
    records, kept = _accepted(GOOD)
    assert kept == GOOD and len(records) == len(ENDS) == 5


def test_truncation_at_every_offset():
    """A cut anywhere leaves a torn tail: exactly the whole frames
    before it survive, and open never raises."""
    for cut in range(len(GOOD) + 1):
        whole = sum(end <= cut for end in ENDS)
        records, kept = _accepted(GOOD[:cut])
        assert len(records) == whole, cut
        assert kept == GOOD[: ENDS[whole - 1] if whole else 0], cut


@settings(max_examples=300, deadline=None)
@given(flips=st.lists(st.tuples(st.integers(min_value=0),
                                st.integers(min_value=1, max_value=255)),
                      min_size=1, max_size=4))
def test_random_byte_flips(flips):
    """A flip in any frame head, or in the body of any frame but the
    last, is corruption; a flip only in the last frame's body is a torn
    tail and leaves the frames before it."""
    data = bytearray(GOOD)
    for pos, mask in flips:
        data[pos % len(data)] ^= mask
    changed = [i for i in range(len(GOOD)) if data[i] != GOOD[i]]
    if not changed:  # two flips of one byte can cancel
        return
    first = changed[0]
    frame = sum(end <= first for end in ENDS)
    start = ENDS[frame - 1] if frame else 0
    if frame == len(ENDS) - 1 and first >= start + 12:
        records, kept = _accepted(bytes(data))
        assert len(records) == frame
        assert kept == GOOD[:start]
    else:
        with pytest.raises(DurabilityError):
            _open(bytes(data))


def _body(lsn=2, op_id=0, count=0, n=2, width=1, sid=b"s0", kind=0, kc=0,
          pc=0, data=None, sid_len=None):
    if data is None:
        data = bytes(8 * n + 8 * n * width)
    return HEAD.pack(lsn, op_id, count, n, width,
                     len(sid) if sid_len is None else sid_len,
                     kind, kc, pc) + sid + data


# (name, body): CRC-valid frames whose record head does not describe
# the body, plus the valid body they were edited from
INCONSISTENT = [
    ("n exceeds the body", _body(n=3, data=bytes(32))),
    ("n falls short of the body", _body(n=1, data=bytes(32))),
    ("width exceeds the body", _body(width=2, data=bytes(32))),
    ("width falls short of the body", _body(width=0, data=bytes(32))),
    ("key dtype narrower than the body", _body(kc=1)),
    ("payload dtype narrower than the body", _body(pc=1)),
    ("unknown key dtype code", _body(kc=10)),
    ("key dtype code 255", _body(kc=255)),
    ("unknown payload dtype code", _body(pc=10)),
    ("unknown kind", _body(kind=2)),
    ("kind 255", _body(kind=255)),
    ("sid runs past the body", _body(sid_len=200)),
    ("sid shorter than declared", _body(sid_len=3)),
    ("sid is not UTF-8", _body(sid=b"\xff\xfe")),
    ("sid is an encoded surrogate", _body(sid=b"\xed\xa0\x80")),
    ("huge n and width", _body(n=2**32 - 1, width=2**32 - 1, data=bytes(32))),
    ("body shorter than a record head", _body()[: HEAD.size - 1]),
    ("empty body", b""),
]


@pytest.mark.parametrize("body", [b for _, b in INCONSISTENT],
                         ids=[n for n, _ in INCONSISTENT])
@pytest.mark.parametrize("where", ["final", "mid-file"])
def test_crc_valid_frame_with_inconsistent_head(body, where):
    data = GOOD[: ENDS[0]] + _frame(body)
    if where == "mid-file":
        data += _frame(_body(lsn=3))
    with pytest.raises(DurabilityError):
        _open(data)


def test_edited_bodies_were_valid():
    """The edits above are the only fault: the unedited body is read."""
    records, _ = _accepted(GOOD[: ENDS[0]] + _frame(_body()))
    assert records[-1].keys.tolist() == [0, 0]
    assert records[-1].pay.tolist() == [[0], [0]]


#: bytes per value of each dtype code (<i8 <i4 <i2 i1 <u8 <u4 <u2 u1 <f8 <f4)
SIZES = (8, 4, 2, 1, 8, 4, 2, 1, 8, 4)


@settings(max_examples=300, deadline=None)
@given(lsn=st.sampled_from([2, 2, 2, 1, 3]),
       op_id=st.integers(-2**63, 2**63 - 1),
       count=st.integers(-2**63, 2**63 - 1), n=st.integers(0, 4),
       width=st.integers(0, 3),
       sid=st.text(max_size=4).map(str.encode) | st.binary(max_size=4),
       kind=st.integers(0, 2), kc=st.integers(0, 11), pc=st.integers(0, 11),
       slack=st.sampled_from([0, 0, 0, -1, 1, 8]),
       fill=st.binary(min_size=128, max_size=128), mid=st.booleans())
def test_any_accepted_file_reencodes(lsn, op_id, count, n, width, sid, kind,
                                     kc, pc, slack, fill, mid):
    """An arbitrary record head behind a valid frame, with a body sized
    from it (or a few bytes off), CRC-valid, maybe followed by another
    frame: the reader raises DurabilityError or returns records that
    re-encode to exactly the file it kept."""
    ks, ps = (SIZES[c] if c < len(SIZES) else 8 for c in (kc, pc))
    size = max(0, n * (ks + width * ps) + slack)
    body = HEAD.pack(lsn, op_id, count, n, width, len(sid), kind, kc, pc) \
        + sid + (fill * 2)[:size]
    data = GOOD[: ENDS[0]] + _frame(body)
    if mid:
        data += _frame(_body(lsn=3))
    try:
        _accepted(data)
    except DurabilityError:
        pass
