"""Write-ahead log: round-trips, tail discipline, corruption detection."""

import os
import struct
import zlib

import numpy as np
import pytest

from repro.core.native import NativeBGPQ
from repro.errors import DurabilityError
from repro.serve.service import DurableService
from repro.serve.wal import WriteAheadLog, _decode, _encode


def _wal_path(tmp_path):
    return tmp_path / WriteAheadLog.FILENAME


def _three_inserts(tmp_path) -> bytes:
    with WriteAheadLog.open(tmp_path) as wal:
        for i in range(3):
            wal.append("s0", i, "insert", keys=np.array([i, i + 10]))
    return _wal_path(tmp_path).read_bytes()


def _frame_ends(data: bytes) -> list[int]:
    """End offset of each frame (its body length sits in its first u32)."""
    ends, pos = [], 0
    while pos < len(data):
        (length,) = struct.unpack_from("<I", data, pos)
        pos += 12 + length
        ends.append(pos)
    return ends


def test_append_assigns_consecutive_lsns(tmp_path):
    with WriteAheadLog.open(tmp_path) as wal:
        r1 = wal.append("s0", 0, "insert", keys=np.array([3, 1]))
        r2 = wal.append("s0", 1, "deletemin", count=2,
                        result={"keys": np.array([1, 3]), "pay": None})
        assert (r1.lsn, r2.lsn) == (1, 2)
        assert wal.last_lsn == 2
        assert wal.next_lsn == 3


def test_reopen_round_trips_records(tmp_path):
    keys = np.array([5, 2, 9], dtype=np.int64)
    pay = np.array([[1, -1], [2, -2], [3, -3]], dtype=np.int32)
    floats = np.array([0.5, -0.0, np.inf, np.nan], dtype=np.float64)
    with WriteAheadLog.open(tmp_path) as wal:
        live = [
            wal.append("s0", 0, "insert", keys=keys, pay=pay),
            wal.append("s1", 0, "deletemin", count=2,
                       result={"keys": keys[1:], "pay": pay[1:]}),
            wal.append("sé", 7, "insert", keys=floats),
            wal.append("s1", 1, "insert", keys=[4, 8]),  # lists go via asarray
        ]
    # the live records are views of their own frames: no aliasing
    keys[:] = -7
    pay[:] = -7
    with WriteAheadLog.open(tmp_path) as wal:
        recs = wal.records()
        assert wal.append("s1", 2, "insert", keys=np.array([7])).lsn == 5
    for got in (live, recs):
        assert [r.lsn for r in got] == [1, 2, 3, 4]
        assert [(r.sid, r.op_id, r.kind, r.count) for r in got] == [
            ("s0", 0, "insert", 0), ("s1", 0, "deletemin", 2),
            ("sé", 7, "insert", 0), ("s1", 1, "insert", 0)]
        ins, dm, fl, lst = got
        assert ins.keys.dtype == np.int64 and ins.keys.tolist() == [5, 2, 9]
        assert ins.pay.dtype == np.int32
        assert ins.pay.tolist() == [[1, -1], [2, -2], [3, -3]]
        assert ins.result is None
        assert dm.result["keys"].tolist() == [2, 9]
        assert dm.result["pay"].tolist() == [[2, -2], [3, -3]]
        assert dm.keys.size == 0 and dm.pay.size == 0
        # float keys round-trip bit for bit, NaN and -0.0 included
        assert fl.keys.dtype == np.float64
        assert fl.keys.tobytes() == floats.tobytes()
        assert fl.pay.shape == (0, 0) and fl.pay.tolist() == []
        assert lst.keys.tolist() == [4, 8]
        for arr in (ins.keys, ins.pay, dm.result["keys"], dm.result["pay"]):
            assert not arr.flags.writeable


def test_append_rejects_payload_that_does_not_fit(tmp_path):
    with WriteAheadLog.open(tmp_path) as wal:
        with pytest.raises(ValueError, match="payload"):
            wal.append("s0", 0, "insert", keys=[1, 2], pay=[[1]])
        with pytest.raises(ValueError, match="cannot journal"):
            wal.append("s0", 0, "insert", keys=np.array(["a"]))
        assert len(wal) == 0
    assert _wal_path(tmp_path).read_bytes() == b""


def test_records_from_lsn_filters(tmp_path):
    with WriteAheadLog.open(tmp_path) as wal:
        for i in range(5):
            wal.append("s0", i, "insert", keys=[i])
        assert [r.lsn for r in wal.records(from_lsn=3)] == [3, 4, 5]
        assert [r.lsn for r in wal.records(from_lsn=0)] == [1, 2, 3, 4, 5]
        assert wal.records(from_lsn=6) == []
        assert len(wal) == 5


def test_torn_tail_is_truncated(tmp_path, monkeypatch):
    # the durable prefix is never rewritten: the only size change is
    # one in-place truncation straight to the end of the last whole frame
    cuts = []
    real_truncate = os.truncate
    monkeypatch.setattr(os, "truncate",
                        lambda p, n: (cuts.append(n), real_truncate(p, n)))
    for torn in ("short-of-a-frame-head", "body-past-eof", "crc-fails-at-eof"):
        d = tmp_path / torn
        data = _three_inserts(d)
        ends = _frame_ends(data)
        if torn == "short-of-a-frame-head":
            damaged = data[: ends[1] + 7]
        elif torn == "body-past-eof":
            damaged = data[:-1]
        else:
            damaged = data[:-1] + bytes([data[-1] ^ 0x40])
        path = _wal_path(d)
        path.write_bytes(damaged)
        inode = path.stat().st_ino
        cuts.clear()
        with WriteAheadLog.open(d) as wal:
            assert [r.lsn for r in wal.records()] == [1, 2], torn
            assert cuts == [ends[1]], torn
            assert path.stat().st_ino == inode
            assert path.read_bytes() == data[: ends[1]]
            assert wal.append("s0", 2, "insert", keys=[3]).lsn == 3
        # the torn frame is gone from disk, replaced by the new record
        with WriteAheadLog.open(d) as wal:
            assert [r.lsn for r in wal.records()] == [1, 2, 3]
            assert wal.records()[2].keys.tolist() == [3]
        assert cuts == [ends[1]]


def test_midfile_corruption_raises(tmp_path):
    data = _three_inserts(tmp_path)
    ends = _frame_ends(data)
    body = bytearray(data)
    body[ends[1] - 3] ^= 0x01  # a key byte of the second frame
    _wal_path(tmp_path).write_bytes(bytes(body))
    with pytest.raises(DurabilityError, match="corrupt record at byte"):
        WriteAheadLog.open(tmp_path)
    # a flipped length bit mid-file would read as a body running past
    # the end (a torn tail); the frame head's own CRC catches it first
    length = bytearray(data)
    length[ends[0] + 1] ^= 0x10
    _wal_path(tmp_path).write_bytes(bytes(length))
    with pytest.raises(DurabilityError, match="corrupt frame head"):
        WriteAheadLog.open(tmp_path)
    assert _wal_path(tmp_path).read_bytes() == bytes(length)  # untouched


def test_crc_failing_tail_is_tolerated(tmp_path):
    data = bytearray(_three_inserts(tmp_path))
    data[-3] ^= 0x01
    _wal_path(tmp_path).write_bytes(bytes(data))
    with WriteAheadLog.open(tmp_path) as wal:
        assert [r.lsn for r in wal.records()] == [1, 2]


def test_lsn_gap_raises(tmp_path):
    def frame(lsn):
        return _encode(lsn, "s0", lsn, "insert", 0, [lsn], None)[0]

    _wal_path(tmp_path).write_bytes(frame(1) + frame(3))
    with pytest.raises(DurabilityError, match="LSN gap at byte"):
        WriteAheadLog.open(tmp_path)
    # LSNs run from 1: a journal that starts later lost its head
    _wal_path(tmp_path).write_bytes(frame(2) + frame(3))
    with pytest.raises(DurabilityError, match="LSN gap at byte 0"):
        WriteAheadLog.open(tmp_path)


def test_decode_rejects_malformed_frames(tmp_path):
    frame = _encode(1, "s0", 0, "insert", 0, np.array([1, 2]), None)[0]
    body = frame[12:]
    assert _decode(body, 0, len(body)).keys.tolist() == [1, 2]
    with pytest.raises(DurabilityError, match="shorter than a record head"):
        _decode(body, 0, 10)
    with pytest.raises(DurabilityError, match="describes 57 body bytes"):
        _decode(body + b"\0", 0, len(body) + 1)
    # a CRC-valid frame whose kind code is unknown, behind a good one
    bad = bytearray(body)
    bad[36] = 9
    crc = zlib.crc32(bad)
    forged = struct.pack("<III", len(bad), crc,
                         zlib.crc32(struct.pack("<II", len(bad), crc)))
    _wal_path(tmp_path).write_bytes(frame + forged + bytes(bad))
    with pytest.raises(DurabilityError, match="unknown kind or dtype code"):
        WriteAheadLog.open(tmp_path)


def test_legacy_jsonl_journal_is_refused(tmp_path):
    legacy = tmp_path / WriteAheadLog.LEGACY_FILENAME
    legacy.write_text('0a1b2c3d {"lsn":1}\n')
    with pytest.raises(DurabilityError, match="wal.jsonl"):
        WriteAheadLog.open(tmp_path)
    with pytest.raises(DurabilityError, match="wal.jsonl"):
        DurableService.open(NativeBGPQ(node_capacity=4), tmp_path)
    assert not _wal_path(tmp_path).exists()  # no fresh journal was started


def test_empty_dir_starts_at_lsn_one(tmp_path):
    with WriteAheadLog.open(tmp_path) as wal:
        assert wal.next_lsn == 1
        assert wal.records() == []
