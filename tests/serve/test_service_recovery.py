"""DurableService: recovery equals the uninterrupted run, at every cut.

The central claim of the durability design: a crash after *any*
journaled op recovers to byte-identical state (``state_digest``) vs a
run that never crashed.  The battery simulates the crash by abandoning
the service object mid-history and re-opening the data dir with a
fresh queue — exactly what the serve supervisor does.
"""

import hashlib
import struct
import zlib

import numpy as np
import pytest

from repro.core.native import NativeBGPQ
from repro.errors import DurabilityError
from repro.serve.checkpoint import canonical_json
from repro.serve.service import DurableService
from repro.serve.wal import WriteAheadLog


def _queue(payload_width=0):
    return NativeBGPQ(node_capacity=4, storage="arena",
                      payload_width=payload_width)


def _script(n_ops=20, seed=7):
    rng = np.random.default_rng(seed)
    ops = []
    for i in range(n_ops):
        if rng.random() < 0.6:
            keys = rng.integers(0, 100, size=int(rng.integers(1, 5))).tolist()
            ops.append({"sid": "s0", "op_id": i, "kind": "insert",
                        "keys": keys})
        else:
            ops.append({"sid": "s0", "op_id": i, "kind": "deletemin",
                        "count": int(rng.integers(1, 5))})
    return ops


def _oracle_digests(ops, tmp_path, checkpoint_every=4):
    """Run uninterrupted; digest after each op."""
    svc = DurableService.open(_queue(), tmp_path / "oracle",
                              checkpoint_every=checkpoint_every)
    digests = []
    for op in ops:
        svc.apply(op)
        digests.append(svc.digest())
    svc.close()
    return digests


@pytest.mark.parametrize("checkpoint_every", [1, 4, 100])
def test_recovery_is_byte_identical_at_every_cut(tmp_path, checkpoint_every):
    ops = _script()
    digests = _oracle_digests(ops, tmp_path, checkpoint_every)
    for cut in range(1, len(ops) + 1):
        data = tmp_path / f"cut-{checkpoint_every}-{cut}"
        svc = DurableService.open(_queue(), data,
                                  checkpoint_every=checkpoint_every)
        for op in ops[:cut]:
            svc.apply(op)
        svc.close()  # crash: the in-memory service is abandoned here
        recovered = DurableService.open(_queue(), data,
                                        checkpoint_every=checkpoint_every)
        assert recovered.digest() == digests[cut - 1], (
            f"cut={cut} ckpt_every={checkpoint_every}"
        )
        assert not recovered.recovery_info["fresh"]
        recovered.close()


def test_recovery_with_payloads(tmp_path):
    svc = DurableService.open(_queue(payload_width=2), tmp_path,
                              checkpoint_every=3)
    keys = np.array([9, 2, 5, 2], dtype=np.int64)
    svc.apply_insert("s0", 0, keys, pay=np.stack([keys * 2, keys * 3], axis=1))
    resp = svc.apply_deletemin("s0", 1, 2)
    assert resp["keys"] == [2, 2]
    assert sorted(resp["pay"]) == [[4, 6], [4, 6]]
    digest = svc.digest()
    svc.close()
    recovered = DurableService.open(_queue(payload_width=2), tmp_path)
    assert recovered.digest() == digest
    recovered.close()


def test_dedupe_makes_apply_idempotent(tmp_path):
    svc = DurableService.open(_queue(), tmp_path)
    first = svc.apply_insert("s0", 0, [4, 1])
    digest = svc.digest()
    again = svc.apply_insert("s0", 0, [4, 1])
    assert again == first
    assert svc.digest() == digest  # the retransmit was not re-applied
    assert len(svc.wal) == 1  # the retransmit was not re-journaled
    got = svc.apply_deletemin("s0", 1, 2)
    assert svc.apply_deletemin("s0", 1, 2) == got
    assert got["keys"] == [1, 4]
    assert len(svc.wal) == 2 and len(svc.queue) == 0
    svc.close()


def test_dedupe_survives_recovery(tmp_path):
    svc = DurableService.open(_queue(), tmp_path)
    svc.apply_insert("s0", 0, [4, 1])
    first = svc.apply_deletemin("s0", 1, 1)
    svc.close()
    recovered = DurableService.open(_queue(), tmp_path)
    replayed = recovered.apply_deletemin("s0", 1, 1)
    assert replayed["keys"] == first["keys"] == [1]
    assert len(recovered.wal) == 2  # no duplicate journal entry
    assert len(recovered.queue) == 1  # the key was not deleted twice
    recovered.close()


def test_resent_requests_after_recovery_get_same_keys(tmp_path):
    """Ops covered by the checkpoint and ops in the replayed suffix both
    answer a re-send with the keys and payloads of the original reply."""
    svc = DurableService.open(_queue(payload_width=2), tmp_path,
                              checkpoint_every=3)
    sent = {}
    for op_id in range(8):
        if op_id % 2 == 0:
            keys = np.array([8 - op_id, 20 + op_id], dtype=np.int64)
            sent[op_id] = svc.apply_insert(
                "s0", op_id, keys, pay=np.stack([keys, keys * 2], axis=1))
        else:
            sent[op_id] = svc.apply_deletemin("s0", op_id, 1)
    svc.close()
    recovered = DurableService.open(_queue(payload_width=2), tmp_path,
                                    checkpoint_every=3)
    assert recovered.recovery_info["ckpt_lsn"] == 6
    assert recovered.recovery_info["replayed"] == 2
    digest = recovered.digest()
    for op_id, first in sent.items():
        if op_id % 2 == 0:
            again = recovered.apply_insert("s0", op_id, [0, 0], pay=[[0, 0]] * 2)
            assert again["n"] == first["n"] == 2
        else:
            again = recovered.apply_deletemin("s0", op_id, 1)
            assert again["keys"] == first["keys"]
            assert again["pay"] == first["pay"]
        assert again["lsn"] == first["lsn"]
    assert recovered.digest() == digest  # no re-send was re-applied
    assert len(recovered.wal) == 8
    recovered.close()


def test_replay_divergence_raises(tmp_path):
    svc = DurableService.open(_queue(), tmp_path)
    svc.apply_insert("s0", 0, [4, 1, 9])
    svc.apply_deletemin("s0", 1, 1)
    svc.close()
    # tamper: rewrite the journaled deletemin result to a wrong key and
    # give its frame valid CRCs again, so only replay can notice
    wal_path = tmp_path / WriteAheadLog.FILENAME
    data = bytearray(wal_path.read_bytes())
    (first,) = struct.unpack_from("<I", data, 0)
    start = 12 + first + 12  # body of the second (deletemin) frame
    assert data[start + 36] == 1  # its kind code
    struct.pack_into("<q", data, len(data) - 8, 999)  # its one key
    length = len(data) - start
    crc = zlib.crc32(data[start:])
    struct.pack_into("<III", data, start - 12, length, crc,
                     zlib.crc32(struct.pack("<II", length, crc)))
    wal_path.write_bytes(bytes(data))
    with pytest.raises(DurabilityError, match="replay diverged"):
        DurableService.open(_queue(), tmp_path)


def test_checkpoint_bounds_replay(tmp_path):
    svc = DurableService.open(_queue(), tmp_path, checkpoint_every=4)
    for i in range(10):
        svc.apply_insert("s0", i, [i])
    svc.close()
    recovered = DurableService.open(_queue(), tmp_path, checkpoint_every=4)
    info = recovered.recovery_info
    assert info["ckpt_lsn"] == 8
    assert info["replayed"] == 2  # only the post-checkpoint suffix
    recovered.close()


def test_legacy_json_checkpoint_recovers_by_full_replay(tmp_path):
    """``ckpt-<lsn>.json`` files from before the binary checkpoints are
    not read, and the WAL (never pruned) replays from LSN 1 to the same
    state."""
    ops = _script(n_ops=20, seed=11)
    live = DurableService.open(_queue(), tmp_path, checkpoint_every=1000)
    for op in ops:
        live.apply(op)
    want = live.digest()
    lsn = live.wal.last_lsn
    state = live.queue.export_state()
    for row in (state["buffer"], *state["nodes"]):
        row["keys"], row["pay"] = row["keys"].tolist(), row["pay"].tolist()
    body = {"lsn": lsn, "state": state}
    doc = dict(body, sha256=hashlib.sha256(
        canonical_json(body).encode("utf-8")).hexdigest())
    (tmp_path / f"ckpt-{lsn:012d}.json").write_text(canonical_json(doc))
    live.close()
    assert not list(tmp_path.glob("ckpt-*.bin"))

    recovered = DurableService.open(_queue(), tmp_path, checkpoint_every=1000)
    info = recovered.recovery_info
    assert info["ckpt_lsn"] == 0
    assert info["replayed"] == len(ops)
    assert not info["fresh"]
    assert recovered.digest() == want
    recovered.close()


def test_audit_uses_wal_as_ledger(tmp_path):
    svc = DurableService.open(_queue(), tmp_path)
    svc.apply_insert("s0", 0, [7, 3, 7])
    svc.apply_deletemin("s0", 1, 2)
    report = svc.audit(context="unit")
    assert report.ok, report.problems
    assert "conservation" in report.checks_run
    assert "arena" in report.checks_run
    svc.close()


def test_fresh_dir_is_fresh(tmp_path):
    svc = DurableService.open(_queue(), tmp_path)
    assert svc.recovery_info == {
        "fresh": True, "ckpt_lsn": 0, "replayed": 0,
        "digest": svc.recovery_info["digest"],
    }
    assert len(svc.queue) == 0
    svc.close()
