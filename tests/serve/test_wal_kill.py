"""Durability against real process kills, not simulated crashpoints.

A child process serves a seeded stream of inserts and deletemins
through :class:`DurableService` over :class:`NativeBGPQ` on real files
(``fsync=False``) and prints each op's LSN once ``apply`` has returned.
The parent SIGKILLs it at a seeded random moment, then recovers from
the files the child left: every LSN the child printed must be in the
recovered journal, the recovered state (checkpoint + replayed suffix)
must equal a from-scratch replay of the whole surviving journal, and
the audit must pass.  The next child resumes on the same directory, so
each round also starts from a recovered, killed-into state.  One child
runs at a time.
"""

import os
import random
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np

from repro.core.native import NativeBGPQ
from repro.serve.checkpoint import state_digest
from repro.serve.service import DurableService

KILLS = 6
K, WIDTH, CKPT_EVERY = 16, 1, 32
SRC = str(Path(__file__).resolve().parents[2] / "src")

CHILD = textwrap.dedent(f"""
    import sys, time
    import numpy as np
    from repro.core.native import NativeBGPQ
    from repro.serve.service import DurableService

    data, sid, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    rng = np.random.default_rng(seed)
    svc = DurableService.open(
        NativeBGPQ(node_capacity={K}, payload_width={WIDTH}), data,
        checkpoint_every={CKPT_EVERY}, fsync=False)
    deadline = time.monotonic() + 60  # never outlive a lost parent
    op = 0
    while time.monotonic() < deadline:
        if len(svc.queue) == 0 or rng.random() < 0.55:
            keys = rng.integers(0, 1000, int(rng.integers(1, 33)))
            resp = svc.apply_insert(sid, op, keys, pay=keys[:, None] * 3)
        else:
            resp = svc.apply_deletemin(sid, op, int(rng.integers(1, {K + 1})))
        print(resp["lsn"], flush=True)
        op += 1
""")


def _queue():
    return NativeBGPQ(node_capacity=K, payload_width=WIDTH)


def _run_child_and_kill(data: Path, out: Path, sid: str, seed: int,
                        delay: float) -> list[int]:
    """Start one child, SIGKILL it ``delay`` s after its first op, and
    return the LSNs it printed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    with open(out, "wb") as fh:
        proc = subprocess.Popen(
            [sys.executable, "-c", CHILD, str(data), sid, str(seed)],
            stdout=fh, env=env,
        )
        try:
            give_up = time.monotonic() + 120
            while out.stat().st_size == 0:
                assert proc.poll() is None, f"child exited with {proc.returncode}"
                assert time.monotonic() < give_up, "child never applied an op"
                time.sleep(0.01)
            time.sleep(delay)
            proc.send_signal(signal.SIGKILL)
        finally:
            proc.kill()
            proc.wait(timeout=30)
    assert proc.returncode == -signal.SIGKILL
    lines = out.read_bytes().split(b"\n")[:-1]  # complete lines only
    return [int(line) for line in lines]


def _check_recovery(data: Path, printed: list[int]) -> int:
    svc = DurableService.open(_queue(), data, checkpoint_every=CKPT_EVERY)
    try:
        records = svc.wal.records()
        assert set(printed) <= {r.lsn for r in records}
        oracle = _queue()
        for rec in records:
            if rec.kind == "insert":
                oracle.insert_bulk(rec.keys, rec.pay)
            else:
                got_k, got_p = oracle.deletemin(rec.count)
                assert np.array_equal(got_k, rec.result["keys"])
                assert np.array_equal(got_p, rec.result["pay"])
        assert svc.digest() == state_digest(oracle.export_state())
        report = svc.audit(context="sigkill drill")
        assert report.ok, report.problems
        return len(records)
    finally:
        svc.close()


def test_sigkill_at_random_moments_loses_no_acknowledged_op(tmp_path):
    rng = random.Random(15)
    data = tmp_path / "data"
    journaled = 0
    for round_ in range(KILLS):
        printed = _run_child_and_kill(
            data, tmp_path / f"lsns-{round_}.txt", f"c{round_}",
            seed=rng.randrange(2**32), delay=rng.uniform(0.0, 0.25),
        )
        assert printed and printed[0] == journaled + 1
        journaled = _check_recovery(data, printed)
        assert journaled >= printed[-1]
