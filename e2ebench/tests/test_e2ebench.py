"""The benchmark's own tests: its checks catch a wrong answer, its exact
counts repeat, and it refuses to run without the library source.

Run from the root of a checkout:

    python3 -m pytest e2ebench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import numpy as np  # noqa: E402

import run as bench_run  # noqa: E402
import workloads  # noqa: E402
from repro.core.native import NativeBGPQ  # noqa: E402
from repro.fleet import sharded  # noqa: E402

#: a tenth of a second of work: the smallest run (4 blocks, or one
#: budget of popped nodes) that still exercises every layer
SECONDS = 0.1

EXACT = (
    "kernels.calls_per_op",
    "kernels.records_per_op",
    "charge.sim_ns_per_op",
    "wal.bytes_per_key",
    "ckpt.bytes_per_live_key",
    "ckpt.count",
    "recover.replayed",
    "apps.nodes_per_op",
    "apps.prune_frac",
    "fleet.steals_per_delete",
    "fleet.max_rank",
)


class LossyBGPQ(NativeBGPQ):
    """Drops the last key of its fifth deletemin result."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.deletes = 0

    def deletemin(self, count):
        keys, pay = super().deletemin(count)
        self.deletes += 1
        if self.deletes == 5 and keys.size > 1:
            return keys[:-1], pay[:-1]
        return keys, pay


def _run(name: str, tmp_path: Path, trace: bool, seed: int = 7):
    data = tmp_path / f"{name}-{trace}-{len(list(tmp_path.iterdir()))}"
    data.mkdir()
    r = workloads.Run(seed, SECONDS, trace, data)
    workloads.WORKLOADS[name](r)
    return r


@pytest.mark.parametrize("name", ["native_mixed", "serve_durable", "fleet_mixed"])
def test_dropped_key_lowers_ok_frac(name, tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "NativeBGPQ", LossyBGPQ)
    monkeypatch.setattr(sharded, "NativeBGPQ", LossyBGPQ)
    r = _run(name, tmp_path, trace=False)
    _, scaled = bench_run.end_to_end(r, 0.0)
    assert r.failed > 0
    assert scaled["ok_frac"] < 1.0
    assert not all(r.checks.values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_correct_run_passes_every_check(name, tmp_path):
    r = _run(name, tmp_path, trace=False)
    _, scaled = bench_run.end_to_end(r, 0.0)
    assert r.checks and all(r.checks.values()), r.checks
    assert scaled["ok_frac"] == 1.0
    assert all(v > 0 for v in scaled.values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_exact_counts_repeat(name, tmp_path):
    first = bench_run.per_layer(_run(name, tmp_path, trace=True))
    second = bench_run.per_layer(_run(name, tmp_path, trace=True))
    assert set(first) == set(bench_run.PER_LAYER_UNITS)
    for metric in EXACT:
        assert first[metric] == second[metric], metric


def test_traced_shares_account_for_the_traced_time(tmp_path):
    m = bench_run.per_layer(_run("serve_durable", tmp_path, trace=True))
    shares = [v for k, v in m.items() if k.endswith("share")]
    assert sum(shares) == pytest.approx(1.0, abs=1e-9)
    assert m["wal.share"] > 0 and m["ckpt.share"] > 0


def test_oracle_pops_smallest_keys():
    rng = np.random.default_rng(0)
    keys = rng.integers(0, 50, 400)
    o = workloads.SortedOracle(keys[:300], flush=16)
    live = sorted(keys[:300].tolist())
    for i in range(300, 400, 10):
        o.insert(keys[i : i + 10])
        live = sorted(live + keys[i : i + 10].tolist())
        got = o.pop(7).tolist()
        assert got == live[:7]
        live = live[7:]
    assert len(o) == len(live)


def test_refuses_to_run_without_library_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        spec["command"] + ["--workload", "native_mixed", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
