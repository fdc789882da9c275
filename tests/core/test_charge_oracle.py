"""Independent oracle for NativeBGPQ's exact simulated clock.

The backend parity suites compare one backend against another, and
every backend shares one tick accumulator, so they cannot catch a bug
in it.  Here the oracle is the cost model itself: a proxy records every
float the model returns, the test sums those floats as Fractions, and
the queue's ``sim_time_ns_exact`` must equal that sum after every op,
on every heap path, for both kernel backends and with and without
payload rows.  The queue's tick table is swapped for one that prices
every lookup afresh, so the proxy sees each charge as it is made; a
twin queue over the plain shared (memoized) table must then keep the
same clock.
"""

from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core import native
from repro.core.native import NativeBGPQ
from repro.device.kernels import GpuContext
from repro.errors import ConfigurationError
from repro.fleet import ShardedBGPQ
from repro.fleet import sharded as sharded_mod
from repro.primitives import kernels as kernel_registry
from repro.serve.service import DurableService

BACKENDS = ["numpy"] + (
    ["cext"] if "cext" in kernel_registry.available_backends() else []
)
TICK = Fraction(1, native._TICKS_PER_NS)
ALL_PATHS = {"build", "fold", "overflow", "bulk", "fast", "refill", "general"}


class RecordingModel:
    """Proxy over a cost model that records every float it returns."""

    def __init__(self, inner):
        self._inner = inner
        self.floats: list[float] = []

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        if not callable(attr):
            return attr

        def call(*args, **kwargs):
            value = attr(*args, **kwargs)
            self.floats.append(value)
            return value

        return call

    def total(self) -> Fraction:
        return sum(map(Fraction, self.floats), Fraction(0))


class _Unmemoized(native._ChargeTicks):
    """A tick table that prices every lookup through the model."""

    __missing__ = native._ChargeTicks.ticks


def _recorded_queue(kern, width, k):
    model = RecordingModel(GpuContext.default().model)
    pq = NativeBGPQ(node_capacity=k, ctx=SimpleNamespace(model=model),
                    payload_width=width, kernels=kern)
    pq._tt = _Unmemoized(model)
    return pq, model


def _path(pq, op, n) -> str:
    """Which heap path ``op`` of size ``n`` takes, from the state before it."""
    k = pq.k
    if op == "build":
        return "build"
    if op == "insert":
        if n > k:
            return "bulk"
        if pq._heap_size == 0:
            return "first"
        return "fold" if pq._buffer_keys().size + n < k else "overflow"
    if pq._heap_size == 0:
        return "empty"
    if n < pq._node_keys(1).size:
        return "fast"
    return "refill" if pq._heap_size == 1 else "general"


def _script(seed, k, ops=160):
    """Build, then a mixed run whose sizes reach every path; the final
    drain walks the heap back down through refill and empty."""
    rng = np.random.default_rng(seed)
    script = [("build", int(rng.integers(3 * k, 6 * k)))]
    for _ in range(ops):
        r = rng.random()
        if r < 0.15:
            script.append(("insert", int(rng.integers(k + 1, 4 * k))))
        elif r < 0.55:
            script.append(("insert", int(rng.integers(1, k + 1))))
        else:
            script.append(("deletemin", int(rng.integers(1, k + 1))))
    script += [("deletemin", k)] * (ops // 2 + 8)
    return script


def _apply(pq, op, n, rng, width):
    if op == "deletemin":
        return pq.deletemin(n)
    keys = rng.integers(-(1 << 40), 1 << 40, n)
    pay = np.stack([keys ^ 0x5A5A, keys >> 3], axis=1)[:, :width] if width else None
    if op == "build":
        pq.build(keys, pay)
    else:
        pq.insert(keys, pay)
    return None


@pytest.mark.parametrize("width", [0, 2])
@pytest.mark.parametrize("kern", BACKENDS)
def test_clock_equals_exact_sum_of_model_floats(kern, width):
    k = 8
    pq, model = _recorded_queue(kern, width, k)
    twin = NativeBGPQ(node_capacity=k, ctx=GpuContext.default(),
                      payload_width=width, kernels=kern)
    rng_a, rng_b = np.random.default_rng(1), np.random.default_rng(1)
    seen = set()
    for op, n in _script(seed=11, k=k):
        seen.add(_path(pq, op, n))
        got = _apply(pq, op, n, rng_a, width)
        want = _apply(twin, op, n, rng_b, width)
        assert pq.sim_time_ns_exact == model.total()
        assert twin.sim_time_ns_exact == pq.sim_time_ns_exact
        assert twin.sim_time_ns == float(model.total())
        if got is not None:
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])
    assert ALL_PATHS <= seen, ALL_PATHS - seen
    assert pq._tt == {} and model.floats


def test_list_storage_matches_the_oracle():
    pq, model = _recorded_queue("numpy", 2, 8)
    legacy = NativeBGPQ(node_capacity=8, ctx=GpuContext.default(),
                        payload_width=2, storage="list")
    rng_a, rng_b = np.random.default_rng(2), np.random.default_rng(2)
    for op, n in _script(seed=12, k=8):
        _apply(pq, op, n, rng_a, 2)
        _apply(legacy, op, n, rng_b, 2)
        assert legacy.sim_time_ns_exact == model.total()


# -- tick conversion --------------------------------------------------------
FINEST = 2.0 ** -native._TICK_BITS


@given(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False))
@example(0.0)
@example(5e-324)  # smallest subnormal
@example(2.2250738585072014e-308)  # smallest normal
@example(FINEST)
@example(FINEST / 2)
@example(FINEST * 3)
@example(2.0 ** -12)  # smallest binade whose every double is a whole tick
@example(np.nextafter(2.0 ** -12, 0.0))
@example(np.nextafter(2.0 ** -12, 1.0))
@example(1.7976931348623157e308)
def test_tick_conversion_is_exact_or_raises(ns):
    ticks = Fraction(ns) / TICK
    if ticks.denominator == 1:
        assert native._to_ticks(ns) == ticks
    else:
        with pytest.raises(ConfigurationError, match="finer than one"):
            native._to_ticks(ns)


def test_every_double_from_the_documented_floor_is_a_whole_tick():
    x = 2.0 ** -12
    for _ in range(200):
        assert Fraction(native._to_ticks(x)) * TICK == Fraction(x)
        x = np.nextafter(x, np.inf) * 1.37


# -- durable clock ----------------------------------------------------------
GOLDEN_SIM_NS = "12637399627564994195/8796093022208"


def test_exported_clock_matches_the_recorded_golden():
    """The clock string of a fixed seeded run is pinned: checkpoints and
    WAL digests written before the tick accumulator stay comparable."""
    for kern in BACKENDS:
        pq = NativeBGPQ(node_capacity=16, ctx=GpuContext.default(),
                        payload_width=2, kernels=kern)
        rng = np.random.default_rng(5)
        for op, n in _script(seed=5, k=16, ops=120):
            _apply(pq, op, n, rng, 2)
        assert pq.export_state()["sim_ns"] == GOLDEN_SIM_NS


@pytest.mark.parametrize("kern", BACKENDS)
def test_non_dyadic_restored_clock_stays_exact(kern):
    src = NativeBGPQ(node_capacity=8, ctx=GpuContext.default(),
                     payload_width=2, kernels=kern)
    rng = np.random.default_rng(3)
    _apply(src, "build", 40, rng, 2)
    state = src.export_state()
    state["sim_ns"] = "1/3"
    pq, model = _recorded_queue(kern, 2, 8)
    pq.restore_state(state)
    assert pq.sim_time_ns_exact == Fraction(1, 3)
    for op, n in _script(seed=4, k=8, ops=60)[1:]:
        _apply(pq, op, n, rng, 2)
        want = Fraction(1, 3) + model.total()
        assert pq.sim_time_ns_exact == want
        assert pq.sim_time_ns == float(want)
    assert pq.export_state()["sim_ns"] == str(want)
    again = NativeBGPQ(node_capacity=8, ctx=GpuContext.default(), payload_width=2)
    again.restore_state(pq.export_state())
    assert again.sim_time_ns_exact == want


# -- per-op cost deltas -------------------------------------------------------
def test_serve_cost_ns_equals_fraction_subtraction(tmp_path):
    pq = NativeBGPQ(node_capacity=16, ctx=GpuContext.default(), storage="arena")
    svc = DurableService.open(pq, tmp_path / "svc", checkpoint_every=8)
    rng = np.random.default_rng(9)
    for i in range(300):
        before = pq.sim_time_ns_exact
        if rng.random() < 0.55:
            keys = rng.integers(0, 1 << 30, int(rng.integers(1, 40))).tolist()
            resp = svc.apply_insert("s", i, keys)
        else:
            resp = svc.apply_deletemin("s", i, int(rng.integers(1, 17)))
        want = float(pq.sim_time_ns_exact - before)
        assert resp["cost_ns"] == want and want > 0
    svc.close()


def test_fleet_shard_deltas_equal_fraction_subtraction(monkeypatch):
    marks: dict[int, Fraction] = {}
    deltas = []
    orig = sharded_mod._NativeShard._delta_ns

    def checked(self):
        prev = marks.get(id(self), Fraction(0))
        got = orig(self)
        now = self.pq.sim_time_ns_exact
        deltas.append((got, float(now - prev)))
        marks[id(self)] = now
        return got

    monkeypatch.setattr(sharded_mod._NativeShard, "_delta_ns", checked)
    f = ShardedBGPQ(n_shards=4, node_capacity=16, seed=5)
    rng = np.random.default_rng(6)
    for _ in range(200):
        f.insert(rng.integers(0, 1 << 30, int(rng.integers(1, 48))))
        f.delete_min(int(rng.integers(1, 17)))
    assert len(deltas) > 400
    assert all(got == want for got, want in deltas)
