"""Cost models: translate algorithmic work into simulated nanoseconds.

The discrete-event threads in this reproduction perform their data
movement eagerly (NumPy on the host) and charge simulated time through
one of these models.  The GPU model charges *per thread block* (one
simulated thread = one CUDA thread block, the unit at which BGPQ
operates on batch nodes); the CPU model charges *per hardware thread*.

The formulas are first-principles: a bitonic sort charges its exact
stage count, a merge its linear pass, a global access its latency plus
bytes over per-SM bandwidth.  The only tuned constants live in
:mod:`repro.device.spec`; see DESIGN.md §2 for the calibration story.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from ..errors import ConfigurationError
from .spec import CpuSpec, GpuSpec, LaunchConfig

__all__ = ["GpuCostModel", "CpuCostModel"]


def _log2_ceil(n: int) -> int:
    if n <= 1:
        return 0
    return (n - 1).bit_length()


@dataclass(frozen=True)
class GpuCostModel:
    """Per-thread-block cost model for a GPU kernel launch.

    Parameters
    ----------
    spec:
        The GPU part (latencies, bandwidth, sync costs).
    launch:
        Launch shape; ``threads_per_block`` determines how many lanes
        cooperate on each batch-node primitive, which is where BGPQ's
        intra-node data parallelism comes from.
    item_bytes:
        Size of one stored element.  The paper's synthetic benchmarks
        use 32-bit keys (4 bytes); applications store (key, payload)
        records (8+ bytes).
    """

    spec: GpuSpec
    launch: LaunchConfig
    item_bytes: int = 4

    def __post_init__(self) -> None:
        if self.item_bytes <= 0:
            raise ConfigurationError("item_bytes must be positive")

    def __hash__(self) -> int:
        # Every @lru_cache hit below hashes ``self``; the generated
        # dataclass hash recurses through spec and launch each time
        # (~0.6 us), dominating the memoized lookup.  The instance is
        # frozen, so cache it.
        try:
            return self._hash
        except AttributeError:
            h = hash((GpuCostModel, self.spec, self.launch, self.item_bytes))
            object.__setattr__(self, "_hash", h)
            return h

    # -- building blocks ----------------------------------------------
    @property
    def width(self) -> int:
        """Cooperating lanes per block."""
        return self.launch.threads_per_block

    def _elem_ns(self) -> float:
        """Cost of one compare/move on shared-memory data per lane."""
        return 2.0 / self.spec.clock_ghz  # ~2 cycles

    # The charging methods below are memoized: the model is a frozen
    # (hashable) dataclass and heapify loops charge the same handful of
    # (n, m) shapes — (k, k), (k, pbuffer size) — millions of times per
    # benchmark, so recomputing identical formulas dominates charging.
    @lru_cache(maxsize=None)
    def block_sync_ns(self) -> float:
        """__syncthreads(): grows with resident warps (paper §6.2's
        reason large blocks stop helping)."""
        warps = self.launch.warps_per_block(self.spec)
        return self.spec.block_sync_base_ns + self.spec.block_sync_per_warp_ns * warps

    def kernel_barrier_ns(self) -> float:
        """Grid-wide barrier (kernel relaunch) — P-Sync's stage cost."""
        return self.spec.kernel_barrier_ns

    # -- memory --------------------------------------------------------
    @lru_cache(maxsize=4096)
    def global_read_ns(self, n_items: int, coalesced: bool = True) -> float:
        """Load ``n_items`` elements from global memory.

        Coalesced: one latency plus streaming at this SM's bandwidth
        share — what BGPQ's contiguous batch nodes enjoy.  Uncoalesced:
        independent transactions hidden by a modest memory-level
        parallelism factor — what a pointer-chasing layout would pay.
        """
        if n_items <= 0:
            return 0.0
        nbytes = n_items * self.item_bytes
        if coalesced:
            stream = nbytes / self.spec.per_sm_bandwidth_gbps()  # GB/s == bytes/ns
            return self.spec.global_latency_ns + stream
        mlp = 8.0
        transactions = math.ceil(n_items / (self.spec.warp_size))
        return transactions * self.spec.global_latency_ns / mlp + nbytes / (
            self.spec.per_sm_bandwidth_gbps() * 0.25
        )

    def global_write_ns(self, n_items: int, coalesced: bool = True) -> float:
        return self.global_read_ns(n_items, coalesced=coalesced)

    def shared_pass_ns(self, n_items: int) -> float:
        """One cooperative pass over ``n_items`` elements in shared memory."""
        if n_items <= 0:
            return 0.0
        iters = math.ceil(n_items / self.width)
        return iters * self._elem_ns() + self.spec.shared_latency_ns

    # -- synchronisation -----------------------------------------------
    def atomic_ns(self) -> float:
        return self.spec.atomic_ns

    def lock_acquire_ns(self) -> float:
        """Uncontended acquire: CAS + acquire fence (queuing delay on
        contention is added by the simulator, not the model)."""
        return 2.0 * self.spec.atomic_ns

    def lock_release_ns(self) -> float:
        return self.spec.atomic_ns

    def state_rmw_ns(self) -> float:
        """Read/update a node's state word (atomic on global memory)."""
        return self.spec.atomic_ns

    # -- primitives ------------------------------------------------------
    @lru_cache(maxsize=4096)
    def bitonic_sort_ns(self, n: int) -> float:
        """Stage-exact bitonic sort of ``n`` keys resident in shared memory.

        ``log2(n) * (log2(n)+1) / 2`` stages; each stage performs n/2
        compare-exchanges across the block's lanes and ends with a
        block sync.  This is the paper's in-node sort [22].
        """
        if n <= 1:
            return 0.0
        ln = _log2_ceil(n)
        stages = ln * (ln + 1) // 2
        per_stage = math.ceil(n / 2 / self.width) * self._elem_ns() + self.block_sync_ns()
        return stages * per_stage

    @lru_cache(maxsize=4096)
    def merge_ns(self, n: int, m: int) -> float:
        """GPU merge-path [11] of two sorted runs in shared memory.

        Each lane binary-searches its diagonal (log2(n+m) steps) and
        then emits its contiguous output slice; two block syncs frame
        the phases.
        """
        total = n + m
        if total <= 0:
            return 0.0
        diag = _log2_ceil(total) * self._elem_ns() * 2.0
        emit = math.ceil(total / self.width) * self._elem_ns()
        return diag + emit + 2.0 * self.block_sync_ns()

    @lru_cache(maxsize=4096)
    def sort_split_ns(self, n: int, m: int) -> float:
        """SORT_SPLIT of two *sorted* nodes (paper §4): a merge plus a
        split at position Ma — the split itself is free (the merged
        output is already contiguous), so only a bookkeeping sync is
        added."""
        return self.merge_ns(n, m) + self.block_sync_ns()

    # -- composite node operations (load + work + store) -----------------
    @lru_cache(maxsize=4096)
    def node_sort_split_ns(self, n: int, m: int, from_global: bool = True) -> float:
        """SORT_SPLIT between two nodes including their global-memory
        traffic, the common unit of work in BGPQ's heapify loops."""
        t = self.sort_split_ns(n, m)
        if from_global:
            t += self.global_read_ns(n + m) + self.global_write_ns(n + m)
        return t

    # -- whole-step charges of the host-speed queue ------------------------
    # Each is one device charge of NativeBGPQ, so every charge it makes
    # is exactly one float returned by this model.
    def node_move_ns(self, n: int) -> float:
        """Move one ``n``-item node through global memory (read + write)."""
        return self.global_read_ns(n) + self.global_write_ns(n)

    def lock_roundtrip_ns(self) -> float:
        """Take and release one uncontended lock."""
        return self.lock_acquire_ns() + self.lock_release_ns()

    def batch_entry_ns(self, n: int) -> float:
        """Admit one ``n``-key insert batch: coalesced read, in-block
        sort, root lock round trip."""
        return (
            self.global_read_ns(n)
            + self.bitonic_sort_ns(n)
            + self.lock_acquire_ns()
            + self.lock_release_ns()
        )

    def bulk_build_ns(self, n: int, k: int) -> float:
        """Lay ``n`` records out as ``k``-key nodes: one coalesced read
        and write, a per-batch in-block sort, a merge tree over the
        batches, and the root lock."""
        chunks = -(-n // k)
        return (
            self.global_read_ns(n)
            + self.global_write_ns(n)
            + chunks * self.bitonic_sort_ns(min(n, k))
            + chunks * max(0, chunks.bit_length() - 1) * self.sort_split_ns(k, k)
            + self.lock_acquire_ns()
            + self.lock_release_ns()
        )


@dataclass(frozen=True)
class CpuCostModel:
    """Per-hardware-thread cost model for the CPU baselines.

    The CPU comparators traverse pointer-linked or tree structures one
    key at a time; their costs are dominated by cache-missing loads and
    coherence traffic on hot words (heap root, skip-list head), both of
    which are explicit parameters of :class:`CpuSpec`.
    """

    spec: CpuSpec
    item_bytes: int = 4

    def __hash__(self) -> int:
        # Same hash caching as GpuCostModel: keep @lru_cache hits cheap.
        try:
            return self._hash
        except AttributeError:
            h = hash((CpuCostModel, self.spec, self.item_bytes))
            object.__setattr__(self, "_hash", h)
            return h

    # -- scalar work ---------------------------------------------------
    def op_ns(self, count: int = 1) -> float:
        return count * self.spec.op_ns

    def compare_ns(self, count: int = 1) -> float:
        return count * self.spec.op_ns

    # -- memory ----------------------------------------------------------
    def cache_miss_ns(self, count: int = 1) -> float:
        return count * self.spec.cache_miss_ns

    def hot_line_ns(self, count: int = 1) -> float:
        """Access to a line ping-ponging between sockets (hot head/root)."""
        return count * self.spec.coherence_miss_ns

    @lru_cache(maxsize=4096)
    def stream_ns(self, n_items: int) -> float:
        """Sequential scan/copy of ``n_items`` (prefetch-friendly)."""
        per_line = self.spec.cache_line_bytes // self.item_bytes
        lines = math.ceil(max(0, n_items) / max(1, per_line))
        return lines * self.spec.cache_hit_ns + n_items * 0.25 * self.spec.op_ns

    # -- synchronisation -------------------------------------------------
    def atomic_ns(self, contended: bool = False) -> float:
        t = self.spec.atomic_ns
        if contended:
            t += self.spec.coherence_miss_ns
        return t

    def lock_acquire_ns(self) -> float:
        return self.spec.atomic_ns + self.spec.coherence_miss_ns

    def lock_release_ns(self) -> float:
        return self.spec.atomic_ns

    # -- structure traversals ---------------------------------------------
    @lru_cache(maxsize=4096)
    def heap_percolate_ns(self, depth: int, node_items: int = 1) -> float:
        """Move a key up/down ``depth`` levels of an array heap.

        Each level is a cache-missing load of the child pair plus a
        compare/swap; large heaps miss at every level.
        """
        per_level = self.spec.cache_miss_ns + 2.0 * self.spec.op_ns * node_items
        return depth * per_level

    def list_hops_ns(self, hops: int) -> float:
        """Pointer-chase ``hops`` linked nodes (skip list / chunk list)."""
        return hops * self.spec.cache_miss_ns
