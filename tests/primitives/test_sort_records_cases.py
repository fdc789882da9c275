"""Deterministic edge cases for the compiled ``sort_records``.

The C core sorts records with an insertion sort below 48 records and an
LSD radix sort (8-bit digits, sign bit flipped, passes over a byte every
key shares skipped) from 48 up; payload rows of whole int64 words are
copied word by word, any other row width by ``memcpy``.  The hypothesis
parity suite draws small keys and int64 payloads, so it reaches neither
the high key bytes nor the ``memcpy`` rows.  These cases pin every path
against the reference stable argsort: sizes on both sides of the
cutoff, full-range keys including the int64 extremes, heavy ties,
inputs whose bytes are all shared, and int32 payloads of odd widths.
"""

import numpy as np
import pytest

from repro.core.native import NativeBGPQ
from repro.primitives import kernels

COMPILED = [n for n in kernels.available_backends() if n != "numpy"]
REF = kernels.select("numpy")

pytestmark = pytest.mark.skipif(
    not COMPILED, reason="no compiled kernel backend on this host"
)

I64 = np.iinfo(np.int64)
SIZES = [2, 47, 48, 512, 2048]


def _full_range(rng, n):
    keys = rng.integers(I64.min, I64.max, size=n, dtype=np.int64,
                        endpoint=True)
    keys[: min(n, 4)] = [I64.max, I64.min, -1, 0][: min(n, 4)]
    return keys


def _extreme_ties(rng, n):
    return rng.choice(
        np.array([I64.min, -1, 0, 1, I64.max], dtype=np.int64), size=n
    )


def _all_equal(rng, n):
    return np.full(n, -0x0101010101010101, dtype=np.int64)


def _one_byte_varies(rng, n):
    # only byte 3 differs, so seven of the eight radix passes are skipped
    base = np.int64(0x5A5A5A5A00FFFFFF)
    return base + (rng.integers(0, 4, size=n, dtype=np.int64) << 24)


def _descending(rng, n):
    return np.sort(_full_range(rng, n))[::-1].copy()


KEYS = {
    "full_range": _full_range,
    "extreme_ties": _extreme_ties,
    "all_equal": _all_equal,
    "one_byte_varies": _one_byte_varies,
    "descending": _descending,
}

# (dtype, width): int64 rows take the word copy, 4- and 12-byte int32
# rows take memcpy, an 8-byte int32 row takes the word copy again
PAYLOADS = [
    (np.int64, 1), (np.int64, 2), (np.int64, 3),
    (np.int32, 1), (np.int32, 2), (np.int32, 3),
]


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("kind", sorted(KEYS))
@pytest.mark.parametrize("dtype,width", PAYLOADS)
def test_sort_records_matches_stable_argsort(n, kind, dtype, width):
    rng = np.random.default_rng(n * 31 + width)
    keys = KEYS[kind](rng, n)
    # distinct payloads expose any deviation from the stable order
    pay = np.arange(n * width, dtype=dtype).reshape(n, width)
    order = np.argsort(keys, kind="stable")
    ref_k, ref_p = REF.sort_records(keys.copy(), pay.copy())
    assert np.array_equal(ref_k, keys[order])
    assert np.array_equal(ref_p, pay[order])
    for name in COMPILED:
        k_in, p_in = keys.copy(), pay.copy()
        got_k, got_p = kernels.select(name).sort_records(k_in, p_in)
        assert got_p.dtype == pay.dtype, name
        assert np.array_equal(got_k, ref_k), (name, kind)
        assert np.array_equal(got_p, ref_p), (name, kind)
        # the inputs are left as they were
        assert np.array_equal(k_in, keys) and np.array_equal(p_in, pay)


@pytest.mark.parametrize("name", COMPILED)
@pytest.mark.parametrize("width", [1, 3])
def test_int32_payload_bulk_insert_identical(name, width):
    """Bulk inserts over k presort int32 rows through the compiled sort."""
    k = 64
    rng = np.random.default_rng(width)
    keys = rng.integers(-1000, 1000, size=3000).astype(np.int64)
    pay = rng.integers(0, 1 << 30, size=(3000, width)).astype(np.int32)
    queues = [
        NativeBGPQ(k, storage="arena", payload_width=width,
                   payload_dtype=np.int32, kernels=kern)
        for kern in ("numpy", name)
    ]
    for q in queues:
        q.insert_bulk(keys, pay)
    ref, got = queues
    while len(ref):
        rk, rp = ref.deletemin(k)
        gk, gp = got.deletemin(k)
        assert np.array_equal(rk, gk)
        assert np.array_equal(rp, gp)
    assert len(got) == 0
