"""Sharded matcher kernel: thread-pool parallelism over probe chunks.

Membership of one probe row is independent of every other row, so a large
probe batch shards trivially along the probe axis.  This driver splits the
batch into contiguous chunks, runs an *inner* kernel on each chunk from a
shared thread pool, and stitches the per-chunk vectors back together —
bit-for-bit the same answer as running the inner kernel once over the whole
batch.

Threads (not processes) are the right pool here: the compiled inner kernel
is ``nogil`` and NumPy's broadcast ufuncs release the GIL on large buffers,
so shards genuinely overlap, while the matcher state stays shared by
reference instead of being pickled per worker.  Small batches skip the pool
entirely — the dispatch overhead would dominate — so the sharded back-end
is safe to select unconditionally and only changes the execution plan for
wide layers and large batches.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

import numpy as np

from .base import MatcherKernel, MatchPlan
from .compiled_backend import HAVE_NUMBA, CompiledMatcherKernel
from .numpy_backend import NumpyMatcherKernel

__all__ = ["ShardedMatcherKernel", "DEFAULT_MIN_SHARD_ROWS"]

#: Below twice this many probe rows the pool is skipped entirely.
DEFAULT_MIN_SHARD_ROWS = 1024

_POOL_LOCK = threading.Lock()
_POOL: Optional[ThreadPoolExecutor] = None


def _shared_pool() -> ThreadPoolExecutor:
    """Lazily created process-wide pool shared by every sharded kernel."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            workers = min(8, os.cpu_count() or 1)
            _POOL = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-matcher-shard"
            )
        return _POOL


class ShardedMatcherKernel(MatcherKernel):
    """Chunk-parallel driver around an inner single-threaded kernel."""

    name = "sharded"

    def __init__(
        self,
        inner: Optional[MatcherKernel] = None,
        min_shard_rows: int = DEFAULT_MIN_SHARD_ROWS,
        max_workers: Optional[int] = None,
    ) -> None:
        if inner is None:
            # Prefer the fused compiled kernel (nogil) when numba is around;
            # the broadcast reference otherwise.
            inner = CompiledMatcherKernel() if HAVE_NUMBA else NumpyMatcherKernel()
        self.inner = inner
        self.min_shard_rows = max(1, int(min_shard_rows))
        # None tracks the machine (min(8, cpu_count)); an explicit value
        # forces the shard ceiling regardless of detected cores.
        self.max_workers = None if max_workers is None else max(1, int(max_workers))

    @property
    def effective_name(self) -> str:
        return f"{self.name}[{self.inner.effective_name}]"

    def describe(self) -> dict:
        info = super().describe()
        info["inner"] = self.inner.describe()
        return info

    # ------------------------------------------------------------------
    def _num_shards(self, num_probes: int) -> int:
        workers = self.max_workers
        if workers is None:
            workers = min(8, os.cpu_count() or 1)
        return max(1, min(workers, num_probes // self.min_shard_rows))

    def match(
        self,
        plan: MatchPlan,
        packed: Optional[np.ndarray],
        codes: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        num_probes = self.num_probes(packed, codes)
        if num_probes == 0 or plan.is_empty:
            return np.zeros(num_probes, dtype=bool)
        num_shards = self._num_shards(num_probes)
        if num_shards == 1:
            return self.inner.match(plan, packed, codes=codes)
        bounds = np.linspace(0, num_probes, num_shards + 1, dtype=np.int64)

        def run(start: int, stop: int) -> np.ndarray:
            shard_packed = packed[start:stop] if packed is not None else None
            shard_codes = codes[start:stop] if codes is not None else None
            return self.inner.match(plan, shard_packed, codes=shard_codes)

        pool = _shared_pool()
        futures = [
            pool.submit(run, int(bounds[s]), int(bounds[s + 1])) for s in range(num_shards)
        ]
        return np.concatenate([future.result() for future in futures])

    # Per-structure passes simply delegate (the chunking win lives in match).
    def match_exact(
        self, probes: np.ndarray, exact: np.ndarray, keys: Optional[np.ndarray] = None
    ) -> np.ndarray:
        return self.inner.match_exact(probes, exact, keys=keys)

    def match_ternary(
        self, probes: np.ndarray, values: np.ndarray, masks: np.ndarray
    ) -> np.ndarray:
        return self.inner.match_ternary(probes, values, masks)

    def match_ranges(
        self,
        probe_codes: np.ndarray,
        low: np.ndarray,
        high: np.ndarray,
        table: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        return self.inner.match_ranges(probe_codes, low, high, table=table)
