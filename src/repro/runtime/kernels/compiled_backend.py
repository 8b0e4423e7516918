"""Compiled matcher kernel: a numba-jitted fused match pass.

The broadcast reference back-end materialises an ``(n, M, W)`` mismatch
tensor per probe chunk.  The compiled back-end instead walks probes in a
``prange`` loop and resolves each probe against *all three* structures —
binary search over the lexicographically sorted exact rows, then
pattern-compare-popcount over the ternary planes, then the code ranges —
with early exit on the first matching entry and on the first mismatching
machine word, never allocating an intermediate tensor.  The jitted loop is
compiled ``nogil`` + ``parallel``, which is what makes the ``sharded``
thread-pool driver scale when it wraps this kernel.

numba is an *optional* dependency: when it is absent the class silently
degrades to the reference NumPy passes (``effective_name`` reports which
engine actually ran), so selecting ``backend="compiled"`` is always safe.
The first real call pays one JIT compilation; empty matchers never reach
the kernel (the matcher early-outs before dispatch), so merely constructing
monitors stays warm-up free.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .base import MatcherKernel, MatchPlan
from .numpy_backend import NumpyMatcherKernel

__all__ = ["CompiledMatcherKernel", "HAVE_NUMBA"]

try:  # pragma: no cover - exercised on the numba CI leg
    import numba

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - default environment
    numba = None
    HAVE_NUMBA = False


if HAVE_NUMBA:  # pragma: no cover - exercised on the numba CI leg

    @numba.njit(nogil=True, cache=True)
    def _exact_rank(exact, probe_row):
        """Index of the first exact row >= ``probe_row`` (lexicographic)."""
        lo = 0
        hi = exact.shape[0]
        while lo < hi:
            mid = (lo + hi) // 2
            cmp = 0
            for w in range(exact.shape[1]):
                if exact[mid, w] < probe_row[w]:
                    cmp = -1
                    break
                if exact[mid, w] > probe_row[w]:
                    cmp = 1
                    break
            if cmp < 0:
                lo = mid + 1
            else:
                hi = mid
        return lo

    @numba.njit(parallel=True, nogil=True, cache=True)
    def _fused_match(probes, exact, values, masks, codes, low, high, out):
        num_probes, num_words = probes.shape
        num_exact = exact.shape[0]
        num_ternary = values.shape[0]
        num_ranges = low.shape[0]
        for i in numba.prange(num_probes):
            hit = False
            if num_exact:
                rank = _exact_rank(exact, probes[i])
                if rank < num_exact:
                    same = True
                    for w in range(num_words):
                        if exact[rank, w] != probes[i, w]:
                            same = False
                            break
                    hit = same
            if not hit:
                for t in range(num_ternary):
                    matched = True
                    for w in range(num_words):
                        if (probes[i, w] ^ values[t, w]) & masks[t, w] != np.uint64(0):
                            matched = False
                            break
                    if matched:
                        hit = True
                        break
            if not hit:
                for r in range(num_ranges):
                    inside = True
                    for p in range(low.shape[1]):
                        code = codes[i, p]
                        if code < low[r, p] or code > high[r, p]:
                            inside = False
                            break
                    if inside:
                        hit = True
                        break
            out[i] = hit


class CompiledMatcherKernel(MatcherKernel):
    """Fused jitted match pass (falls back to NumPy without numba)."""

    name = "compiled"

    def __init__(self) -> None:
        self._fallback: Optional[NumpyMatcherKernel] = (
            None if HAVE_NUMBA else NumpyMatcherKernel()
        )

    @property
    def effective_name(self) -> str:
        return self.name if self._fallback is None else self._fallback.name

    # ------------------------------------------------------------------
    def match(
        self,
        plan: MatchPlan,
        packed: Optional[np.ndarray],
        codes: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        if self._fallback is not None:
            return self._fallback.match(plan, packed, codes=codes)
        num_probes = self.num_probes(packed, codes)
        hits = np.zeros(num_probes, dtype=bool)
        if num_probes == 0 or plan.is_empty:
            return hits
        if packed is None:
            # Only a plan without exact or ternary rows comes without words;
            # the kernel then reads just their count.
            packed = np.zeros((num_probes, 1), dtype=np.uint64)
        num_words = packed.shape[1]
        empty_words = np.zeros((0, num_words), dtype=np.uint64)
        exact = plan.exact if plan.exact is not None else empty_words
        if plan.ternary is not None:
            values, masks = plan.ternary.values, plan.ternary.masks
        else:
            values = masks = empty_words
        if plan.range_low is not None:
            low, high, probe_codes = plan.range_low, plan.range_high, codes
        else:
            low = high = np.zeros((0, 0), dtype=np.int64)
            probe_codes = np.zeros((num_probes, 0), dtype=np.int64)
        _fused_match(
            np.ascontiguousarray(packed, dtype=np.uint64),
            np.ascontiguousarray(exact, dtype=np.uint64),
            np.ascontiguousarray(values, dtype=np.uint64),
            np.ascontiguousarray(masks, dtype=np.uint64),
            # One jitted signature: codes cross the boundary as int64.
            np.ascontiguousarray(probe_codes, dtype=np.int64),
            np.ascontiguousarray(low, dtype=np.int64),
            np.ascontiguousarray(high, dtype=np.int64),
            hits,
        )
        return hits

    # Per-structure passes: used when another driver (e.g. sharded) asks for
    # a single pass; each routes through the fused kernel with the other
    # structures left empty, or through the fallback when numba is absent.
    # The plan's derived lookup structures (keys, table) serve the numpy
    # passes only; the fused loop binary-searches and compares directly, so
    # it never builds them.
    def match_exact(
        self, probes: np.ndarray, exact: np.ndarray, keys: Optional[np.ndarray] = None
    ) -> np.ndarray:
        if self._fallback is not None:
            return self._fallback.match_exact(probes, exact, keys=keys)
        self._check_words(probes, exact)
        hits = np.zeros(probes.shape[0], dtype=bool)
        if exact.shape[0] == 0 or probes.shape[0] == 0:
            return hits
        empty = np.zeros((0, probes.shape[1]), dtype=np.uint64)
        _fused_match(
            np.ascontiguousarray(probes, dtype=np.uint64),
            np.ascontiguousarray(exact, dtype=np.uint64),
            empty,
            empty,
            np.zeros((probes.shape[0], 0), dtype=np.int64),
            np.zeros((0, 0), dtype=np.int64),
            np.zeros((0, 0), dtype=np.int64),
            hits,
        )
        return hits

    def match_ternary(
        self, probes: np.ndarray, values: np.ndarray, masks: np.ndarray
    ) -> np.ndarray:
        if self._fallback is not None:
            return self._fallback.match_ternary(probes, values, masks)
        self._check_words(probes, values)
        hits = np.zeros(probes.shape[0], dtype=bool)
        if values.shape[0] == 0 or probes.shape[0] == 0:
            return hits
        empty = np.zeros((0, probes.shape[1]), dtype=np.uint64)
        _fused_match(
            np.ascontiguousarray(probes, dtype=np.uint64),
            empty,
            np.ascontiguousarray(values, dtype=np.uint64),
            np.ascontiguousarray(masks, dtype=np.uint64),
            np.zeros((probes.shape[0], 0), dtype=np.int64),
            np.zeros((0, 0), dtype=np.int64),
            np.zeros((0, 0), dtype=np.int64),
            hits,
        )
        return hits

    def match_ranges(
        self,
        probe_codes: np.ndarray,
        low: np.ndarray,
        high: np.ndarray,
        table: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        if self._fallback is not None:
            return self._fallback.match_ranges(probe_codes, low, high, table=table)
        hits = np.zeros(probe_codes.shape[0], dtype=bool)
        if low.shape[0] == 0 or probe_codes.shape[0] == 0:
            return hits
        empty = np.zeros((0, 1), dtype=np.uint64)
        _fused_match(
            np.zeros((probe_codes.shape[0], 1), dtype=np.uint64),
            empty,
            empty,
            empty,
            np.ascontiguousarray(probe_codes, dtype=np.int64),
            np.ascontiguousarray(low, dtype=np.int64),
            np.ascontiguousarray(high, dtype=np.int64),
            hits,
        )
        return hits
