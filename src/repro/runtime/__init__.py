"""Vectorised bit-packed pattern runtime.

This package is the shared substrate under every monitor family:

* :mod:`repro.runtime.packing` — ``(N, B)`` bool matrices ↔ ``(N, W)``
  bit-packed ``uint64`` matrices, plus vectorised popcount;
* :mod:`repro.runtime.codec` — batched binarisation of activation vectors
  against cut points, ternary value/mask bit-planes and code ranges for the
  Δ-robust abstractions;
* :mod:`repro.runtime.matcher` — TCAM-style vectorised set membership over
  the minimal packed mirror that stores every pattern set;
* :mod:`repro.runtime.kernels` — the matcher kernel: presorted exact
  lookup, broadcast ternary compare and bit-sliced range table over one
  consolidated match plan;
* :mod:`repro.runtime.engine` — batched scoring with a per-layer activation
  cache so monitors sharing a network share forward passes.

Batched API contract
--------------------
``warn_batch(inputs)`` is the authoritative scoring path of every monitor;
``warn`` / ``verdict`` are thin single-row wrappers over it, so batch and
single-sample answers agree by construction on any fixed workload.
"""

from .codec import PatternCodec, TernaryPlanes, WordCodec, default_tolerance
from .engine import ActivationCache, BatchScore, BatchScoringEngine
from .kernels import MatchPlan, NumpyMatcherKernel, resolve_matcher_backend
from .matcher import PackedMatcher
from .packing import (
    WORD_BITS,
    full_mask_words,
    pack_bool_matrix,
    popcount,
    tail_word_mask,
    unpack_bool_matrix,
    words_for_bits,
)

__all__ = [
    "WORD_BITS",
    "words_for_bits",
    "pack_bool_matrix",
    "unpack_bool_matrix",
    "popcount",
    "tail_word_mask",
    "full_mask_words",
    "WordCodec",
    "PatternCodec",
    "TernaryPlanes",
    "default_tolerance",
    "PackedMatcher",
    "NumpyMatcherKernel",
    "MatchPlan",
    "resolve_matcher_backend",
    "ActivationCache",
    "BatchScore",
    "BatchScoringEngine",
]
