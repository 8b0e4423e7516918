"""Pattern codec: batched activation vectors → bit-packed pattern words.

The codec is the single authority on how a monitored layer's feature vectors
become the fixed-width binary words stored by pattern monitors:

* :class:`WordCodec` — the *layout* half: integer interval codes (one per
  monitored position, ``bits_per_position`` bits each, MSB-first — matching
  the variable order of :class:`repro.bdd.patterns.PatternSet`) packed into
  ``uint64`` machine words;
* :class:`PatternCodec` — the *semantic* half: binarise a ``(N, P)`` batch of
  feature vectors against per-neuron cut points in one vectorised pass,
  and turn Δ-perturbation bounds ``[l, u]`` into either ternary value/mask
  bit-planes (1-bit monitors, Definition 1's ``ab_R``) or per-position code
  ranges (multi-bit interval monitors, Section III-C).

Codes and words
---------------
A code matrix is ``(N, P)`` of the smallest unsigned dtype holding the
largest code (``uint8`` for up to 8 bits per position, so for every monitor
in this package): :meth:`PatternCodec.codes` adds ``value > cut`` over the
cuts into it.  A NaN lies above no cut, so it codes 0; ``+inf`` codes
``num_cuts`` and ``-inf`` 0.  Packing writes each code MSB-first as ``b``
columns of a ``uint8`` bit matrix and hands it to ``np.packbits(...,
bitorder="little")``; eight packed bytes read as one little-endian ``uint64``
are one machine word (see :mod:`repro.runtime.packing`).  Codes that
callers pass in are range-checked once (:meth:`WordCodec.validate_codes`);
codes the codec made itself are not checked again.

Comparison tolerance
--------------------
Batched and single-row forward passes of the same network may differ in the
last float (BLAS kernels change with the batch size), and cut points produced
by data-driven strategies can coincide *exactly* with visited activation
values (e.g. the ``range_extension`` strategy places a cut at the maximum
visited value).  A strict ``value > cut`` comparison would then let a 1-ulp
batching difference flip a bit.  The codec therefore compares against
``cut + tol`` with a tiny scale-relative tolerance (the same idiom the
min-max monitor uses for its envelope check): visited values sitting exactly
on a cut stay below it regardless of how the batch was evaluated, and no
training datum ever sits exactly at ``cut + tol``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..exceptions import ConfigurationError, ShapeError
from .packing import pack_bool_matrix, unpack_bool_matrix, words_for_bits

__all__ = ["WordCodec", "PatternCodec", "TernaryPlanes", "default_tolerance"]


def default_tolerance(cut_points: np.ndarray) -> np.ndarray:
    """Scale-relative comparison tolerance per cut point."""
    return 1e-9 * np.maximum(1.0, np.abs(cut_points))


@dataclass(frozen=True)
class TernaryPlanes:
    """Bit-plane encoding of a batch of ternary (0 / 1 / don't-care) words.

    ``values`` carries the constrained bit values, ``masks`` has bit ``j`` set
    when position ``j`` is constrained (a cleared mask bit is a don't-care;
    the corresponding value bit is forced to zero so rows hash canonically).
    A concrete packed word ``w`` matches row ``i`` iff
    ``(w ^ values[i]) & masks[i] == 0`` in every machine word.
    """

    values: np.ndarray
    masks: np.ndarray

    def __post_init__(self) -> None:
        if self.values.shape != self.masks.shape or self.values.ndim != 2:
            raise ShapeError("values and masks must be equal-shape 2-D matrices")

    def __len__(self) -> int:
        return int(self.values.shape[0])


class WordCodec:
    """Bit layout of pattern words: integer codes ↔ packed ``uint64`` rows."""

    def __init__(self, num_positions: int, bits_per_position: int = 1) -> None:
        if num_positions <= 0:
            raise ConfigurationError("num_positions must be positive")
        if bits_per_position <= 0:
            raise ConfigurationError("bits_per_position must be positive")
        self.num_positions = int(num_positions)
        self.bits_per_position = int(bits_per_position)
        self.num_bits = self.num_positions * self.bits_per_position
        self.num_words = words_for_bits(self.num_bits)
        self.num_codes = 1 << self.bits_per_position
        #: dtype of the code matrices this layout produces (``uint8`` up to
        #: 8 bits per position).
        self.code_dtype = np.min_scalar_type(self.num_codes - 1)
        # MSB-first per position, matching PatternSet.bit_index ordering.
        self._bit_shifts = np.arange(self.bits_per_position)[::-1].astype(self.code_dtype)

    # ------------------------------------------------------------------
    def validate_codes(self, codes: np.ndarray) -> np.ndarray:
        """``codes`` as a ``(N, P)`` matrix of :attr:`code_dtype`, range-checked.

        The check is dtype-aware: an unsigned matrix needs no ``< 0`` test.
        A wrong width raises :class:`ShapeError`, a code outside
        ``[0, 2**b)`` :class:`ConfigurationError`.
        """
        codes = np.atleast_2d(np.asarray(codes))
        if codes.ndim != 2 or codes.shape[1] != self.num_positions:
            raise ShapeError(
                f"expected a (batch, {self.num_positions}) code matrix, got "
                f"shape {codes.shape}"
            )
        if codes.dtype.kind not in "iu":
            codes = codes.astype(np.int64)
        if codes.size:
            negative = codes.dtype.kind == "i" and codes.min() < 0
            if negative or codes.max() >= self.num_codes:
                raise ConfigurationError(f"codes must lie in [0, {self.num_codes})")
        return codes.astype(self.code_dtype, copy=False)

    def code_bits(self, codes: np.ndarray) -> np.ndarray:
        """Expand a ``(N, P)`` code matrix to its ``(N, P·b)`` bit matrix."""
        return self._code_bits(self.validate_codes(codes)).astype(bool, copy=False)

    def _code_bits(self, codes: np.ndarray) -> np.ndarray:
        """:meth:`code_bits` of validated codes, as a 0/1 code-dtype matrix."""
        if self.bits_per_position == 1:
            # A 1-bit code is its own bit: no copy (the Boolean monitors).
            return codes
        bits = np.empty(codes.shape + (self.bits_per_position,), dtype=self.code_dtype)
        for bit, shift in enumerate(self._bit_shifts):
            np.bitwise_and(codes >> shift, 1, out=bits[:, :, bit])
        return bits.reshape(codes.shape[0], self.num_bits)

    def pack_codes(self, codes: np.ndarray) -> np.ndarray:
        """Pack a ``(N, P)`` code matrix into ``(N, W)`` ``uint64`` rows."""
        return self.pack_valid_codes(self.validate_codes(codes))

    def pack_valid_codes(self, codes: np.ndarray) -> np.ndarray:
        """:meth:`pack_codes` of codes :meth:`validate_codes` already passed."""
        return pack_bool_matrix(self._code_bits(codes))

    def unpack_codes(self, packed: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`pack_codes` (codes of :attr:`code_dtype`)."""
        bits = unpack_bool_matrix(packed, self.num_bits).view(np.uint8)
        shaped = bits.reshape(bits.shape[0], self.num_positions, self.bits_per_position)
        codes = np.zeros(shaped.shape[:2], dtype=self.code_dtype)
        for bit, shift in enumerate(self._bit_shifts):
            codes |= shaped[:, :, bit].astype(self.code_dtype) << shift
        return codes


class PatternCodec:
    """Binarise activation batches against cut points, fully vectorised.

    Parameters
    ----------
    cut_points:
        ``(num_positions, num_cuts)`` array, strictly increasing per row.
        One cut point per position yields the 1-bit on/off abstraction.
    tolerance:
        Per-cut comparison tolerance added to the cuts; ``None`` uses the
        scale-relative :func:`default_tolerance`.  Pass ``0.0`` for the
        strict ``value > cut`` comparison of :mod:`repro.monitors.encoding`.
    """

    def __init__(
        self,
        cut_points: np.ndarray,
        tolerance: Optional[np.ndarray] = None,
    ) -> None:
        cut_points = np.asarray(cut_points, dtype=np.float64)
        if cut_points.ndim == 1:
            cut_points = cut_points[:, None]
        if cut_points.ndim != 2 or cut_points.shape[0] == 0:
            raise ShapeError("cut_points must be a (num_positions, num_cuts) matrix")
        if cut_points.shape[1] >= 2 and not np.all(np.diff(cut_points, axis=1) > 0):
            raise ConfigurationError("cut points must be strictly increasing per row")
        self.cut_points = cut_points
        if tolerance is None:
            tolerance = default_tolerance(cut_points)
        self._effective_cuts = cut_points + np.broadcast_to(
            np.asarray(tolerance, dtype=np.float64), cut_points.shape
        )
        self.num_positions, self.num_cuts = cut_points.shape
        self.num_codes = self.num_cuts + 1
        bits = max(1, int(np.ceil(np.log2(self.num_codes))))
        self.word_codec = WordCodec(self.num_positions, bits)
        #: dtype of the codes :meth:`codes` returns: the smallest unsigned
        #: dtype holding ``num_cuts`` (``uint8`` up to 255 cuts).
        self.code_dtype = self.word_codec.code_dtype
        # One contiguous row of cuts per cut index, for the accumulation.
        self._cut_rows = np.ascontiguousarray(self._effective_cuts.T)

    # ------------------------------------------------------------------
    @property
    def bits_per_position(self) -> int:
        return self.word_codec.bits_per_position

    def _validate_features(self, features: np.ndarray) -> np.ndarray:
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        if features.shape[1] != self.num_positions:
            raise ShapeError(
                f"expected features over {self.num_positions} positions, got "
                f"{features.shape[1]}"
            )
        return features

    def codes(self, features: np.ndarray) -> np.ndarray:
        """Interval code of every entry of a ``(N, P)`` feature batch.

        The code is the number of cuts (plus tolerance) the value lies
        strictly above, accumulated one cut at a time into
        :attr:`code_dtype`; NaN lies above no cut and codes 0.
        """
        return self._codes(self._validate_features(features))

    def _codes(self, features: np.ndarray) -> np.ndarray:
        if self.num_cuts == 1:
            # One cut (the Boolean monitors): the comparison is the code.
            return (features > self._cut_rows[0]).view(np.uint8)
        codes = np.zeros(features.shape, dtype=self.code_dtype)
        above = np.empty(features.shape, dtype=bool)
        for cut_row in self._cut_rows:
            np.greater(features, cut_row, out=above)
            codes += above.view(np.uint8)
        return codes

    def encode(self, features: np.ndarray) -> np.ndarray:
        """Feature batch → bit-packed ``(N, W)`` pattern words in one pass."""
        return self.word_codec.pack_valid_codes(self.codes(features))

    def decode(self, packed: np.ndarray) -> np.ndarray:
        """Packed words → ``(N, P)`` code matrix (layout round-trip)."""
        return self.word_codec.unpack_codes(packed)

    # ------------------------------------------------------------------
    # robust (Δ-perturbation) encodings
    # ------------------------------------------------------------------
    def bound_codes(self, low: np.ndarray, high: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Per-position code range reachable inside ``[low, high]`` bounds.

        The code function is monotone in the value, so the reachable set is
        exactly ``code(low) .. code(high)`` — Section III-C's observation.
        Both ends are coded in one pass over the stacked bounds.
        """
        low = self._validate_features(low)
        high = self._validate_features(high)
        if low.shape != high.shape:
            raise ShapeError("bound lower and upper ends differ in shape")
        both = self._codes(np.concatenate([low, high]))
        low_codes, high_codes = both[: low.shape[0]], both[low.shape[0] :]
        if np.any(low_codes > high_codes):
            raise ShapeError("bound lower end exceeds upper end")
        return low_codes, high_codes

    def ternary_planes(self, low: np.ndarray, high: np.ndarray) -> TernaryPlanes:
        """Ternary value/mask bit-planes of a batch of 1-bit robust words.

        Bit ``j`` is constrained to 1 when ``low_j`` clears the cut, to 0 when
        ``high_j`` stays below it, and is a don't-care otherwise — the robust
        abstraction ``ab_R`` of Section III-B, one vectorised pass per batch.
        """
        if self.bits_per_position != 1:
            raise ConfigurationError(
                "ternary planes require a 1-bit-per-position codec"
            )
        low_codes, high_codes = self.bound_codes(low, high)
        constrained = low_codes == high_codes
        both = pack_bool_matrix(np.concatenate([low_codes & constrained, constrained]))
        num_rows = low_codes.shape[0]
        return TernaryPlanes(values=both[:num_rows], masks=both[num_rows:])

    # ------------------------------------------------------------------
    @classmethod
    def from_thresholds(
        cls, thresholds: np.ndarray, tolerance: Optional[np.ndarray] = None
    ) -> "PatternCodec":
        """1-bit codec from a flat per-neuron threshold vector."""
        thresholds = np.asarray(thresholds, dtype=np.float64).reshape(-1, 1)
        return cls(thresholds, tolerance=tolerance)
