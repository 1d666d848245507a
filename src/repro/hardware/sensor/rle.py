"""Run-length encoding of the sparse readout stream (paper Sec. IV-C).

Only ~20 % of pixels within the ROI are sampled; the others output 0 from
the "If Skip ADC" logic.  The output buffer compresses the column-wise
stream with a run-length encoder before the MIPI interface, and the host
runs the matching decoder (Fig. 11's ``1110000000 -> 1307`` example).

Encoding format (bit-accurate for transmission-size accounting):

* a **literal** token carries one non-zero 10-bit pixel value: 1 flag bit
  + 10 value bits;
* a **zero-run** token carries a run of zeros: 1 flag bit + 12 length
  bits (runs longer than 4095 split into multiple tokens).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RunLengthCodec", "RleStats"]

_MAX_RUN = 4095  # 12-bit run length field
_LITERAL_BITS = 1 + 10
_RUN_BITS = 1 + 12


@dataclass(frozen=True)
class RleStats:
    """Size accounting for one encoded stream."""

    input_values: int
    literal_tokens: int
    run_tokens: int

    @property
    def encoded_bits(self) -> int:
        return self.literal_tokens * _LITERAL_BITS + self.run_tokens * _RUN_BITS

    @property
    def encoded_bytes(self) -> int:
        return (self.encoded_bits + 7) // 8

    @property
    def raw_bytes(self) -> int:
        return (self.input_values * 10 + 7) // 8

    @property
    def compression_ratio(self) -> float:
        if self.encoded_bytes == 0:
            return float("inf")
        return self.raw_bytes / self.encoded_bytes


class RunLengthCodec:
    """Lossless RLE over streams of 10-bit pixel values."""

    @staticmethod
    def _validated(values: np.ndarray) -> np.ndarray:
        values = np.asarray(values)
        if values.ndim != 1:
            raise ValueError(f"expected a 1-D stream, got shape {values.shape}")
        if values.size and (values.min() < 0 or values.max() > 1023):
            raise ValueError("pixel values must fit in 10 bits")
        return values

    def encode(self, values: np.ndarray) -> tuple[list[tuple[str, int]], RleStats]:
        """Encode a 1-D array of ints in [0, 1023].

        Returns ``(tokens, stats)`` where each token is ``("lit", value)``
        or ``("run", length)``.
        """
        values = self._validated(values)
        tokens: list[tuple[str, int]] = []
        literals = runs = 0
        i = 0
        n = values.size
        arr = values.astype(np.int64)
        while i < n:
            if arr[i] == 0:
                j = i
                while j < n and arr[j] == 0:
                    j += 1
                run = j - i
                while run > 0:
                    chunk = min(run, _MAX_RUN)
                    tokens.append(("run", chunk))
                    runs += 1
                    run -= chunk
                i = j
            else:
                tokens.append(("lit", int(arr[i])))
                literals += 1
                i += 1
        return tokens, RleStats(n, literals, runs)

    def rank_stats(self, stream: np.ndarray, sizes) -> list[RleStats]:
        """Size accounting of a rank's streams laid end to end in
        ``stream`` (``sizes[i]`` values each), without materializing tokens.

        Equals ``encode(v)[1]`` for each stream ``v``, counted in one pass:
        literal tokens are the non-zero entries; run tokens are the zero
        runs — a run never crosses into the next stream, and one longer
        than the 12-bit field splits into ``ceil(len / 4095)`` tokens.  The
        engine's readout stage uses this to keep MIPI accounting exact.
        """
        sizes = np.asarray(sizes, dtype=np.int64)
        heads = np.cumsum(sizes) - sizes
        zero = self._validated(stream) == 0
        first, last = heads[sizes > 0], (heads + sizes - 1)[sizes > 0]
        start = zero.copy()  # a run starts at a zero after a non-zero
        start[1:] &= ~zero[:-1]
        start[first] = zero[first]  # or at the head of a stream
        stop = zero.copy()
        stop[:-1] &= ~zero[1:]
        stop[last] = zero[last]
        at = np.flatnonzero(start)
        tokens = np.zeros(zero.size + 1, dtype=np.int64)
        tokens[at] = (np.flatnonzero(stop) - at + _MAX_RUN) // _MAX_RUN
        counts = np.stack([np.append(zero, False), tokens])
        sums = np.add.reduceat(counts, heads, axis=1)  # empty streams read 0 below
        zeros, runs = np.where(sizes > 0, sums, 0).tolist()
        return [RleStats(n, n - z, r) for n, z, r in zip(sizes.tolist(), zeros, runs)]

    def decode(self, tokens: list[tuple[str, int]]) -> np.ndarray:
        """Reconstruct the original stream exactly."""
        out: list[np.ndarray] = []
        for kind, payload in tokens:
            if kind == "lit":
                if not 0 < payload <= 1023:
                    raise ValueError(f"invalid literal value: {payload}")
                out.append(np.array([payload], dtype=np.int64))
            elif kind == "run":
                if not 0 < payload <= _MAX_RUN:
                    raise ValueError(f"invalid run length: {payload}")
                out.append(np.zeros(payload, dtype=np.int64))
            else:
                raise ValueError(f"unknown token kind: {kind!r}")
        if not out:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate(out)
