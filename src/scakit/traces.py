"""Container for power-trace campaigns.

A :class:`TraceSet` bundles the sample matrix with the plaintext and
ciphertext of every encryption so that traces and data can never drift
out of alignment.  Samples are stored as 32-bit floats, the precision
typical capture tools deliver; analysis code widens internally.
"""

from dataclasses import dataclass

import numpy as np

from . import aes


@dataclass
class TraceSet:
    samples: np.ndarray       # (n_traces, samples_per_trace) float32
    plaintexts: np.ndarray    # (n_traces, 16) uint8
    ciphertexts: np.ndarray   # (n_traces, 16) uint8
    true_key: np.ndarray | None = None   # known for simulated campaigns
    seed: int | None = None

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float32)
        self.plaintexts = aes._as_bytes(self.plaintexts, "plaintexts")
        self.ciphertexts = aes._as_bytes(self.ciphertexts, "ciphertexts")
        if self.true_key is not None:
            self.true_key = aes.as_block(self.true_key)
        if self.samples.ndim != 2:
            raise ValueError("samples must be a 2-D (n_traces, samples_per_trace) array")
        n = self.samples.shape[0]
        for name, arr in (("plaintexts", self.plaintexts), ("ciphertexts", self.ciphertexts)):
            if arr.shape != (n, 16):
                raise ValueError(f"{name} must have shape ({n}, 16), got {arr.shape}")
        # Row sums flag any NaN or infinity while allocating only O(n).
        finite = np.isfinite(self.samples.sum(axis=1, dtype=np.float64))
        if not finite.all():
            raise ValueError(f"samples must be finite, trace index {int(finite.argmin())} is not")

    @property
    def n_traces(self) -> int:
        return self.samples.shape[0]

    @property
    def samples_per_trace(self) -> int:
        return self.samples.shape[1]

    def __len__(self) -> int:
        return self.n_traces
