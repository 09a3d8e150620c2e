"""Synthetic power traces for the AES last-round register overwrite.

The data-dependent part of a trace follows the toggle model of a CMOS
state register: every bit that flips during the final-round overwrite
subtracts its weight from the point of interest, so the value DROPS as
switching activity grows (an AC-coupled voltage-drop signal).  Gaussian
noise stands in for measurement noise and unrelated switching, and an
optional per-bit offset augmentation reproduces a hiding countermeasure
that burns a fixed amount of extra power keyed to one chosen state bit.

The offset is deterministic: it is applied in full whenever its trigger
condition on the chosen bit holds, never drawn at random.  With the
``ON_STATIC`` trigger the extra draw happens when the bit does NOT
toggle, which inverts the usual more-toggles/more-power trend for that
bit; ``ON_TOGGLE`` applies it on toggles instead.
"""

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from . import aes
from .traceio import check_sctr_fields
from .traces import TraceSet

# Campaigns are generated in fixed chunks: chunk c covers traces
# [c*CHUNK, (c+1)*CHUNK) and draws from its own (seed, c) substream, so a
# whole chunk does not depend on n.  A campaign whose n is a multiple of
# CHUNK is therefore a prefix of every longer one with the same seed.
CAMPAIGN_CHUNK = 4096


class Trigger(enum.Enum):
    """When the augmentation offset fires for the chosen bit."""
    ON_STATIC = "static"
    ON_TOGGLE = "toggle"


@dataclass
class Augmentation:
    """Fixed extra leakage tied to one state-register bit."""
    byte_index: int
    bit_index: int
    offset: float
    trigger: Trigger = Trigger.ON_STATIC

    def __post_init__(self):
        aes._check_byte_index(self.byte_index)
        if not 0 <= self.bit_index <= 7:
            raise ValueError(f"bit_index must be in 0..7, got {self.bit_index}")
        if not 0 <= self.offset < math.inf:
            raise ValueError(f"offset must be finite and >= 0, got {self.offset}")
        self.trigger = Trigger(self.trigger)


@dataclass
class LeakageConfig:
    """Parameters of the simulated leakage.

    ``bit_weights`` holds one weight per state-register bit; bit ``b`` of
    state byte ``j`` is entry ``8*j + b``.  ``poi_index`` is the sample
    that carries the overwrite leakage; every other sample is baseline
    plus noise.
    """
    bit_weights: np.ndarray = field(default_factory=lambda: np.ones(128))
    baseline: float = 0.0
    noise_sigma: float = 0.0
    augmentation: Augmentation | None = None
    samples_per_trace: int = 1
    poi_index: int = 0

    def __post_init__(self):
        self.bit_weights = np.asarray(self.bit_weights, dtype=np.float64)
        if self.bit_weights.shape != (128,):
            raise ValueError(f"bit_weights must have shape (128,), got {self.bit_weights.shape}")
        if not np.all((self.bit_weights >= 0) & (self.bit_weights < np.inf)):
            raise ValueError("bit_weights must be finite and >= 0")
        if not math.isfinite(self.baseline):
            raise ValueError(f"baseline must be finite, got {self.baseline}")
        if not 0 <= self.noise_sigma < math.inf:
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        if self.samples_per_trace < 1:
            raise ValueError(f"samples_per_trace must be >= 1, got {self.samples_per_trace}")
        if not 0 <= self.poi_index < self.samples_per_trace:
            raise ValueError(f"poi_index {self.poi_index} outside 0..{self.samples_per_trace - 1}")

    @classmethod
    def equal_weights(cls, weight=1.0, **kwargs) -> "LeakageConfig":
        """Every state bit contributes the same weight."""
        return cls(bit_weights=np.full(128, float(weight)), **kwargs)

    @classmethod
    def single_byte_weights(cls, byte_index, weight=1.0, **kwargs) -> "LeakageConfig":
        """Only the eight bits of one state byte leak; everything else
        is silent.  Useful for exact-oracle checks of the model chain."""
        weights = np.zeros(128)
        weights[8 * byte_index:8 * byte_index + 8] = float(weight)
        return cls(bit_weights=weights, **kwargs)


def toggle_bits(round9, ciphertext) -> np.ndarray:
    """Per-bit toggle mask of the overwrite as an (n, 128) 0/1 array,
    bit ``b`` of byte ``j`` in column ``8*j + b``."""
    return np.unpackbits(np.asarray(round9) ^ np.asarray(ciphertext), axis=1, bitorder="little")


def _float32(values):
    """``values`` as float32; one that overflows it, or overflowed float64, is a ValueError."""
    with np.errstate(over="ignore"):   # reported below
        values = values.astype(np.float32)
    if not np.isfinite(values.sum(dtype=np.float64)):   # exact: float32 sums never overflow
        raise ValueError("simulated samples overflow float32: lower the baseline, the noise "
                         "sigma, the bit weights or the augmentation offset")
    return values


def _augmented_poi(poi, toggles, aug):
    """The float64 POI column ``poi`` as float32, less the offset where ``aug`` fires."""
    if aug is not None:
        bit = ((toggles[:, aug.byte_index] >> aug.bit_index) & 1).astype(np.float64)
        fires = bit if aug.trigger is Trigger.ON_TOGGLE else 1.0 - bit
        poi = poi - aug.offset * fires
    return _float32(poi)


@np.errstate(over="ignore", invalid="ignore")   # float64 overflow too: _float32 reports it
def _base_chunk(round_keys, n, config, seed, chunk_index):
    """Chunk ``chunk_index`` of the campaign before augmentation, under the
    expanded key ``round_keys``, drawn from its own (seed, chunk) substream:
    float32 samples, the float64 POI column, toggle bytes, plaintexts and
    ciphertexts.  Its float64 temporaries are freed on return."""
    lo = chunk_index * CAMPAIGN_CHUNK
    m = min(n, lo + CAMPAIGN_CHUNK) - lo
    rng = np.random.default_rng(np.random.SeedSequence((seed, chunk_index)))
    pts = rng.integers(0, 256, size=(m, 16), dtype=np.uint8)
    samples = rng.normal(0.0, config.noise_sigma, size=(m, config.samples_per_trace))
    samples += config.baseline
    round9, cts = aes._encrypt_states(round_keys, pts)
    for rows in (slice(i, i + 512) for i in range(0, m, 512)):   # float64 cast 512 rows at a time
        samples[rows, config.poi_index] -= toggle_bits(round9[rows], cts[rows]) @ config.bit_weights
    return _float32(samples), samples[:, config.poi_index].copy(), round9 ^ cts, pts, cts


def simulate_offset_grid(key, n, config: LeakageConfig, seed, augmentations):
    """Yield one campaign of ``n`` traces per entry of ``augmentations``
    (``None`` for none), in order; ``config.augmentation`` is not used.

    The campaign is simulated once; each point derives only its POI column
    again, from the float64 values, and shares the read-only plaintext and
    ciphertext arrays with the other points.  Sizes and seeds that SCTR
    cannot record are rejected before the first chunk is drawn.
    """
    if n < 1:
        raise ValueError(f"campaign needs n >= 1 traces, got {n}")
    check_sctr_fields(n, config.samples_per_trace, seed)
    true_key, keys = aes.as_block(key), aes.expand_key(key)   # the cipher key and its round keys
    parts = [_base_chunk(keys, n, config, seed, c) for c in range(math.ceil(n / CAMPAIGN_CHUNK))]
    base, poi, toggles, pts, cts = (np.concatenate(arrays) for arrays in zip(*parts))
    del parts
    pts.flags.writeable = cts.flags.writeable = False   # shared by every yielded set
    for augmentation in augmentations:
        samples = base.copy()
        samples[:, config.poi_index] = _augmented_poi(poi, toggles, augmentation)
        yield TraceSet(samples, pts, cts, true_key=true_key, seed=seed)


def simulate_campaign(key, n, config: LeakageConfig, seed) -> TraceSet:
    """Simulate ``n`` encryptions of uniform random plaintexts: the offset
    grid of the one point ``config.augmentation``.

    Deterministic in all arguments: the same call always returns a
    byte-identical :class:`TraceSet`, with read-only plaintexts and
    ciphertexts.
    """
    return next(simulate_offset_grid(key, n, config, seed, [config.augmentation]))


def ro_offset_model(n_ro, pulse_fraction, alpha) -> float:
    """Offset contributed by a bank of ring oscillators.

    A linear abstraction: ``n_ro`` enabled oscillators, active for
    ``pulse_fraction`` of the overwrite window, each worth ``alpha``
    volt-equivalent units.
    """
    if n_ro < 0:
        raise ValueError(f"n_ro must be >= 0, got {n_ro}")
    if not 0.0 <= pulse_fraction <= 1.0:
        raise ValueError(f"pulse_fraction must be in [0, 1], got {pulse_fraction}")
    return alpha * n_ro * pulse_fraction
