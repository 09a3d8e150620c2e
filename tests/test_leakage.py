import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scakit import aes, leakage
from scakit.leakage import (
    CAMPAIGN_CHUNK,
    Augmentation,
    LeakageConfig,
    Trigger,
    ro_offset_model,
    simulate_campaign,
    simulate_offset_grid,
    toggle_bits,
)
from scakit.traceio import SctrFormatError

from helpers import HW, encrypt, traced_peak

KEY = "2041e2770445067328090a7f0c0d0e7b"


def total_hd(key, pts):
    round9, cts = encrypt(key, pts)
    return toggle_bits(round9, cts).sum(axis=1)


def test_noiseless_trace_is_affine_in_total_hd():
    config = LeakageConfig.equal_weights(0.5, baseline=2.0)
    ts = simulate_campaign(KEY, 20, config, seed=1)
    h = total_hd(KEY, ts.plaintexts)
    assert np.array_equal(ts.samples[:, 0], (2.0 - 0.5 * h).astype(np.float32))
    assert np.array_equal(ts.ciphertexts, encrypt(KEY, ts.plaintexts)[1])
    # the default config: each of the 128 bits weighs 1, on baseline 0 without noise
    default = LeakageConfig()
    assert np.array_equal(default.bit_weights, np.ones(128))
    ts = simulate_campaign(KEY, 20, default, seed=1)
    assert np.array_equal(ts.samples[:, 0], -total_hd(KEY, ts.plaintexts).astype(np.float32))


def test_zero_weights_give_exact_baseline():
    config = LeakageConfig(bit_weights=np.zeros(128), baseline=1.25)
    ts = simulate_campaign(KEY, 16, config, seed=0)
    assert np.all(ts.samples[:, 0] == np.float32(1.25))


@pytest.mark.parametrize("trigger,want_toggle", [
    (Trigger.ON_STATIC, False),
    (Trigger.ON_TOGGLE, True),
])
def test_augmentation_fires_exactly_on_trigger(trigger, want_toggle):
    aug = Augmentation(0, 2, offset=3.0, trigger=trigger)
    ts = simulate_campaign(KEY, 64, LeakageConfig.equal_weights(1.0), seed=7, augmentation=aug)
    round9, cts = encrypt(KEY, ts.plaintexts)
    holds = (round9[:, 0] ^ cts[:, 0]) >> 2 & 1 == want_toggle
    assert holds.any() and not holds.all()
    h = total_hd(KEY, ts.plaintexts)
    # a trace where the condition holds carries the full offset...
    assert np.array_equal(ts.samples[holds, 0], (-1.0 * h[holds] - 3.0).astype(np.float32))
    # ...and one where it does not hold carries none of it
    assert np.array_equal(ts.samples[~holds, 0], (-1.0 * h[~holds]).astype(np.float32))


def test_augmented_campaign_matches_formula_trace_by_trace():
    aug = Augmentation(0, 2, offset=4.0)
    ts = simulate_campaign(KEY, 600, LeakageConfig.equal_weights(1.0), seed=9, augmentation=aug)
    round9, cts = encrypt(KEY, ts.plaintexts)
    bits = toggle_bits(round9, cts).astype(np.float64)
    static = 1.0 - bits[:, 8 * 0 + 2]
    expected = (-bits.sum(axis=1) - 4.0 * static).astype(np.float32)
    assert np.array_equal(ts.samples[:, 0], expected)


def test_non_poi_samples_are_baseline_plus_noise():
    config = LeakageConfig.equal_weights(1.0, baseline=5.0, samples_per_trace=4, poi_index=2)
    ts = simulate_campaign(KEY, 50, config, seed=3)
    for s in (0, 1, 3):
        assert np.allclose(ts.samples[:, s], 5.0)
    assert not np.allclose(ts.samples[:, 2], 5.0)


def test_campaign_determinism_and_seed_sensitivity():
    config = LeakageConfig.equal_weights(1.0, noise_sigma=2.0)
    a = simulate_campaign(KEY, 500, config, seed=42)
    b = simulate_campaign(KEY, 500, config, seed=42)
    c = simulate_campaign(KEY, 500, config, seed=43)
    assert a.samples.tobytes() == b.samples.tobytes()
    assert np.array_equal(a.plaintexts, b.plaintexts)
    assert a.samples.tobytes() != c.samples.tobytes()


def test_single_trace_campaign():
    ts = simulate_campaign(KEY, 1, LeakageConfig.equal_weights(1.0), seed=1)
    assert ts.n_traces == 1 and ts.samples_per_trace == 1


def test_campaign_peak_memory_stays_below_four_sample_matrices():
    config = LeakageConfig.equal_weights(1.0, noise_sigma=2.0, samples_per_trace=64, poi_index=10)
    aug = Augmentation(0, 2, 4.0)
    simulate_campaign(KEY, 1, config, 8, aug)   # the first call imports numpy.random
    ts, peak = traced_peak(lambda: simulate_campaign(KEY, 3 * CAMPAIGN_CHUNK + 100, config, 8, aug))
    assert peak < 4 * ts.samples.nbytes


augmentations = st.one_of(st.none(), st.builds(
    Augmentation, byte_index=st.integers(0, 15), bit_index=st.integers(0, 7),
    offset=st.floats(0, 20), trigger=st.sampled_from(Trigger)))


seeds = st.integers(0, 2 ** 64 - 1)


@st.composite
def configs(draw):
    samples = draw(st.integers(1, 3))
    return LeakageConfig(
        bit_weights=np.array(draw(st.lists(st.floats(0, 4), min_size=128, max_size=128))),
        baseline=draw(st.floats(-100, 100)),
        noise_sigma=draw(st.floats(0, 8)),
        samples_per_trace=samples,
        poi_index=draw(st.integers(0, samples - 1)))


@st.composite
def grid_cases(draw):
    config = draw(configs())
    n = draw(st.integers(1, CAMPAIGN_CHUNK + 300))
    return config, n, draw(seeds), draw(st.lists(augmentations, max_size=4))


CHUNK_CASE_CONFIG = LeakageConfig.equal_weights(1.0, noise_sigma=1.5)
CHUNK_CASE_AUGMENTATION = Augmentation(3, 5, 2.0)


@settings(max_examples=15, deadline=None)
@given(config=configs(), augmentation=augmentations, seed=seeds, k=st.sampled_from([1, 2]),
       extra=st.integers(1, CAMPAIGN_CHUNK))
@example(config=CHUNK_CASE_CONFIG, augmentation=CHUNK_CASE_AUGMENTATION, seed=5, k=1,
         extra=CAMPAIGN_CHUNK + 123)
@example(config=CHUNK_CASE_CONFIG, augmentation=CHUNK_CASE_AUGMENTATION, seed=5, k=2, extra=123)
def test_campaign_chunks_are_independent(config, augmentation, seed, k, extra):
    # whole chunks do not depend on n, so shorter campaigns are prefixes
    n = k * CAMPAIGN_CHUNK
    full = simulate_campaign(KEY, n + extra, config, seed, augmentation)
    part = simulate_campaign(KEY, n, config, seed, augmentation)
    assert part.samples.tobytes() == full.samples[:n].tobytes()
    assert part.plaintexts.tobytes() == full.plaintexts[:n].tobytes()
    assert part.ciphertexts.tobytes() == full.ciphertexts[:n].tobytes()


@settings(max_examples=15, deadline=None)
@given(case=grid_cases())
def test_offset_grid_equals_separate_campaigns(case):
    config, n, seed, grid = case
    yielded = list(simulate_offset_grid(KEY, n, config, seed, grid))
    assert len(yielded) == len(grid)
    for augmentation, ts in zip(grid, yielded):
        alone = simulate_campaign(KEY, n, config, seed, augmentation=augmentation)
        assert ts.samples.tobytes() == alone.samples.tobytes()
        assert ts.plaintexts.tobytes() == alone.plaintexts.tobytes()
        assert ts.ciphertexts.tobytes() == alone.ciphertexts.tobytes()
        assert np.array_equal(ts.true_key, alone.true_key) and ts.seed == alone.seed


def expected_total_hd(key):
    """Exact mean overwrite HD over uniform ciphertext bytes.

    Bytes whose model reads two distinct ciphertext bytes average exactly
    4 toggles; the four positions that read a single byte inherit a small
    key-dependent bias from the inverse S-box differential structure.
    """
    k10 = aes.last_round_key(aes.as_block(key))
    total = 0.0
    c = np.arange(256, dtype=np.uint8)
    for j in range(16):
        pos = int(aes.SR_FORWARD[j])
        if pos == j:
            total += HW[aes.INV_SBOX[c ^ k10[pos]] ^ c].mean()
        else:
            total += 4.0
    return total


def test_campaign_mean_matches_expected_total_hd():
    # roughly half of the 128 register bits toggle per overwrite
    config = LeakageConfig.equal_weights(1.0, baseline=0.0, noise_sigma=1.0)
    ts = simulate_campaign(KEY, 100_000, config, seed=11)
    exact = expected_total_hd(KEY)
    assert abs(exact - 64.0) < 0.5
    se = np.sqrt(32.0 + 1.0) / np.sqrt(100_000)
    assert abs(ts.samples[:, 0].astype(np.float64).mean() + exact) < 3 * se


def test_noiseless_correlation_with_total_hd_is_minus_one():
    config = LeakageConfig.equal_weights(0.7, baseline=1.0)
    ts = simulate_campaign(KEY, 2000, config, seed=13)
    h = total_hd(KEY, ts.plaintexts)
    r = np.corrcoef(ts.samples[:, 0].astype(np.float64), h)[0, 1]
    assert abs(r + 1.0) < 1e-9


def test_campaign_ciphertexts_verify():
    config = LeakageConfig.equal_weights(1.0, noise_sigma=3.0)
    ts = simulate_campaign(KEY, 300, config, seed=17)
    _, cts = encrypt(ts.true_key, ts.plaintexts)
    assert np.array_equal(cts, ts.ciphertexts)
    assert ts.samples.dtype == np.float32


def test_ro_offset_model():
    assert ro_offset_model(0, 1.0, 2.0) == 0.0
    assert ro_offset_model(70, 1.0, 1.0 / 17.5) == pytest.approx(4.0)
    assert ro_offset_model(140, 0.5, 0.1) == 2 * ro_offset_model(70, 0.5, 0.1)
    with pytest.raises(ValueError):
        ro_offset_model(-1, 1.0, 1.0)
    with pytest.raises(ValueError):
        ro_offset_model(10, 1.5, 1.0)


def test_config_validation():
    with pytest.raises(ValueError):
        LeakageConfig(bit_weights=np.ones(64))
    with pytest.raises(ValueError):
        LeakageConfig(bit_weights=-np.ones(128))
    with pytest.raises(ValueError):
        LeakageConfig.equal_weights(1.0, noise_sigma=-0.1)
    with pytest.raises(ValueError):
        LeakageConfig.equal_weights(1.0, samples_per_trace=2, poi_index=2)
    with pytest.raises(ValueError):
        Augmentation(16, 0, 1.0)
    with pytest.raises(ValueError):
        Augmentation(0, 8, 1.0)
    with pytest.raises(ValueError, match="byte_index"):
        Augmentation(0.0, 2, 1.0)
    with pytest.raises(ValueError):
        Augmentation(0, 0, -1.0)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            Augmentation(0, 0, bad)
        with pytest.raises(ValueError, match="finite"):
            LeakageConfig.equal_weights(bad)
        with pytest.raises(ValueError, match="finite"):
            LeakageConfig.equal_weights(1.0, baseline=bad)
        with pytest.raises(ValueError, match="finite"):
            LeakageConfig.equal_weights(1.0, noise_sigma=bad)
    with pytest.raises(ValueError):
        simulate_campaign(KEY, 0, LeakageConfig.equal_weights(1.0), seed=1)
    # the augmentation is simulate_campaign's argument, not a config field a grid would ignore
    with pytest.raises(TypeError):
        LeakageConfig.equal_weights(1.0, augmentation=Augmentation(0, 2, 4.0))


@pytest.mark.parametrize("n,samples,seed,field", [(2 ** 32, 1, 1, "n_traces"),
                                                  (1, 2 ** 32, 1, "samples_per_trace"),
                                                  (1, 1, 2 ** 64, "seed")])
def test_sizes_sctr_cannot_record_fail_before_any_chunk(monkeypatch, n, samples, seed, field):
    # The sizes are far beyond memory: drawing a chunk would fail the test.
    def unreachable(*args):
        raise AssertionError("a chunk was drawn")
    monkeypatch.setattr(leakage, "_base_chunk", unreachable)
    config = LeakageConfig.equal_weights(1.0, samples_per_trace=samples)
    message = f"{field} {max(n, samples, seed)} does not fit SCTR's"
    with pytest.raises(SctrFormatError, match=message):
        simulate_campaign(KEY, n, config, seed)
    with pytest.raises(SctrFormatError, match=message):
        next(simulate_offset_grid(KEY, n, config, seed, [None, Augmentation(0, 2, 4.0)]))
