import numpy as np
import pytest

from scakit import aes
from scakit.hd import (
    HdClassSummary,
    fit_for_guess,
    fit_hd_line,
    group_by_hd,
    sign_flip_report,
    wrong_horse_scan,
)
from scakit.leakage import Augmentation, LeakageConfig, simulate_campaign
from scakit.traces import TraceSet

KEY = "2041e2770445067328090a7f0c0d0e7b"
CORRECT_BYTE0 = 51


def test_group_counts_sum_to_n_traces():
    ts = simulate_campaign(KEY, 777, LeakageConfig.equal_weights(1.0, noise_sigma=1.0), seed=1)
    summary = group_by_hd(ts, 51, 0)
    assert summary.counts.sum() == 777


def test_identical_ciphertexts_form_single_class():
    ct = aes.as_block("00112233445566778899aabbccddeeff")
    ts = TraceSet(np.ones((40, 1), np.float32),
                  np.zeros((40, 16), np.uint8),
                  np.tile(ct, (40, 1)))
    summary = group_by_hd(ts, 7, 0)
    assert (summary.counts > 0).sum() == 1
    assert summary.counts.max() == 40


def test_class_counts_peak_at_four():
    # toggle bytes are close to uniform, so class sizes follow the
    # one-byte popcount multiplicities 1,8,28,56,70,56,28,8,1
    ts = simulate_campaign(KEY, 8192, LeakageConfig.equal_weights(1.0), seed=2)
    summary = group_by_hd(ts, CORRECT_BYTE0, 0)
    assert int(summary.counts.argmax()) == 4


def test_noiseless_single_byte_class_means_decrease_exactly():
    config = LeakageConfig.single_byte_weights(0, 1.0)
    ts = simulate_campaign(KEY, 4096, config, seed=3)
    summary = group_by_hd(ts, CORRECT_BYTE0, 0)
    present = np.nonzero(summary.present)[0]
    assert np.all(np.diff(summary.means[present]) < 0)
    assert np.allclose(summary.means[present], -present.astype(float))


def test_fit_recovers_exact_line():
    counts = np.array([3, 5, 0, 7, 2, 0, 0, 4, 1])
    hs = np.nonzero(counts)[0].astype(float)
    means = np.full(9, np.nan)
    means[counts > 0] = 3.5 - 2.25 * hs
    summary = HdClassSummary(counts=counts, means=means, key_guess=0)
    fit = fit_hd_line(summary)
    assert fit.slope == pytest.approx(-2.25, abs=1e-12)
    assert fit.intercept == pytest.approx(3.5, abs=1e-12)
    assert fit.r == pytest.approx(-1.0, abs=1e-12)
    assert fit.n_classes_used == 6


def test_noiseless_single_byte_fit_is_exact():
    config = LeakageConfig.single_byte_weights(0, 0.75, baseline=10.0)
    ts = simulate_campaign(KEY, 4096, config, seed=4)
    fit = fit_for_guess(ts, CORRECT_BYTE0, 0)
    assert fit.slope == pytest.approx(-0.75, abs=1e-9)
    assert fit.r == pytest.approx(-1.0, abs=1e-9)


def test_fit_needs_two_classes():
    summary = HdClassSummary(counts=np.array([5, 0, 0, 0, 0, 0, 0, 0, 0]),
                             means=np.array([1.0] + [np.nan] * 8),
                             key_guess=0)
    with pytest.raises(ValueError):
        fit_hd_line(summary)


def test_sign_flip_report():
    a = fit_hd_line(_line_summary(slope=-1.0))
    b = fit_hd_line(_line_summary(slope=1.0))
    c = fit_hd_line(_line_summary(slope=-0.5))
    assert sign_flip_report(a, b).flipped is True
    assert sign_flip_report(a, c).flipped is False
    assert sign_flip_report(a, b).slope_change == pytest.approx(2.0)


def _line_summary(slope, intercept=0.0):
    hs = np.arange(9, dtype=float)
    return HdClassSummary(counts=np.ones(9, dtype=np.int64),
                          means=intercept + slope * hs,
                          key_guess=0)


def test_wrong_horse_scan_empty_without_augmentation():
    config = LeakageConfig.single_byte_weights(0, 1.0)
    ts = simulate_campaign(KEY, 4096, config, seed=5)
    assert wrong_horse_scan(ts, 0, CORRECT_BYTE0) == []


def test_wrong_horse_scan_nonempty_with_sufficient_offset():
    aug = Augmentation(0, 2, offset=6.0)
    config = LeakageConfig.equal_weights(1.0, noise_sigma=4.0, augmentation=aug)
    ts = simulate_campaign(KEY, 20_000, config, seed=1)
    horses = wrong_horse_scan(ts, 0, CORRECT_BYTE0)
    assert len(horses) >= 1
    assert CORRECT_BYTE0 not in horses


def test_argument_validation():
    ts = simulate_campaign(KEY, 64, LeakageConfig.equal_weights(1.0), seed=6)
    with pytest.raises(ValueError):
        group_by_hd(ts, 256, 0)
    with pytest.raises(ValueError):
        group_by_hd(ts, 0, 0, sample_index=1)
    with pytest.raises(ValueError):
        group_by_hd(ts, 0, 16)
    with pytest.raises(ValueError):
        wrong_horse_scan(ts, 0, 300)
    with pytest.raises(ValueError):
        wrong_horse_scan(ts, 0, 0, sample_index=1)
