import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scakit import aes, cpa, hd
from scakit.cpa import cpa_attack
from scakit.hd import (
    HdClassSummary,
    attack_offset_grid,
    fit_hd_line,
    group_by_hd,
    wrong_horse_scan,
)
from scakit.leakage import (Augmentation, LeakageConfig, Trigger, simulate_campaign,
                            simulate_offset_grid)
from scakit.traces import TraceSet

from helpers import pearson, single_byte_config, traced_peak

KEY = "2041e2770445067328090a7f0c0d0e7b"
CORRECT_BYTE0 = 51


def test_group_counts_sum_to_n_traces():
    ts = simulate_campaign(KEY, 777, LeakageConfig.equal_weights(1.0, noise_sigma=1.0), seed=1)
    summary = group_by_hd(ts, 51, 0)
    assert summary.counts.sum() == 777


@pytest.mark.parametrize("byte_index,guess", [(0, 17), (5, 200)])
def test_group_by_hd_classes_are_a_hypothesis_matrix_column(byte_index, guess):
    ts = simulate_campaign(KEY, 1500, LeakageConfig.equal_weights(1.0, noise_sigma=1.0), seed=4)
    column = aes.hypothesis_matrix(ts.ciphertexts, byte_index)[:, guess]
    expected = hd._class_summary(column, ts.samples[:, 0].astype(np.float64))
    summary = group_by_hd(ts, guess, byte_index)
    assert np.array_equal(summary.counts, expected.counts)
    assert np.array_equal(summary.means, expected.means, equal_nan=True)


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
    config = single_byte_config(0, 1.0)
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
    summary = HdClassSummary(counts=counts, means=means)
    fit = fit_hd_line(summary)
    assert fit.slope == pytest.approx(-2.25, abs=1e-12)
    assert fit.intercept == pytest.approx(3.5, abs=1e-12)
    assert fit.r == pytest.approx(-1.0, abs=1e-12)
    assert fit.n_classes_used == 6


@st.composite
def _fit_summaries(draw):
    """A summary with 2-9 present classes, and whether its present means are
    flat; flat means are dyadic, so that their mean is exact."""
    present = sorted(draw(st.sets(st.integers(0, 8), min_size=2)))
    kind = draw(st.sampled_from(["flat", "offset", "wide", "plain"]))
    k = len(present)
    if kind == "flat":
        m = [draw(st.integers(-2 ** 20, 2 ** 20)) * 2.0 ** draw(st.integers(-60, 20))] * k
    elif kind == "offset":
        base = draw(st.floats(-1e6, 1e6))
        m = [base + draw(st.floats(-1.0, 1.0)) for _ in present]
    elif kind == "wide":
        m = [draw(st.floats(-1.0, 1.0)) * 10.0 ** draw(st.integers(-12, 6)) for _ in present]
    else:
        m = draw(st.lists(st.floats(-1e6, 1e6), min_size=k, max_size=k))
    counts = np.zeros(9, dtype=np.int64)
    counts[present] = draw(st.lists(st.integers(1, 500), min_size=k, max_size=k))
    means = np.full(9, np.nan)
    means[present] = m
    return HdClassSummary(counts=counts, means=means), kind == "flat"


@settings(max_examples=400)
@given(drawn=_fit_summaries())
def test_fit_is_the_textbook_line(drawn):
    # exact equality: the fit's slope is the least-squares ratio of exactly
    # rounded centred sums, and its r is the textbook two-pass Pearson r
    summary, flat = drawn
    h = np.flatnonzero(summary.present).astype(np.float64)
    m = summary.means[summary.present]
    hc, mc = h - h.mean(), m - m.mean()
    fit = fit_hd_line(summary)
    assert fit.r == pearson(h, m)
    assert fit.slope == math.fsum(hc * mc) / math.fsum(hc * hc)
    assert fit.n_classes_used == len(h)
    if flat:
        assert (fit.r, fit.slope) == (0.0, 0.0)


def test_noiseless_single_byte_fit_is_exact():
    config = single_byte_config(0, 0.75, baseline=10.0)
    ts = simulate_campaign(KEY, 4096, config, seed=4)
    fit = fit_hd_line(group_by_hd(ts, CORRECT_BYTE0, 0))
    assert fit.slope == pytest.approx(-0.75, abs=1e-9)
    assert fit.r == pytest.approx(-1.0, abs=1e-9)


def test_fit_needs_two_classes():
    summary = HdClassSummary(counts=np.array([5, 0, 0, 0, 0, 0, 0, 0, 0]),
                             means=np.array([1.0] + [np.nan] * 8))
    with pytest.raises(ValueError):
        fit_hd_line(summary)


def _line_summary(slope, intercept=0.0):
    hs = np.arange(9, dtype=float)
    return HdClassSummary(counts=np.ones(9, dtype=np.int64), means=intercept + slope * hs)


def test_wrong_horse_scan_empty_without_augmentation():
    config = single_byte_config(0, 1.0)
    ts = simulate_campaign(KEY, 4096, config, seed=5)
    assert wrong_horse_scan(ts, 0, CORRECT_BYTE0) == []


def test_wrong_horse_scan_nonempty_with_sufficient_offset():
    aug = Augmentation(0, 2, offset=6.0)
    config = LeakageConfig.equal_weights(1.0, noise_sigma=4.0)
    ts = simulate_campaign(KEY, 20_000, config, seed=1, augmentation=aug)
    horses = wrong_horse_scan(ts, 0, CORRECT_BYTE0)
    assert len(horses) >= 1
    assert CORRECT_BYTE0 not in horses


def scalar_wrong_horses(traces, byte_index, correct_guess, sample_index=0):
    """The wrong-horse definition, one guess at a time."""
    abs_r = np.zeros(256)
    for guess in range(256):
        summary = group_by_hd(traces, guess, byte_index, sample_index)
        if np.count_nonzero(summary.counts) >= 2:
            abs_r[guess] = abs(fit_hd_line(summary).r)
    return [g for g in range(256) if g != correct_guess and abs_r[g] > abs_r[correct_guess]]


@settings(max_examples=12)
@given(byte_index=st.sampled_from([0, 1, 5]), offset=st.sampled_from([0.0, 3.0, 4.5, 6.0, 12.0]),
       trigger=st.sampled_from(list(Trigger)), samples=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_wrong_horse_scan_equals_scalar_definition(byte_index, offset, trigger, samples, seed):
    aug = Augmentation(byte_index, 2, offset, trigger)
    config = LeakageConfig.equal_weights(1.0, noise_sigma=4.0, samples_per_trace=samples,
                                         poi_index=samples - 1)
    ts = simulate_campaign(KEY, 1500, config, seed, aug)
    correct = aes.correct_last_round_guess(KEY, byte_index)
    assert (wrong_horse_scan(ts, byte_index, correct, samples - 1)
            == scalar_wrong_horses(ts, byte_index, correct, samples - 1))


@pytest.fixture
def rescored(monkeypatch):
    """The guesses the scan re-scores exactly, in call order."""
    calls = []
    exact = hd._exact_abs_r

    def recording(pairs, y, guess):
        calls.append(int(guess))
        return exact(pairs, y, guess)
    monkeypatch.setattr(hd, "_exact_abs_r", recording)
    return calls


@pytest.mark.parametrize("byte_index", [0, 5])
def test_wrong_horse_scan_rechecks_guesses_that_tie(rescored, byte_index):
    # With two distinct ciphertext pairs every fittable guess puts the
    # traces into two HD classes, and two points always lie on a line:
    # those guesses tie the correct one at |r| = 1 up to rounding, so
    # only the exact re-check can order them.
    rng = np.random.default_rng(byte_index)
    cts = rng.integers(0, 256, size=(2, 16), dtype=np.uint8)[rng.integers(0, 2, size=500)]
    ts = TraceSet(rng.normal(size=(500, 1)), np.zeros_like(cts), cts)
    correct = next(g for g in range(256)
                   if np.count_nonzero(group_by_hd(ts, g, byte_index).counts) == 2)
    expected = scalar_wrong_horses(ts, byte_index, correct)
    assert wrong_horse_scan(ts, byte_index, correct) == expected
    assert len(rescored) > 1   # the correct guess, then the tied rivals


@pytest.mark.parametrize("config", [
    LeakageConfig.equal_weights(0.0, baseline=0.1),
    LeakageConfig.equal_weights(0.0, baseline=1e3, noise_sigma=1e-12),
], ids=["constant", "baseline-1e3-noise-1e-12"])
def test_wrong_horse_scan_on_degenerate_samples(config):
    ts = simulate_campaign(KEY, 2000, config, seed=4)
    for byte_index in (0, 5):
        correct = aes.correct_last_round_guess(KEY, byte_index)
        assert (wrong_horse_scan(ts, byte_index, correct)
                == scalar_wrong_horses(ts, byte_index, correct))


@pytest.mark.parametrize("column", [
    np.full(3000, 0.1),
    1e3 + 1e-12 * np.random.default_rng(0).standard_normal(3000),
], ids=["constant", "baseline-1e3-noise-1e-12"])
def test_screen_defers_fits_decided_by_rounding(rescored, column):
    # float64 columns whose class means differ only by rounding: the
    # screen's |r| is noise there, so every fittable guess is re-scored.
    ts = simulate_campaign(KEY, 3000, LeakageConfig.equal_weights(1.0), seed=1)
    for byte_index in (0, 5):
        hyp = aes.hypothesis_matrix(ts.ciphertexts, byte_index)
        abs_r = np.zeros(256)
        for guess in range(256):
            counts = np.bincount(hyp[:, guess], minlength=9)
            with np.errstate(invalid="ignore"):
                means = np.bincount(hyp[:, guess], weights=column, minlength=9) / counts
            abs_r[guess] = abs(fit_hd_line(HdClassSummary(counts, means)).r)
        correct = aes.correct_last_round_guess(KEY, byte_index)
        expected = [g for g in range(256) if g != correct and abs_r[g] > abs_r[correct]]
        rescored.clear()
        pairs = hd._pair_classes(ts.ciphertexts, byte_index)
        assert hd._wrong_horses(pairs, column, correct) == expected
        assert sorted(rescored) == list(range(256))


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
    # a fractional guess or byte is refused, not truncated; numpy integers are integers
    for guess in (51.9, 2.5):
        with pytest.raises(ValueError, match="key_guess"):
            group_by_hd(ts, guess, 0)
        with pytest.raises(ValueError, match="key_guess"):
            wrong_horse_scan(ts, 0, guess)
    for byte_index in (3.0, np.float64(3.0)):
        with pytest.raises(ValueError, match="byte_index"):
            group_by_hd(ts, 0, byte_index)
        with pytest.raises(ValueError, match="byte_index"):
            wrong_horse_scan(ts, byte_index, 0)
    assert group_by_hd(ts, np.uint8(51), np.int64(0)).counts.sum() == 64
    assert wrong_horse_scan(ts, np.int64(0), np.uint8(51)) == wrong_horse_scan(ts, 0, 51)
    empty = TraceSet(np.zeros((0, 1)), np.zeros((0, 16)), np.zeros((0, 16)), true_key=KEY)
    with pytest.raises(ValueError, match="empty trace set"):
        next(attack_offset_grid([empty], 0))


def test_attack_offset_grid_equals_per_set_calls():
    config = LeakageConfig.equal_weights(1.0, noise_sigma=4.0, samples_per_trace=2, poi_index=1)
    augmentations = [None, Augmentation(5, 2, 6.0), Augmentation(5, 6, 3.0, Trigger.ON_TOGGLE)]
    grid = list(simulate_offset_grid(KEY, 3001, config, 4, augmentations))
    attacks = list(attack_offset_grid(grid, 5, checkpoint_stride=250, sample_index=1))
    assert len(attacks) == len(grid)
    for traces, (result, horses) in zip(grid, attacks):
        expected = cpa_attack(traces, 5, 250)
        assert result.scores.tobytes() == expected.scores.tobytes()
        assert np.array_equal(result.ranking, expected.ranking)
        assert (result.disclosure, result.correct_rank) == (expected.disclosure,
                                                            expected.correct_rank)
        # the horses are counted against the key the result is measured against
        assert result.correct_guess == aes.correct_last_round_guess(KEY, 5)
        assert horses == wrong_horse_scan(traces, 5, result.correct_guess, sample_index=1)
    # the unaugmented point discloses, so the comparison is not vacuous
    assert attacks[0][0].disclosure is not None


def _alive_at_each_take(trace_sets, alive):
    """Pass the sets on; before each, record how many earlier ones are still held."""
    refs = []
    for traces in trace_sets:
        alive.append(sum(ref() is not None for ref in refs))
        refs.append(weakref.ref(traces))
        yield traces


@pytest.mark.parametrize("samples,group_budget,width", [(1, 2560, 2), (300, None, 1)])
def test_attack_offset_grid_holds_one_group_at_a_time(monkeypatch, samples, group_budget, width):
    # When a set is taken, the earlier ones still held are the sets of its
    # group taken so far and the set last scanned: at most one group's
    # width.  The grid keeps no evolutions, so a group budget of 2560
    # samples holds two sets of 1000 x 1, not three.  At the default
    # budgets a wide grid is walked one set at a time.
    if group_budget is not None:
        monkeypatch.setattr(cpa, "_GROUP_ELEMENTS", group_budget)
    config = LeakageConfig.equal_weights(1.0, noise_sigma=4.0, samples_per_trace=samples)
    augmentations = [Augmentation(0, 2, offset) for offset in (0.0, 1.0, 2.0, 4.0, 6.0)]
    grid = simulate_offset_grid(KEY, 1000, config, 3, augmentations)
    alive = []
    attacks = list(attack_offset_grid(_alive_at_each_take(grid, alive), 0))
    assert len(attacks) == len(alive) == len(augmentations)
    assert max(alive) == width


def test_a_fine_grid_walks_as_one_group_holding_no_evolution(monkeypatch):
    # A 12-point grid at stride 1 keeps no evolutions, so it walks as one
    # group, and its traced peak stays below one set's evolution (256 x n
    # float64), which a walk that kept evolutions would hold whole.
    n = 3000
    config = LeakageConfig.equal_weights(1.0, noise_sigma=4.0)
    augmentations = [Augmentation(0, bit, offset) for bit in (2, 5)
                     for offset in (0.0, 2.0, 4.0, 4.5, 6.0, 8.0)]
    widths, groups = [], cpa._groups
    monkeypatch.setattr(cpa, "_groups", lambda *args: (
        (checkpoints, widths.append(len(group)) or group) for checkpoints, group in groups(*args)))
    attacks, peak = traced_peak(lambda: list(attack_offset_grid(
        simulate_offset_grid(KEY, n, config, 1, augmentations), 0, checkpoint_stride=1)))
    assert widths == [12] and len(attacks) == 12
    assert peak < 256 * n * 8


def test_attack_offset_grid_rejects_sets_with_other_ciphertexts(monkeypatch):
    config = LeakageConfig.equal_weights(1.0, noise_sigma=1.0)
    first = simulate_campaign(KEY, 500, config, seed=1)
    # a set of another campaign, a set without the campaign's true key (which
    # the wrong horses need) and a sample the sets do not have are each refused
    # as the set is taken, before any hypothesis row is built
    calls, real = [], aes.hypothesis_matrix
    monkeypatch.setattr(aes, "hypothesis_matrix", lambda *args: calls.append(1) or real(*args))
    for other in (simulate_campaign(KEY, 500, config, seed=2),    # other plaintexts
                  simulate_campaign(KEY, 400, config, seed=1)):   # fewer traces
        with pytest.raises(ValueError, match="must share their ciphertexts"):
            next(attack_offset_grid([first, other], 0))
    keyless = TraceSet(first.samples, first.plaintexts, first.ciphertexts)
    with pytest.raises(ValueError, match="must carry their true key"):
        next(attack_offset_grid([keyless, keyless], 0))
    for sample_index in (1, -1):
        with pytest.raises(ValueError,
                           match=rf"sample_index must be an integer in 0\.\.0, got {sample_index}"):
            next(attack_offset_grid([first, first], 0, sample_index=sample_index))
    assert calls == []
    # the correct guess is no parameter, and the stride and sample are keywords
    with pytest.raises(TypeError):
        attack_offset_grid([first], 0, CORRECT_BYTE0 + 1)
    with pytest.raises(TypeError):
        attack_offset_grid([first], 0, 100)
