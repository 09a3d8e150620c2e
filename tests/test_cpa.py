import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scakit import aes, cpa
from scakit.cpa import (
    AttackResult,
    CorrelationAccumulator,
    CorrelationEvolution,
    checkpoint_schedule,
    cpa_attack,
    cpa_attack_sets,
    pearson,
    rank_of_guess,
    traces_to_disclosure,
)
from scakit.leakage import Augmentation, LeakageConfig, simulate_campaign, simulate_offset_grid
from scakit.traceio import export_raw, import_raw
from scakit.traces import TraceSet

KEY = "2041e2770445067328090a7f0c0d0e7b"  # round-10 key byte 0 is 0x33
CORRECT_BYTE0 = 51


def test_pearson_exact_cases():
    assert pearson([0, 1, 2, 3], [0, 2, 4, 6]) == pytest.approx(1.0, abs=1e-12)
    assert pearson([0, 1, 2, 3], [6, 4, 2, 0]) == pytest.approx(-1.0, abs=1e-12)
    assert pearson([1, 2, 3], [5, 5, 5]) == 0.0
    assert pearson([5, 5, 5], [1, 2, 3]) == 0.0


def test_pearson_argument_errors():
    with pytest.raises(ValueError):
        pearson([1, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        pearson([1], [1])


def two_pass_correlations(hyp, samples):
    """Textbook reference: center, normalize, dot product."""
    x = np.asarray(hyp, np.float64)
    y = np.asarray(samples, np.float64)
    out = np.zeros((x.shape[1], y.shape[1]))
    for g in range(x.shape[1]):
        for s in range(y.shape[1]):
            out[g, s] = pearson(x[:, g], y[:, s])
    return out


def test_accumulator_matches_two_pass():
    rng = np.random.default_rng(0)
    hyp = rng.integers(0, 9, size=(2000, 16)).astype(np.float64)
    samples = rng.normal(0.0, 3.0, size=(2000, 3))
    acc = CorrelationAccumulator(16, 3)
    acc.update(hyp, samples)
    streamed = acc.correlations()
    reference = two_pass_correlations(hyp, samples)
    assert np.max(np.abs(streamed - reference)) < 1e-12
    # spot-check against an independent implementation as well
    assert streamed[3, 1] == pytest.approx(np.corrcoef(hyp[:, 3], samples[:, 1])[0, 1],
                                           abs=1e-12)


SPLIT_RNG = np.random.default_rng(1)
SPLIT_HYP = SPLIT_RNG.integers(0, 9, size=(5000, 8)).astype(np.float64)
SPLIT_SAMPLES = SPLIT_RNG.normal(-60.0, 6.0, size=(5000, 2))


@settings(max_examples=200)
@given(cuts=st.lists(st.integers(0, 5000), max_size=39))
@example(cuts=[700, 1500, 1501, 4000])
def test_accumulator_merge_matches_sequential(cuts):
    # any split into up to 40 parts; repeated cuts give empty parts
    seq = CorrelationAccumulator(8, 2)
    seq.update(SPLIT_HYP, SPLIT_SAMPLES)
    merged = CorrelationAccumulator(8, 2)
    bounds = [0, *sorted(cuts), 5000]
    for lo, hi in zip(bounds, bounds[1:]):
        part = CorrelationAccumulator(8, 2)
        part.update(SPLIT_HYP[lo:hi], SPLIT_SAMPLES[lo:hi])
        merged.merge(part)
    assert merged.n == seq.n
    assert np.max(np.abs(merged.correlations() - seq.correlations())) < 1e-12


def test_accumulator_rejects_mismatched_batches():
    acc = CorrelationAccumulator(4, 2)
    with pytest.raises(ValueError, match="matching rows"):
        acc.update(np.zeros((3, 4)), np.zeros((2, 2)))
    for hyp, samples in ((np.zeros((3, 5)), np.zeros((3, 2))),
                         (np.zeros((3, 4)), np.zeros((3, 3)))):
        with pytest.raises(ValueError, match="batch width"):
            acc.update(hyp, samples)
    assert acc.n == 0


def test_accumulator_holds_a_large_dc_baseline():
    # Samples centred on a 16-bit ADC's midscale: the raw sums of y and y*y
    # carry a large common part that the variance must cancel.
    n = 20000
    config = LeakageConfig.equal_weights(1.0, baseline=32768.0, noise_sigma=4.0,
                                         samples_per_trace=2, poi_index=1)
    ts = simulate_campaign(KEY, n, config, seed=6)
    hyp = aes.hypothesis_matrix(ts.ciphertexts, 0)
    acc = CorrelationAccumulator(256, 2)
    for lo in range(0, n, 1000):
        acc.update(hyp[lo:lo + 1000], ts.samples[lo:lo + 1000])
    reference = two_pass_correlations(hyp, ts.samples)
    assert np.max(np.abs(acc.correlations() - reference)) < 1e-8
    result, _ = cpa_attack(ts, 0)
    assert result.correct_rank == 1


def test_accumulator_zero_variance_convention():
    acc = CorrelationAccumulator(2, 1)
    acc.update(np.array([[1.0, 4.0], [1.0, 5.0], [1.0, 6.0]]), np.zeros((3, 1)))
    r = acc.correlations()
    assert r[0, 0] == 0.0 and r[1, 0] == 0.0
    # constant samples whose sums round: their covariance residue stays out of r
    acc = CorrelationAccumulator(1, 1)
    acc.update(np.array([[1.0], [2.0], [4.0]]), np.full((3, 1), 0.1))
    assert acc.correlations()[0, 0] == 0.0


def test_checkpoint_schedule():
    assert checkpoint_schedule(1000, 100) == list(range(100, 1001, 100))
    assert checkpoint_schedule(1050, 100) == list(range(100, 1001, 100)) + [1050]
    assert checkpoint_schedule(50, 100) == [50]
    with pytest.raises(ValueError):
        checkpoint_schedule(100, 0)


def _evolution(checkpoints, correct_vals, other_vals, correct=51):
    values = np.full((256, len(checkpoints)), other_vals, dtype=float)
    values[correct] = correct_vals
    return CorrelationEvolution(np.array(checkpoints), values)


def test_traces_to_disclosure_always_first():
    evo = _evolution([1000, 2000, 3000], [0.9, 0.9, 0.9], 0.1)
    assert traces_to_disclosure(evo, 51) == 1000


def test_traces_to_disclosure_never_first():
    evo = _evolution([1000, 2000, 3000], [0.05, 0.05, 0.05], 0.1)
    assert traces_to_disclosure(evo, 51) is None


def test_traces_to_disclosure_stabilizes_late():
    evo = _evolution([1000, 2000, 3000, 4000], [0.05, 0.05, 0.9, 0.9], 0.1)
    assert traces_to_disclosure(evo, 51) == 3000
    # a tie is not a strict lead
    evo = _evolution([1000, 2000], [0.1, 0.1], 0.1)
    assert traces_to_disclosure(evo, 51) is None
    # a lead lost again does not count
    evo = _evolution([1000, 2000, 3000, 4000], [0.9, 0.05, 0.9, 0.9], 0.1)
    assert traces_to_disclosure(evo, 51) == 3000


def test_evolution_validation():
    with pytest.raises(ValueError):
        CorrelationEvolution(np.array([100, 100]), np.zeros((256, 2)))
    with pytest.raises(ValueError):
        CorrelationEvolution(np.array([100, 200]), np.full((256, 2), 1.01))
    with pytest.raises(ValueError):
        CorrelationEvolution(np.array([], dtype=int), np.zeros((256, 0)))
    with pytest.raises(ValueError, match="values width"):
        CorrelationEvolution(np.array([100, 200]), np.zeros((256, 3)))


def test_attack_result_ranking_must_be_permutation():
    with pytest.raises(ValueError):
        AttackResult(0, 0, np.zeros(256, dtype=int), np.zeros(256))


def test_noiseless_equal_weight_attack_recovers_all_bytes():
    ts = simulate_campaign(KEY, 512, LeakageConfig.equal_weights(1.0), seed=1)
    k10 = aes.last_round_key(aes.as_block(KEY))
    for j in range(16):
        result, evolution = cpa_attack(ts, j, checkpoint_stride=128)
        correct = aes.correct_last_round_guess(KEY, j)
        assert result.best_guess == correct
        assert result.best_guess == int(k10[aes.SR_FORWARD[j]])
        assert rank_of_guess(result, correct) == 1
        assert np.all(np.abs(evolution.values) <= 1.0 + 1e-9)


def test_rank_of_guess_is_total(tmp_path):
    ts = simulate_campaign(KEY, 256, LeakageConfig.equal_weights(1.0), seed=2)
    result, _ = cpa_attack(ts, 0, checkpoint_stride=256)
    assert rank_of_guess(result, result.best_guess) == 1
    ranks = {rank_of_guess(result, g) for g in range(256)}
    assert ranks == set(range(1, 257))
    # the result carries the correct guess and its rank when the key is known;
    # heavy noise keeps some correct ranks below the top
    noisy = simulate_campaign(KEY, 256, LeakageConfig.equal_weights(1.0, noise_sigma=30.0),
                              seed=2)
    correct_ranks = []
    for j in range(16):
        result, _ = cpa_attack(noisy, j, checkpoint_stride=256)
        assert result.correct_guess == aes.correct_last_round_guess(KEY, j)
        assert result.correct_rank == rank_of_guess(result, result.correct_guess)
        correct_ranks.append(result.correct_rank)
    assert max(correct_ranks) > 1
    # and neither for an imported capture, which records no key
    export_raw(ts, tmp_path / "c.f32", tmp_path / "c.csv")
    result, _ = cpa_attack(import_raw(tmp_path / "c.f32", tmp_path / "c.csv"), 0)
    assert result.correct_guess is None and result.correct_rank is None


def accumulator_evolution(traces, byte_index, checkpoints):
    """The evolution one CorrelationAccumulator update and correlations
    call per checkpoint gives."""
    hyp = aes.hypothesis_matrix(traces.ciphertexts, byte_index)
    acc = CorrelationAccumulator(256, traces.samples_per_trace)
    values, start = [], 0
    for count in checkpoints:
        acc.update(hyp[start:count], traces.samples[start:count])
        start = count
        r = acc.correlations()
        values.append(r[np.arange(256), np.abs(r).argmax(axis=1)])
    return np.array(values).T


# (n, samples per trace, stride, noise, baseline): S=1 over more
# checkpoints than one batch holds, S=8, n not a multiple of the stride,
# a stride past n, S=300 (one checkpoint per batch) with a shorter last
# segment, noiseless samples whose columns off the leaking one hold the
# baseline, so their r is 0 by the zero-variance convention, and S=8 over
# two full batches of 32 checkpoints, the sums carried from the first.
EVOLUTION_CASES = [(3001, 1, 10, 4.0, 0.0), (2000, 1, 100, 4.0, 0.0), (9001, 8, 250, 4.0, 0.0),
                   (700, 8, 1000, 4.0, 0.0), (5, 1, 1, 4.0, 0.0), (2050, 300, 100, 4.0, 0.0),
                   (1201, 6, 100, 0.0, 0.7), (6400, 8, 100, 4.0, 0.0)]


@pytest.mark.parametrize("n,samples,stride,sigma,baseline", EVOLUTION_CASES,
                         ids=["-".join(map(str, case[:3])) for case in EVOLUTION_CASES])
def test_batched_evolution_equals_accumulator_loop(n, samples, stride, sigma, baseline):
    config = LeakageConfig.equal_weights(1.0, baseline=baseline, noise_sigma=sigma,
                                         samples_per_trace=samples, poi_index=samples // 2)
    ts = simulate_campaign(KEY, n, config, seed=n)
    _, evolution = cpa_attack(ts, 5, stride)
    expected = accumulator_evolution(ts, 5, checkpoint_schedule(n, stride))
    assert evolution.values.tobytes() == expected.tobytes()


def test_campaigns_sharing_ciphertexts_share_x_sums():
    # the later sets reuse the x sums of the first set's walk, bit for bit
    config = LeakageConfig.equal_weights(1.0, noise_sigma=4.0, samples_per_trace=2)
    augmentations = [Augmentation(0, 2, 0.0), Augmentation(0, 5, 6.0), None]
    grid = list(simulate_offset_grid(KEY, 2501, config, 8, augmentations))
    evolutions = [evolution for _, evolution in cpa_attack_sets(grid, 0, 100)]
    assert len(evolutions) == len(grid)
    for traces, evolution in zip(grid, evolutions):
        expected = accumulator_evolution(traces, 0, checkpoint_schedule(2501, 100))
        assert evolution.values.tobytes() == expected.tobytes()


def test_lockstep_groups_keep_each_evolution_and_the_error_contract(monkeypatch):
    # Budgets of two S=2 sets a group and 8 checkpoints a block walk a
    # 5-point grid as groups of 2, 2 and 1, in blocks of 8, 8 and 5
    # checkpoints (16 and 5 for the last group); n is not a multiple of
    # the stride.
    config = LeakageConfig.equal_weights(1.0, noise_sigma=4.0, samples_per_trace=2)
    augmentations = [None, *(Augmentation(0, bit, 6.0) for bit in (1, 2, 5, 7))]
    grid = list(simulate_offset_grid(KEY, 2050, config, 9, augmentations))
    checkpoints = checkpoint_schedule(2050, 100)
    monkeypatch.setattr(cpa, "_GROUP_ELEMENTS", 2 * 256 * len(checkpoints))
    monkeypatch.setattr(cpa, "_BLOCK_ELEMENTS", 8 * 2 * 256 * 2)
    assert [len(group) for _, group in cpa._groups(grid, 100)] == [2, 2, 1]
    attacks = list(cpa_attack_sets(grid, 0, 100))
    assert len(attacks) == len(grid)
    for traces, (_, evolution) in zip(grid, attacks):
        expected = accumulator_evolution(traces, 0, checkpoints)
        assert evolution.values.tobytes() == expected.tobytes()
    # A set with other ciphertexts, starting a group or inside one: the sets
    # before it are walked and yielded, then the error is raised.
    other = simulate_campaign(KEY, 2050, config, seed=10)
    for bad in (2, 3):
        sets = list(grid)
        sets[bad] = TraceSet(grid[bad].samples, other.plaintexts, other.ciphertexts)
        attacks = cpa_attack_sets(sets, 0, 100)
        for traces in sets[:bad]:
            _, evolution = next(attacks)
            expected = accumulator_evolution(traces, 0, checkpoints)
            assert evolution.values.tobytes() == expected.tobytes()
        with pytest.raises(ValueError, match="must share their ciphertexts"):
            next(attacks)


def test_attack_sets_reject_an_empty_first_set_and_other_ciphertexts():
    empty = TraceSet(np.zeros((0, 1)), np.zeros((0, 16)), np.zeros((0, 16)))
    with pytest.raises(ValueError, match="cannot attack an empty trace set"):
        next(cpa_attack_sets([empty], 0))
    config = LeakageConfig.equal_weights(1.0, noise_sigma=1.0)
    first = simulate_campaign(KEY, 500, config, seed=1)
    for other in (simulate_campaign(KEY, 500, config, seed=2),    # other plaintexts
                  simulate_campaign(KEY, 400, config, seed=1),    # fewer traces
                  empty):
        attacks = cpa_attack_sets([first, other], 0)
        next(attacks)
        with pytest.raises(ValueError, match="must share their ciphertexts"):
            next(attacks)


def test_attack_is_invariant_under_trace_permutation():
    config = LeakageConfig.equal_weights(1.0, noise_sigma=2.0)
    ts = simulate_campaign(KEY, 3000, config, seed=3)
    base, _ = cpa_attack(ts, 0, checkpoint_stride=500)
    perm = np.random.default_rng(4).permutation(len(ts))
    shuffled = TraceSet(ts.samples[perm], ts.plaintexts[perm], ts.ciphertexts[perm],
                        true_key=ts.true_key, seed=ts.seed)
    again, _ = cpa_attack(shuffled, 0, checkpoint_stride=500)
    assert np.array_equal(base.ranking, again.ranking)
    assert np.allclose(base.scores, again.scores, atol=1e-12)


def test_attack_reports_disclosure_for_simulated_sets():
    config = LeakageConfig.equal_weights(1.0, noise_sigma=4.0)
    ts = simulate_campaign(KEY, 3000, config, seed=1)
    result, evolution = cpa_attack(ts, 0)
    assert result.disclosure == traces_to_disclosure(evolution, CORRECT_BYTE0)
    assert result.disclosure is not None


def test_attack_argument_errors():
    empty = TraceSet(np.zeros((0, 1), np.float32), np.zeros((0, 16), np.uint8),
                     np.zeros((0, 16), np.uint8))
    with pytest.raises(ValueError):
        cpa_attack(empty, 0)
    ts = simulate_campaign(KEY, 10, LeakageConfig.equal_weights(1.0), seed=1)
    with pytest.raises(ValueError):
        cpa_attack(ts, 0, checkpoint_stride=0)
    with pytest.raises(ValueError):
        cpa_attack(ts, 16)


def test_max_over_samples_scoring():
    # leakage on sample 1 of 3: score must pick it up regardless of position
    config = LeakageConfig.equal_weights(1.0, noise_sigma=0.5,
                                         samples_per_trace=3, poi_index=1)
    ts = simulate_campaign(KEY, 2000, config, seed=6)
    result, _ = cpa_attack(ts, 0, checkpoint_stride=2000)
    assert result.best_guess == CORRECT_BYTE0


def test_sufficient_offset_defeats_the_attack():
    # above this model's effectiveness threshold the correct key loses
    # its lead and stays dethroned
    aug = Augmentation(0, 2, offset=6.0)
    config = LeakageConfig.equal_weights(1.0, noise_sigma=4.0, augmentation=aug)
    for seed in (1, 2, 3):
        ts = simulate_campaign(KEY, 30_000, config, seed=seed)
        result, _ = cpa_attack(ts, 0)
        assert result.disclosure is None
        assert rank_of_guess(result, CORRECT_BYTE0) > 1
