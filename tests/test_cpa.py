import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scakit import aes, cpa
from scakit.cpa import (
    AttackResult,
    checkpoint_schedule,
    cpa_attack,
    cpa_attack_sets,
    pearson,
    rank_of_guess,
)
from scakit.leakage import Augmentation, LeakageConfig, simulate_campaign, simulate_offset_grid
from scakit.traceio import import_raw
from scakit.traces import TraceSet

from helpers import export_raw, reference_disclosure, reference_evolution

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
    # the walk's running sums, over 20 checkpoints, against the textbook r at
    # each guess's peak sample
    config = LeakageConfig.equal_weights(1.0, noise_sigma=3.0, samples_per_trace=3, poi_index=1)
    ts = simulate_campaign(KEY, 2000, config, seed=0)
    streamed = cpa_attack(ts, 0).evolution[:, -1]
    hyp = aes.hypothesis_matrix(ts.ciphertexts, 0)
    reference = two_pass_correlations(hyp, ts.samples)
    peak = np.abs(reference).argmax(axis=1)
    assert np.max(np.abs(streamed - reference[np.arange(256), peak])) < 1e-12
    # spot-check against an independent implementation as well
    assert streamed[3] == pytest.approx(np.corrcoef(hyp[:, 3], ts.samples[:, peak[3]])[0, 1],
                                        abs=1e-12)


SPLIT_CONFIG = LeakageConfig.equal_weights(1.0, baseline=-60.0, noise_sigma=6.0,
                                           samples_per_trace=2, poi_index=1)


@settings(max_examples=40, deadline=None)
@given(stride=st.integers(1, 5000))
@example(stride=1)
@example(stride=2500)
@example(stride=2501)
def test_accumulator_merge_matches_sequential(stride):
    # sums split every stride traces, and carried from block to block, give
    # the r of one 5000-trace segment
    ts = simulate_campaign(KEY, 5000, SPLIT_CONFIG, seed=1)
    whole = cpa_attack(ts, 0, 5000).evolution[:, -1]
    split = cpa_attack(ts, 0, stride).evolution[:, -1]
    assert np.max(np.abs(split - whole)) < 1e-12


def test_accumulator_holds_a_large_dc_baseline():
    # Samples centred on a 16-bit ADC's midscale: the raw sums of y and y*y
    # carry a large common part that the variance must cancel.
    n = 20000
    config = LeakageConfig.equal_weights(1.0, baseline=32768.0, noise_sigma=4.0,
                                         samples_per_trace=2, poi_index=1)
    ts = simulate_campaign(KEY, n, config, seed=6)
    result = cpa_attack(ts, 0, 1000)
    reference = two_pass_correlations(aes.hypothesis_matrix(ts.ciphertexts, 0), ts.samples)
    peak = reference[np.arange(256), np.abs(reference).argmax(axis=1)]
    assert np.max(np.abs(result.evolution[:, -1] - peak)) < 1e-8
    assert result.correct_rank == 1


def test_accumulator_zero_variance_convention():
    # A constant 0.1 column sums with rounding (var_y comes out 7e-15 at the
    # last checkpoint), a zero column exactly: neither leaves a residue in r.
    ts = simulate_campaign(KEY, 1000, LeakageConfig.equal_weights(1.0, noise_sigma=4.0), seed=5)
    walks = [cpa_attack(TraceSet(np.hstack([ts.samples, np.full((1000, 1), value, np.float32)]),
                                 ts.plaintexts, ts.ciphertexts), 0, 7).evolution
             for value in (0.0, 0.1)]
    assert walks[0].tobytes() == walks[1].tobytes()


def test_checkpoint_schedule():
    assert checkpoint_schedule(1000, 100) == list(range(100, 1001, 100))
    assert checkpoint_schedule(1050, 100) == list(range(100, 1001, 100)) + [1050]
    assert checkpoint_schedule(50, 100) == [50]
    with pytest.raises(ValueError):
        checkpoint_schedule(100, 0)


def _disclosure(checkpoints, correct_vals, other_vals, correct=51):
    """The disclosure of a hand-built evolution by the walk's rule
    (``cpa._last_loss``), which the reference loop must give too."""
    values = np.full((256, len(checkpoints)), other_vals, dtype=float)
    values[correct] = correct_vals
    first = cpa._last_loss(np.abs(values.T), correct) + 1
    disclosure = checkpoints[first] if first < len(checkpoints) else None
    assert disclosure == reference_disclosure(checkpoints, values, correct)
    return disclosure


def test_traces_to_disclosure_always_first():
    assert _disclosure([1000, 2000, 3000], [0.9, 0.9, 0.9], 0.1) == 1000


def test_traces_to_disclosure_never_first():
    assert _disclosure([1000, 2000, 3000], [0.05, 0.05, 0.05], 0.1) is None


def test_traces_to_disclosure_stabilizes_late():
    assert _disclosure([1000, 2000, 3000, 4000], [0.05, 0.05, 0.9, 0.9], 0.1) == 3000
    # a tie is not a strict lead
    assert _disclosure([1000, 2000], [0.1, 0.1], 0.1) is None
    assert _disclosure([1000, 2000, 3000], [0.1, 0.9, 0.9], 0.1) == 2000
    # a lead lost again does not count
    assert _disclosure([1000, 2000, 3000, 4000], [0.9, 0.05, 0.9, 0.9], 0.1) == 3000


def test_attack_result_ranks_its_own_scores():
    # The ranking, the best guess and the correct rank all follow the scores:
    # tied scores rank by ascending guess, and no caller passes a ranking.
    scores = np.zeros(256)
    scores[[200, 9, 3]] = [0.5, 0.5, 0.25]
    result = AttackResult(scores, correct_guess=3)
    assert result.ranking.tolist() == [9, 200, 3, *(g for g in range(256) if g not in (3, 9, 200))]
    assert result.best_guess == result.ranking[0] == 9
    assert result.correct_rank == rank_of_guess(result, 3) == 3
    top = AttackResult(np.linspace(0, 1, 256), correct_guess=255)
    assert (top.best_guess, top.correct_rank) == (255, 1)
    with pytest.raises(ValueError, match=r"scores must have shape \(256,\), got \(255,\)"):
        AttackResult(np.zeros(255))
    with pytest.raises(TypeError):
        AttackResult(np.linspace(0, 1, 256), ranking=np.arange(256), best_guess=7)


def test_noiseless_equal_weight_attack_recovers_all_bytes():
    ts = simulate_campaign(KEY, 512, LeakageConfig.equal_weights(1.0), seed=1)
    k10 = aes.last_round_key(aes.as_block(KEY))
    for j in range(16):
        result = cpa_attack(ts, j, checkpoint_stride=128)
        correct = aes.correct_last_round_guess(KEY, j)
        assert result.best_guess == correct
        assert result.best_guess == int(k10[aes.SR_FORWARD[j]])
        assert rank_of_guess(result, correct) == 1
        assert np.all(np.abs(result.evolution) <= 1.0 + 1e-9)


def test_rank_of_guess_is_total(tmp_path):
    ts = simulate_campaign(KEY, 256, LeakageConfig.equal_weights(1.0), seed=2)
    result = cpa_attack(ts, 0, checkpoint_stride=256)
    assert rank_of_guess(result, result.best_guess) == 1
    ranks = {rank_of_guess(result, g) for g in range(256)}
    assert ranks == set(range(1, 257))
    # the result carries the correct guess and its rank when the key is known;
    # heavy noise keeps some correct ranks below the top
    noisy = simulate_campaign(KEY, 256, LeakageConfig.equal_weights(1.0, noise_sigma=30.0),
                              seed=2)
    correct_ranks = []
    for j in range(16):
        result = cpa_attack(noisy, j, checkpoint_stride=256)
        assert result.correct_guess == aes.correct_last_round_guess(KEY, j)
        assert result.correct_rank == rank_of_guess(result, result.correct_guess)
        correct_ranks.append(result.correct_rank)
    assert max(correct_ranks) > 1
    # and neither for an imported capture, which records no key
    export_raw(ts, tmp_path / "c.f32", tmp_path / "c.csv")
    result = cpa_attack(import_raw(tmp_path / "c.f32", tmp_path / "c.csv"), 0)
    assert result.correct_guess is None and result.correct_rank is None


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
    evolution = cpa_attack(ts, 5, stride).evolution
    expected = reference_evolution(ts, 5, checkpoint_schedule(n, stride))
    assert evolution.tobytes() == expected.tobytes()


def test_campaigns_sharing_ciphertexts_share_x_sums():
    # the later sets reuse the x sums of the first set's walk, bit for bit
    config = LeakageConfig.equal_weights(1.0, noise_sigma=4.0, samples_per_trace=2)
    augmentations = [Augmentation(0, 2, 0.0), Augmentation(0, 5, 6.0), None]
    grid = list(simulate_offset_grid(KEY, 2501, config, 8, augmentations))
    evolutions = [result.evolution for result in cpa_attack_sets(grid, 0, 100)]
    assert len(evolutions) == len(grid)
    for traces, evolution in zip(grid, evolutions):
        expected = reference_evolution(traces, 0, checkpoint_schedule(2501, 100))
        assert evolution.tobytes() == expected.tobytes()


def test_lockstep_groups_keep_each_evolution_and_the_error_contract(monkeypatch):
    # Budgets of two S=2 sets a group and 8 checkpoints a block walk a
    # 5-point grid as groups of 2, 2 and 1, in blocks of 2 checkpoints: the
    # budget's hypothesis rows (8192 // 32 = 256) bind before its r (8 and
    # 16 checkpoints); n is not a multiple of the stride.
    config = LeakageConfig.equal_weights(1.0, noise_sigma=4.0, samples_per_trace=2)
    augmentations = [None, *(Augmentation(0, bit, 6.0) for bit in (1, 2, 5, 7))]
    grid = list(simulate_offset_grid(KEY, 2050, config, 9, augmentations))
    checkpoints = checkpoint_schedule(2050, 100)
    monkeypatch.setattr(cpa, "_GROUP_ELEMENTS", 2 * 256 * len(checkpoints))
    monkeypatch.setattr(cpa, "_BLOCK_ELEMENTS", 8 * 2 * 256 * 2)
    assert [len(group) for _, group in cpa._groups(grid, 100, True)] == [2, 2, 1]
    attacks = list(cpa_attack_sets(grid, 0, 100))
    assert len(attacks) == len(grid)
    for traces, result in zip(grid, attacks):
        expected = reference_evolution(traces, 0, checkpoints)
        assert result.evolution.tobytes() == expected.tobytes()
    # A set with other ciphertexts or another true key, starting the second
    # group or inside it: the first group is walked and yielded, then the error
    # is raised, and no set of the second group is yielded.
    other = simulate_campaign(KEY, 2050, config, seed=10)
    odd = ((other, KEY), (grid[0], "00" * 16))   # (ciphertexts from, true key)
    for bad, (cts_from, true_key) in itertools.product((2, 3), odd):
        sets = list(grid)
        sets[bad] = TraceSet(grid[bad].samples, cts_from.plaintexts, cts_from.ciphertexts, true_key)
        attacks = cpa_attack_sets(sets, 0, 100)
        for traces in sets[:2]:
            expected = reference_evolution(traces, 0, checkpoints)
            assert next(attacks).evolution.tobytes() == expected.tobytes()
        with pytest.raises(ValueError, match="share their ciphertexts, sample count and true key"):
            next(attacks)


def _hypothesis_rows(monkeypatch):
    """The row counts of every ``aes.hypothesis_matrix`` call from now on."""
    rows, real = [], aes.hypothesis_matrix
    monkeypatch.setattr(aes, "hypothesis_matrix",
                        lambda cts, *args: rows.append(len(cts)) or real(cts, *args))
    return rows


@pytest.mark.parametrize("evolutions", [True, False])
def test_a_stranger_is_refused_before_its_group_is_walked(monkeypatch, evolutions):
    # Budgets of five S=1 sets a group: a set with other ciphertexts at
    # position 3 of the first group, or of the second, raises as it is taken.
    # The groups before it are yielded; no hypothesis row of its own group is built.
    config = LeakageConfig.equal_weights(1.0, noise_sigma=4.0)
    grid = list(simulate_offset_grid(KEY, 1050, config, 14,
                                     [Augmentation(0, 2, offset) for offset in range(10)]))
    checkpoints = checkpoint_schedule(1050, 100)
    held = 256 * len(checkpoints) if evolutions else 1050   # one set's, in the group budget
    monkeypatch.setattr(cpa, "_GROUP_ELEMENTS", 5 * held)
    assert [len(group) for _, group in cpa._groups(grid, 100, evolutions)] == [5, 5]
    other = simulate_campaign(KEY, 1050, config, seed=15)
    rows = _hypothesis_rows(monkeypatch)
    for bad in (3, 8):
        sets = list(grid)
        sets[bad] = other
        attacks = cpa_attack_sets(sets, 0, 100, evolutions)
        for traces in sets[:bad - 3]:
            result = next(attacks)
            assert result.scores.tobytes() == np.abs(
                reference_evolution(traces, 0, checkpoints)[:, -1]).tobytes()
        rows.clear()
        with pytest.raises(ValueError, match="share their ciphertexts, sample count and true key"):
            next(attacks)
        assert rows == []


def test_a_set_with_another_sample_count_is_refused(monkeypatch):
    # Sets sharing ciphertexts with S = 1, 1, 3 are not one campaign.  As
    # one group, the S = 3 set raises as it is taken, before any hypothesis
    # row is built; one set a group, the two S = 1 sets are walked and yielded
    # first, each with the scores and evolution it has on its own.
    config = LeakageConfig.equal_weights(1.0, noise_sigma=4.0, samples_per_trace=3, poi_index=1)
    ts = simulate_campaign(KEY, 1250, config, seed=13)
    sets = [TraceSet(ts.samples[:, columns], ts.plaintexts, ts.ciphertexts)
            for columns in ([1], [0], [0, 1, 2])]
    rows = _hypothesis_rows(monkeypatch)
    for evolutions in (True, False):
        with pytest.raises(ValueError, match="must share their ciphertexts, sample count"):
            next(cpa_attack_sets(sets, 0, 100, evolutions))
        assert rows == []
    checkpoints = checkpoint_schedule(1250, 100)
    for evolutions in (True, False):
        monkeypatch.setattr(cpa, "_GROUP_ELEMENTS", 256 * len(checkpoints) if evolutions else 1250)
        attacks = cpa_attack_sets(sets, 0, 100, evolutions)
        for traces in sets[:2]:
            result = next(attacks)
            expected = reference_evolution(traces, 0, checkpoints)
            assert result.scores.tobytes() == np.abs(expected[:, -1]).tobytes()
            if evolutions:
                assert result.evolution.tobytes() == expected.tobytes()
        with pytest.raises(ValueError, match="must share their ciphertexts, sample count"):
            next(attacks)


def test_block_hypothesis_rows_stay_within_the_budget(monkeypatch):
    # A block's uint8 hypothesis rows take no more bytes than its r budget,
    # _BLOCK_ELEMENTS float64: 2048 rows, so 20 checkpoints at stride 100,
    # where r alone would allow 42 for this 2-set S=3 group.  A budget of 3
    # checkpoints' rows gives blocks of 3, and every evolution keeps its bytes.
    config = LeakageConfig.equal_weights(1.0, noise_sigma=4.0, samples_per_trace=3, poi_index=1)
    grid = list(simulate_offset_grid(KEY, 5050, config, 11, [None, Augmentation(0, 2, 6.0)]))
    rows = _hypothesis_rows(monkeypatch)
    walks = [[result.evolution for result in cpa_attack_sets(grid, 0, 100)]]
    assert rows == [2000, 2000, 1050]
    rows.clear()
    monkeypatch.setattr(cpa, "_BLOCK_ELEMENTS", 32 * 100 * 3)
    walks.append([result.evolution for result in cpa_attack_sets(grid, 0, 100)])
    assert rows == [300] * 16 + [250]
    for traces, values, capped in zip(grid, *walks):
        expected = reference_evolution(traces, 0, checkpoint_schedule(5050, 100))
        assert values.tobytes() == capped.tobytes() == expected.tobytes()


def test_attack_sets_reject_an_empty_first_set_and_other_ciphertexts():
    # with and without evolutions; the two sets are one group, so nothing is yielded
    empty = TraceSet(np.zeros((0, 1)), np.zeros((0, 16)), np.zeros((0, 16)))
    config = LeakageConfig.equal_weights(1.0, noise_sigma=1.0)
    first = simulate_campaign(KEY, 500, config, seed=1)
    for evolutions in (True, False):
        with pytest.raises(ValueError, match="cannot attack an empty trace set"):
            next(cpa_attack_sets([empty], 0, evolutions=evolutions))
        for other in (simulate_campaign(KEY, 500, config, seed=2),    # other plaintexts
                      simulate_campaign(KEY, 400, config, seed=1),    # fewer traces
                      empty):
            with pytest.raises(ValueError, match="must share their ciphertexts"):
                next(cpa_attack_sets([first, other], 0, evolutions=evolutions))


def _attack_both_ways(trace_sets, stride):
    """Each set's result from a walk that keeps evolutions, whose evolution
    must be reference_evolution's and whose disclosure reference_disclosure's
    on it, and from which a walk that keeps none may differ only by holding
    evolution None."""
    kept = list(cpa_attack_sets(trace_sets, 0, stride))
    bare = list(cpa_attack_sets(trace_sets, 0, stride, evolutions=False))
    assert len(kept) == len(bare) == len(trace_sets)
    for traces, result, other in zip(trace_sets, kept, bare):
        assert result.evolution is not None and other.evolution is None
        checkpoints = checkpoint_schedule(len(traces), stride)
        expected = reference_evolution(traces, 0, checkpoints)
        assert result.evolution.tobytes() == expected.tobytes()
        if result.correct_guess is not None:
            assert result.disclosure == reference_disclosure(checkpoints, result.evolution,
                                                             result.correct_guess)
        assert other.scores.tobytes() == result.scores.tobytes()
        assert np.array_equal(other.ranking, result.ranking)
        assert (other.best_guess, other.disclosure, other.correct_guess, other.correct_rank) == (
            result.best_guess, result.disclosure, result.correct_guess, result.correct_rank)
    return kept


@settings(max_examples=30)
@given(n=st.integers(20, 3000), stride=st.integers(1, 600), sigma=st.sampled_from([0.0, 4.0, 16.0]),
       offsets=st.lists(st.sampled_from([None, 0.0, 4.0, 6.0]), min_size=1, max_size=4),
       samples=st.sampled_from([1, 3]), seed=st.integers(0, 2 ** 16))
def test_walk_disclosure_equals_traces_to_disclosure(n, stride, sigma, offsets, samples, seed):
    # single sets and grids, with or without evolutions
    config = LeakageConfig.equal_weights(1.0, noise_sigma=sigma, samples_per_trace=samples)
    augmentations = [None if offset is None else Augmentation(0, 2, offset) for offset in offsets]
    _attack_both_ways(list(simulate_offset_grid(KEY, n, config, seed, augmentations)), stride)


def test_walk_disclosure_covers_first_late_tied_and_no_leads():
    # Four sets sharing their ciphertexts: byte 0 leaking alone leads from the
    # first checkpoint, all 16 bytes leaking later, and under an offset of 6w
    # never.  The first again, with samples of 0 over its first 300 traces,
    # ties every guess at r = 0 at the first three checkpoints: no strict lead.
    config = LeakageConfig.equal_weights(1.0, noise_sigma=4.0)
    noisy, defeated = simulate_offset_grid(KEY, 3000, config, 1, [None, Augmentation(0, 2, 6.0)])
    quiet = simulate_campaign(KEY, 3000, LeakageConfig.single_byte_weights(0, noise_sigma=4.0), 1)

    def zeroed(count):
        samples = quiet.samples.copy()
        samples[:count] = 0.0
        return TraceSet(samples, quiet.plaintexts, quiet.ciphertexts, true_key=quiet.true_key)
    sets = [quiet, noisy, defeated, zeroed(300)]
    disclosures = [result.disclosure for result in _attack_both_ways(sets, 100)]
    assert disclosures == [100, 300, None, 500]
    for traces, disclosure in zip(sets, disclosures):   # each alone
        assert [result.disclosure for result in _attack_both_ways([traces], 100)] == [disclosure]
    # A tie followed directly by a lead: zeroed over its first 500 traces and
    # walked at stride 500, the quiet set ties at 500 and leads from 1000 on.
    assert [result.disclosure for result in _attack_both_ways([zeroed(500)], 500)] == [1000]


@pytest.mark.parametrize("evolutions", [True, False])
def test_r_of_every_block_is_checked(monkeypatch, evolutions):
    # NaN in the first of two blocks only: a walk that keeps no evolution
    # never holds it whole, so each block's r is checked as it is made.
    calls, real = [], cpa._correlations

    def correlations(*args, **kwargs):
        calls.append(1)
        r = real(*args, **kwargs)
        return np.full_like(r, np.nan) if len(calls) == 1 else r
    monkeypatch.setattr(cpa, "_correlations", correlations)
    ts = simulate_campaign(KEY, 3000, LeakageConfig.equal_weights(1.0, noise_sigma=4.0), seed=1)
    with pytest.raises(ValueError, match=r"outside \[-1, 1\]"):
        next(cpa_attack_sets([ts], 0, 100, evolutions=evolutions))
    assert len(calls) == 1


def test_attack_is_invariant_under_trace_permutation():
    config = LeakageConfig.equal_weights(1.0, noise_sigma=2.0)
    ts = simulate_campaign(KEY, 3000, config, seed=3)
    base = cpa_attack(ts, 0, checkpoint_stride=500)
    perm = np.random.default_rng(4).permutation(len(ts))
    shuffled = TraceSet(ts.samples[perm], ts.plaintexts[perm], ts.ciphertexts[perm],
                        true_key=ts.true_key, seed=ts.seed)
    again = cpa_attack(shuffled, 0, checkpoint_stride=500)
    assert np.array_equal(base.ranking, again.ranking)
    assert np.allclose(base.scores, again.scores, atol=1e-12)


def test_attack_reports_disclosure_for_simulated_sets():
    config = LeakageConfig.equal_weights(1.0, noise_sigma=4.0)
    ts = simulate_campaign(KEY, 3000, config, seed=1)
    result = cpa_attack(ts, 0)
    assert result.disclosure == reference_disclosure(checkpoint_schedule(3000, 100),
                                                     result.evolution, CORRECT_BYTE0)
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
    result = cpa_attack(ts, 0, checkpoint_stride=2000)
    assert result.best_guess == CORRECT_BYTE0


def test_sufficient_offset_defeats_the_attack():
    # above this model's effectiveness threshold the correct key loses
    # its lead and stays dethroned
    aug = Augmentation(0, 2, offset=6.0)
    config = LeakageConfig.equal_weights(1.0, noise_sigma=4.0)
    for seed in (1, 2, 3):
        ts = simulate_campaign(KEY, 30_000, config, seed=seed, augmentation=aug)
        result = cpa_attack(ts, 0)
        assert result.disclosure is None
        assert rank_of_guess(result, CORRECT_BYTE0) > 1


def _peak_r_calls(monkeypatch, decline=False):
    """Count the walk's divisions of cov into r (``cpa._cov_to_r``): "screened"
    divides at the screen's sample alone, one sample per guess, "full" the whole
    cov of a block the screen declined.  With ``decline``, r at the screen's
    sample reads 0, below the smallest normal |r| the screen accepts, so the
    screen declines every block."""
    calls, real = {"screened": 0, "full": 0}, cpa._cov_to_r

    def cov_to_r(*args, **kwargs):
        r = real(*args, **kwargs)
        screened = r.shape[-1] == 1
        calls["screened" if screened else "full"] += 1
        return np.zeros_like(r) if screened and decline else r
    monkeypatch.setattr(cpa, "_cov_to_r", cov_to_r)
    return calls


def _screened_and_declined(monkeypatch, trace_sets, stride):
    """Each set's evolution values as the walk gives them, then with every
    screen declined, and the blocks the first walk declined and walked."""
    walks = []
    for decline in (False, True):
        with monkeypatch.context() as patch:
            calls = _peak_r_calls(patch, decline)
            walks.append([result.evolution for result in cpa_attack_sets(trace_sets, 0, stride)])
            walks.append(calls["full"])
    screened, declined_blocks, declined, blocks = walks
    return screened, declined, declined_blocks, blocks


@settings(max_examples=25)
@given(n=st.integers(20, 900), samples=st.integers(2, 40), stride=st.integers(1, 400),
       sigma=st.sampled_from([0.5, 4.0, 30.0]), baseline=st.sampled_from([0.0, 1e3]),
       seed=st.integers(0, 2 ** 16))
def test_screened_peak_r_equals_the_full_kernel(n, samples, stride, sigma, baseline, seed):
    config = LeakageConfig.equal_weights(1.0, baseline=baseline, noise_sigma=sigma,
                                         samples_per_trace=samples, poi_index=samples // 3)
    ts = simulate_campaign(KEY, n, config, seed)
    with pytest.MonkeyPatch.context() as monkeypatch:
        screened, declined, *_ = _screened_and_declined(monkeypatch, [ts], stride)
    assert screened[0].tobytes() == declined[0].tobytes()
    expected = reference_evolution(ts, 0, checkpoint_schedule(n, stride))
    assert screened[0].tobytes() == expected.tobytes()


def test_screen_serves_groups_and_declines_ties_constants_and_one_trace(monkeypatch):
    # A 3-set S=6 group, in blocks of 14, 14 and 3 checkpoints: every block
    # is screened, none declined.
    config = LeakageConfig.equal_weights(1.0, noise_sigma=4.0, samples_per_trace=6, poi_index=2)
    augmentations = [None, Augmentation(0, 2, 6.0), Augmentation(0, 5, 2.0)]
    grid = list(simulate_offset_grid(KEY, 3050, config, 12, augmentations))
    screened, declined, declined_blocks, blocks = _screened_and_declined(monkeypatch, grid, 100)
    assert declined_blocks == 0 and blocks == 3
    for values, reference in zip(screened, declined):
        assert values.tobytes() == reference.tobytes()
    # Every sample twice ties each guess's top two: each block is declined
    # and the argmax keeps the first.  At stride 1 the first block holds
    # n = 1 (var_x = 0) and is declined.  A constant sample (var_y = 0), whose
    # r is 0, is screened as q = 0: no block is declined.
    ts = grid[1]
    doubled = TraceSet(np.hstack([ts.samples, ts.samples]), ts.plaintexts, ts.ciphertexts)
    constant = TraceSet(np.hstack([ts.samples, np.full((len(ts), 1), 2.0, np.float32)]),
                        ts.plaintexts, ts.ciphertexts)
    for traces, stride, expected in ((doubled, 100, "all"), (constant, 100, 0), (ts, 1, 1)):
        screened, declined, declined_blocks, blocks = _screened_and_declined(
            monkeypatch, [traces], stride)
        assert screened[0].tobytes() == declined[0].tobytes()
        assert declined_blocks == (blocks if expected == "all" else expected) and blocks > 1


@pytest.mark.parametrize("decline", [False, True])
def test_one_moments_pass_serves_each_block(monkeypatch, decline):
    # 3000 S=6 traces at stride 100 walk in blocks of 20 and 10 checkpoints.
    # Each block's one _moments pass serves the screen, r at the screen's
    # sample and, where the screen declines, the whole r.
    calls, real = [], cpa._moments

    def moments(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)
    monkeypatch.setattr(cpa, "_moments", moments)
    divisions = _peak_r_calls(monkeypatch, decline)
    config = LeakageConfig.equal_weights(1.0, noise_sigma=4.0, samples_per_trace=6, poi_index=2)
    next(cpa_attack_sets([simulate_campaign(KEY, 3000, config, 12)], 0, 100))
    assert calls == [(20,), (10,)]
    assert divisions == {"screened": 2, "full": 2 if decline else 0}


def test_each_kept_evolution_is_its_own_array():
    # A 4-set grid walks as one group; a caller that keeps one result keeps
    # only its own (256, checkpoints) r, not a view of the group's.
    config = LeakageConfig.equal_weights(1.0, noise_sigma=4.0)
    augmentations = [None, Augmentation(0, 2, 6.0), Augmentation(0, 5, 2.0),
                     Augmentation(0, 2, 2.0)]
    grid = list(simulate_offset_grid(KEY, 3000, config, 1, augmentations))
    results = list(cpa_attack_sets(grid, 0, 100))
    assert [result.evolution.shape for result in results] == [(256, 30)] * 4
    assert all(result.evolution.base is None for result in results)


def test_screen_declines_a_subnormal_variance_product():
    # var_x = 1.5 against var_y of 3 and 4 subnormal ulps: the products round
    # to 4 and 6 ulps, so q prefers sample 1 where the full |r| prefers
    # sample 0.  The guard on the variance products must decline the block.
    ulp = np.nextafter(0.0, 1.0)
    sums = (np.array([2.0]), np.zeros((1, 256)), np.full((1, 256), 1.5),
            np.zeros((1, 1, 2)), np.array([[[3 * ulp, 4 * ulp]]]),
            np.broadcast_to(np.sqrt(ulp) * np.array([1.0, 1.2]), (1, 1, 256, 2)).copy())
    q = np.abs(sums[5]) / np.sqrt(sums[4])[..., None, :]
    full = cpa._correlations(*sums)
    assert q.argmax(-1).max() == 1 and np.abs(full).argmax(-1).max() == 0
    peak = cpa._peak_r(*sums, np.empty((1, 1, 256, 2)), np.empty((1, 1, 256, 2)))
    assert peak.tobytes() == full[..., :1].tobytes()
