"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Shared setup: the campaign key is chosen so its round-10 key byte 0 is
0x33, the value whose correct guess is easiest to dethrone with an
offset on bit 2 (0xcc ties it); per-bit weight w = 1.0 and gaussian
noise sigma = 4w throughout.

``offset_threshold`` is an exact oracle for the offset countermeasure,
built from ``aes.INV_SBOX`` and ``aes.HW_TABLE`` alone (nothing from the
simulator, the attack or the HD fits).  For state byte 0
(``SR_FORWARD[0] == 0``) the true toggle byte, the offset bit and all
256 hypotheses depend only on ciphertext byte 0, which no other leaking
byte depends on, so averaging over its 256 uniform values gives each
guess's limiting |r| exactly.  Its threshold o* is the smallest offset
at which a wrong guess ties the correct one: 4.382w for 0x33, bit 2,
``ON_STATIC`` (wrong guess 62).

Known model limitation, documented rather than papered over: criterion
5 pins the countermeasure offset at exactly 4x the per-bit weight,
below o*, so the attack still discloses and that check fails; the
observed disclosure counts are printed.  ``PAPER.md`` holds only the
abstract, which names no effective offset, so only the paper's text can
settle whether the pin or the model has to change.  Criterion 10 checks
that the sweep command places the threshold where the oracle puts it;
``test_offset_threshold_figures`` and
``test_offset_threshold_matches_simulation`` hold the oracle's figures
and its agreement with simulated campaigns.  The class-mean slope flip
of criterion 6 needs >8x, which is why that criterion's augmented
campaign uses 12x.
"""

import csv

import numpy as np
import pytest

import scakit as sk
from scakit import aes, cli
from scakit.cpa import pearson

from helpers import export_raw, last_round_transitions

W = 1.0
SIGMA = 4.0 * W
KEY = "2041e2770445067328090a7f0c0d0e7b"  # round-10 key 33111d7fe3944a17f307a78b4d2b30c5
CORRECT_BYTE0 = 51
AUG_SEEDS = (1, 2, 3)

# (guess, c) hypotheses for state byte 0 over ciphertext byte c, centred
# and scaled so that a product with any function of c gives cov/sd(h)
_C = np.arange(256)
_HYP = aes.HW_TABLE[aes.INV_SBOX[_C ^ _C[:, None]] ^ _C].astype(np.float64)
_HYP -= _HYP.mean(axis=1, keepdims=True)
_HYP /= 256 * np.sqrt(np.mean(_HYP ** 2, axis=1, keepdims=True))


def limit_terms(key_byte, bit, on_toggle=False):
    """Exact limiting scores for state byte 0 under an augmentation on
    ``bit`` of that byte: guess g scores ``|a[g] + o * b[g]|`` at offset o.

    With ``SR_FORWARD[0] == 0`` the trace's dependence on ciphertext byte
    c is ``-W * HW(t(c)) - o * fires(c)`` with ``t(c) = INV_SBOX[c ^
    key_byte] ^ c``, and every other term is independent of c, so the
    scores are in cov/sd(h) units, a common factor away from |r|.
    """
    toggle = aes.INV_SBOX[_C ^ key_byte] ^ _C
    bit_toggles = (toggle >> bit) & 1
    fires = bit_toggles if on_toggle else 1 - bit_toggles
    return _HYP @ (-W * aes.HW_TABLE[toggle]), _HYP @ -fires.astype(np.float64)


def offset_threshold(key_byte, bit, on_toggle=False):
    """Smallest offset o >= 0 at which a wrong guess first ties the
    correct guess in :func:`limit_terms`."""
    a, b = limit_terms(key_byte, bit, on_toggle)
    k = key_byte
    assert abs(a[k]) > np.max(np.abs(np.delete(a, k))), "correct guess must lead at offset 0"
    with np.errstate(divide="ignore", invalid="ignore"):
        ties = np.concatenate([(a - a[k]) / (b[k] - b), -(a + a[k]) / (b + b[k])])
    ties[[k, 256 + k]] = np.nan  # the correct guess does not tie itself
    return float(np.min(ties[ties >= 0], initial=np.inf))


def report(criterion, ok, detail=""):
    line = f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    return f"{criterion}: {detail}" if detail else criterion


@pytest.fixture(scope="module")
def augmented_4w_campaigns():
    aug = sk.Augmentation(0, 2, offset=4.0 * W, trigger=sk.Trigger.ON_STATIC)
    config = sk.LeakageConfig.equal_weights(W, noise_sigma=SIGMA)
    return {seed: sk.simulate_campaign(KEY, 50_000, config, seed, aug) for seed in AUG_SEEDS}


@pytest.fixture(scope="module")
def plain_50k_campaign():
    config = sk.LeakageConfig.equal_weights(W, noise_sigma=SIGMA)
    return sk.simulate_campaign(KEY, 50_000, config, seed=1)


def test_criterion_01_aes_correctness():
    ct = sk.last_round_states_batch("000102030405060708090a0b0c0d0e0f",
                                    sk.as_block("00112233445566778899aabbccddeeff")[None])[1][0]
    ct_ok = sk.block_hex(ct) == "69c4e0d86a7b0430d8cdb78070b4c55a"
    k10 = sk.last_round_key("000102030405060708090a0b0c0d0e0f")
    k10_ok = sk.block_hex(k10) == "13111d7fe3944a17f307a78b4d2b30c5"
    detail = report("1 AES correctness", ct_ok and k10_ok,
                    f"ciphertext {sk.block_hex(ct)}, round-10 key {sk.block_hex(k10)}")
    assert ct_ok and k10_ok, detail


def test_criterion_02_model_consistency():
    rng = np.random.default_rng(2024)
    mismatches = 0
    for _ in range(1000):
        key = rng.integers(0, 256, 16, dtype=np.uint8)
        pt = rng.integers(0, 256, 16, dtype=np.uint8)
        round9, ct = (rows[0] for rows in sk.last_round_states_batch(key, pt[None]))
        k10 = sk.last_round_key(key)
        for j in range(16):
            guess = int(k10[aes.SR_FORWARD[j]])
            if last_round_transitions(ct, guess, j) != int(round9[j] ^ ct[j]):
                mismatches += 1
    detail = report("2 model consistency", mismatches == 0,
                    f"{mismatches} mismatches over 1000 random (key, pt) x 16 positions")
    assert mismatches == 0, detail


def test_criterion_03_noiseless_oracle_attack():
    # exact-oracle form: only the attacked byte leaks, so the model value
    # is an exact affine image of the trace and |r| must hit 1
    min_r, all_rank1 = 1.0, True
    for j in range(16):
        config = sk.LeakageConfig.single_byte_weights(j, W)
        traces = sk.simulate_campaign(KEY, 512, config, seed=300 + j)
        result, _ = sk.cpa_attack(traces, j, checkpoint_stride=512)
        correct = sk.correct_last_round_guess(KEY, j)
        min_r = min(min_r, float(result.scores[correct]))
        all_rank1 &= sk.rank_of_guess(result, correct) == 1
    exact_ok = min_r >= 1.0 - 1e-9 and all_rank1

    # with every bit leaking equally the other 15 bytes act as algorithmic
    # noise; rank 1 must still hold for all positions at 512 traces
    config = sk.LeakageConfig.equal_weights(W)
    traces = sk.simulate_campaign(KEY, 512, config, seed=1)
    equal_rank1 = all(
        sk.rank_of_guess(sk.cpa_attack(traces, j, checkpoint_stride=512)[0],
                         sk.correct_last_round_guess(KEY, j)) == 1
        for j in range(16))

    ok = exact_ok and equal_rank1
    detail = report("3 noiseless oracle attack", ok,
                    f"min |r| {min_r:.12f}, rank 1 everywhere: "
                    f"isolated={all_rank1} equal-weight={equal_rank1}")
    assert ok, detail


def test_criterion_04_noisy_disclosure():
    config = sk.LeakageConfig.equal_weights(W, noise_sigma=SIGMA)
    outcomes = []
    for _ in range(2):
        traces = sk.simulate_campaign(KEY, 20_000, config, seed=1)
        result, _ = sk.cpa_attack(traces, 0)
        outcomes.append(result.disclosure)
    ok = (outcomes[0] is not None and outcomes[0] <= 20_000
          and outcomes[0] == outcomes[1])
    detail = report("4 noisy disclosure", ok,
                    f"disclosure at {outcomes[0]} traces, repeat run {outcomes[1]}")
    assert ok, detail


def test_criterion_05_countermeasure_blocks_disclosure(augmented_4w_campaigns):
    observed = {}
    for seed, traces in augmented_4w_campaigns.items():
        result, _ = sk.cpa_attack(traces, 0)
        observed[seed] = result.disclosure
    ok = all(d is None for d in observed.values())
    detail = report(
        "5 countermeasure blocks disclosure (offset 4w)", ok,
        "disclosure per seed: "
        + ", ".join(f"{s}->{d}" for s, d in observed.items())
        + "; a 4x-per-bit offset is below this model's exact threshold "
        f"o* = {offset_threshold(CORRECT_BYTE0, 2):.3f}w")
    assert ok, detail


def test_criterion_06_slope_sign_flip(plain_50k_campaign):
    baseline = sk.fit_hd_line(sk.group_by_hd(plain_50k_campaign, CORRECT_BYTE0, 0))
    aug = sk.Augmentation(0, 2, offset=12.0 * W)  # above the 8x flip threshold
    config = sk.LeakageConfig.equal_weights(W, noise_sigma=SIGMA)
    augmented_traces = sk.simulate_campaign(KEY, 50_000, config, seed=1, augmentation=aug)
    augmented = sk.fit_hd_line(sk.group_by_hd(augmented_traces, CORRECT_BYTE0, 0))
    ok = baseline.slope < 0 < augmented.slope
    detail = report("6 slope sign flip", ok,
                    f"baseline slope {baseline.slope:+.4f}, "
                    f"augmented slope {augmented.slope:+.4f}")
    assert ok, detail


def test_criterion_07_wrong_horse(augmented_4w_campaigns):
    observed = {}
    for seed, traces in augmented_4w_campaigns.items():
        horses = sk.wrong_horse_scan(traces, 0, CORRECT_BYTE0)
        observed[seed] = horses
    ok = all(len(h) >= 1 for h in observed.values())
    detail = report(
        "7 wrong horse", ok,
        "guesses outfitting the correct key per seed: "
        + ", ".join(f"{s}->{h}" for s, h in observed.items()))
    assert ok, detail


def test_criterion_08_streaming_numerics():
    config = sk.LeakageConfig.equal_weights(W, noise_sigma=2.0,
                                            samples_per_trace=2, poi_index=1)
    traces = sk.simulate_campaign(KEY, 10_000, config, seed=77)
    hyp = aes.hypothesis_matrix(traces.ciphertexts, 0).astype(np.float64)
    samples = traces.samples.astype(np.float64)

    # the CPA walk over one 10k segment, against two-pass r at each guess's peak sample
    streamed = sk.cpa_attack(traces, 0, 10_000)[1].values[:, -1]
    reference = np.empty((256, 2))
    for g in range(256):
        for s in range(2):
            reference[g, s] = pearson(hyp[:, g], samples[:, s])
    peak = reference[np.arange(256), np.abs(reference).argmax(axis=1)]
    two_pass_err = float(np.max(np.abs(streamed - peak)))

    # the same sums split into segments of 1, 2500, 2501 and 6499 traces
    merge_err = max(float(np.max(np.abs(sk.cpa_attack(traces, 0, stride)[1].values[:, -1]
                                        - streamed)))
                    for stride in (1, 2500, 2501, 6499))

    ok = two_pass_err < 1e-12 and merge_err < 1e-12
    detail = report("8 streaming numerics", ok,
                    f"two-pass delta {two_pass_err:.2e}, chunk-merge delta {merge_err:.2e}")
    assert ok, detail


def test_criterion_09_trace_io(tmp_path):
    config = sk.LeakageConfig.equal_weights(W, noise_sigma=1.0, samples_per_trace=3,
                                            poi_index=0)
    traces = sk.simulate_campaign(KEY, 200, config, seed=5)

    sctr = tmp_path / "t.sctr"
    sk.write_sctr(traces, sctr)
    back = sk.read_sctr(sctr)
    sctr_ok = (back.samples.tobytes() == traces.samples.tobytes()
               and np.array_equal(back.plaintexts, traces.plaintexts)
               and np.array_equal(back.ciphertexts, traces.ciphertexts)
               and np.array_equal(back.true_key, traces.true_key))

    raw, meta = tmp_path / "t.f32", tmp_path / "t.csv"
    export_raw(traces, raw, meta)
    imported = sk.import_raw(raw, meta)
    raw_ok = (imported.samples.tobytes() == traces.samples.tobytes()
              and imported.true_key is None)

    errors_ok = True
    data = bytearray(sctr.read_bytes())
    data[0:4] = b"XXXX"
    bad = tmp_path / "bad.sctr"
    bad.write_bytes(bytes(data))
    try:
        sk.read_sctr(bad)
        errors_ok = False
    except sk.SctrFormatError as exc:
        errors_ok &= "magic" in str(exc)
    bad.write_bytes(sctr.read_bytes()[:-3])
    try:
        sk.read_sctr(bad)
        errors_ok = False
    except sk.SctrFormatError as exc:
        errors_ok &= "size mismatch" in str(exc)
    try:
        sk.import_raw(raw, meta, samples_per_trace=7)
        errors_ok = False
    except sk.TraceImportError as exc:
        errors_ok &= "row-count mismatch" in str(exc)

    ok = sctr_ok and raw_ok and errors_ok
    detail = report("9 trace I/O", ok,
                    f"sctr bit-exact={sctr_ok} raw bit-exact={raw_ok} errors={errors_ok}")
    assert ok, detail


def test_criterion_10_offset_sweep_threshold(tmp_path):
    o_star = offset_threshold(CORRECT_BYTE0, 2)
    out = tmp_path / "sweep.csv"
    code = cli.main(["sweep", "--key", KEY, "--n", "20000", "--sigma", str(SIGMA),
                     "--seed", "1", "--weight", str(W),
                     "--offsets", "0,1,2,4,4.5,6,8", "--bits", "2", "-o", str(out)])
    assert code == 0
    with open(out, newline="") as fh:
        rows = {float(row["offset"]): row["disclosure"] for row in csv.DictReader(fh)}
    a, b = limit_terms(CORRECT_BYTE0, 2)
    ok = all((d != "") == (np.argmax(np.abs(a + o * b)) == CORRECT_BYTE0)
             for o, d in rows.items())
    detail = report(
        "10 offset sweep threshold", ok,
        "disclosure per offset: "
        + ", ".join(f"{o:g}w->{d or 'none'}" for o, d in sorted(rows.items()))
        + "; an offset must disclose exactly where the oracle's limiting scores "
        f"rank the correct key first, below o* = {o_star:.3f}w")
    assert ok, detail


def test_offset_threshold_figures():
    # the thresholds quoted in the README, over every key byte and bit;
    # key bytes k and k ^ 0xff share every threshold (complementing c and
    # the key negates the trace and the hypotheses alike)
    static = np.array([[offset_threshold(k, bit) for bit in range(8)] for k in range(256)])
    bit2 = static[:, 2]
    toggle_min = min(offset_threshold(k, bit, on_toggle=True)
                     for k in range(256) for bit in range(8))
    figures = (f"bit 2: 0x33 {bit2[0x33]:.4f}w, min {bit2.min():.4f}w, "
               f"median {np.median(bit2):.4f}w, max {bit2.max():.4f}w; "
               f"all bits: 0x76 bit 1 {static[0x76, 1]:.4f}w, min {static.min():.4f}w; "
               f"ON_TOGGLE min {toggle_min:.1f}w")
    assert np.allclose(static, static[::-1], rtol=0, atol=1e-9), figures
    assert bit2[CORRECT_BYTE0] == pytest.approx(bit2.min(), abs=1e-9), figures
    assert bit2.min() == pytest.approx(4.382, abs=5e-4), figures
    assert np.median(bit2) == pytest.approx(5.27, abs=5e-3), figures
    assert bit2.max() == pytest.approx(6.96, abs=5e-3), figures
    assert static[0x76, 1] == pytest.approx(static.min(), abs=1e-9), figures
    assert static.min() == pytest.approx(4.141, abs=5e-4), figures
    assert toggle_min > 16 * W, figures
    # the window is bounded: the correct guess correlates with the offset
    # bit as well, and for 0x33 it leads again from 11.37w on
    a, b = limit_terms(CORRECT_BYTE0, 2)
    leader = [int(np.argmax(np.abs(a + o * W * b))) for o in (4.5, 11.36, 11.38, 16)]
    assert CORRECT_BYTE0 not in leader[:2] and leader[2:] == [CORRECT_BYTE0] * 2, leader


def test_offset_threshold_matches_simulation(augmented_4w_campaigns):
    # the attack lands on the oracle's side of o* on every seed: 4w, just
    # below it, discloses and 4.5w, just above it, does not
    o_star = offset_threshold(CORRECT_BYTE0, 2)
    assert 4.0 * W < o_star < 4.5 * W, o_star
    below = {seed: sk.cpa_attack(traces, 0)[0].disclosure
             for seed, traces in augmented_4w_campaigns.items()}
    aug = sk.Augmentation(0, 2, offset=4.5 * W, trigger=sk.Trigger.ON_STATIC)
    config = sk.LeakageConfig.equal_weights(W, noise_sigma=SIGMA)
    above = {}
    for seed in AUG_SEEDS:
        result, _ = sk.cpa_attack(sk.simulate_campaign(KEY, 50_000, config, seed, aug), 0)
        above[seed] = (result.disclosure, sk.rank_of_guess(result, CORRECT_BYTE0))
    detail = f"4w disclosure per seed {below}; 4.5w (disclosure, correct rank) per seed {above}"
    assert all(d is not None for d in below.values()), detail
    assert all(d is None and rank > 1 for d, rank in above.values()), detail
