import re

import numpy as np
import pytest

from scakit import aes, hd
from scakit.cpa import AttackResult, rank_of_guess
from scakit.hd import attack_offset_grid, group_by_hd, wrong_horse_scan
from scakit.leakage import Augmentation, LeakageConfig
from scakit.traces import TraceSet

from helpers import HW, encrypt, hypothetical_power, last_round_transitions

FIPS_KEY = "000102030405060708090a0b0c0d0e0f"
FIPS_PT = "00112233445566778899aabbccddeeff"
FIPS_CT = "69c4e0d86a7b0430d8cdb78070b4c55a"
FIPS_ROUND10_KEY = "13111d7fe3944a17f307a78b4d2b30c5"


def encrypt_one(key, plaintext):
    """One block through the batch cipher: a one-row batch, row 0."""
    return encrypt(key, aes.as_block(plaintext)[None])[1][0]


def last_round_states_one(key, plaintext):
    round9, ct = encrypt(key, aes.as_block(plaintext)[None])
    return round9[0], ct[0]


def test_encrypt_known_vector():
    ct = encrypt_one(FIPS_KEY, FIPS_PT)
    assert aes.block_hex(ct) == FIPS_CT


def test_encrypt_deterministic():
    a = encrypt_one(FIPS_KEY, FIPS_PT)
    b = encrypt_one(FIPS_KEY, FIPS_PT)
    assert np.array_equal(a, b)


def test_encrypt_batch_matches_scalar():
    rng = np.random.default_rng(1)
    key = rng.integers(0, 256, 16, dtype=np.uint8)
    pts = rng.integers(0, 256, (4097, 16), dtype=np.uint8)
    full = encrypt(key, pts)
    for i in [*range(0, 4097, 256), 4094, 4095, 4096]:
        assert np.array_equal(full[1][i], encrypt_one(key, pts[i]))
    for n in (1, 4095, 4096, 4097):   # one campaign chunk is 4096 blocks
        batch = encrypt(key, pts[:n])
        for out, whole in zip(batch, full):
            assert out.shape == (n, 16) and out.dtype == np.uint8 and out.flags.c_contiguous
            assert np.array_equal(out, whole[:n])
    with pytest.raises(ValueError, match=r"\(n, 16\) byte array"):
        encrypt(key, pts[:, :15])


def test_key_schedule_round10():
    schedule = aes.expand_key(FIPS_KEY)
    assert schedule.shape == (11, 16)
    assert aes.block_hex(schedule[10]) == FIPS_ROUND10_KEY
    assert aes.block_hex(aes.last_round_key(FIPS_KEY)) == FIPS_ROUND10_KEY


def test_key_schedule_round0_is_cipher_key():
    rng = np.random.default_rng(2)
    for _ in range(10):
        key = rng.integers(0, 256, 16, dtype=np.uint8)
        assert np.array_equal(aes.expand_key(key)[0], key)
    assert np.array_equal(aes.expand_key(np.zeros(16, np.uint8))[0], np.zeros(16))


def test_invert_key_schedule_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(20):
        key = rng.integers(0, 256, 16, dtype=np.uint8)
        assert np.array_equal(aes.invert_key_schedule(aes.last_round_key(key)), key)


def test_sboxes_are_mutual_inverses():
    values = np.arange(256, dtype=np.uint8)
    assert np.array_equal(aes.INV_SBOX[aes.SBOX[values]], values)
    assert np.array_equal(aes.SBOX[aes.INV_SBOX[values]], values)
    assert aes.INV_SBOX[0x63] == 0x00


def test_shift_rows_permutations_are_inverse():
    assert sorted(aes.SR_FORWARD.tolist()) == list(range(16))
    assert sorted(aes.SR_INVERSE.tolist()) == list(range(16))
    for p in range(16):
        assert aes.SR_INVERSE[aes.SR_FORWARD[p]] == p


def test_last_round_states_consistency():
    rng = np.random.default_rng(4)
    for _ in range(20):
        key = rng.integers(0, 256, 16, dtype=np.uint8)
        pt = rng.integers(0, 256, 16, dtype=np.uint8)
        round9, ct = last_round_states_one(key, pt)
        assert np.array_equal(ct, encrypt_one(key, pt))
        # the register toggle mask is the xor of old and new content
        assert np.array_equal(round9 ^ ct, np.bitwise_xor(round9, ct))


def test_transitions_match_true_register_toggles():
    rng = np.random.default_rng(5)
    for _ in range(100):
        key = rng.integers(0, 256, 16, dtype=np.uint8)
        pt = rng.integers(0, 256, 16, dtype=np.uint8)
        round9, ct = last_round_states_one(key, pt)
        k10 = aes.last_round_key(key)
        for j in range(16):
            guess = int(k10[aes.SR_FORWARD[j]])
            assert last_round_transitions(ct, guess, j) == int(round9[j] ^ ct[j])


def test_transitions_all_zero_ciphertext():
    assert last_round_transitions(np.zeros(16, np.uint8), 0x00, 0) == 0x52


def test_transitions_self_cancellation():
    # pick the guess that predicts the prior byte equal to the new one
    ct = np.zeros(16, np.uint8)
    guess = int(aes.SBOX[ct[0]] ^ ct[0])
    assert last_round_transitions(ct, guess, 0) == 0


def test_transitions_argument_errors():
    # the range checks live in hypothesis_matrix, the model the CPA uses
    cts = np.zeros((1, 16), np.uint8)
    with pytest.raises(ValueError):
        aes.hypothesis_matrix(cts, 16, [0])
    with pytest.raises(ValueError):
        aes.hypothesis_matrix(cts, -1, [0])
    with pytest.raises(ValueError):
        aes.hypothesis_matrix(cts, 0, [256])
    # a fractional guess or byte is refused, not truncated to its integer part
    for guess in (51.9, 2.5):
        with pytest.raises(ValueError, match="key_guess"):
            aes.hypothesis_matrix(cts, 0, [guess])
    for byte_index in (3.0, np.float64(3.0)):
        with pytest.raises(ValueError, match="byte_index"):
            aes.hypothesis_matrix(cts, byte_index)
    assert np.array_equal(aes.hypothesis_matrix(cts, np.int64(0), [np.uint8(51)]),
                          aes.hypothesis_matrix(cts, 0, [51]))


_CTS = np.random.default_rng(3).integers(0, 256, (40, 16), dtype=np.uint8)
_TRACES = TraceSet(np.random.default_rng(4).normal(size=(40, 2)), np.zeros_like(_CTS), _CTS,
                   true_key=bytes(16))
_INDEX_ENTRY_POINTS = {   # each entry point that takes an index: (name, stop, call with it)
    "hypothesis_matrix-byte": ("byte_index", 16, lambda v: aes.hypothesis_matrix(_CTS, v)),
    "correct_last_round_guess": ("byte_index", 16,
                                 lambda v: aes.correct_last_round_guess(bytes(16), v)),
    "pair_classes": ("byte_index", 16, lambda v: hd._pair_classes(_CTS, v)),
    "Augmentation-byte": ("byte_index", 16, lambda v: Augmentation(v, 0, 1.0)),
    "hypothesis_matrix-guess": ("key_guess", 256, lambda v: aes.hypothesis_matrix(_CTS, 0, [3, v])),
    "rank_of_guess": ("key_guess", 256, lambda v: rank_of_guess(AttackResult(np.arange(256.0)), v)),
    "wrong_horse_scan-guess": ("key_guess", 256, lambda v: wrong_horse_scan(_TRACES, 0, v)),
    "group_by_hd-guess": ("key_guess", 256, lambda v: group_by_hd(_TRACES, v, 0)),
    "Augmentation-bit": ("bit_index", 8, lambda v: Augmentation(0, v, 1.0)),
    "LeakageConfig": ("poi_index", 3, lambda v: LeakageConfig(samples_per_trace=3, poi_index=v)),
    "group_by_hd-sample": ("sample_index", 2, lambda v: group_by_hd(_TRACES, 0, 0, v)),
    "wrong_horse_scan-sample": ("sample_index", 2, lambda v: wrong_horse_scan(_TRACES, 0, 0, v)),
    "attack_offset_grid": ("sample_index", 2,
                           lambda v: next(attack_offset_grid([_TRACES], 0, sample_index=v))),
}


@pytest.mark.parametrize("entry", _INDEX_ENTRY_POINTS)
def test_every_index_follows_the_one_rule(entry):
    # aes._check_index: a bool (an index of 1 that numpy reads as a mask), a
    # fraction, even a whole one, and a value out of range are each refused with
    # one ValueError naming the parameter; numpy integers are integers
    name, stop, call = _INDEX_ENTRY_POINTS[entry]
    for bad in (True, 2.5, 2.0, -1, stop):
        with pytest.raises(ValueError, match=rf"^{name} must be an integer in 0\.\.{stop - 1}, "
                                             rf"got {re.escape(str(bad))}$"):
            call(bad)
    call(np.int64(stop - 1))
    call(np.uint8(1))


def test_hypothetical_power_composition():
    assert hypothetical_power(np.zeros(16, np.uint8), 0x00, 0) == 3  # popcount(0x52)


def test_hypothetical_power_bounds_exhaustive():
    # byte 0 reads a single ciphertext byte, so 256 x 256 covers all cases
    cts = np.zeros((256, 16), np.uint8)
    cts[:, 0] = np.arange(256)
    hyp = aes.hypothesis_matrix(cts, 0)
    assert hyp.min() >= 0 and hyp.max() <= 8


def test_hypothesis_matrix_matches_scalar():
    rng = np.random.default_rng(6)
    cts = rng.integers(0, 256, (5, 16), dtype=np.uint8)
    before = cts.copy()
    for j in range(16):
        hyp = aes.hypothesis_matrix(cts, j)
        assert hyp.dtype == np.uint8 and hyp.shape == (5, 256) and hyp.flags.c_contiguous
        expected = [[hypothetical_power(ct, guess, j) for guess in range(256)] for ct in cts]
        assert np.array_equal(hyp, expected)
        assert np.array_equal(aes.hypothesis_matrix(cts, j, [200, 3, 17]), hyp[:, [200, 3, 17]])
    assert np.array_equal(cts, before)
    for j in (-1, 16):
        with pytest.raises(ValueError):
            aes.hypothesis_matrix(cts, j)
    for guess in (-1, 256):   # not numpy's wrap-around or an IndexError
        with pytest.raises(ValueError, match="key_guess"):
            aes.hypothesis_matrix(cts, 0, [3, guess])


def test_hypothesis_matrix_exhaustive_oracle():
    # byte 1 reads two distinct ct bytes; enumerate every (c1, c2) pair
    c1, c2 = np.indices((256, 256), dtype=np.uint8).reshape(2, -1, 1)
    cts = np.zeros((256 * 256, 16), np.uint8)
    cts[:, aes.SR_FORWARD[1]] = c1[:, 0]
    cts[:, 1] = c2[:, 0]
    guesses = np.arange(256, dtype=np.uint8)
    expected = HW[aes.INV_SBOX[c1 ^ guesses] ^ c2]
    assert np.array_equal(aes.hypothesis_matrix(cts, 1), expected)


def gf_mul(a, b):
    """Product of a and b in GF(2^8) modulo x^8 + x^4 + x^3 + x + 1."""
    product = 0
    for i in range(8):
        if b >> i & 1:
            product ^= a << i
    for bit in range(14, 7, -1):
        if product >> bit & 1:
            product ^= 0x11B << (bit - 8)
    return product


def test_xtime_table_doubles_in_gf256():
    # FIPS-197 section 4.2.1: {57} doubled repeatedly
    assert [gf_mul(v, 2) for v in (0x57, 0xAE, 0x47, 0x8E)] == [0xAE, 0x47, 0x8E, 0x07]
    # MixColumns takes the column (v, 0, 0, 0) to (2v, v, v, 3v), so its doubling
    # shows in rows 0 and 3 of the first column, for every byte v
    planes = np.zeros((16, 256), np.uint8)
    planes[0] = np.arange(256)
    mixed = aes._mix_columns(planes)
    assert mixed.dtype == np.uint8
    assert mixed[:4].tolist() == [[gf_mul(v, m) for v in range(256)] for m in (2, 1, 1, 3)]
    assert not mixed[4:].any()


def test_hypothetical_power_mean_near_four():
    # byte 0: model depends on a single ct byte; enumerate it exhaustively
    cts = np.zeros((256, 16), np.uint8)
    cts[:, 0] = np.arange(256)
    means = aes.hypothesis_matrix(cts, 0).mean(axis=0)
    assert np.all(np.abs(means - 4.0) < 0.25)
    # byte 1 reads two distinct ct bytes; enumerate the pair for a few guesses
    pair = np.zeros((256 * 256, 16), np.uint8)
    grid = np.indices((256, 256)).reshape(2, -1)
    pair[:, aes.SR_FORWARD[1]] = grid[0]
    pair[:, 1] = grid[1]
    means = aes.hypothesis_matrix(pair, 1)[:, [0, 51, 200]].mean(axis=0)
    assert np.allclose(means, 4.0, atol=1e-12)


def test_correct_last_round_guess():
    key = aes.as_block(FIPS_KEY)
    k10 = aes.last_round_key(key)
    for j in range(16):
        assert aes.correct_last_round_guess(key, j) == int(k10[aes.SR_FORWARD[j]])


def test_as_block_validation():
    with pytest.raises(ValueError):
        aes.as_block(b"\x00" * 15)
    with pytest.raises(ValueError):
        aes.as_block("00" * 17)
    assert np.array_equal(aes.as_block("00" * 16), np.zeros(16, np.uint8))
    assert aes.block_hex(aes.as_block(FIPS_KEY.upper())) == FIPS_KEY


@pytest.mark.parametrize("bad", [[256] * 16, [-1] * 16, [1.5] * 16, [1.0] * 16, [True] * 16,
                                 ["1"] * 16, np.full(16, 300, np.uint16)],
                         ids=["256", "-1", "1.5", "float-1.0", "bool", "str", "uint16-300"])
def test_as_block_rejects_values_that_are_not_bytes(bad):
    # never an OverflowError, and never a silently wrapped or truncated key
    with pytest.raises(ValueError, match="integers in 0..255"):
        aes.as_block(bad)


def test_as_block_accepts_integer_bytes():
    assert aes.block_hex(list(range(240, 256))) == bytes(range(240, 256)).hex()
    assert aes.block_hex(np.arange(16, dtype=np.int64)) == bytes(range(16)).hex()
    block = np.arange(16, dtype=np.uint8)
    assert aes.as_block(block) is block   # already uint8: no copy


BYTE_ENTRY_POINTS = {
    "as_block": lambda blocks: aes.as_block(blocks[1]),
    "TraceSet": lambda blocks: TraceSet(np.zeros((len(blocks), 1)), blocks, blocks),
    "hypothesis_matrix": lambda blocks: aes.hypothesis_matrix(blocks, 0),
}


@pytest.mark.parametrize("bad,row", [(300, 1), (-1, 1), (1.5, 0)], ids=["300", "-1", "1.5"])
@pytest.mark.parametrize("entry", BYTE_ENTRY_POINTS)
def test_byte_entry_points_reject_values_that_are_not_bytes(entry, bad, row):
    # never an OverflowError or a wrapped byte; a float array is not bytes
    # from its first row on, so that row is the one named
    blocks = [[0] * 16, [7] * 15 + [bad], [bad] * 16]
    if entry == "as_block":
        row = 0
    with pytest.raises(ValueError, match=rf"integers in 0\.\.255, row {row} is \[[^]]*\]$"):
        BYTE_ENTRY_POINTS[entry](blocks)


def test_uint8_bytes_are_held_without_a_copy():
    # the sweep's campaigns share one read-only set of plaintexts and ciphertexts
    blocks = np.arange(48, dtype=np.uint8).reshape(3, 16)
    blocks.flags.writeable = False
    ts = TraceSet(np.zeros((3, 1)), blocks, blocks[::-1])
    for held, given in ((ts.plaintexts, blocks), (ts.ciphertexts, blocks[::-1])):
        assert np.shares_memory(held, given) and not held.flags.writeable
    assert aes._as_batch(blocks) is blocks
