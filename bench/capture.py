"""Synthetic external capture for the ``capture-s500`` workload.

The capture stands in for what a scope and a target board would export:
a header-less little-endian float32 matrix, one row per encryption, and a
metadata CSV with the plaintext and ciphertext of every row.  It is made
here, from the benchmark's seed, with an AES-128 written from FIPS-197 and
independent of ``scakit``, so the program under test receives only these
files and the known last-round key byte is an independent oracle for its
answer.

Leakage follows the same toggle model the paper uses: at one point of
interest every state-register bit that flips in the final-round overwrite
subtracts the per-bit weight, and every sample carries Gaussian noise.
"""

import csv

import numpy as np


def _xtime(a):
    return (a << 1) ^ (0x11B if a & 0x80 else 0)


def _sbox():
    # FIPS-197 5.1.1: multiplicative inverse in GF(2^8), then the affine map.
    exp, log = [0] * 255, [0] * 256
    x = 1
    for i in range(255):
        exp[i], log[x] = x, i
        x ^= _xtime(x)  # multiply by the generator 3
    box = np.zeros(256, dtype=np.uint8)
    for v in range(256):
        inv = exp[-log[v] % 255] if v else 0
        rot = inv | (inv << 8)
        box[v] = (inv ^ (rot >> 4) ^ (rot >> 5) ^ (rot >> 6) ^ (rot >> 7) ^ 0x63) & 0xFF
    return box


SBOX = _sbox()
XTIME = np.array([_xtime(v) for v in range(256)], dtype=np.uint8)
# Flat state position p holds row p % 4 of column p // 4; ShiftRows moves
# row r left by r, so new[p] = old[SHIFT_ROWS[p]].
SHIFT_ROWS = np.array([r + 4 * ((c + r) % 4) for c in range(4) for r in range(4)])


def expand_key(key):
    """(11, 16) uint8 round keys of a 16-byte AES-128 key."""
    words = [np.frombuffer(bytes(key), dtype=np.uint8)[4 * i:4 * i + 4] for i in range(4)]
    rcon = 1
    for i in range(4, 44):
        temp = words[i - 1]
        if i % 4 == 0:
            temp = SBOX[np.roll(temp, -1)]
            temp = temp ^ np.array([rcon, 0, 0, 0], dtype=np.uint8)
            rcon = _xtime(rcon)
        words.append(words[i - 4] ^ temp)
    return np.concatenate(words).reshape(11, 16)


def _mix_columns(s):
    out = np.empty_like(s)
    for c in range(0, 16, 4):
        a = [s[:, c + i] for i in range(4)]
        for i in range(4):
            # 2*a_i ^ 3*a_{i+1} ^ a_{i+2} ^ a_{i+3}
            b0, b1 = a[i], a[(i + 1) % 4]
            out[:, c + i] = XTIME[b0 ^ b1] ^ b1 ^ a[(i + 2) % 4] ^ a[(i + 3) % 4]
    return out


def encrypt(key, plaintexts):
    """AES-128 over an (n, 16) uint8 batch.

    Returns ``(round9, ciphertexts)``: the state register before the
    final-round overwrite, and the ciphertext that overwrites it.
    """
    round_keys = expand_key(key)
    s = plaintexts ^ round_keys[0]
    for r in range(1, 10):
        s = _mix_columns(SBOX[s][:, SHIFT_ROWS]) ^ round_keys[r]
    return s, SBOX[s][:, SHIFT_ROWS] ^ round_keys[10]


def write_capture(samples_path, meta_path, key, n, samples_per_trace, poi, sigma, seed):
    """Write an n x samples_per_trace capture under ``key`` (unit per-bit weight)."""
    rng = np.random.default_rng(seed)
    plaintexts = rng.integers(0, 256, size=(n, 16), dtype=np.uint8)
    round9, ciphertexts = encrypt(key, plaintexts)
    toggles = np.unpackbits(round9 ^ ciphertexts, axis=1).sum(axis=1)
    samples = rng.normal(0.0, sigma, size=(n, samples_per_trace))
    samples[:, poi] -= toggles
    samples.astype("<f4").tofile(samples_path)
    with open(meta_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["plaintext_hex", "ciphertext_hex"])
        for pt, ct in zip(plaintexts, ciphertexts):
            writer.writerow([pt.tobytes().hex(), ct.tobytes().hex()])
