"""AES-128 reference cipher exposing the last-round intermediates.

Blocks are flat arrays of 16 bytes in FIPS-197 wire order: byte ``i``
sits at row ``i % 4``, column ``i // 4`` of the state matrix.  The batch
cipher the simulator runs returns the state register's value just before
the final-round overwrite with the ciphertext; the module also exposes the
ShiftRows byte permutation and the Hamming-distance hypotheses of CPA.
"""

import numbers

import numpy as np

SBOX = np.array([
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
], dtype=np.uint8)

INV_SBOX = np.empty_like(SBOX)
INV_SBOX[SBOX] = np.arange(256)

RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36)

# ShiftRows as a byte-position permutation of the flat state:
# SR_FORWARD[p] is where the byte at position p lands, SR_INVERSE[q] is
# where the byte now at position q came from.
SR_FORWARD = np.array([0, 13, 10, 7, 4, 1, 14, 11, 8, 5, 2, 15, 12, 9, 6, 3])
SR_INVERSE = np.empty_like(SR_FORWARD)
SR_INVERSE[SR_FORWARD] = np.arange(16)

# PRIOR[c, g] is the state byte before the final round under key guess g,
# given ciphertext byte c at the post-ShiftRows position.
PRIOR = INV_SBOX[np.bitwise_xor.outer(np.arange(256), np.arange(256))]


def as_block(value) -> np.ndarray:
    """Coerce bytes / hex string / 16-int sequence to a (16,) uint8 array,
    by the rule of :func:`_as_bytes`."""
    if isinstance(value, str):
        value = bytes.fromhex(value)
    block = np.asarray(bytearray(value) if isinstance(value, (bytes, bytearray)) else value)
    if block.shape != (16,):
        raise ValueError(f"block must have exactly 16 bytes, got shape {block.shape}")
    return _as_bytes(block, "block")


def _as_bytes(values, name) -> np.ndarray:
    """``values`` as uint8: a uint8 array itself, an empty one whatever its dtype,
    else integers in 0..255, never wrapped, or a ValueError naming the first bad row."""
    arr = np.asarray(values)
    if arr.dtype == np.uint8 or arr.size == 0:
        return arr.astype(np.uint8, copy=False)
    rows = arr.reshape(-1, arr.shape[-1] if arr.ndim else 1)
    ok = ((rows >= 0) & (rows <= 255)).all(axis=1) if arr.dtype.kind in "iu" else [False]
    if not np.all(ok):
        row = int(np.argmin(ok))
        raise ValueError(f"{name} must hold integers in 0..255, row {row} is {rows[row].tolist()}")
    return arr.astype(np.uint8)


def block_hex(block) -> str:
    """Lowercase hex string of a 16-byte block."""
    return bytes(as_block(block)).hex()


def _schedule_temp(words, i):
    """FIPS-197 ``temp`` for schedule word ``i``: w[i] = w[i - 4] ^ temp."""
    temp = words[i - 1]
    if i % 4 == 0:
        temp = SBOX[np.roll(temp, -1)]
        temp[0] ^= RCON[i // 4 - 1]
    return temp


def expand_key(key) -> np.ndarray:
    """FIPS-197 key expansion.

    Returns an (11, 16) uint8 array of round keys; row 0 is the cipher
    key itself and row 10 is the key mixed into the final round.
    """
    words = list(as_block(key).reshape(4, 4))
    for i in range(4, 44):
        words.append(words[i - 4] ^ _schedule_temp(words, i))
    return np.concatenate(words).reshape(11, 16)


def last_round_key(key) -> np.ndarray:
    """Round-10 key, the value recovered by the last-round attack."""
    return expand_key(key)[10]


def invert_key_schedule(round10_key) -> np.ndarray:
    """Recover the cipher key from the round-10 key by running the
    expansion backwards."""
    words = [None] * 44
    words[40:44] = list(as_block(round10_key).reshape(4, 4))
    for i in range(43, 3, -1):
        words[i - 4] = words[i] ^ _schedule_temp(words, i)
    return np.concatenate(words[0:4])


def _mix_columns(planes):
    """MixColumns on (16, n) byte planes: s[i] ^ t ^ xtime(s[i] ^ s[i+1 mod 4]), t = XOR of s."""
    cols = planes.reshape(4, 4, -1)   # (column, row in the column, block)
    t = np.bitwise_xor.reduce(cols, axis=1, keepdims=True)
    a = cols ^ cols[:, [1, 2, 3, 0]]   # xtime(a): a doubled modulo x^8 + x^4 + x^3 + x + 1
    return (cols ^ t ^ (a << 1) ^ ((a >> 7) * 0x1B)).reshape(16, -1)


def _encrypt_states(round_keys, states):
    """Run the cipher on an (n, 16) batch; returns (round-9 output, ciphertext),
    both C-contiguous (n, 16).  The rounds work on (16, n) byte planes: row p
    holds byte p of every block, so each step is a whole-row operation."""
    keys = round_keys[:, :, None]   # (11, 16, 1) round-key columns
    s = np.bitwise_xor(states.T, keys[0], order="C")
    for r in range(1, 10):
        s = _mix_columns(SBOX.take(s[SR_INVERSE])) ^ keys[r]
    return s.T.copy(), (SBOX.take(s[SR_INVERSE]) ^ keys[10]).T.copy()


def _as_batch(blocks):
    arr = _as_bytes(blocks, "blocks")
    if arr.ndim != 2 or arr.shape[1] != 16:
        raise ValueError(f"expected an (n, 16) byte array, got shape {arr.shape}")
    return arr


def _check_index(name, value, stop):
    """The one index rule: a ValueError naming ``name`` unless ``value`` is an integer
    in 0..stop-1.  numpy integers pass; a bool (numpy reads it as a mask) or a fraction does not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or not 0 <= value < stop:
        raise ValueError(f"{name} must be an integer in 0..{stop - 1}, got {value}")


def hypothesis_matrix(ciphertexts, byte_index, guesses=None) -> np.ndarray:
    """Model values for all 256 key guesses at once.

    Returns an (n_traces, 256) uint8 array where column ``k`` holds the
    Hamming distance of the final-round overwrite of state byte ``j =
    byte_index`` under guess ``k`` for the round-10 key byte at position
    ``SR_FORWARD[j]``: from ``INV_SBOX[ct[SR_FORWARD[j]] ^ k]`` to ``ct[j]``.
    Given a sequence of ``guesses``, only their columns, in that order.
    ``byte_index`` and each guess follow :func:`_check_index`: a bool or a
    fraction is a ValueError naming ``byte_index`` or ``key_guess``.
    """
    _check_index("byte_index", byte_index, 16)
    for guess in guesses if guesses is not None else ():
        _check_index("key_guess", guess, 256)
    cts = _as_batch(ciphertexts)
    table = PRIOR if guesses is None else PRIOR.take(guesses, axis=1)
    hyp = table.take(cts[:, SR_FORWARD[byte_index]], axis=0)
    hyp ^= cts[:, byte_index, None]
    return np.bitwise_count(hyp, out=hyp)


def correct_last_round_guess(key, byte_index) -> int:
    """The guess value that is correct when attacking ``byte_index``:
    the round-10 key byte at the post-ShiftRows position."""
    _check_index("byte_index", byte_index, 16)
    return int(last_round_key(key)[SR_FORWARD[byte_index]])
