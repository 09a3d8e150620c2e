"""Recover a full AES-128 key from simulated power traces.

Simulates a noisy, unprotected implementation, attacks every state byte
with the Hamming-distance CPA, assembles the round-10 key in wire order
and inverts the key schedule back to the cipher key.
"""

import numpy as np

import scakit as sk
from scakit import aes

key = "2041e2770445067328090a7f0c0d0e7b"
config = sk.LeakageConfig.equal_weights(1.0, noise_sigma=4.0)

print("simulating 4000 traces (sigma = 4x bit weight, no countermeasure)...")
traces = sk.simulate_campaign(key, 4000, config, seed=1)

recovered = np.zeros(16, dtype=np.uint8)
print(f"{'byte':>4} {'key pos':>7} {'best':>5} {'|r|':>7} {'disclosed at':>12}")
for j in range(16):
    result = sk.cpa_attack(traces, j)
    pos = int(aes.SR_FORWARD[j])
    recovered[pos] = result.best_guess
    print(f"{j:>4} {pos:>7} {result.best_guess:>5} "
          f"{result.scores[result.best_guess]:>7.4f} {str(result.disclosure):>12}")

true_k10 = sk.last_round_key(key)
print("\nrecovered round-10 key:", sk.block_hex(recovered))
print("true round-10 key:     ", sk.block_hex(true_k10))
print("cipher key (schedule inverted):", sk.block_hex(sk.invert_key_schedule(recovered)))
print("full key recovered:", bool(np.array_equal(recovered, true_k10)))
