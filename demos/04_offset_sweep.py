"""How large does the offset have to be?

Sweeps the augmentation offset on a fixed-seed campaign and tabulates
traces-to-disclosure and the wrong-horse count per offset.
``simulate_offset_grid`` simulates the campaign once and re-derives only
the augmented sample for each offset; ``attack_offset_grid`` attacks and
scans every campaign against the correct key the campaign carries,
building what depends only on the shared ciphertexts once.  Shows the effectiveness window: too small and the
attack still wins, large enough and the correct key drops out of
contention.  Also maps a ring-oscillator bank size to its offset via the
linear bank model.
"""

import scakit as sk

key = "2041e2770445067328090a7f0c0d0e7b"
w = 1.0

print("offset sweep on 10000 traces, sigma = 4x bit weight, bit 2 of byte 0\n")
print(f"{'offset':>7} {'disclosure':>11} {'correct rank':>13} {'wrong horses':>13}")
mults = (0, 1, 2, 3, 4, 4.5, 5, 6, 8)
config = sk.LeakageConfig.equal_weights(w, noise_sigma=4.0)
grid = sk.simulate_offset_grid(key, 10_000, config, 1,
                               [sk.Augmentation(0, 2, offset=mult * w) for mult in mults])
for mult, (result, horses) in zip(mults, sk.attack_offset_grid(grid, 0)):
    print(f"{mult:>6}w {str(result.disclosure):>11} {result.correct_rank:>13} {len(horses):>13}")

print("\nring-oscillator bank sizes for a given offset (alpha = w/17.5, full pulse):")
for n_ro in (0, 35, 70, 105):
    offset = sk.ro_offset_model(n_ro, 1.0, w / 17.5)
    print(f"  {n_ro:>3} oscillators -> offset {offset:.2f}w")
