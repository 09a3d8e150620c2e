"""Correlation-vs-trace-count curves with and without the countermeasure.

Writes plot-ready CSVs (checkpoint, guess, r): one file for the plain
implementation, where the correct guess separates from the pack after a
few hundred traces, and one for the offset-augmented implementation,
where it never does.
"""

import csv
import os

import scakit as sk

key = "2041e2770445067328090a7f0c0d0e7b"
correct = sk.correct_last_round_guess(key, 0)
stride = 100   # traces between two checkpoints of the curves
out_dir = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(out_dir, exist_ok=True)


def run(label, augmentation):
    config = sk.LeakageConfig.equal_weights(1.0, noise_sigma=4.0)
    traces = sk.simulate_campaign(key, 30_000, config, seed=1, augmentation=augmentation)
    result = sk.cpa_attack(traces, 0, stride)
    path = os.path.join(out_dir, f"curves_{label}.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["checkpoint", "guess", "r"])
        for count, column in zip(sk.checkpoint_schedule(len(traces), stride), result.evolution.T):
            for guess in range(256):
                writer.writerow([count, guess, f"{column[guess]:.8g}"])
    print(f"{label:>9}: best guess {result.best_guess} "
          f"(correct is {correct}, rank {result.correct_rank}), "
          f"disclosure {result.disclosure}, curves -> {path}")
    return result


print(f"attacking byte 0 over 30000 traces, checkpoints every {stride}...")
run("plain", None)
# offset 6x per-bit weight on bit 2 of byte 0, applied when the bit is static
run("augmented", sk.Augmentation(0, 2, offset=6.0, trigger=sk.Trigger.ON_STATIC))
print("\nplot hint: one line per guess, highlight the correct one.")
