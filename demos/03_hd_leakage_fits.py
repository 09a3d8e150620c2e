"""Leakage-vs-HD class means: how the offset flips the story.

For the correct key guess and its strongest rival, prints the fitted
class-mean lines on a plain campaign and on an offset-augmented one.
On the augmented campaign the correct key's slope flips sign and the
rival fits the leakage better, which is exactly what sends the attack
after the wrong key.  Class means and fits land in CSVs for plotting.
"""

import csv
import os

import numpy as np

import scakit as sk

key = "2041e2770445067328090a7f0c0d0e7b"
correct = sk.correct_last_round_guess(key, 0)
out_dir = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(out_dir, exist_ok=True)


def campaign(offset):
    aug = sk.Augmentation(0, 2, offset) if offset else None
    config = sk.LeakageConfig.equal_weights(1.0, noise_sigma=4.0)
    return sk.simulate_campaign(key, 30_000, config, seed=1, augmentation=aug)


plain = campaign(0.0)
augmented = campaign(12.0)  # well above the slope-flip threshold of 8x

horses = sk.wrong_horse_scan(augmented, 0, correct)
rival = horses[0] if horses else (correct + 1) % 256
print(f"correct guess {correct}; strongest rival on the augmented set: {rival}")
print(f"wrong-horse guesses (fit |r| above the correct key's): {horses}\n")

rows = []
print(f"{'campaign':>9} {'guess':>5} {'slope':>9} {'intercept':>10} {'r':>8}")
for label, traces in (("plain", plain), ("augmented", augmented)):
    for guess in (correct, rival):
        summary = sk.group_by_hd(traces, guess, 0)
        fit = sk.fit_hd_line(summary)
        print(f"{label:>9} {guess:>5} {fit.slope:>9.4f} {fit.intercept:>10.4f} {fit.r:>8.4f}")
        for hd in np.nonzero(summary.present)[0]:
            rows.append([label, guess, int(hd),
                         f"{summary.means[hd]:.8g}", int(summary.counts[hd])])

flip = sk.sign_flip_report(sk.fit_hd_line(sk.group_by_hd(plain, correct, 0)),
                           sk.fit_hd_line(sk.group_by_hd(augmented, correct, 0)))
print(f"\ncorrect-key slope flipped: {flip.flipped} "
      f"({flip.baseline_slope:+.4f} -> {flip.augmented_slope:+.4f})")

path = os.path.join(out_dir, "hd_class_means.csv")
with open(path, "w", newline="") as fh:
    writer = csv.writer(fh)
    writer.writerow(["campaign", "guess", "hd", "mean", "count"])
    writer.writerows(rows)
print("class means ->", path)
