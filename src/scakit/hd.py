"""Leakage-versus-Hamming-distance analysis.

Groups traces into the nine HD classes a key-byte hypothesis predicts,
fits a line through the class means, and reports slope, intercept and
Pearson r of the fit.  Comparing fits across guesses and between plain
and offset-augmented campaigns shows the countermeasure at work: the
correct key's slope flips sign and incorrect guesses start to fit the
leakage better than the correct one.
"""

from dataclasses import dataclass

import numpy as np

from . import aes
from .cpa import pearson
from .traces import TraceSet


@dataclass
class HdClassSummary:
    """Per-HD-class statistics of one sample under one key guess."""
    counts: np.ndarray   # (9,) traces per class
    means: np.ndarray    # (9,) mean leakage, NaN where the class is empty
    key_guess: int

    @property
    def present(self) -> np.ndarray:
        return self.counts > 0


@dataclass
class HdFit:
    slope: float
    intercept: float
    r: float
    n_classes_used: int


@dataclass
class SignFlipReport:
    flipped: bool
    baseline_slope: float
    augmented_slope: float
    slope_change: float


def _hypotheses_and_sample(traces: TraceSet, byte_index, sample_index):
    """The (n, 256) HD hypotheses and the chosen sample column as float64."""
    if not 0 <= sample_index < traces.samples_per_trace:
        raise ValueError(f"sample_index {sample_index} outside 0..{traces.samples_per_trace - 1}")
    return (aes.hypothesis_matrix(traces.ciphertexts, byte_index),
            traces.samples[:, sample_index].astype(np.float64))


def _class_summary(classes, counts, y, key_guess) -> HdClassSummary:
    """Count and mean of ``y`` per HD class, ``classes`` holding each
    trace's class and ``counts`` its bincount."""
    with np.errstate(invalid="ignore"):
        means = np.bincount(classes, weights=y, minlength=9) / counts   # 0/0 -> NaN
    return HdClassSummary(counts=counts, means=means, key_guess=int(key_guess))


def group_by_hd(traces: TraceSet, key_guess, byte_index, sample_index=0) -> HdClassSummary:
    """Assign every trace to the HD class its model value predicts and
    summarize the chosen sample per class."""
    aes._check_guess(key_guess)
    hyp, y = _hypotheses_and_sample(traces, byte_index, sample_index)
    classes = hyp[:, key_guess]
    return _class_summary(classes, np.bincount(classes, minlength=9), y, key_guess)


def fit_hd_line(summary: HdClassSummary) -> HdFit:
    """Ordinary least squares through the (HD class, class mean) points,
    every populated class weighted equally; empty classes are skipped."""
    mask = summary.present
    if int(mask.sum()) < 2:
        raise ValueError("need at least 2 populated HD classes to fit a line")
    h = np.nonzero(mask)[0].astype(np.float64)
    m = summary.means[mask]
    hc = h - h.mean()
    mc = m - m.mean()
    slope = float((hc @ mc) / (hc @ hc))
    intercept = float(m.mean() - slope * h.mean())
    return HdFit(slope=slope, intercept=intercept, r=pearson(h, m),
                 n_classes_used=int(mask.sum()))


def sign_flip_report(baseline: HdFit, augmented: HdFit) -> SignFlipReport:
    """Did the augmentation flip the sign of the fitted slope?"""
    return SignFlipReport(
        flipped=bool(baseline.slope * augmented.slope < 0),
        baseline_slope=baseline.slope,
        augmented_slope=augmented.slope,
        slope_change=augmented.slope - baseline.slope,
    )


def fit_for_guess(traces: TraceSet, key_guess, byte_index, sample_index=0) -> HdFit:
    """Group and fit in one step."""
    return fit_hd_line(group_by_hd(traces, key_guess, byte_index, sample_index))


def wrong_horse_scan(traces: TraceSet, byte_index, correct_guess, sample_index=0):
    """Exhaustively fit all 256 guesses and return the incorrect ones
    whose fit |r| beats the correct guess's, in ascending guess order.

    An empty list means no incorrect guess outranks the correct key
    under this metric.  Guesses whose traces fall into fewer than two
    HD classes cannot be fitted and never qualify.
    """
    aes._check_guess(correct_guess)
    hyp, y = _hypotheses_and_sample(traces, byte_index, sample_index)
    return _wrong_horses(*_hd_classes(hyp), y, correct_guess)


def _hd_classes(hyp):
    """The (256, n) contiguous transpose of an (n, 256) hypothesis matrix,
    one row of HD classes per guess, and each row's (9,) class counts."""
    classes = np.ascontiguousarray(hyp.T)
    return classes, [np.bincount(row, minlength=9) for row in classes]


def _wrong_horses(classes, counts, y, correct_guess):
    """:func:`wrong_horse_scan` of the float64 sample column ``y``, given
    the traces' HD classes and counts from :func:`_hd_classes`."""
    abs_r = np.zeros(256)
    for guess in range(256):
        if np.count_nonzero(counts[guess]) >= 2:
            summary = _class_summary(classes[guess], counts[guess], y, guess)
            abs_r[guess] = abs(fit_hd_line(summary).r)
    return [g for g in range(256) if g != correct_guess and abs_r[g] > abs_r[correct_guess]]
