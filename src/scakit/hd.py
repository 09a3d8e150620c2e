"""Leakage-versus-Hamming-distance analysis.

Groups traces into the nine HD classes a key-byte hypothesis predicts,
fits a line through the class means, and reports slope, intercept and
Pearson r of the fit.  Comparing fits across guesses and between plain
and offset-augmented campaigns shows the countermeasure at work: the
correct key's slope flips sign and incorrect guesses start to fit the
leakage better than the correct one.

The wrong-horse scan fits all 256 guesses without 256 passes over the
traces.  A guess's HD class depends only on the ciphertext pair
(c1, c2) = (``ct[SR_FORWARD[j]]``, ``ct[j]``), so the traces are summed
once per distinct pair and each guess's class sums are built from those
u pair sums (u <= 256 for byte 0, where c1 == c2).  A vectorised line
fit then screens every guess's |r|.  The screen adds the same values in
another order, so its |r| may differ from :func:`fit_hd_line`'s in the
last bits: a rounding bound, which grows as a guess's class means
spread less, says by how much at most.  A guess is decided by the
screen only when its |r| clears the correct guess's exact |r| by a
relative margin of 1e-9 plus that bound; every other guess is re-scored
exactly with its own per-trace grouping and :func:`fit_hd_line`.  The
list therefore equals the one the scalar definition gives, also on
degenerate samples (constant, or noise far below the baseline), where
every guess is re-scored.
"""

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import aes
from .cpa import CHECKPOINT_STRIDE, cpa_attack_sets, pearson
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


def _sample(traces: TraceSet, sample_index):
    """The chosen sample column as float64."""
    if not 0 <= sample_index < traces.samples_per_trace:
        raise ValueError(f"sample_index {sample_index} outside 0..{traces.samples_per_trace - 1}")
    return traces.samples[:, sample_index].astype(np.float64)


def _class_summary(classes, y, key_guess) -> HdClassSummary:
    """Count and mean of ``y`` per HD class, ``classes`` holding each trace's class."""
    counts = np.bincount(classes, minlength=9)
    with np.errstate(invalid="ignore"):
        means = np.bincount(classes, weights=y, minlength=9) / counts   # 0/0 -> NaN
    return HdClassSummary(counts=counts, means=means, key_guess=int(key_guess))


def group_by_hd(traces: TraceSet, key_guess, byte_index, sample_index=0) -> HdClassSummary:
    """Assign every trace to the HD class its model value predicts and
    summarize the chosen sample per class."""
    y = _sample(traces, sample_index)
    classes = aes.hypothesis_matrix(traces.ciphertexts, byte_index, [key_guess])[:, 0]
    return _class_summary(classes, y, key_guess)


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
    slope = math.fsum(hc * mc) / math.fsum(hc * hc)   # as pearson, no BLAS dot products
    intercept = float(m.mean() - slope * h.mean())
    return HdFit(slope=slope, intercept=intercept, r=pearson(h, m),
                 n_classes_used=int(mask.sum()))


def wrong_horse_scan(traces: TraceSet, byte_index, correct_guess, sample_index=0):
    """Exhaustively fit all 256 guesses and return the incorrect ones
    whose fit |r| beats the correct guess's, in ascending guess order.

    An empty list means no incorrect guess outranks the correct key
    under this metric.  Guesses whose traces fall into fewer than two
    HD classes cannot be fitted and never qualify.
    """
    aes._check_guess(correct_guess)
    y = _sample(traces, sample_index)
    return _wrong_horses(_pair_classes(traces.ciphertexts, byte_index), y, correct_guess)


def attack_offset_grid(trace_sets, byte_index, *, checkpoint_stride=CHECKPOINT_STRIDE,
                       sample_index=0):
    """Yield ``(AttackResult, wrong_horses)`` per trace set, as
    :func:`~scakit.cpa.cpa_attack` and :func:`wrong_horse_scan` against the
    result's ``correct_guess`` give them.  The sets are the points of one
    campaign, which must carry its true key; :func:`~scakit.cpa.cpa_attack_sets`
    attacks them a group at a time and keeps no evolution, and the pair classes
    are built once, from the first.
    """
    taken = deque()   # the sets cpa_attack_sets has taken, first in, first out

    def keyed(traces):   # refused as it is taken, before any work on its group
        if traces.true_key is None:
            raise ValueError("the trace sets of an offset grid must carry their true key")
        taken.append(traces)
        return traces
    pairs = None
    for result, _ in cpa_attack_sets(map(keyed, trace_sets), byte_index, checkpoint_stride,
                                     evolutions=False):
        traces = taken.popleft()
        pairs = pairs or _pair_classes(traces.ciphertexts, byte_index)
        yield result, _wrong_horses(pairs, _sample(traces, sample_index), result.correct_guess)


@dataclass
class _PairClasses:
    """Every guess's HD classes over the distinct ciphertext pairs of a
    trace set; campaigns that share ciphertexts share it."""
    inverse: np.ndarray   # (n,) index of each trace's pair
    table: np.ndarray     # (256, u) uint8 HD class of each pair under each guess
    counts: np.ndarray    # (256, 9) float64 traces per guess and class


def _pair_classes(ciphertexts, byte_index) -> _PairClasses:
    """Find the distinct pairs and classify them with the hypothesis matrix,
    transposed so that each guess's classes are one contiguous row."""
    aes._check_byte_index(byte_index)
    prior, new = ciphertexts[:, aes.SR_FORWARD[byte_index]], ciphertexts[:, byte_index]
    _, first, inverse = np.unique(prior.astype(np.intp) << 8 | new,
                                  return_index=True, return_inverse=True)
    table = np.ascontiguousarray(aes.hypothesis_matrix(ciphertexts[first], byte_index).T)
    counts = _class_sums(table, np.bincount(inverse).astype(np.float64))
    return _PairClasses(inverse, table, counts)


# Elements of the (guesses, u) index that one step of _class_sums builds.
_STEP_ELEMENTS = 1 << 15
# The k-th guess of a step bins into 9k .. 9k + 8; uint16 holds all 256.
_BIN_OFFSETS = (9 * np.arange(256, dtype=np.uint16))[:, None]


def _class_sums(table, pair_weights):
    """(256, 9) sums of the (u,) ``pair_weights`` per guess and HD class,
    taken a few guesses at a time so no (256, u) index is built."""
    step = max(1, _STEP_ELEMENTS // max(table.shape[1], 1))
    sums = np.empty((256, 9))
    for lo in range(0, 256, step):
        hi = min(lo + step, 256)
        index = table[lo:hi] + _BIN_OFFSETS[:hi - lo]
        sums[lo:hi] = np.bincount(index.ravel(), np.tile(pair_weights, hi - lo),
                                  minlength=9 * (hi - lo)).reshape(hi - lo, 9)
    return sums


def _exact_abs_r(pairs, y, guess):
    """|r| of :func:`fit_hd_line` for one guess, from its per-trace classes."""
    classes = pairs.table[guess][pairs.inverse]
    return abs(fit_hd_line(_class_summary(classes, y, guess)).r)


def _screen(pairs, y):
    """Every guess's fit |r| from class sums over the pairs, and a bound on
    its distance from the |r| :func:`fit_hd_line` gives (inf where the
    class means spread too little for the screen to be trusted)."""
    present = pairs.counts > 0
    k = present.sum(axis=1, keepdims=True)
    sums = _class_sums(pairs.table, np.bincount(pairs.inverse, y, pairs.table.shape[1]))
    with np.errstate(invalid="ignore", divide="ignore"):   # unfittable guesses give NaN, then 0
        means = np.where(present, sums / pairs.counts, 0.0)
        hc = np.where(present, np.arange(9.0) - (present @ np.arange(9.0))[:, None] / k, 0.0)
        mc = np.where(present, means - means.sum(axis=1, keepdims=True) / k, 0.0)
        spread = np.sqrt((mc * mc).sum(axis=1))
        abs_r = np.abs((hc * mc).sum(axis=1)) / (np.sqrt((hc * hc).sum(axis=1)) * spread)
    # Both paths add the same n values in different orders, so each one's
    # class means lie within n*u*max|y| of the true ones (u = eps/2), and
    # centring adds a few u*max|y|.  The two paths' centred means thus
    # differ by at most `drift` per class (with a factor 2 to spare), and
    # moving 9 entries by that turns the fit's direction, so r, by at
    # most 2 * 3 * drift / spread.
    drift = (4 * len(y) + 32) * np.finfo(np.float64).eps * np.abs(y).max(initial=0.0)
    trusted = spread > 6 * drift
    error = np.full(256, np.inf)
    error[trusted] = 6 * drift / spread[trusted] + 1e-13
    return np.nan_to_num(abs_r), error


def _wrong_horses(pairs, y, correct_guess):
    """:func:`wrong_horse_scan` of the float64 sample column ``y``, given
    the :func:`_pair_classes` of the traces' ciphertexts."""
    fittable = np.count_nonzero(pairs.counts, axis=1) >= 2
    abs_r, error = _screen(pairs, y)
    correct_r = _exact_abs_r(pairs, y, correct_guess) if fittable[correct_guess] else 0.0
    recheck = fittable & (np.abs(abs_r - correct_r) <= 1e-9 * correct_r + error)
    recheck[correct_guess] = False
    for guess in np.flatnonzero(recheck):
        abs_r[guess] = _exact_abs_r(pairs, y, guess)
    return [g for g in range(256) if g != correct_guess and abs_r[g] > correct_r]
