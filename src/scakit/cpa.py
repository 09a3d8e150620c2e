"""Correlation power analysis against the last-round overwrite.

The engine streams a trace set once.  For every one of the 256 guesses
of a round-10 key byte it keeps running sums of the model value, the
trace samples, and their products, from which Pearson r per (guess,
sample) falls out at any trace count.  Guesses are ranked by the
largest |r| across samples; the physical sign convention of the traces
therefore has no effect on attack outcomes.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import aes
from .traces import TraceSet


def pearson(xs, ys) -> float:
    """Pearson correlation coefficient of two equal-length sequences.

    Zero variance on either side yields 0.0 by convention: a constant
    hypothesis carries no information, it is not an error.
    """
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"xs and ys must be 1-D and equally long, got {x.shape} vs {y.shape}")
    if len(x) < 2:
        raise ValueError(f"need at least 2 points, got {len(x)}")
    x = x - x.mean()
    y = y - y.mean()
    vx = float(x @ x)
    vy = float(y @ y)
    if vx == 0.0 or vy == 0.0:
        return 0.0
    return float((x @ y) / math.sqrt(vx * vy))


class CorrelationAccumulator:
    """Single-pass sums for Pearson r of every guess against every sample.

    All sums are float64.  Accumulators over disjoint trace ranges can be
    merged; merging is commutative and associative over the sum fields.
    """

    def __init__(self, n_guesses=256, n_samples=1):
        self.n = 0
        self.sum_x = np.zeros(n_guesses)
        self.sum_xx = np.zeros(n_guesses)
        self.sum_y = np.zeros(n_samples)
        self.sum_yy = np.zeros(n_samples)
        self.sum_xy = np.zeros((n_guesses, n_samples))

    def update(self, hypotheses, samples):
        """Fold in a batch: ``hypotheses`` (m, n_guesses) model values,
        ``samples`` (m, n_samples) trace values."""
        x = np.asarray(hypotheses, dtype=np.float64)
        y = np.asarray(samples, dtype=np.float64)
        if x.ndim != 2 or y.ndim != 2 or len(x) != len(y):
            raise ValueError("hypotheses and samples must be 2-D with matching rows")
        if x.shape[1] != len(self.sum_x) or y.shape[1] != len(self.sum_y):
            raise ValueError("batch width does not match accumulator dimensions")
        self.sum_x += x.sum(axis=0)
        self.sum_xx += (x * x).sum(axis=0)
        self._add_samples(x, y)

    def _add_samples(self, x, y, yy=None, xy=None):
        """Fold in the sample side of a float64 batch: its count, the y
        sums and ``x.T @ y``, leaving the x sums to the caller.  ``yy``
        and ``xy``, if given, receive ``y * y`` and ``x.T @ y``."""
        self.n += len(x)
        self.sum_y += y.sum(axis=0)
        self.sum_yy += np.multiply(y, y, out=yy).sum(axis=0)
        self.sum_xy += np.matmul(x.T, y, out=xy)

    def merge(self, other) -> "CorrelationAccumulator":
        """Absorb another accumulator built over disjoint traces."""
        self.n += other.n
        self.sum_x += other.sum_x
        self.sum_xx += other.sum_xx
        self.sum_y += other.sum_y
        self.sum_yy += other.sum_yy
        self.sum_xy += other.sum_xy
        return self

    def correlations(self) -> np.ndarray:
        """Signed Pearson r as an (n_guesses, n_samples) array; pairs with
        zero variance give 0.0."""
        if self.n < 2:
            return np.zeros_like(self.sum_xy)
        return _correlations(np.float64(self.n), self.sum_x, self.sum_xx, self.sum_y,
                             self.sum_yy, self.sum_xy)


def _correlations(n, sum_x, sum_xx, sum_y, sum_yy, sum_xy, out=None, scratch=None):
    """Signed Pearson r from raw sums, batched over leading axes: ``n``
    has the batch shape, ``sum_x``/``sum_xx`` add a guess axis,
    ``sum_y``/``sum_yy`` a sample axis and ``sum_xy`` both.  Every step
    is elementwise, so a batch gives the same bits as one call per item.
    ``out`` and ``scratch``, if given, are ``sum_xy``-shaped buffers."""
    n = n[..., None]
    cov = np.multiply(sum_x[..., :, None], sum_y[..., None, :], out=out)
    np.divide(cov, n[..., None], out=cov)
    np.subtract(sum_xy, cov, out=cov)
    var_x = np.maximum(sum_xx - sum_x ** 2 / n, 0.0)
    var_y = np.maximum(sum_yy - sum_y ** 2 / n, 0.0)
    denom = np.multiply(var_x[..., :, None], var_y[..., None, :], out=scratch)
    np.sqrt(denom, out=denom)
    zero = denom == 0   # zero variance on either side gives r = 0
    cov[zero] = 0.0
    denom[zero] = 1.0
    return np.divide(cov, denom, out=cov)


@dataclass
class CorrelationEvolution:
    """Per-guess correlation at increasing trace counts (the data behind
    correlation-vs-traces convergence plots)."""
    checkpoints: np.ndarray   # (n_checkpoints,) strictly increasing trace counts
    values: np.ndarray        # (n_guesses, n_checkpoints) signed r

    def __post_init__(self):
        self.checkpoints = np.asarray(self.checkpoints, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if len(self.checkpoints) == 0:
            raise ValueError("evolution needs at least one checkpoint")
        if np.any(np.diff(self.checkpoints) <= 0):
            raise ValueError("checkpoints must be strictly increasing")
        if self.values.shape[1] != len(self.checkpoints):
            raise ValueError("values width must match number of checkpoints")
        if np.any(np.abs(self.values) > 1.0 + 1e-9):
            raise ValueError("correlation values outside [-1, 1]")


@dataclass
class AttackResult:
    byte_index: int
    best_guess: int
    ranking: np.ndarray   # all 256 guesses, best first
    scores: np.ndarray    # (256,) max-over-samples |r|, indexed by guess
    disclosure: int | None = None
    correct_guess: int | None = None   # known when the traces carry their true key
    correct_rank: int | None = field(default=None, init=False)   # 1-based, of correct_guess

    def __post_init__(self):
        self.ranking = np.asarray(self.ranking, dtype=np.int64)
        if sorted(self.ranking.tolist()) != list(range(256)):
            raise ValueError("ranking must be a permutation of 0..255")
        if self.correct_guess is not None:
            self.correct_rank = rank_of_guess(self, self.correct_guess)


def checkpoint_schedule(n_traces, stride):
    """Trace counts at which the evolution is recorded: every ``stride``
    traces plus the full count (a stride past ``n_traces`` clamps to a
    single checkpoint at ``n_traces``)."""
    if stride < 1:
        raise ValueError(f"checkpoint stride must be >= 1, got {stride}")
    points = list(range(stride, n_traces + 1, stride))
    if not points or points[-1] != n_traces:
        points.append(n_traces)
    return points


def cpa_attack(traces: TraceSet, byte_index, checkpoint_stride=100):
    """Mount the attack on one key byte.

    Returns ``(AttackResult, CorrelationEvolution)``.  The ranking orders
    guesses by descending max-over-samples |r| at the full trace count,
    ties broken by ascending guess value.  When the trace set carries its
    true key, the result also reports the correct guess, its rank and
    the traces-to-disclosure count.  A set on which every guess scores 0
    (fewer than 2 traces, or samples that do not vary) raises ValueError.
    """
    checkpoints = checkpoint_schedule(len(traces), checkpoint_stride)
    return _cpa_attack(traces, byte_index, checkpoints,
                       _hypotheses(traces.ciphertexts, byte_index, checkpoints))


def _hypotheses(ciphertexts, byte_index, checkpoints):
    """The attack's set-up: the (n, 256) hypothesis matrix of
    ``ciphertexts`` and its ``sum_x`` and ``sum_xx`` at every checkpoint,
    each an (n_checkpoints, 256) array.  The values are small integers,
    so these float64 sums are exact, and campaigns that share
    ciphertexts share the whole set-up."""
    if len(ciphertexts) == 0:
        raise ValueError("cannot attack an empty trace set")
    hyp = aes.hypothesis_matrix(ciphertexts, byte_index)
    sum_x = np.empty((len(checkpoints), 256))
    sum_xx = np.empty_like(sum_x)
    start = 0
    for i, count in enumerate(checkpoints):
        x = np.asarray(hyp[start:count], dtype=np.float64)
        sum_x[i] = x.sum(axis=0)
        sum_xx[i] = (x * x).sum(axis=0)
        start = count
    return hyp, np.cumsum(sum_x, axis=0), np.cumsum(sum_xx, axis=0)


# Upper bound on the (checkpoints, 256, samples) elements whose r is
# computed in one pass, so memory does not grow with the checkpoint count.
_BLOCK_ELEMENTS = 1 << 16


def _cpa_attack(traces, byte_index, checkpoints, hypotheses):
    """:func:`cpa_attack` at ``checkpoints``, given the :func:`_hypotheses`
    set-up of the traces' ciphertexts at the same checkpoints.

    The sample-side sums are folded in segment by segment through
    :class:`CorrelationAccumulator`; r is then computed for a block of
    checkpoints at a time, bit for bit as ``correlations`` would at each.
    Every wide array is allocated once and reused at each checkpoint."""
    hyp, sum_x, sum_xx = hypotheses
    n_samples = traces.samples_per_trace
    block = min(len(checkpoints), max(1, _BLOCK_ELEMENTS // (256 * n_samples)))
    acc = CorrelationAccumulator(256, n_samples)
    if block == 1:   # r at every checkpoint, straight from the running sums
        sum_y, sum_yy, sum_xy = acc.sum_y[None], acc.sum_yy[None], acc.sum_xy[None]
    else:
        sum_y, sum_yy = np.empty((2, block, n_samples))
        sum_xy = np.empty((block, 256, n_samples))
    longest = int(np.diff(checkpoints, prepend=0).max())
    x, (y, yy) = np.empty((longest, 256)), np.empty((2, longest, n_samples))
    r, scratch = np.empty((2, block, 256, n_samples))
    counts = np.asarray(checkpoints, dtype=np.float64)
    values = np.empty((256, len(checkpoints)))
    for i, (start, count) in enumerate(zip([0, *checkpoints], checkpoints)):
        m = count - start
        x[:m] = hyp[start:count]
        y[:m] = traces.samples[start:count]
        acc._add_samples(x[:m], y[:m], yy[:m], scratch[0])   # scratch is free here
        k = i % block + 1   # checkpoints of the current block so far
        if block > 1:
            sum_y[k - 1], sum_yy[k - 1], sum_xy[k - 1] = acc.sum_y, acc.sum_yy, acc.sum_xy
        if k == block or i == len(checkpoints) - 1:
            first = i + 1 - k
            _correlations(counts[first:i + 1], sum_x[first:i + 1], sum_xx[first:i + 1],
                          sum_y[:k], sum_yy[:k], sum_xy[:k], r[:k], scratch[:k])
            best_sample = np.abs(r[:k], out=scratch[:k]).argmax(axis=2)[..., None]
            values[:, first:i + 1] = np.take_along_axis(r[:k], best_sample, axis=2)[..., 0].T
    evolution = CorrelationEvolution(np.array(checkpoints), values)

    scores = np.abs(values[:, -1])
    if not scores.any():
        raise ValueError("every key guess scores 0, so no key can be ranked: the attack "
                         "needs at least 2 traces and samples that vary across them")
    ranking = np.lexsort((np.arange(256), -scores))
    correct = disclosure = None
    if traces.true_key is not None:
        correct = aes.correct_last_round_guess(traces.true_key, byte_index)
        disclosure = traces_to_disclosure(evolution, correct)
    result = AttackResult(byte_index=byte_index, best_guess=int(ranking[0]),
                          ranking=ranking, scores=scores, disclosure=disclosure,
                          correct_guess=correct)
    return result, evolution


def traces_to_disclosure(evolution: CorrelationEvolution, correct_guess) -> int | None:
    """Smallest checkpoint from which the correct guess holds the
    strictly highest |r| at every remaining checkpoint, or None if it
    never stays on top (stable disclosure, not first touch)."""
    aes._check_guess(correct_guess)
    abs_r = np.abs(evolution.values)
    rivals = np.delete(abs_r, correct_guess, axis=0).max(axis=0)
    leads = abs_r[correct_guess] > rivals
    first = np.flatnonzero(~leads).max(initial=-1) + 1   # just after its last lost checkpoint
    return int(evolution.checkpoints[first]) if first < len(leads) else None


def rank_of_guess(result: AttackResult, guess) -> int:
    """1-based position of a guess in the attack ranking."""
    aes._check_guess(guess)
    return int(np.nonzero(result.ranking == guess)[0][0]) + 1
