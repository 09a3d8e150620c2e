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

CHECKPOINT_STRIDE = 100   # traces between two recorded checkpoints unless a caller names a stride
# Upper bounds, whatever the checkpoint count, on the (sets, checkpoints, 256, samples)
# elements whose r is computed at once (their float64 bytes also bound a block's uint8
# hypothesis rows) and a group's evolution elements.
_BLOCK_ELEMENTS, _GROUP_ELEMENTS = 1 << 16, 1 << 20


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
    vx = math.fsum(x * x)   # exactly rounded sums, not BLAS dot products: the same bits on any host
    vy = math.fsum(y * y)
    if vx == 0.0 or vy == 0.0:
        return 0.0
    return math.fsum(x * y) / math.sqrt(vx * vy)


class CorrelationAccumulator:
    """Single-pass sums for Pearson r of every guess against every sample.

    All sums are float64.  Accumulators over disjoint trace ranges can be
    merged; merging is commutative and associative over the sum fields.
    """

    def __init__(self, n_guesses=256, n_samples=1):
        self.n = 0
        self.sum_x, self.sum_xx = np.zeros((2, n_guesses))
        self.sum_y, self.sum_yy = np.zeros((2, n_samples))
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
        self.n += len(x)
        self.sum_x += x.sum(axis=0)
        self.sum_xx += (x * x).sum(axis=0)
        out = [*np.empty((2, 1, y.shape[1])), (x.T @ y)[None]]
        _add_samples((self.sum_y, self.sum_yy, self.sum_xy), y, max(len(y), 1), out)
        self.sum_y, self.sum_yy, self.sum_xy = (total[0] for total in out)

    def merge(self, other) -> "CorrelationAccumulator":
        """Absorb another accumulator of the same dimensions, built over disjoint traces."""
        if other.sum_xy.shape != self.sum_xy.shape:
            raise ValueError(f"cannot merge a {other.sum_xy.shape} accumulator into a "
                             f"{self.sum_xy.shape} one")
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


def _add_samples(carry, y, stride, out, yy=None):
    """Running sums ``out = (sum_y, sum_yy[, sum_xy])`` at the end of each
    ``stride``-row segment of the batch ``y`` (..., m, S), the last maybe
    shorter, on a segment axis in place of y's row axis: ``carry`` plus the
    segments in order; ``sum_xy`` comes in holding each segment's x.T @ y."""
    axis, full = y.ndim - 2, y.shape[-2] // stride
    shape, first = (*y.shape[:axis], full, stride, y.shape[-1]), (slice(None),) * axis + (0,)
    for part, dest in zip((y, np.multiply(y, y, out=yy)), out):
        part[..., :full * stride, :].reshape(shape).sum(axis=axis + 1, out=dest[..., :full, :])
        if full < dest.shape[axis]:
            part[..., full * stride:, :].sum(axis=axis, out=dest[..., full, :])
    for total, dest in zip(carry, out):
        np.add(total, dest[first], out=dest[first])
        if dest.shape[axis] > 1:
            np.cumsum(dest, axis=axis, out=dest)


def _moments(n, sum_x, sum_xx, sum_y, sum_yy, sum_xy, out=None):
    """cov (into ``out``, if given), var_x and var_y, elementwise, as :func:`_correlations`."""
    n = n[..., None]
    cov = np.multiply(sum_x[..., :, None], sum_y[..., None, :], out=out)
    np.divide(cov, n[..., None], out=cov)
    np.subtract(sum_xy, cov, out=cov)
    return cov, np.maximum(sum_xx - sum_x ** 2 / n, 0.0), np.maximum(sum_yy - sum_y ** 2 / n, 0.0)


def _correlations(n, sum_x, sum_xx, sum_y, sum_yy, sum_xy, out=None, scratch=None):
    """Signed Pearson r from raw sums, batched over leading axes: ``n``
    has the batch shape, ``sum_x``/``sum_xx`` add a guess axis,
    ``sum_y``/``sum_yy`` a sample axis and ``sum_xy`` both.  Every step
    is elementwise, so a batch gives the same bits as one call per item.
    ``out`` and ``scratch``, if given, are ``sum_xy``-shaped buffers."""
    cov, var_x, var_y = _moments(n, sum_x, sum_xx, sum_y, sum_yy, sum_xy, out)
    denom = np.multiply(var_x[..., :, None], var_y[..., None, :], out=scratch)
    np.sqrt(denom, out=denom)
    zero = denom == 0   # zero variance on either side gives r = 0
    cov[zero] = 0.0
    denom[zero] = 1.0
    return np.divide(cov, denom, out=cov)


def _peak_r(n, sum_x, sum_xx, sum_y, sum_yy, sum_xy, out, scratch):
    """r at each guess's sample of largest |r|, (..., 256, 1), bit for bit as
    :func:`_correlations` and an argmax of its |r| give it.  var_x is constant
    along a guess's row, so ``q = |cov| * (1 / sqrt(var_y))`` orders the samples
    as |r| does to within about 12 ulp while all values are normal floats; a top
    q that clears the runner-up by a relative 1e-12 is r's peak, and r is then
    computed there alone.  Where a guard fails, the whole r serves the block."""
    cov, var_x, var_y = _moments(n, sum_x, sum_xx, sum_y, sum_yy, sum_xy, out)
    tiny = np.finfo(np.float64).tiny
    with np.errstate(all="ignore"):   # the guards below catch each 0, inf or NaN made here
        low, high = var_x.min(-1) * var_y.min(-1), var_x.max(-1) * var_y.max(-1)
        q = np.multiply(np.abs(cov, out=cov), 1 / np.sqrt(var_y)[..., None, :], out=cov)
    at = q.argmax(-1)[..., None]
    top = np.take_along_axis(q, at, -1)
    np.put_along_axis(q, at, 0.0, -1)
    if (tiny <= low.min() and high.max() < np.inf and tiny <= top.min() and top.max() < np.inf
            and np.all(q.max(-1, keepdims=True) < top * (1 - 1e-12))):
        r = _correlations(n[..., None], sum_x[..., None], sum_xx[..., None],
                          *(np.take_along_axis(s[..., None, :], at, -1) for s in (sum_y, sum_yy)),
                          np.take_along_axis(sum_xy, at, -1)[..., None])[..., 0]
        if tiny <= np.abs(r).min():
            return r
    r = _correlations(n, sum_x, sum_xx, sum_y, sum_yy, sum_xy, out, scratch)
    return np.take_along_axis(r, np.abs(r, out=scratch).argmax(-1)[..., None], -1)


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
        if self.values.ndim != 2 or self.values.shape[1] != len(self.checkpoints):
            raise ValueError(f"values width must match number of checkpoints, in 2-D: got "
                             f"shape {self.values.shape} for {len(self.checkpoints)} checkpoints")
        if not np.all(np.abs(self.values) <= 1.0 + 1e-9):   # NaN fails this too
            raise ValueError("correlation values outside [-1, 1]")


@dataclass
class AttackResult:
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


def cpa_attack(traces: TraceSet, byte_index, checkpoint_stride=CHECKPOINT_STRIDE):
    """Mount the attack on one key byte.

    Returns ``(AttackResult, CorrelationEvolution)``.  The ranking orders
    guesses by descending max-over-samples |r| at the full trace count,
    ties broken by ascending guess value.  When the trace set carries its
    true key, the result also reports the correct guess, its rank and
    the traces-to-disclosure count.  A set on which every guess scores 0
    (fewer than 2 traces, or samples that do not vary) raises ValueError.
    """
    return next(cpa_attack_sets([traces], byte_index, checkpoint_stride))


def cpa_attack_sets(trace_sets, byte_index, checkpoint_stride=CHECKPOINT_STRIDE):
    """Yield :func:`cpa_attack` of each of ``trace_sets``, which share their
    ciphertexts as ``simulate_offset_grid``'s do; a later set with other
    ciphertexts raises ValueError once the sets before it are yielded.

    A group of sets (:func:`_groups`) is walked in lock-step.  Per block of
    checkpoints the hypothesis segment is built from the ciphertexts and, at
    each checkpoint, widened once into the float64 buffer ``x`` for every
    set's ``x.T @ y``; :func:`_add_samples` folds the block into running sums
    and r comes for the whole group at once, bit for bit as ``correlations``
    gives it.  The x-side sums are taken from ``x``, exactly, as x is 0..8."""
    for checkpoints, group in _groups(trace_sets, checkpoint_stride):
        cts, n_samples, starts = group[0].ciphertexts, group[0].samples_per_trace, [0, *checkpoints]
        block = min(len(checkpoints), max(1, _BLOCK_ELEMENTS // max(
            256 * n_samples * len(group), 256 * checkpoint_stride // 8)))
        # (sum_x, sum_xx); (sum_y, sum_yy) and sum_xy per block parity, the other parity's xy is r
        x_sums, sums = np.zeros((2, block, 256)), np.zeros((2, 2, len(group), block, n_samples))
        xy = np.zeros((2, len(group), block, 256, n_samples))
        x, scratch = np.empty((min(checkpoint_stride, len(cts)), 256)), np.empty_like(xy[0])
        y, yy = np.empty((2, len(group), min(block * checkpoint_stride, len(cts)), n_samples))
        values = np.empty((len(group), 256, len(checkpoints)))
        for i in range(0, len(checkpoints), block):
            done, p, lo = slice(i, min(i + block, len(checkpoints))), i // block % 2, starts[i]
            k, hi = done.stop - i, checkpoints[done.stop - 1]
            hyp = aes.hypothesis_matrix(cts[lo:hi], byte_index)
            for g, traces in enumerate(group):
                y[g, :hi - lo] = traces.samples[lo:hi]
            out = (*sums[p][:, :, :k], xy[p][:, :k])
            for slot, (start, count) in enumerate(zip(starts[done], checkpoints[done])):
                seg = x[:count - start]
                seg[:] = hyp[start - lo:count - lo]
                np.matmul(seg.T, y[:, start - lo:count - lo], out=out[2][:, slot])
                parts = seg.sum(axis=0), np.square(seg, out=seg).sum(axis=0)
                np.add(x_sums[:, slot - 1], parts, out=x_sums[:, slot])   # row -1: the block before
            carry = (*sums[1 - p][:, :, -1], xy[1 - p][:, -1])   # the block before's last sums
            _add_samples(carry, y[:, :hi - lo], checkpoint_stride, out, yy[:, :hi - lo])
            r = (_peak_r if n_samples > 1 else _correlations)(
                np.array(checkpoints[done], float), *x_sums[:, :k], *out, xy[1 - p][:, :k],
                scratch[:, :k])
            values[..., done] = r[..., 0].swapaxes(1, 2)
        del xy, scratch, x, y, yy, hyp, out, carry, r   # not held while the caller works
        keys = [None if traces.true_key is None else traces.true_key.tobytes() for traces in group]
        correct = {key: aes.correct_last_round_guess(key, byte_index) for key in set(keys) - {None}}
        for curves, key in zip(values, keys):
            evolution, scores = CorrelationEvolution(checkpoints, curves), np.abs(curves[:, -1])
            if not scores.any():
                raise ValueError("every key guess scores 0, so no key can be ranked: the attack "
                                 "needs at least 2 traces and samples that vary across them")
            ranking, guess = np.lexsort((np.arange(256), -scores)), correct.get(key)
            disclosure = None if guess is None else traces_to_disclosure(evolution, guess)
            yield AttackResult(best_guess=int(ranking[0]), ranking=ranking, scores=scores,
                               disclosure=disclosure, correct_guess=guess), evolution


def _groups(trace_sets, stride):
    """Yield ``(checkpoints, group)``: the trace sets, which share the first
    one's ciphertexts, in runs of one sample count within both budgets.  A set
    that cannot be taken ends its group, which is yielded before the error."""
    group, shared = [], None
    try:
        for traces in trace_sets:
            if shared is None:
                checkpoints, shared = checkpoint_schedule(len(traces), stride), traces.ciphertexts
                if len(traces) == 0:
                    raise ValueError("cannot attack an empty trace set")
            elif not np.array_equal(traces.ciphertexts, shared):
                raise ValueError("the trace sets of an offset grid must share their ciphertexts")
            if group and traces.samples_per_trace != group[0].samples_per_trace:
                yield checkpoints, group
                group.clear()
            group.append(traces)
            if len(group) >= min(_BLOCK_ELEMENTS // traces.samples_per_trace,
                                 _GROUP_ELEMENTS // len(checkpoints)) // 256:
                yield checkpoints, group
                group.clear()
    except Exception:
        if group:
            yield checkpoints, group
        raise
    if group:
        yield checkpoints, group


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
