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
# hypothesis rows) and a group's evolution elements (its sets' samples, without evolutions).
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


def _moments(n, sum_x, sum_xx, sum_y, sum_yy, sum_xy, out=None):
    """cov (into ``out``, if given), var_x and var_y, elementwise, as :func:`_correlations`;
    the variances broadcast to cov: var_x along its guess axis, var_y along its samples."""
    n = n[..., None]
    cov = np.multiply(sum_x[..., :, None], sum_y[..., None, :], out=out)
    np.divide(cov, n[..., None], out=cov)
    np.subtract(sum_xy, cov, out=cov)
    var_x = np.maximum(sum_xx - sum_x ** 2 / n, 0.0)[..., :, None]
    return cov, var_x, np.maximum(sum_yy - sum_y ** 2 / n, 0.0)[..., None, :]


def _correlations(n, sum_x, sum_xx, sum_y, sum_yy, sum_xy, out=None, scratch=None):
    """Signed Pearson r from raw sums, batched over leading axes: ``n``
    has the batch shape, ``sum_x``/``sum_xx`` add a guess axis,
    ``sum_y``/``sum_yy`` a sample axis and ``sum_xy`` both.  Every step
    is elementwise, so a batch gives the same bits as one call per item.
    ``out`` and ``scratch``, if given, are ``sum_xy``-shaped buffers."""
    return _cov_to_r(*_moments(n, sum_x, sum_xx, sum_y, sum_yy, sum_xy, out), scratch)


def _cov_to_r(cov, var_x, var_y, scratch=None):
    """r = cov / sqrt(var_x * var_y) in place in ``cov``, the variances broadcast to its
    shape, 0 where either is 0; ``scratch``, if given, is a ``cov``-shaped buffer."""
    denom = np.multiply(var_x, var_y, out=scratch)
    np.sqrt(denom, out=denom)
    zero = denom == 0
    cov[zero] = 0.0
    denom[zero] = 1.0
    return np.divide(cov, denom, out=cov)


def _peak_r(n, sum_x, sum_xx, sum_y, sum_yy, sum_xy, out, scratch):
    """r at each guess's sample of largest |r|, (..., 256, 1), bit for bit as
    :func:`_correlations` and an argmax of its |r| give it, from one :func:`_moments`
    pass that leaves cov in ``out``.  var_x is constant along a guess's row, so
    ``q = |cov| * (1 / sqrt(var_y))``, made in ``scratch``, orders the samples as |r|
    does to within about 12 ulp while all values are normal floats; a top q that
    clears the runner-up by a relative 1e-12 is r's peak, and r is taken from cov
    there alone.  A sample of zero variance has r = 0 for every guess, so it is
    screened as q = 0 and left out of the guard on the variance products.  Where a
    guard fails, r is taken from the whole cov."""
    cov, var_x, var_y = _moments(n, sum_x, sum_xx, sum_y, sum_yy, sum_xy, out)
    tiny, live = np.finfo(np.float64).tiny, var_y > 0
    with np.errstate(all="ignore"):   # the guards below catch each 0, inf or NaN made here
        low = var_x.min(-2) * np.where(live, var_y, np.inf).min(-1)
        high = var_x.max(-2) * var_y.max(-1)
        scale = np.divide(1, np.sqrt(var_y), out=np.zeros_like(var_y), where=live)
        q = np.multiply(np.abs(cov, out=scratch), scale, out=scratch)
    at = q.argmax(-1)[..., None]
    top = np.take_along_axis(q, at, -1)
    np.put_along_axis(q, at, 0.0, -1)
    if (tiny <= low.min() and high.max() < np.inf and tiny <= top.min() and top.max() < np.inf
            and np.all(q.max(-1, keepdims=True) < top * (1 - 1e-12))):
        r = _cov_to_r(np.take_along_axis(cov, at, -1), var_x, np.take_along_axis(var_y, at, -1))
        if tiny <= np.abs(r).min():
            return r
    r = _cov_to_r(cov, var_x, var_y, scratch)
    return np.take_along_axis(r, np.abs(r, out=scratch).argmax(-1)[..., None], -1)


@dataclass
class AttackResult:
    scores: np.ndarray    # (256,) max-over-samples |r|, indexed by guess
    disclosure: int | None = None
    correct_guess: int | None = None   # known when the traces carry their true key
    evolution: np.ndarray | None = None   # (256, checkpoints) signed r, None without evolutions
    ranking: np.ndarray = field(init=False)   # all 256 guesses, best first, ties by guess
    best_guess: int = field(init=False)
    correct_rank: int | None = field(default=None, init=False)   # 1-based, of correct_guess

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        if self.scores.shape != (256,):
            raise ValueError(f"scores must have shape (256,), got {self.scores.shape}")
        self.ranking = np.lexsort((np.arange(256), -self.scores))
        self.best_guess = int(self.ranking[0])
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


def cpa_attack(traces: TraceSet, byte_index, checkpoint_stride=CHECKPOINT_STRIDE,
               evolutions=True):
    """Mount the attack on one key byte.

    Returns an :class:`AttackResult`, whose evolution is None with
    ``evolutions=False`` (:func:`cpa_attack_sets`).  The ranking orders
    guesses by descending max-over-samples |r| at the full trace count,
    ties broken by ascending guess value.  When the trace set carries its
    true key, the result also reports the correct guess, its rank and
    the traces-to-disclosure count.  A set on which every guess scores 0
    (fewer than 2 traces, or samples that do not vary) raises ValueError.
    """
    return next(cpa_attack_sets([traces], byte_index, checkpoint_stride, evolutions))


def cpa_attack_sets(trace_sets, byte_index, checkpoint_stride=CHECKPOINT_STRIDE,
                    evolutions=True):
    """Yield :func:`cpa_attack` of each of ``trace_sets``, the points of one
    campaign as ``simulate_offset_grid`` yields them: each shares the first
    set's ciphertexts, sample count and true key, and a later set that does
    not raises ValueError as it is taken, before any work on its group.  With
    ``evolutions=False`` the evolution is None, and a set keeps only its scores
    and the last checkpoint at which the correct guess did not strictly lead.

    A group of sets (:func:`_groups`) is walked in lock-step.  Per block of
    checkpoints the hypothesis segment is built from the ciphertexts and, at
    each checkpoint, widened once into the float64 buffer ``x`` for every
    set's ``x.T @ y``.  Each running sum at a checkpoint is the one before plus
    the segment's (row -1 of a block is the block before's last row), and r comes
    from them for the whole group at once.  The x-side sums are exact: x is 0..8."""
    for checkpoints, group in _groups(trace_sets, checkpoint_stride, evolutions):
        cts, n_samples, key = group[0].ciphertexts, group[0].samples_per_trace, group[0].true_key
        starts = [0, *checkpoints]
        block = min(len(checkpoints), max(1, _BLOCK_ELEMENTS // max(
            256 * n_samples * len(group), 256 * checkpoint_stride // 8)))
        guess = None if key is None else aes.correct_last_round_guess(key, byte_index)
        lost = np.full(len(group), -1)   # per set, the last checkpoint not led by the guess
        # running (sum_x, sum_xx), (sum_y, sum_yy) and sum_xy, a row per checkpoint of a block
        x_sums, y_sums = np.zeros((2, block, 256)), np.zeros((2, len(group), block, n_samples))
        xy = np.zeros((len(group), block, 256, n_samples))
        cov, scratch = np.empty((2, *xy.shape))   # scratch first takes each x.T @ y
        x = np.empty((min(checkpoint_stride, len(cts)), 256))
        y = np.empty((2, len(group), min(block * checkpoint_stride, len(cts)), n_samples))
        values = [np.empty((256, len(checkpoints))) for _ in group] if evolutions else []
        for i in range(0, len(checkpoints), block):
            done, lo = slice(i, min(i + block, len(checkpoints))), starts[i]
            k, hi = done.stop - i, checkpoints[done.stop - 1]
            hyp = aes.hypothesis_matrix(cts[lo:hi], byte_index)
            for g, traces in enumerate(group):
                y[0, g, :hi - lo] = traces.samples[lo:hi]
            np.multiply(y[0, :, :hi - lo], y[0, :, :hi - lo], out=y[1, :, :hi - lo])   # y * y
            for slot, (start, count) in enumerate(zip(starts[done], checkpoints[done])):
                seg = x[:count - start]
                seg[:] = hyp[start - lo:count - lo]
                rows = y[:, :, start - lo:count - lo]
                np.matmul(seg.T, rows[0], out=scratch[:, slot])
                parts = seg.sum(axis=0), np.einsum("ij,ij->j", seg, seg)
                np.add(x_sums[:, slot - 1], parts, out=x_sums[:, slot])
                np.add(y_sums[:, :, slot - 1], rows.sum(axis=2), out=y_sums[:, :, slot])
                np.add(xy[:, slot - 1], scratch[:, slot], out=xy[:, slot])
            r = (_peak_r if n_samples > 1 else _correlations)(
                np.array(checkpoints[done], float), *x_sums[:, :k], *y_sums[:, :, :k], xy[:, :k],
                cov[:, :k], scratch[:, :k])[..., 0]   # (set, checkpoint, guess)
            abs_r = np.abs(r)
            if not np.all(abs_r <= 1.0 + 1e-9):   # to within rounding; NaN fails this too
                raise ValueError("correlation values outside [-1, 1]")
            if guess is not None:
                last = _last_loss(abs_r, guess)
                lost = np.where(last < 0, lost, i + last)
            for evolution, r_set in zip(values, r):   # none without evolutions
                evolution[:, done] = r_set.T
        final = abs_r[:, -1].copy()   # the scores
        del xy, cov, scratch, x, y, rows, hyp, r, abs_r   # not held while the caller works
        for g, (scores, first) in enumerate(zip(final, lost + 1)):
            if not scores.any():
                raise ValueError("every key guess scores 0, so no key can be ranked: the attack "
                                 "needs at least 2 traces and samples that vary across them")
            disclosure = None if guess is None or first == len(checkpoints) else checkpoints[first]
            yield AttackResult(scores, disclosure, guess, values[g] if evolutions else None)


def _groups(trace_sets, stride, evolutions):
    """Yield ``(checkpoints, group)``: the trace sets, in runs within both
    budgets.  They are one campaign: every set must share the first one's
    ciphertexts, sample count and true key, of which only these are kept.  A
    set that does not raises as it is taken, so its group is never walked."""
    group, shared = [], None
    for traces in trace_sets:
        fields = traces.ciphertexts, traces.samples_per_trace, traces.true_key
        if shared is None:
            checkpoints, shared = checkpoint_schedule(len(traces), stride), fields
            if len(traces) == 0:
                raise ValueError("cannot attack an empty trace set")
            held = 256 * len(checkpoints) if evolutions else traces.samples.size   # each set
            width = min(_BLOCK_ELEMENTS // (256 * traces.samples_per_trace),
                        _GROUP_ELEMENTS // held)
        elif not all(map(np.array_equal, fields, shared)):
            raise ValueError("the trace sets of an offset grid must share their ciphertexts, "
                             "sample count and true key")
        group.append(traces)
        if len(group) >= width:
            yield checkpoints, group
            group.clear()
    if group:
        yield checkpoints, group


def _last_loss(abs_r, guess):
    """Index of the last row of each ``abs_r`` (..., checkpoints, 256) at which
    ``guess`` does not hold the strictly highest |r|, or -1 if it leads at every one."""
    below, above = abs_r[..., :guess], abs_r[..., guess + 1:]
    leads = abs_r[..., guess] > np.maximum(below.max(-1, initial=-1.0), above.max(-1, initial=-1.0))
    return np.where(leads, -1, np.arange(leads.shape[-1])).max(axis=-1)


def rank_of_guess(result: AttackResult, guess) -> int:
    """1-based position of a guess in the attack ranking."""
    aes._check_guess(guess)
    return int(np.nonzero(result.ranking == guess)[0][0]) + 1
