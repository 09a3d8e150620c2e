"""Test helpers: the tests' own popcount table ``HW``; the simulator's batch
cipher under a cipher key; a leakage config in which one state byte alone
leaks; the scalar CPA model, an oracle for ``aes.hypothesis_matrix`` built from
``INV_SBOX`` and ``HW`` alone; the textbook two-pass Pearson r, the
reference of the CPA, HD and acceptance tests; a reference for the CPA walk's
evolution built from public names alone, and one for its disclosure that is a
plain loop over an evolution's checkpoints and values; a writer of the raw float32 +
metadata CSV capture format that ``import_raw`` reads; the traced-memory peak
of a call, which every memory test reads; and the commands whose outputs the
recorded digests pin."""

import contextlib
import csv
import io
import math
import tracemalloc
from pathlib import Path

import numpy as np

from scakit import aes, cli
from scakit.leakage import LeakageConfig
from scakit.traceio import read_sctr

HW = np.array([bin(v).count("1") for v in range(256)], dtype=np.uint8)


def encrypt(key, plaintexts):
    """The simulator's cipher on an (n, 16) batch of plaintexts: the state
    register's content before the final-round overwrite, and the ciphertext
    that overwrites it, both (n, 16). XOR of the two is the overwrite's toggles."""
    return aes._encrypt_states(aes.expand_key(key), aes._as_batch(plaintexts))


def single_byte_config(byte_index, weight=1.0, **kwargs) -> LeakageConfig:
    """A leakage config in which only the eight bits of state byte
    ``byte_index`` leak, each with ``weight``; every other bit is silent."""
    aes._check_index("byte_index", byte_index, 16)
    weights = np.zeros(128)
    weights[8 * byte_index:8 * byte_index + 8] = float(weight)
    return LeakageConfig(bit_weights=weights, **kwargs)


def last_round_transitions(ct, key_guess, byte_index) -> int:
    """Predicted toggle byte of the final-round register overwrite.

    Under guess ``key_guess`` for the round-10 key byte at position
    ``SR_FORWARD[byte_index]``, the state byte at ``byte_index`` went from
    ``INV_SBOX[ct[SR_FORWARD[byte_index]] ^ key_guess]`` to ``ct[byte_index]``;
    the return value is the XOR of the two.
    """
    ct = aes.as_block(ct)
    prior = aes.INV_SBOX[ct[aes.SR_FORWARD[byte_index]] ^ key_guess]
    return int(prior ^ ct[byte_index])


def hypothetical_power(ct, key_guess, byte_index) -> int:
    """Model value for CPA: Hamming distance of the predicted overwrite,
    i.e. the Hamming weight of :func:`last_round_transitions`."""
    return int(HW[last_round_transitions(ct, key_guess, byte_index)])


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


def reference_evolution(traces, byte_index, checkpoints):
    """(256, checkpoints) r of each guess at its sample of largest |r|, from
    running float64 sums that take each segment between checkpoints in turn;
    r is written out in the CPA kernel's order of operations, so it has the
    walk's bits, and zero variance on either side gives r = 0."""
    hyp = aes.hypothesis_matrix(traces.ciphertexts, byte_index)
    sums, values, start = [0] * 5, [], 0
    for n in checkpoints:
        # row-major, as the walk's buffers are: the layout picks the order of a column sum
        x, y = (np.ascontiguousarray(a[start:n], np.float64) for a in (hyp, traces.samples))
        parts = x.sum(0), (x * x).sum(0), y.sum(0), (y * y).sum(0), x.T @ y
        sum_x, sum_xx, sum_y, sum_yy, sum_xy = sums = [a + b for a, b in zip(sums, parts)]
        cov = sum_xy - sum_x[:, None] * sum_y[None, :] / n
        var_x = np.maximum(sum_xx - sum_x ** 2 / n, 0.0)
        var_y = np.maximum(sum_yy - sum_y ** 2 / n, 0.0)
        denom = np.sqrt(var_x[:, None] * var_y[None, :])
        r = np.where(denom == 0, 0.0, cov / np.where(denom == 0, 1.0, denom))
        values.append(r[np.arange(256), np.abs(r).argmax(axis=1)])
        start = n
    return np.array(values).T


def reference_disclosure(checkpoints, values, guess):
    """The first of ``checkpoints`` from which ``guess`` has a strictly higher
    |r| in ``values`` (256, checkpoints) than every other guess at that
    checkpoint and every later one, or None."""
    disclosure = None
    for n, column in zip(checkpoints, values.T):
        rivals = [abs(r) for other, r in enumerate(column) if other != guess]
        if abs(column[guess]) <= max(rivals):
            disclosure = None
        elif disclosure is None:
            disclosure = int(n)
    return disclosure


def traced_peak(call):
    """``call()`` and the peak of the memory traced while it ran, in bytes."""
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def export_raw(trace_set, samples_path, meta_path) -> None:
    """Dump samples as a header-less little-endian float32 matrix plus a
    metadata CSV.  The true key, if any, is not exported."""
    with open(samples_path, "wb") as fh:
        fh.write(np.ascontiguousarray(trace_set.samples, dtype="<f4"))
    with open(meta_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["plaintext_hex", "ciphertext_hex"])
        for pt, ct in zip(trace_set.plaintexts, trace_set.ciphertexts):
            writer.writerow([bytes(pt).hex(), bytes(ct).hex()])


KEY = "2041e2770445067328090a7f0c0d0e7b"


def write_digest_outputs():
    """Run, in the working directory, the commands whose outputs
    ``test_cli.RECORDED_DIGESTS`` pins; what the first ones print goes to
    stdout.txt."""
    def run(*argv):
        assert cli.main([str(a) for a in argv]) == 0, argv

    noise = ["--key", KEY, "--sigma", 4]
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        run("simulate", *noise, "--n", 3000, "--seed", 1, "-o", "full.sctr")
        run("attack", "full.sctr", "--all-bytes", "--stride", 150, "--report", "full.json")
        run("simulate", *noise, "--n", 2000, "--samples", 8, "--poi", 3, "--seed", 2,
            "-o", "s8.sctr")
        export_raw(read_sctr("s8.sctr"), "capture.f32", "capture.csv")
        run("convert", "capture.f32", "capture.csv", "--samples-per-trace", 8,
            "-o", "converted.sctr")
        run("attack", "converted.sctr", "--byte", 0, "--report", "byte0.json",
            "--evolution-csv", "evolution.csv")
        run("fit-hd", "s8.sctr", "--sample", 3, "--points", "fit_points.csv",
            "--fits", "fit_lines.csv")
        run("fit-hd", "converted.sctr", "--byte", 5, "--sample", 3, "--guess", 17,
            "--guess", 62, "--guess", 200, "--points", "fit5_points.csv",
            "--fits", "fit5_lines.csv")
        run("sweep", *noise, "--n", 3000, "--seed", 3, "--offsets", "0,4.5,8",
            "--bits", "2,5", "-o", "sweep.csv")
        run("sweep", *noise, "--sigma", 12, "--n", 3000, "--seed", 3, "--byte", 5,
            "--augment-byte", 5, "--trigger", "toggle", "--samples", 4, "--poi", 2,
            "--offsets", "0,4.5,8", "--bits", "2,5", "-o", "sweep5.csv")
    Path("stdout.txt").write_text(printed.getvalue())
    # S=300 gives one checkpoint per r batch; 1500 traces end on a shorter segment
    with contextlib.redirect_stdout(io.StringIO()):
        run("simulate", *noise, "--n", 1500, "--samples", 300, "--poi", 150, "--seed", 4,
            "-o", "wide.sctr")
        run("attack", "wide.sctr", "--byte", 0, "--stride", 140, "--report", "wide.json",
            "--evolution-csv", "wide_evolution.csv")
