"""Trace-set persistence and interchange.

Two formats are supported:

* SCTR, the native binary container.  Samples and per-trace metadata
  travel in one file so traces and ciphertexts cannot be misaligned.
  Layout (all integers little-endian):

  ===========  ======  ====================================================
  field        bytes   meaning
  ===========  ======  ====================================================
  magic        4       ``b"SCTR"``
  version      2       format version, currently 1
  flags        2       bit 0: a 16-byte true key follows; others are 0
  n_traces     4       number of trace records
  spt          4       samples per trace
  seed         8       campaign seed, 0 meaning "no seed recorded"
  true_key     0/16    present iff flags bit 0 is set
  records      n*(32+4*spt)   per trace: plaintext(16) ciphertext(16)
                              samples (spt x float32)
  ===========  ======  ====================================================

* raw float32 matrix + metadata CSV, the shape external capture tools
  typically export.  The CSV has a header line and one row per trace
  with columns ``plaintext_hex`` and ``ciphertext_hex`` (32 hex chars
  each), read by ``import_raw``.  Sample bits survive untouched.
"""

import contextlib
import csv
import io
import os
import struct

import numpy as np

from .traces import TraceSet

SCTR_MAGIC = b"SCTR"
SCTR_VERSION = 1
_HEADER = struct.Struct("<4sHHIIQ")
_FLAG_TRUE_KEY = 0x0001


class SctrFormatError(ValueError):
    """A file violated the SCTR container format."""


class TraceImportError(ValueError):
    """Raw-trace import failed: inconsistent or malformed inputs."""


def _record_dtype(samples_per_trace):
    return np.dtype([("plaintext", np.uint8, 16),
                     ("ciphertext", np.uint8, 16),
                     ("samples", "<f4", (samples_per_trace,))])


@contextlib.contextmanager
def _opened(target, mode):
    """Yield ``target`` itself if it is a binary file object, else the file
    it names opened in ``mode``; errors opening, reading or writing that
    file name it."""
    if hasattr(target, "read" if mode == "rb" else "write"):
        yield target
        return
    try:
        with open(target, mode) as fh:
            yield fh
    except OSError as exc:
        verb = "read" if mode == "rb" else "write"
        raise OSError(f"cannot {verb} trace file {target!r}: {exc}") from exc


def check_sctr_fields(n_traces, samples_per_trace, seed=None) -> None:
    """Raise SctrFormatError unless the counts and the seed (None: not recorded) fit
    the SCTR header's fields: the sizes a campaign may have, checked before any work."""
    fields = ("n_traces", n_traces), ("samples_per_trace", samples_per_trace), ("seed", seed or 0)
    for (name, value), code in zip(fields, _HEADER.format[-3:]):
        bits = 8 * struct.calcsize("<" + code)
        if not 0 <= value < 1 << bits:
            raise SctrFormatError(f"{name} {value} does not fit SCTR's {bits}-bit field")


def write_sctr(trace_set: TraceSet, destination) -> None:
    """Serialize a trace set to ``destination`` (path or binary file)."""
    flags = _FLAG_TRUE_KEY if trace_set.true_key is not None else 0
    seed = trace_set.seed or 0
    check_sctr_fields(trace_set.n_traces, trace_set.samples_per_trace, seed)
    records = np.empty(trace_set.n_traces, dtype=_record_dtype(trace_set.samples_per_trace))
    records["plaintext"] = trace_set.plaintexts
    records["ciphertext"] = trace_set.ciphertexts
    records["samples"] = trace_set.samples
    with _opened(destination, "wb") as fh:
        fh.write(_HEADER.pack(SCTR_MAGIC, SCTR_VERSION, flags,
                              trace_set.n_traces, trace_set.samples_per_trace, seed))
        if flags & _FLAG_TRUE_KEY:
            fh.write(bytes(trace_set.true_key))
        fh.write(records)


def read_sctr(source) -> TraceSet:
    """Parse and validate an SCTR file (path or binary file).

    The file is read once; the returned samples, plaintexts and
    ciphertexts are read-only views of that buffer.
    """
    with _opened(source, "rb") as fh:
        data = fh.read()
        name = getattr(fh, "name", "<stream>")

    if len(data) < _HEADER.size:
        raise SctrFormatError(
            f"{name}: truncated header, need {_HEADER.size} bytes but file has {len(data)}")
    magic, version, flags, n_traces, spt, seed = _HEADER.unpack_from(data)
    if magic != SCTR_MAGIC:
        raise SctrFormatError(f"{name}: bad magic {magic!r}, expected {SCTR_MAGIC!r}")
    if version != SCTR_VERSION:
        raise SctrFormatError(f"{name}: unsupported version {version}, expected {SCTR_VERSION}")
    if flags & ~_FLAG_TRUE_KEY:
        raise SctrFormatError(f"{name}: unknown flag bits {flags & ~_FLAG_TRUE_KEY:#06x}")
    if spt < 1:
        raise SctrFormatError(f"{name}: samples_per_trace must be >= 1, header says {spt}")

    key_len = 16 if flags & _FLAG_TRUE_KEY else 0
    expected = _HEADER.size + key_len + n_traces * (32 + 4 * spt)
    if len(data) != expected:
        raise SctrFormatError(
            f"{name}: size mismatch, header declares {expected} bytes but file has {len(data)}")

    records = np.frombuffer(data, dtype=_record_dtype(spt), count=n_traces,
                            offset=_HEADER.size + key_len)
    return TraceSet(
        samples=records["samples"],
        plaintexts=records["plaintext"],
        ciphertexts=records["ciphertext"],
        true_key=data[_HEADER.size:_HEADER.size + 16] if key_len else None,
        seed=int(seed) if seed != 0 else None,
    )


def _parse_hex_field(value, row, column):
    value = value.strip()
    try:
        raw = bytes.fromhex(value)
    except ValueError as exc:
        raise TraceImportError(f"{column} in row {row}: not valid hex: {value!r}") from exc
    if len(raw) != 16:
        raise TraceImportError(
            f"{column} in row {row}: expected 32 hex chars, got {len(value)}")
    return raw


def import_raw(samples_path, meta_path, samples_per_trace=None) -> TraceSet:
    """Load externally captured traces from a raw float32 dump and its
    metadata CSV.

    When ``samples_per_trace`` is given the sample file length is checked
    against it; otherwise the trace length is inferred from the file size
    and the CSV row count, so padding by a whole multiple of n floats reads
    as longer traces.  Any other inconsistency is an error, never a silent
    truncation.  Rows are counted from 1 (the header line is row 0).
    """
    if samples_per_trace is not None and samples_per_trace < 1:
        raise TraceImportError(f"samples_per_trace must be >= 1, got {samples_per_trace}: "
                               "traces cannot have zero samples or fewer")
    with open(meta_path, "rb") as fh:
        data = fh.read()
    try:
        data.decode()   # to name the row of a byte that is not UTF-8
    except UnicodeDecodeError as exc:
        row = len(data[:exc.start + 1].splitlines()) - 1
        raise TraceImportError(f"{meta_path}: row {row}: not UTF-8 text: {exc}") from None
    with io.TextIOWrapper(io.BytesIO(data), "utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise TraceImportError(f"{meta_path}: metadata CSV is empty") from None
        header = [h.strip() for h in header]
        try:
            pt_col = header.index("plaintext_hex")
            ct_col = header.index("ciphertext_hex")
        except ValueError:
            raise TraceImportError(
                f"{meta_path}: header must name plaintext_hex and ciphertext_hex, "
                f"got {header}") from None
        blocks = bytearray()   # per row: plaintext(16) ciphertext(16)
        for row_no, row in enumerate(reader, start=1):
            if len(row) <= max(pt_col, ct_col):
                raise TraceImportError(f"{meta_path}: row {row_no} has only {len(row)} fields")
            blocks += _parse_hex_field(row[pt_col], row_no, "plaintext_hex")
            blocks += _parse_hex_field(row[ct_col], row_no, "ciphertext_hex")
    n = len(blocks) // 32
    if n == 0:
        raise TraceImportError(f"{meta_path}: no metadata rows")

    size = os.path.getsize(samples_path)
    if size % 4 != 0:
        raise TraceImportError(
            f"{samples_path}: size {size} is not a whole number of float32 samples")
    n_floats = size // 4
    spt = n_floats // n if samples_per_trace is None else samples_per_trace
    if n_floats != n * spt:
        raise TraceImportError(
            f"row-count mismatch: {meta_path} has {n} rows but {samples_path} holds "
            f"{n_floats} samples, not {n} x {spt}")
    if spt == 0:
        raise TraceImportError(f"{samples_path}: traces would have zero samples")

    samples = np.fromfile(samples_path, dtype="<f4").reshape(n, spt)
    blocks = np.frombuffer(blocks, dtype=np.uint8).reshape(n, 2, 16)
    return TraceSet(samples=samples, plaintexts=blocks[:, 0], ciphertexts=blocks[:, 1])
