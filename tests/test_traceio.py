import io
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scakit.leakage import LeakageConfig, simulate_campaign
from scakit.traceio import (
    SctrFormatError,
    TraceImportError,
    import_raw,
    read_sctr,
    write_sctr,
)
from scakit.traces import TraceSet

from helpers import export_raw, traced_peak

KEY = "2041e2770445067328090a7f0c0d0e7b"


def _campaign(n=100, spt=3, sigma=1.5, seed=1):
    config = LeakageConfig.equal_weights(1.0, noise_sigma=sigma,
                                         samples_per_trace=spt, poi_index=spt - 1)
    return simulate_campaign(KEY, n, config, seed=seed)


def test_sctr_round_trip_bit_exact(tmp_path):
    ts = _campaign()
    path = tmp_path / "a.sctr"
    write_sctr(ts, path)
    back = read_sctr(path)
    assert back.samples.tobytes() == ts.samples.tobytes()
    assert np.array_equal(back.plaintexts, ts.plaintexts)
    assert np.array_equal(back.ciphertexts, ts.ciphertexts)
    assert np.array_equal(back.true_key, ts.true_key)
    assert back.seed == ts.seed == 1


def test_sctr_round_trip_without_key(tmp_path):
    ts = _campaign(n=4, spt=2)
    anon = TraceSet(ts.samples, ts.plaintexts, ts.ciphertexts)
    path = tmp_path / "anon.sctr"
    write_sctr(anon, path)
    back = read_sctr(path)
    assert back.true_key is None
    assert back.seed is None
    assert back.samples.tobytes() == anon.samples.tobytes()


def test_sctr_file_size_formula(tmp_path):
    # 24-byte header, no key, per trace 16+16+4 bytes
    ts = TraceSet(np.zeros((1, 1), np.float32), np.zeros((1, 16), np.uint8),
                  np.zeros((1, 16), np.uint8))
    path = tmp_path / "one.sctr"
    write_sctr(ts, path)
    assert path.stat().st_size == 24 + 16 + 16 + 4 == 60


def test_sctr_accepts_file_objects():
    ts = _campaign(n=7, spt=1)
    buf = io.BytesIO()
    write_sctr(ts, buf)
    buf.seek(0)
    back = read_sctr(buf)
    assert back.samples.tobytes() == ts.samples.tobytes()
    # a pipe cannot seek, so its size is not known before it is read
    read_end, write_end = os.pipe()
    with os.fdopen(write_end, "wb") as fh:
        fh.write(buf.getvalue())
    with os.fdopen(read_end, "rb") as fh:
        assert not fh.seekable()
        back = read_sctr(fh)
    assert back.samples.tobytes() == ts.samples.tobytes()
    assert np.array_equal(back.true_key, ts.true_key)


def test_sctr_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.sctr"
    write_sctr(_campaign(n=2, spt=1), path)
    data = bytearray(path.read_bytes())
    data[0:4] = b"NOPE"
    path.write_bytes(bytes(data))
    with pytest.raises(SctrFormatError, match="magic"):
        read_sctr(path)


def test_sctr_rejects_wrong_version(tmp_path):
    path = tmp_path / "v2.sctr"
    write_sctr(_campaign(n=2, spt=1), path)
    data = bytearray(path.read_bytes())
    data[4] = 2
    path.write_bytes(bytes(data))
    with pytest.raises(SctrFormatError, match="version"):
        read_sctr(path)


def test_sctr_rejects_truncated_header(tmp_path):
    path = tmp_path / "short.sctr"
    path.write_bytes(b"SCTR\x01\x00")
    with pytest.raises(SctrFormatError, match="truncated"):
        read_sctr(path)


def test_sctr_rejects_size_mismatch(tmp_path):
    path = tmp_path / "cut.sctr"
    write_sctr(_campaign(n=3, spt=2), path)
    data = path.read_bytes()
    path.write_bytes(data[:-1])
    with pytest.raises(SctrFormatError, match="size mismatch"):
        read_sctr(path)
    path.write_bytes(data + b"\x00")
    with pytest.raises(SctrFormatError, match="size mismatch"):
        read_sctr(path)


def test_sctr_rejects_zero_samples_per_trace(tmp_path):
    path = tmp_path / "empty.sctr"
    write_sctr(_campaign(n=2, spt=1), path)
    data = bytearray(path.read_bytes())
    data[12:16] = (0).to_bytes(4, "little")   # the header's samples_per_trace field
    path.write_bytes(bytes(data))
    with pytest.raises(SctrFormatError, match="samples_per_trace must be >= 1"):
        read_sctr(path)


def test_sctr_rejects_unknown_flag_bits():
    buf = io.BytesIO()
    write_sctr(_campaign(n=8, spt=1), buf)
    data = bytearray(buf.getvalue())
    data[6] |= 0x02   # the header's flags field, bit 0 (true key) left as written
    with pytest.raises(SctrFormatError, match="unknown flag bits 0x0002"):
        read_sctr(io.BytesIO(bytes(data)))


# (offset, size) in the header of the fields that describe the file's layout
HEADER_FIELDS = {"magic": (0, 4), "version": (4, 2), "flags": (6, 2), "n_traces": (8, 4),
                 "spt": (12, 4)}


@settings(max_examples=200)
@given(n=st.integers(1, 5), spt=st.integers(1, 4), with_key=st.booleans(),
       field=st.sampled_from(sorted(HEADER_FIELDS)), data=st.data())
def test_sctr_rejects_any_changed_header_field(n, spt, with_key, field, data):
    ts = _campaign(n=n, spt=spt)
    if not with_key:
        ts = TraceSet(ts.samples, ts.plaintexts, ts.ciphertexts, seed=ts.seed)
    buf = io.BytesIO()
    write_sctr(ts, buf)
    file_bytes = bytearray(buf.getvalue())
    at, size = HEADER_FIELDS[field]
    written = int.from_bytes(file_bytes[at:at + size], "little")
    value = data.draw(st.integers(0, 256 ** size - 1).filter(lambda v: v != written))
    file_bytes[at:at + size] = value.to_bytes(size, "little")
    with pytest.raises(SctrFormatError):
        read_sctr(io.BytesIO(bytes(file_bytes)))


@st.composite
def trace_sets(draw):
    """Any shape, arbitrary finite float32 samples and bytes, with or
    without a key and a seed."""
    n, spt = draw(st.integers(0, 6)), draw(st.integers(1, 4))
    samples = draw(st.lists(st.floats(width=32, allow_nan=False, allow_infinity=False),
                            min_size=n * spt, max_size=n * spt))
    blocks = np.frombuffer(draw(st.binary(min_size=32 * n, max_size=32 * n)), np.uint8)
    blocks = blocks.reshape(n, 2, 16)
    return TraceSet(np.array(samples, np.float32).reshape(n, spt), blocks[:, 0], blocks[:, 1],
                    true_key=draw(st.none() | st.binary(min_size=16, max_size=16)),
                    seed=draw(st.none() | st.integers(0, 2 ** 64 - 1)))


def _sctr_bytes(ts):
    buf = io.BytesIO()
    write_sctr(ts, buf)
    return buf.getvalue()


@settings(max_examples=200)
@given(ts=trace_sets())
def test_sctr_round_trip_is_bit_exact_for_any_shape(ts):
    back = read_sctr(io.BytesIO(_sctr_bytes(ts)))
    assert back.samples.shape == ts.samples.shape
    for name in ("samples", "plaintexts", "ciphertexts"):
        assert getattr(back, name).tobytes() == getattr(ts, name).tobytes()
    if ts.true_key is None:
        assert back.true_key is None
    else:
        assert back.true_key.tobytes() == ts.true_key.tobytes()
    # the header stores "no seed" as 0, so seed 0 reads back as None by design
    assert back.seed == (ts.seed or None)


@settings(max_examples=200)
@given(ts=trace_sets(), data=st.data())
def test_sctr_rejects_any_truncation_or_padding(ts, data):
    valid = _sctr_bytes(ts)
    if data.draw(st.booleans(), label="truncate"):
        changed = valid[:data.draw(st.integers(0, len(valid) - 1), label="length")]
    else:
        changed = valid + data.draw(st.binary(min_size=1, max_size=300), label="padding")
    with pytest.raises(SctrFormatError):
        read_sctr(io.BytesIO(changed))


def test_sctr_missing_file_is_io_error(tmp_path):
    with pytest.raises(OSError):
        read_sctr(tmp_path / "nope.sctr")


def test_sctr_io_errors_name_the_path(tmp_path):
    with pytest.raises(OSError, match="cannot read trace file .*nope.sctr"):
        read_sctr(tmp_path / "nope.sctr")
    with pytest.raises(OSError, match="cannot write trace file .*no-dir"):
        write_sctr(_campaign(n=2, spt=1), tmp_path / "no-dir" / "x.sctr")


def test_raw_round_trip_drops_key(tmp_path):
    ts = _campaign(n=9, spt=4)
    raw, meta = tmp_path / "t.f32", tmp_path / "t.csv"
    export_raw(ts, raw, meta)
    back = import_raw(raw, meta)
    assert back.true_key is None
    assert back.samples.tobytes() == ts.samples.tobytes()
    assert np.array_equal(back.plaintexts, ts.plaintexts)
    assert np.array_equal(back.ciphertexts, ts.ciphertexts)


def _write_raw(tmp_path, n, spt, rows=None):
    raw, meta = tmp_path / "r.f32", tmp_path / "r.csv"
    raw.write_bytes(np.arange(n * spt, dtype="<f4").tobytes())
    rows = rows if rows is not None else n
    lines = ["plaintext_hex,ciphertext_hex"]
    lines += [f"{'%032x' % i},{'%032x' % (i + 1)}" for i in range(rows)]
    meta.write_text("\n".join(lines) + "\n")
    return raw, meta


def test_import_raw_infers_trace_length(tmp_path):
    raw, meta = _write_raw(tmp_path, n=2, spt=3)
    ts = import_raw(raw, meta)
    assert (ts.n_traces, ts.samples_per_trace) == (2, 3)


def test_import_raw_takes_a_trace_length_of_one(tmp_path):
    raw, meta = _write_raw(tmp_path, n=3, spt=1)
    ts = import_raw(raw, meta, samples_per_trace=1)
    assert ts.samples.tobytes() == import_raw(raw, meta).samples.tobytes()
    assert ts.samples.shape == (3, 1)


def test_import_raw_row_count_mismatch(tmp_path):
    # given or inferred, the trace length follows one rule with one message
    raw, meta = _write_raw(tmp_path, n=2, spt=3, rows=3)
    with pytest.raises(TraceImportError, match="row-count mismatch: .* has 3 rows but "
                                               ".* holds 6 samples"):
        import_raw(raw, meta, samples_per_trace=3)
    raw, meta = _write_raw(tmp_path, n=1, spt=4, rows=3)
    with pytest.raises(TraceImportError, match="row-count mismatch: .* has 3 rows but "
                                               ".* holds 4 samples"):
        import_raw(raw, meta)
    # a trace length below 1 is blamed on itself, not on the files
    for spt in (-1, 0):
        with pytest.raises(TraceImportError, match=f"samples_per_trace must be >= 1, got {spt}:"):
            import_raw(raw, meta, samples_per_trace=spt)


@settings(max_examples=200)
@given(n=st.integers(1, 4), spt=st.integers(1, 4), data=st.data())
def test_import_raw_never_truncates_or_pads(n, spt, data):
    # a TemporaryDirectory, since a function-scoped tmp_path is shared by all examples
    with tempfile.TemporaryDirectory() as tmp:
        raw, meta = _write_raw(Path(tmp), n, spt)
        valid = raw.read_bytes()
        size = data.draw(st.integers(0, len(valid) + 4 * n * 3).filter(lambda s: s != len(valid)),
                         label="size")
        raw.write_bytes(valid[:size].ljust(size, b"\x00"))
        with pytest.raises(TraceImportError):
            import_raw(raw, meta, samples_per_trace=spt)
        # without a trace length, a whole multiple of n floats is just longer traces
        if size == 0 or size % (4 * n):
            with pytest.raises(TraceImportError):
                import_raw(raw, meta)
        else:
            assert import_raw(raw, meta).samples.shape == (n, size // (4 * n))


def test_import_raw_rejects_bad_hex(tmp_path):
    raw, meta = _write_raw(tmp_path, n=2, spt=1)
    lines = meta.read_text().splitlines()
    lines[2] = "zz" * 16 + "," + "00" * 16
    meta.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceImportError, match="row 2"):
        import_raw(raw, meta)


def test_import_raw_rejects_short_hex(tmp_path):
    raw, meta = _write_raw(tmp_path, n=2, spt=1)
    lines = meta.read_text().splitlines()
    lines[1] = "0011," + "00" * 16
    meta.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceImportError, match="row 1"):
        import_raw(raw, meta)


def test_import_raw_rejects_missing_columns(tmp_path):
    raw, meta = _write_raw(tmp_path, n=1, spt=1)
    meta.write_text("pt,ct\n" + "00" * 16 + "," + "11" * 16 + "\n")
    with pytest.raises(TraceImportError, match="plaintext_hex"):
        import_raw(raw, meta)


def test_import_raw_rejects_empty_csv(tmp_path):
    raw, meta = _write_raw(tmp_path, n=1, spt=1)
    meta.write_text("")
    with pytest.raises(TraceImportError, match="empty"):
        import_raw(raw, meta)


@pytest.mark.parametrize("text,message", [
    ("plaintext_hex,ciphertext_hex\n", "no metadata rows"),
    ("plaintext_hex,ciphertext_hex\n" + "00" * 16 + "\n", "row 1 has only 1 fields"),
], ids=["header-only", "short-row"])
def test_import_raw_rejects_bad_metadata_rows(tmp_path, text, message):
    raw, meta = _write_raw(tmp_path, n=1, spt=1)
    meta.write_text(text)
    with pytest.raises(TraceImportError, match=message):
        import_raw(raw, meta)


@pytest.mark.parametrize("samples_per_trace", [None, 0])
def test_import_raw_rejects_empty_sample_file(tmp_path, samples_per_trace):
    raw, meta = _write_raw(tmp_path, n=2, spt=0)
    assert raw.stat().st_size == 0
    with pytest.raises(TraceImportError, match="zero samples"):
        import_raw(raw, meta, samples_per_trace=samples_per_trace)


def test_import_raw_rejects_ragged_file(tmp_path):
    raw, meta = _write_raw(tmp_path, n=1, spt=1)
    raw.write_bytes(b"\x00" * 6)  # not a whole number of float32 values
    with pytest.raises(TraceImportError, match="float32"):
        import_raw(raw, meta)


def test_trace_set_validation():
    with pytest.raises(ValueError):
        TraceSet(np.zeros((2, 1), np.float32), np.zeros((3, 16), np.uint8),
                 np.zeros((2, 16), np.uint8))
    with pytest.raises(ValueError):
        TraceSet(np.zeros(4, np.float32), np.zeros((4, 16), np.uint8),
                 np.zeros((4, 16), np.uint8))
    for bad in (np.nan, np.inf, -np.inf):
        samples = np.zeros((5, 3), np.float32)
        samples[3, 1] = bad
        with pytest.raises(ValueError, match="trace index 3 "):
            TraceSet(samples, np.zeros((5, 16), np.uint8), np.zeros((5, 16), np.uint8))


def test_non_finite_samples_are_rejected_on_read_and_import(tmp_path):
    ts = _campaign(n=10, spt=3)
    raw, meta = tmp_path / "c.f32", tmp_path / "c.csv"
    export_raw(ts, raw, meta)
    samples = np.fromfile(raw, dtype="<f4")
    samples[3 * 7 + 2] = np.nan
    samples.tofile(raw)
    with pytest.raises(ValueError, match="trace index 7 "):
        import_raw(raw, meta)

    buf = io.BytesIO()
    write_sctr(ts, buf)
    data = bytearray(buf.getvalue())
    record = 32 + 4 * 3
    at = len(data) - (10 - 7) * record + 32 + 4 * 2   # trace 7, sample 2
    data[at:at + 4] = np.float32(np.inf).tobytes()
    with pytest.raises(ValueError, match="trace index 7 "):
        read_sctr(io.BytesIO(bytes(data)))


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_sctr_rejects_seed_outside_header_field(seed):
    ts = _campaign(n=4)
    ts.seed = seed
    with pytest.raises(SctrFormatError, match="seed"):
        write_sctr(ts, io.BytesIO())


def test_trace_io_holds_each_byte_once(tmp_path):
    n, spt = 3000, 64
    ts = _campaign(n=n, spt=spt)
    path, raw, meta = tmp_path / "m.sctr", tmp_path / "m.f32", tmp_path / "m.csv"
    export_raw(ts, raw, meta)
    write_sctr(ts, path)          # warm-up: every call below has run once
    read_sctr(path)
    import_raw(raw, meta)
    file_size = path.stat().st_size

    _, peak = traced_peak(lambda: write_sctr(ts, path))
    assert peak < 1.5 * file_size
    back, peak = traced_peak(lambda: read_sctr(path))
    assert peak < 1.5 * file_size
    for arr in (back.samples, back.plaintexts, back.ciphertexts):
        assert not arr.flags.writeable
    imported, peak = traced_peak(lambda: import_raw(raw, meta))
    assert peak < 1.5 * (ts.samples.nbytes + 32 * n)
    assert imported.samples.tobytes() == ts.samples.tobytes()
    assert np.array_equal(imported.plaintexts, ts.plaintexts)
    assert np.array_equal(imported.ciphertexts, ts.ciphertexts)
