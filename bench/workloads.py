"""The benchmark's workloads.

Each workload is one operation a user of the ``scakit`` CLI runs, made of
one or two commands.  All of them use the key below at unit per-bit
weight and noise sigma 4 (4w), and take their randomness from the
benchmark seed.  Commands name their files relative to the work
directory they run in, so outputs, including the ``source`` field the
attack report echoes, do not depend on where the checkout lives.

Every operation's outputs are checked twice: for what they must say
(:meth:`check`) and, through :func:`output_digest`, for being
byte-identical to the digest recorded for the same seed.
"""

import csv
import hashlib
import json
from dataclasses import dataclass

import capture

KEY = "2041e2770445067328090a7f0c0d0e7b"
LEAKAGE = ["--key", KEY, "--weight", "1", "--sigma", "4"]


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


@dataclass(frozen=True)
class Sweep:
    """The paper's countermeasure study: a (bit, offset) grid of simulated
    campaigns, each attacked and scanned for wrong horses.  S=1, no file
    I/O besides the table."""
    name: str = "sweep-s1"
    n: int = 20000
    stride: int = 100
    offsets: tuple = ("0", "2", "4", "4.5", "6", "8")
    bits: tuple = ("2", "5")
    outputs = ("sweep.csv",)

    @property
    def traces_per_op(self):
        return self.n * len(self.offsets) * len(self.bits)

    def prepare(self, work, seed):
        pass

    def commands(self, seed):
        return [["sweep", *LEAKAGE, "--seed", str(seed), "--n", str(self.n),
                 "--stride", str(self.stride), "--offsets", ",".join(self.offsets),
                 "--bits", ",".join(self.bits), "-o", "sweep.csv"]]

    def check(self, work):
        with open(work / "sweep.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        if rows[:1] != [["bit", "offset", "disclosure", "wrong_horse_count"]]:
            return [f"sweep.csv header is {rows[:1]}"]
        grid = [[bit, offset] for bit in self.bits for offset in self.offsets]
        if [row[:2] for row in rows[1:]] != grid:
            return [f"sweep.csv rows do not follow the {len(grid)}-point grid"]
        # Without an offset the plain attack must settle on the key.
        return [f"no disclosure at offset 0 for bit {row[0]}"
                for row in rows[1:] if row[1] == "0" and not row[2]]


@dataclass(frozen=True)
class KeyRecovery:
    """Full key recovery: simulate a campaign to SCTR, then attack all 16
    bytes of it.  S=1; AES and the hypothesis matrix dominate.

    n is set for steady timing on a shared host.  On a 2-core x86-64 VM
    with a memory-bandwidth load on the other core, an operation ran
    12-25% slower at n=25000 and at most 2% slower at n=15000.  Either
    way each byte is attacked at 100 checkpoints."""
    name: str = "keyrec-s1"
    n: int = 15000
    stride: int = 150
    outputs = ("keyrec.sctr", "keyrec.json")

    @property
    def traces_per_op(self):
        return self.n

    def prepare(self, work, seed):
        pass

    def commands(self, seed):
        return [["simulate", *LEAKAGE, "--seed", str(seed), "--n", str(self.n),
                 "-o", "keyrec.sctr"],
                ["attack", "keyrec.sctr", "--all-bytes", "--stride", str(self.stride),
                 "--report", "keyrec.json"]]

    def check(self, work):
        report = _read_json(work / "keyrec.json")
        problems = []
        if report.get("recovered") is not True:
            problems.append(f"key not recovered: recovered={report.get('recovered')!r}")
        if report.get("cipher_key_hex") != KEY:
            problems.append(f"cipher key {report.get('cipher_key_hex')!r} is not {KEY}")
        return problems


@dataclass(frozen=True)
class Capture:
    """The external-capture path: convert a raw float32 capture and its
    metadata CSV to SCTR, then attack one byte with a JSON report and the
    correlation-evolution CSV.  S=500 makes CPA wide; almost no AES."""
    name: str = "capture-s500"
    n: int = 20000
    samples: int = 500
    poi: int = 250
    stride: int = 100
    outputs = ("capture.sctr", "capture.json", "evolution.csv")

    @property
    def traces_per_op(self):
        return self.n

    def prepare(self, work, seed):
        """Write the capture; not part of any timed operation."""
        capture.write_capture(work / "capture.f32", work / "capture.csv", bytes.fromhex(KEY),
                              self.n, self.samples, self.poi, 4.0, seed)

    def commands(self, seed):
        return [["convert", "capture.f32", "capture.csv",
                 "--samples-per-trace", str(self.samples), "-o", "capture.sctr"],
                ["attack", "capture.sctr", "--byte", "0", "--stride", str(self.stride),
                 "--report", "capture.json", "--evolution-csv", "evolution.csv"]]

    def check(self, work):
        report = _read_json(work / "capture.json")
        # State byte 0 stays at position 0 under ShiftRows, so the correct
        # guess is byte 0 of the round-10 key.
        known = int(capture.expand_key(bytes.fromhex(KEY))[10][0])
        if report.get("best_guess") != known:
            return [f"best_guess {report.get('best_guess')!r} is not the known {known}"]
        return []


WORKLOADS = {w.name: w for w in (Sweep(), KeyRecovery(), Capture())}


def output_digest(work, outputs):
    """SHA-256 over the names and bytes of a workload's output files."""
    total = hashlib.sha256()
    for name in outputs:
        total.update(name.encode() + b"\0" + hashlib.sha256((work / name).read_bytes()).digest())
    return total.hexdigest()
