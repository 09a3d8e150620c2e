"""Command-line front end for reproducible simulate/attack/analyze runs.

Subcommands
-----------
simulate   generate a campaign and write it as an SCTR file
attack     run CPA on an SCTR file, emit a JSON report and optional
           evolution CSV (columns: checkpoint, guess, r)
fit-hd     per-HD-class means and line fits for chosen guesses
           (points CSV: guess, hd, mean, count; fits CSV: guess, slope,
           intercept, r)
sweep      grid of (bit, offset) augmentations of one campaign, simulated
           once; table of bit, offset, disclosure, wrong_horse_count
           (HD fits at the POI)
convert    raw float32 dump + metadata CSV -> SCTR

Every command is deterministic given its arguments; campaign randomness
comes only from ``--seed``.  Errors are written to stderr as a single
JSON object and the exit code is nonzero.  README.md defines the JSON
attack report.

Config file
-----------
``--config FILE`` preloads simulate/sweep parameters from a key=value
UTF-8 file (``#`` starts a comment, a byte-order mark is skipped).
simulate takes the names in ``_SIM_PARAMS``, sweep those in
``_SWEEP_PARAMS`` (all but the ones its ``--bits``/``--offsets`` grid
replaces); each also has a long flag, with ``-`` for ``_``.  Both are
parsed by the same type, explicit flags override file values, and any
other key is an error.  Long flags must be spelled out in full.
simulate also rejects, from either source, alpha or pulse without n_ro,
and augment_byte, augment_bit or trigger without an offset or n_ro,
since it would ignore them.
"""

import argparse
import codecs
import contextlib
import gc
import json
import sys

import numpy as np

from . import aes
from .cpa import CHECKPOINT_STRIDE, checkpoint_schedule, cpa_attack
from .hd import attack_offset_grid, fit_hd_line, group_by_hd
from .leakage import (Augmentation, LeakageConfig, Trigger, ro_offset_model, simulate_campaign,
                      simulate_offset_grid)
from .traceio import check_sctr_fields, import_raw, read_sctr, write_sctr


def _cipher_key(text):
    aes.as_block(text)   # refuses what is not 16 bytes; the key stays as given
    return text


_cipher_key.__name__ = "cipher key"   # argparse's error names it

# The campaign parameters: name -> (type, default, help).  The name is
# the config-file key and, with "-" for "_", the long flag; the type
# parses both.  Defaults the library's dataclasses also hold are read from them.
_SIM_PARAMS = {
    "key": (_cipher_key, "000102030405060708090a0b0c0d0e0f", "cipher key, 32 hex chars"),
    "n": (int, 1000, "number of traces"),
    "sigma": (float, LeakageConfig.noise_sigma, "gaussian noise level"),
    "weight": (float, 1.0, "per-bit leakage weight"),
    "baseline": (float, LeakageConfig.baseline, "trace baseline level"),
    "samples": (int, LeakageConfig.samples_per_trace, "samples per trace"),
    "poi": (int, LeakageConfig.poi_index, "sample index carrying the leakage"),
    "seed": (int, 1, "campaign seed"),
    "augment_byte": (int, 0, "state byte holding the augmented bit"),
    "augment_bit": (int, 2, "augmented bit within that byte"),
    "offset": (float, None, "augmentation offset (volt-equivalent)"),
    "n_ro": (int, None, "derive the offset from a ring-oscillator count"),
    "alpha": (float, None, "per-oscillator offset contribution"),
    "pulse": (float, 1.0, "fraction of the window the bank is active"),
    "trigger": (Trigger, Augmentation.trigger, "offset fires when the bit is static or toggles"),
}
# The sweep's grid sets the augmented bit and the offset.
_SWEEP_PARAMS = tuple(name for name in _SIM_PARAMS
                      if name not in ("augment_bit", "offset", "n_ro", "alpha", "pulse"))


def _load_config_file(path, names):
    values, first_line = {}, {}
    with open(path, "rb") as fh:   # UTF-8, with or without the BOM some editors write
        lines = fh.read().removeprefix(codecs.BOM_UTF8).splitlines()
    for line_no, raw in enumerate(lines, start=1):
        try:
            raw = raw.decode()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}:{line_no}: not UTF-8 text: {exc}") from None
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{line_no}: expected 'key = value', got {raw.strip()!r}")
        name, _, value = line.partition("=")
        name = name.strip()
        if name not in names:
            raise ValueError(f"{path}:{line_no}: unknown config key {name!r}")
        if name in first_line:
            raise ValueError(f"{path}:{line_no}: duplicate config key {name!r} "
                             f"(first set on line {first_line[name]})")
        first_line[name] = line_no
        try:
            values[name] = _SIM_PARAMS[name][0](value.strip())
        except ValueError as exc:
            raise ValueError(f"{path}:{line_no}: bad value for {name!r}: {exc}") from None
    return values


def _add_sim_arguments(parser, names):
    parser.add_argument("--config", help="key=value file with campaign parameters")
    for name in names:
        parse, _, help_text = _SIM_PARAMS[name]
        parser.add_argument("--" + name.replace("_", "-"), dest=name, type=parse, help=help_text)


def _resolve_sim_params(args, names):
    """Defaults, then the config file, then explicit flags; also returns
    the set of names the file or the flags gave."""
    params = {name: _SIM_PARAMS[name][1] for name in names}
    given = _load_config_file(args.config, names) if args.config else {}
    given.update({name: getattr(args, name) for name in names
                  if getattr(args, name) is not None})
    params.update(given)
    return params, set(given)


def _build_leakage_config(params):
    return LeakageConfig.equal_weights(
        params["weight"], baseline=params["baseline"], noise_sigma=params["sigma"],
        samples_per_trace=params["samples"], poi_index=params["poi"])


def _write_csv(path, header, lines):
    """Write the CSV line ``header``, then ``lines``, each ended by CRLF, to
    ``path``, or to stdout without one; fields are numbers or empty, unquoted."""
    with open(path, "w", newline="") if path else contextlib.nullcontext(sys.stdout) as fh:
        fh.write(f"{header}\r\n")
        fh.writelines(f"{line}\r\n" for line in lines)


def _reject_unused(given, names, needs):
    unused = [name for name in names if name in given]
    if unused:
        raise ValueError(f"{', '.join(unused)} would be ignored without {needs}: "
                         f"give {needs}, or drop them")


def cmd_simulate(args) -> int:
    params, given = _resolve_sim_params(args, _SIM_PARAMS)
    if params["n_ro"] is not None:
        if params["offset"] is not None or params["alpha"] is None:
            raise ValueError("n_ro sets the offset through alpha: give alpha, and no offset")
        params["offset"] = ro_offset_model(params["n_ro"], params["pulse"], params["alpha"])
    else:
        _reject_unused(given, ("alpha", "pulse"), "n_ro")
    augmentation = None
    if params["offset"] is None:
        _reject_unused(given, ("augment_byte", "augment_bit", "trigger"), "offset or n_ro")
    else:
        augmentation = Augmentation(params["augment_byte"], params["augment_bit"],
                                    params["offset"], params["trigger"])
    config = _build_leakage_config(params)
    check_sctr_fields(params["n"], params["samples"], params["seed"])
    trace_set = simulate_campaign(params["key"], params["n"], config, params["seed"], augmentation)
    write_sctr(trace_set, args.output)
    effective = {k: params[k] for k in sorted(params)}
    effective["trigger"] = params["trigger"].value
    effective["command"] = "simulate"
    effective["output"] = args.output
    print(json.dumps(effective))
    return 0


def _attack_one(traces, byte_index, stride, evolutions=True):
    result = cpa_attack(traces, byte_index, stride, evolutions)
    entry = {
        "byte_index": byte_index,
        "target_key_position": int(aes.SR_FORWARD[byte_index]),
        "best_guess": result.best_guess,
        "best_score": float(result.scores[result.best_guess]),
        "correct_guess": result.correct_guess,
        "correct_rank": result.correct_rank,
        "disclosure": result.disclosure,
    }
    return result, entry


def cmd_attack(args) -> int:
    if args.all_bytes and args.evolution_csv:
        raise ValueError("--evolution-csv needs single-byte mode; drop --all-bytes")
    if args.all_bytes and args.byte is not None:
        raise ValueError("--byte would be ignored with --all-bytes: drop one of them")
    traces = read_sctr(args.sctr)
    report = {
        "schema_version": 1,
        "mode": "all" if args.all_bytes else "single",
        "source": args.sctr,
        "n_traces": traces.n_traces,
        "samples_per_trace": traces.samples_per_trace,
        "checkpoint_stride": args.stride,
    }
    if args.all_bytes:
        entries = []
        recovered = np.zeros(16, dtype=np.uint8)
        for byte_index in range(16):
            _, entry = _attack_one(traces, byte_index, args.stride, evolutions=False)
            entries.append(entry)
            recovered[entry["target_key_position"]] = entry["best_guess"]
        report["bytes"] = entries
        report["last_round_key_hex"] = aes.block_hex(recovered)
        report["cipher_key_hex"] = aes.block_hex(aes.invert_key_schedule(recovered))
        report["true_last_round_key_hex"] = None
        report["recovered"] = None
        if traces.true_key is not None:
            true_k10 = aes.last_round_key(traces.true_key)
            report["true_last_round_key_hex"] = aes.block_hex(true_k10)
            report["recovered"] = bool(np.array_equal(recovered, true_k10))
    else:
        result, entry = _attack_one(traces, args.byte or 0, args.stride)
        report.update(entry)
        report["ranking"] = result.ranking.tolist()
        report["scores"] = result.scores.tolist()
        checkpoints = checkpoint_schedule(traces.n_traces, args.stride)
        curves = result.evolution.tolist()
        report["evolution"] = {"checkpoints": checkpoints, "curves": curves}
        if args.evolution_csv:   # one % format per checkpoint's 256 lines
            lines = "\r\n".join(f"{{0}},{guess},%.17g" for guess in range(256))
            _write_csv(args.evolution_csv, "checkpoint,guess,r",
                       (lines.format(count) % row for count, row in zip(checkpoints, zip(*curves))))

    with open(args.report, "w") if args.report else contextlib.nullcontext(sys.stdout) as fh:
        fh.writelines(_json(report))
        fh.write("\n")
    if args.report:
        print(json.dumps({k: report[k] for k in report
                          if k not in ("ranking", "scores", "evolution", "bytes")}))
    return 0


def _json(value, pad="\n"):
    """Yield the text of ``json.dumps(value, indent=2)``, dict keys being strings;
    json's C encoder renders each list of numbers, as the pure-Python one is slow."""
    inner = pad + "  "
    if not isinstance(value, (dict, list)) or not value:
        yield json.dumps(value)
    elif isinstance(value, list) and {*map(type, value)} <= {int, float, bool, type(None)}:
        yield f"[{inner}{json.dumps(value)[1:-1].replace(', ', ',' + inner)}{pad}]"
    else:
        brackets, items = (("{}", ((json.dumps(k) + ": ", v) for k, v in value.items()))
                           if isinstance(value, dict) else ("[]", (("", v) for v in value)))
        for i, (key, item) in enumerate(items):
            yield ("," if i else brackets[0]) + inner + key
            yield from _json(item, inner)
        yield pad + brackets[1]


def cmd_fit_hd(args) -> int:
    traces = read_sctr(args.sctr)
    guesses = args.guess
    if not guesses:
        if traces.true_key is None:
            raise ValueError("no --guess given and the trace file records no true key")
        guesses = [aes.correct_last_round_guess(traces.true_key, args.byte)]
    summaries = [group_by_hd(traces, g, args.byte, args.sample) for g in guesses]
    fits = [fit_hd_line(s) for s in summaries]

    if args.points:
        _write_csv(args.points, "guess,hd,mean,count",
                   (f"{guess},{hd},{s.means[hd]:.17g},{s.counts[hd]}"
                    for guess, s in zip(guesses, summaries) for hd in np.nonzero(s.present)[0]))
    if args.fits:
        _write_csv(args.fits, "guess,slope,intercept,r",
                   (f"{guess},{fit.slope:.17g},{fit.intercept:.17g},{fit.r:.17g}"
                    for guess, fit in zip(guesses, fits)))
    for guess, fit in zip(guesses, fits):
        print(f"guess {guess:3d}: slope {fit.slope:+.6g} intercept {fit.intercept:+.6g} "
              f"r {fit.r:+.6f} classes {fit.n_classes_used}")
    return 0


def cmd_sweep(args) -> int:
    params, _ = _resolve_sim_params(args, _SWEEP_PARAMS)
    # Validate the whole grid, the stride and the byte before the first
    # campaign is simulated.
    points = [(bit, offset) for bit in args.bits for offset in args.offsets]
    augmentations = [Augmentation(params["augment_byte"], bit, offset, params["trigger"])
                     for bit, offset in points]
    config = _build_leakage_config(params)
    check_sctr_fields(params["n"], params["samples"], params["seed"])
    checkpoint_schedule(params["n"], args.stride)
    aes.correct_last_round_guess(params["key"], args.byte)

    grid = simulate_offset_grid(params["key"], params["n"], config, params["seed"], augmentations)
    attacks = attack_offset_grid(grid, args.byte, checkpoint_stride=args.stride,
                                 sample_index=config.poi_index)
    lines = [f"{bit},{offset:.17g},{'' if result.disclosure is None else result.disclosure},"
             f"{len(horses)}" for (bit, offset), (result, horses) in zip(points, attacks)]
    _write_csv(args.output, "bit,offset,disclosure,wrong_horse_count", lines)
    return 0


def cmd_convert(args) -> int:
    traces = import_raw(args.samples, args.meta, samples_per_trace=args.samples_per_trace)
    write_sctr(traces, args.output)
    print(json.dumps({"command": "convert", "n_traces": traces.n_traces,
                      "samples_per_trace": traces.samples_per_trace, "output": args.output}))
    return 0


def _list_of(parse):
    """argparse type for a comma-separated list of ``parse`` values."""
    def parse_list(text):
        return [parse(value) for value in text.split(",")]
    parse_list.__name__ = f"comma-separated {parse.__name__}"   # argparse's error names it
    return parse_list


class _ArgumentParser(argparse.ArgumentParser):
    """Raises usage errors, so that ``main`` reports them as JSON like any
    other, and takes no abbreviated flag: ``--offset`` is not ``--offsets``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs, allow_abbrev=False)

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="scakit",
                             description="last-round AES power-analysis toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="simulate a campaign into an SCTR file")
    _add_sim_arguments(p_sim, _SIM_PARAMS)
    p_sim.add_argument("-o", "--output", required=True, help="SCTR file to write")
    p_sim.set_defaults(func=cmd_simulate)

    p_att = sub.add_parser("attack", help="CPA attack on an SCTR file")
    p_att.add_argument("sctr")
    p_att.add_argument("--byte", type=int, help="state byte index to attack (default 0)")
    p_att.add_argument("--all-bytes", action="store_true", dest="all_bytes",
                       help="attack all 16 byte positions and assemble the key")
    p_att.add_argument("--stride", type=int, default=CHECKPOINT_STRIDE,
                       help="checkpoint stride in traces")
    p_att.add_argument("--report", help="write the JSON report here instead of stdout")
    p_att.add_argument("--evolution-csv", dest="evolution_csv",
                       help="write checkpoint,guess,r rows here (single-byte mode)")
    p_att.set_defaults(func=cmd_attack)

    p_fit = sub.add_parser("fit-hd", help="per-HD-class means and line fits")
    p_fit.add_argument("sctr")
    p_fit.add_argument("--byte", type=int, default=0)
    p_fit.add_argument("--guess", type=int, action="append", default=[],
                       help="key guess to fit (repeatable; default: the correct guess)")
    p_fit.add_argument("--sample", type=int, default=0, help="sample index to analyze")
    p_fit.add_argument("--points", help="CSV of per-class means (guess, hd, mean, count)")
    p_fit.add_argument("--fits", help="CSV of fit lines (guess, slope, intercept, r)")
    p_fit.set_defaults(func=cmd_fit_hd)

    p_sweep = sub.add_parser("sweep", help="offset/bit grid of simulated countermeasures")
    _add_sim_arguments(p_sweep, _SWEEP_PARAMS)
    p_sweep.add_argument("--offsets", required=True, type=_list_of(float),
                         help="comma-separated offsets")
    p_sweep.add_argument("--bits", required=True, type=_list_of(int),
                         help="comma-separated bit indices")
    p_sweep.add_argument("--byte", type=int, default=0, help="state byte index to attack")
    p_sweep.add_argument("--stride", type=int, default=CHECKPOINT_STRIDE)
    p_sweep.add_argument("-o", "--output", help="table CSV (default stdout)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_conv = sub.add_parser("convert", help="raw float32 + metadata CSV -> SCTR")
    p_conv.add_argument("samples", help="header-less little-endian float32 matrix")
    p_conv.add_argument("meta", help="CSV with plaintext_hex and ciphertext_hex columns")
    p_conv.add_argument("--samples-per-trace", type=int, dest="samples_per_trace",
                        help="expected trace length (checked against the file size)")
    p_conv.add_argument("-o", "--output", required=True, help="SCTR file to write")
    p_conv.set_defaults(func=cmd_convert)
    return parser


def main(argv=None) -> int:
    if argv is None:   # the process entry: the exit's collection skips what the imports made
        gc.freeze()
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(json.dumps({"error": str(exc) or type(exc).__name__}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
