"""Batch command-line interface.

Exit codes: 0 success, 2 invalid input, 3 design/calibration failure.
Code and pair files are the JSON format of encoder.save_code / save_pair;
bit sequences are text files with one 0/1 line per word; CSV floats use six
significant digits.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import sys

import numpy as np

from . import bounds, design, fixtures, simulate
from .encoder import TailbitingCode, code_to_dict, load_code, write_json
from .keyagree import enroll_many, load_pair, pair_to_dict, reconstruct_many
from .simulate import StopRule
from .trellis import WeightSpectrum, free_distance, weight_enumerator


def _output(path: str | None):
    """The --out file, or stdout (left open) when there is none."""
    return open(path, "w", newline="") if path else contextlib.nullcontext(sys.stdout)


def _write_rows(path: str | None, header: list[str], rows) -> None:
    with _output(path) as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([f"{v:.6g}" if isinstance(v, float) else str(v) for v in row] for row in rows)


def _write_json(path: str | None, obj) -> None:
    with _output(path) as fh:
        write_json(obj, fh)


def _stop(args) -> StopRule:
    return StopRule(max_trials=args.max_trials, target_errors=args.target_errors)


def _add_common(p, stop=False, sim=False):
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    if stop:
        p.add_argument("--max-trials", type=int, default=10_000_000)
        p.add_argument("--target-errors", type=int, default=50)
    if sim:  # Monte Carlo subcommands
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--workers", type=int, default=1)


def cmd_design_fec(args) -> int:
    res = design.search_fec(args.n, args.m, args.kfec, args.target_pb, args.wmax,
                            seed=args.seed, d_max=args.dmax)
    # re-verify the winner at doubled truncation; a moving solution means the
    # dropped high-weight mass mattered
    d_max = res.spectrum.d_max
    d2, p2 = min(res.code.N, 2 * d_max), res.p_c
    if d2 > d_max:
        p2 = bounds.solve_crossover(weight_enumerator(res.code, d2), args.target_pb)
    out = code_to_dict(res.code)
    out["provenance"] = {
        "seed": args.seed, "w_max": args.wmax, "target_pb": args.target_pb,
        "p_c_union_bound": res.p_c, "p_c_recheck": p2,
        "recheck_moved": abs(p2 - res.p_c) > 0.01 * res.p_c,
        "skipped_candidates": res.skipped, "pruned_candidates": res.pruned,
        "spectrum_head": dict(res.spectrum.items()[:16]),
    }
    _write_json(args.out, out)
    return 0


def cmd_design_vq(args) -> int:
    parent = load_code(args.code)
    res = design.search_vq_extension(parent.spec, args.kvq, args.wmax, seed=args.seed)
    code = TailbitingCode.unfrozen(res.spec, parent.ell)
    out = code_to_dict(code)
    out["provenance"] = {
        "seed": args.seed, "w_max": args.wmax, "parent": args.code,
        "d_free": res.free.d_free, "a_free": res.free.a_free,
    }
    _write_json(args.out, out)
    return 0


def cmd_design_nested(args) -> int:
    pair, report = design.design_nested(
        p_A=args.pa, target_pb=args.target_pb, K_fec=args.kfec,
        n=args.n, m=args.m, seed=args.seed, w_max=args.wmax,
        stop=_stop(args), distortion_trials=args.distortion_trials,
        workers=args.workers,
    )
    _write_json(args.out, pair_to_dict(pair))
    print(
        f"designed pair: N={pair.N} K_fec={pair.K_fec} K_vq={pair.K_vq} "
        f"p_c={report.p_c_sim:.6g} q_max={report.q_max:.6g} q_bar={report.q_bar:.6g}",
        file=sys.stderr,
    )
    print("stage seconds: " + " ".join(f"{stage} {s:.3f}" for stage, s in
                                       report.stage_seconds.items()), file=sys.stderr)
    return 0


def cmd_spectrum(args) -> int:
    code = load_code(args.code)
    spectrum = weight_enumerator(code, args.dmax)
    _write_rows(args.out, ["d", "A_d"], spectrum.items())
    if spectrum.truncated:
        print(f"note: spectrum truncated at d_max={spectrum.d_max}", file=sys.stderr)
    return 0


def cmd_dfree(args) -> int:
    code = load_code(args.code)
    rep = free_distance(code.spec)
    a = "" if rep.a_free is None else rep.a_free
    _write_rows(args.out, ["d_free", "A_free"], [(rep.d_free, a)])
    if rep.degenerate:
        print("note: degenerate encoder (zero-weight nonzero path)", file=sys.stderr)
    if rep.divergent:
        print("note: minimum-weight multiplicity diverges", file=sys.stderr)
    return 0


def _load_spectrum_csv(path: str) -> WeightSpectrum:
    coeffs: dict[int, int] = {}
    for r in fixtures.read_csv(path)[1]:
        if r.get("d") is None or r.get("A_d") is None:
            raise ValueError(f"{path}: row {r} lacks a d or A_d field")
        d, a_d = int(r["d"]), int(r["A_d"])
        if d < 0 or a_d <= 0:
            raise ValueError(f"{path}: row {r} needs d >= 0 and A_d > 0")
        coeffs[d] = a_d
    if not coeffs:
        raise ValueError(f"{path}: empty spectrum")
    d_max = max(coeffs)
    return WeightSpectrum(coeffs, d_max, d_max, 0)


def cmd_bound(args) -> int:
    spectrum = _load_spectrum_csv(args.spectrum)
    if args.pc:
        grid = [float(p) for p in args.pc]
    else:
        lo, hi, num = args.pc_grid
        if not (num >= 1 and num.is_integer()):
            raise ValueError(f"--pc-grid COUNT must be a whole number >= 1, got {num:g}")
        grid = np.linspace(lo, hi, int(num)).tolist()
    rows = [(p, bounds.union_bound_pb(spectrum, p)) for p in grid]
    _write_rows(args.out, ["pc", "PB_UB"], rows)
    return 0


def cmd_sim_fer(args) -> int:
    code = load_code(args.code)
    rep = simulate.simulate_fer(
        code, args.pc, _stop(args), args.seed, args.workers
    )
    _write_json(args.out, dataclasses.asdict(rep))
    return 0


def cmd_sim_distortion(args) -> int:
    code = load_code(args.code)
    rep = simulate.simulate_distortion(
        code, args.trials, args.seed, args.workers
    )
    _write_json(args.out, dataclasses.asdict(rep))
    return 0


def cmd_sim_e2e(args) -> int:
    pair = load_pair(args.pair)
    rep = simulate.simulate_end_to_end(
        pair, args.pa, _stop(args), args.seed, args.workers
    )
    _write_json(args.out, dataclasses.asdict(rep))
    return 0


def _read_bits(path: str, width: int) -> np.ndarray:
    """A bit file as a uint8 [B, width] array: one word of 0/1 characters per
    line; blank lines and the whitespace around a word are skipped."""
    words = []
    with open(path, errors="replace") as fh:
        for i, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            if len(line) != width:
                raise ValueError(f"{path}, line {i}: length {len(line)}, expected {width}")
            if line.strip("01"):
                raise ValueError(f"{path}, line {i}: {line.strip('01')[0]!r} is not a bit")
            words.append(line)
    bits = np.frombuffer("".join(words).encode(), dtype=np.uint8) - ord("0")
    return bits.reshape(len(words), width)


def _write_bits(path: str, bits: np.ndarray) -> None:
    """Write a [B, width] bit array as a bit file, one line per row."""
    chars = np.asarray(bits, dtype=np.uint8) + ord("0")
    newline = np.full((len(chars), 1), ord("\n"), dtype=np.uint8)
    with open(path, "w") as fh:
        fh.write(np.hstack([chars, newline]).tobytes().decode())


def cmd_enroll(args) -> int:
    pair = load_pair(args.pair)
    keys, helpers, dist = enroll_many(pair, _read_bits(args.x, pair.N))
    for d in dist:
        print(f"distortion {float(d) / pair.N:.6g}", file=sys.stderr)
    _write_bits(args.out_key, keys)
    _write_bits(args.out_helper, helpers)
    return 0


def cmd_reconstruct(args) -> int:
    pair = load_pair(args.pair)
    y = _read_bits(args.y, pair.N)
    w = _read_bits(args.helper, pair.K_vq - pair.K_fec)
    _write_bits(args.out_key, reconstruct_many(pair, y, w))
    return 0


def cmd_evaluate(args) -> int:
    pair = load_pair(args.pair)
    # before the run, so that a bad --l-ref fails at once
    pc_ref = None if args.l_ref is None else bounds.pc_complexity(args.l_ref, pair.N)
    out = simulate.evaluate(
        pair, args.target_pb, args.seed, _stop(args),
        args.distortion_trials, args.workers,
    )
    if pc_ref is not None:
        out["pc_reference_log2"] = float(np.log2(pc_ref))
    _write_json(args.out, out)
    return 0


def cmd_region(args) -> int:
    grid = np.linspace(args.q_min, args.q_max, args.points).tolist()
    if not args.aux and not args.fixture:
        if args.blocklength is not None:
            raise ValueError("--blocklength needs --aux or --fixture")
        _write_rows(args.out, ["q", "Rs", "Rw"], simulate.region_curve(args.pa, grid))
        return 0
    rows = [(name, x, y) for name, pts in
            simulate.region_aux_series(args.pa, grid, args.blocklength).items()
            for x, y in pts]
    if args.fixture:
        rows.extend(fixtures.fixture_overlay(args.fixture))
    _write_rows(args.out, ["series", "x", "y"], rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nestedtbcc",
        description="Design, analyze, and simulate nested tailbiting convolutional "
                    "codes for key agreement with noisy identifiers.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design-fec", help="random search for a rate-1/n code")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--kfec", type=int, required=True)
    p.add_argument("--target-pb", type=float, required=True)
    p.add_argument("--wmax", type=int, default=1000)
    p.add_argument("--dmax", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(fn=cmd_design_fec)

    p = sub.add_parser("design-vq", help="extend a code by random input columns")
    p.add_argument("--code", required=True, help="parent code JSON")
    p.add_argument("--kvq", type=int, required=True)
    p.add_argument("--wmax", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(fn=cmd_design_vq)

    p = sub.add_parser("design-nested", help="full nested design procedure")
    p.add_argument("--pa", type=float, required=True)
    p.add_argument("--target-pb", type=float, required=True)
    p.add_argument("--kfec", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--wmax", type=int, default=1000)
    p.add_argument("--distortion-trials", type=int, default=4096)
    _add_common(p, stop=True, sim=True)
    p.set_defaults(fn=cmd_design_nested)

    p = sub.add_parser("spectrum", help="weight enumerator CSV (d, A_d)")
    p.add_argument("--code", required=True)
    p.add_argument("--dmax", type=int, default=None)
    _add_common(p)
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("dfree", help="free distance and multiplicity")
    p.add_argument("--code", required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_dfree)

    p = sub.add_parser("bound", help="union bound from a spectrum CSV")
    p.add_argument("--spectrum", required=True)
    grid = p.add_mutually_exclusive_group()
    grid.add_argument("--pc", action="append", default=None, help="crossover (repeatable)")
    grid.add_argument("--pc-grid", nargs=3, type=float, metavar=("MIN", "MAX", "COUNT"),
                      default=(0.01, 0.2, 20.0))
    _add_common(p)
    p.set_defaults(fn=cmd_bound)

    p = sub.add_parser("sim-fer", help="Monte Carlo block-error rate")
    p.add_argument("--code", required=True)
    p.add_argument("--pc", type=float, required=True)
    _add_common(p, stop=True, sim=True)
    p.set_defaults(fn=cmd_sim_fer)

    p = sub.add_parser("sim-distortion", help="Monte Carlo quantizer distortion")
    p.add_argument("--code", required=True)
    p.add_argument("--trials", type=int, default=4096)
    _add_common(p, sim=True)
    p.set_defaults(fn=cmd_sim_distortion)

    p = sub.add_parser("sim-e2e", help="Monte Carlo end-to-end key error rate")
    p.add_argument("--pair", required=True)
    p.add_argument("--pa", type=float, required=True)
    _add_common(p, stop=True, sim=True)
    p.set_defaults(fn=cmd_sim_e2e)

    p = sub.add_parser("enroll", help="enroll identifier words from a bit file")
    p.add_argument("--pair", required=True)
    p.add_argument("--x", required=True, help="bit file, one word per line")
    p.add_argument("--out-key", required=True)
    p.add_argument("--out-helper", required=True)
    p.set_defaults(fn=cmd_enroll)

    p = sub.add_parser("reconstruct", help="reconstruct keys from measurements")
    p.add_argument("--pair", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--helper", required=True)
    p.add_argument("--out-key", required=True)
    p.set_defaults(fn=cmd_reconstruct)

    p = sub.add_parser("evaluate", help="full evaluation row for a pair")
    p.add_argument("--pair", required=True)
    p.add_argument("--target-pb", type=float, required=True)
    p.add_argument("--l-ref", type=int, default=None,
                   help="list size for the reference polar complexity column")
    p.add_argument("--distortion-trials", type=int, default=4096)
    _add_common(p, stop=True, sim=True)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("region", help="rate-region boundary CSV")
    p.add_argument("--pa", type=float, required=True)
    p.add_argument("--q-min", type=float, default=0.0)
    p.add_argument("--q-max", type=float, default=0.5)
    p.add_argument("--points", type=int, default=101)
    p.add_argument("--blocklength", type=int, default=None)
    p.add_argument("--aux", action="store_true",
                   help="long-format output with reference series")
    p.add_argument("--fixture", action="append", default=None,
                   help="fixture CSV to overlay (repeatable)")
    _add_common(p)
    p.set_defaults(fn=cmd_region)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except design.DesignFailure as exc:
        print(f"design failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, KeyError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
