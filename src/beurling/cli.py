"""Command-line surface.

Subcommands bind the library's pipelines to JSON descriptors on disk:

    weight check   axioms, Beurling-Domar probe, growth class
    seq norm       weighted norm of a sequence
    seq ft         transform on a uniform grid (JSON or CSV)
    seq order      transform vanishing order at a point
    seq convolve   convolution of two sequences
    spectrum       spectra: exact for symbolic signals, upper bounds for
                   sampled windows with candidate annihilators
    degree         lattice-polynomial degree with a witness direction
    decompose      finite-spectrum recovery from samples
    integrate      boundedness probe of a signal over nested windows
    oracle laws    the exact cyclic-group law suite
    verify         named verification scenarios (see --help for IDs)

Exit codes: 0 success (verdict produced / all checks passed), 1 input
error or failed verification, 2 internal failure.  Usage errors (an
unknown subcommand or choice, a malformed or missing option), and a
``verify --trials`` or ``oracle laws --trials`` outside 0 ..
``finite_oracle.MAX_TRIALS`` are input errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Optional, Sequence

import numpy as np

from .descriptors import (
    finseq_from_json,
    finseq_to_json,
    latticepoly_from_json,
    load_json_file,
    signal_from_json,
    signal_to_json,
    spectrum_to_json,
    weight_from_json,
)
from .diff_calculus import degree_with_witness
from .errors import DescriptorError, NumericOverflowError
from .integration import boundedness_probe
from .seq_algebra import convolve, fourier_grid, vanishing_order, weighted_norm
from .signals import ExpPoly, Geometric, TableSignal
from .spectra import decompose_finite_spectrum, spectrum_upper_bound, symbolic_spectrum
from .finite_oracle import law_suite_finite
from .verify import SUITE_NAMES, run_suite
from .weights import analyze_weight


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 (an input error); exit 2 is kept for bugs.
    Subparsers are built from this class too (argparse's parser_class
    defaults to the parent's type)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process.  parse_args fills a fresh Namespace
    on every call and no action holds mutable state, so reuse is safe."""
    parser = _Parser(
        prog="beurling",
        description="weighted harmonic analysis on the integers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    weight = sub.add_parser("weight", help="weight diagnostics")
    weight_sub = weight.add_subparsers(dest="subcommand", required=True)
    wc = weight_sub.add_parser("check", help="axioms + growth report")
    wc.add_argument("--weight", required=True, metavar="FILE")
    wc.add_argument("--window", type=int, default=50)
    wc.add_argument("--orbit", type=int, default=1, help="direction for the convergence probe")
    wc.add_argument("--terms", type=int, default=10_000)
    wc.add_argument("--nmax", type=int, default=3)

    seq = sub.add_parser("seq", help="sequence operations")
    seq_sub = seq.add_subparsers(dest="subcommand", required=True)
    sn = seq_sub.add_parser("norm", help="weighted norm")
    sn.add_argument("--seq", required=True, metavar="FILE")
    sn.add_argument("--weight", required=True, metavar="FILE")
    sf = seq_sub.add_parser("ft", help="transform on a uniform grid")
    sf.add_argument("--seq", required=True, metavar="FILE")
    sf.add_argument("--grid", type=int, default=4096)
    sf.add_argument("--csv", action="store_true")
    so = seq_sub.add_parser("order", help="vanishing order at a circle point")
    so.add_argument("--seq", required=True, metavar="FILE")
    so.add_argument("--t", type=float, default=0.0)
    so.add_argument("--tol", type=float, default=1e-9)
    sc = seq_sub.add_parser("convolve", help="convolution of two sequences")
    sc.add_argument("--seq", required=True, metavar="FILE")
    sc.add_argument("--with", dest="other", required=True, metavar="FILE")

    spec = sub.add_parser("spectrum", help="spectrum of a signal")
    spec.add_argument("--signal", required=True, metavar="FILE")
    spec.add_argument("--gens", metavar="FILE[,FILE...]",
                      help="candidate annihilators for sampled windows")
    spec.add_argument("--tol", type=float, default=1e-8)

    deg = sub.add_parser("degree", help="lattice-polynomial degree")
    deg.add_argument("--poly", required=True, metavar="FILE")
    deg.add_argument("--tol", type=float, default=1e-9)

    dec = sub.add_parser("decompose", help="finite-spectrum recovery")
    dec.add_argument("--signal", required=True, metavar="FILE",
                     help="sampled-window (table) signal")
    dec.add_argument("--kmax", type=int, default=4)
    dec.add_argument("--nmax", type=int, default=3)
    dec.add_argument("--tol", type=float, default=1e-8)

    integ = sub.add_parser("integrate", help="boundedness probe")
    integ.add_argument("--signal", required=True, metavar="FILE")
    integ.add_argument("--probe", default="100,1000,10000",
                       metavar="LIST", help="comma-separated window radii")

    oracle = sub.add_parser("oracle", help="finite cyclic-group oracle")
    oracle_sub = oracle.add_subparsers(dest="subcommand", required=True)
    ol = oracle_sub.add_parser("laws", help="exact spectral-calculus law suite")
    ol.add_argument("--q", type=int, default=8)
    ol.add_argument("--trials", type=int, default=100)
    ol.add_argument("--seed", type=int, default=1)

    ver = sub.add_parser("verify", help="named verification scenarios")
    ver.add_argument("name", choices=SUITE_NAMES)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--trials", type=int, default=0,
                     help="0 keeps each scenario's default count")

    return parser


#: json's C encoder, without the indent that would send it to the pure-Python one.
_COMPACT = json.JSONEncoder(allow_nan=False, separators=(",", ":"))


def _dumps(obj, level: int = 0) -> str:
    """``json.dumps(obj, indent=2, allow_nan=False)``, byte for byte, with
    ``obj`` nested ``level`` deep.  A list of number rows (non-empty lists
    of ints and floats) is one call of the C encoder, laid out by
    ``str.replace``: a number never holds ',', '[' or ']'.  The rest
    recurses, to scalars encoded as json encodes them."""
    if isinstance(obj, dict):
        items, ends = [f"{_key(k)}: {_dumps(v, level + 1)}" for k, v in obj.items()], "{}"
    elif isinstance(obj, (list, tuple)):
        if _number_rows(obj):
            return _rows(obj, level)
        items, ends = [_dumps(v, level + 1) for v in obj], "[]"
    else:
        return _COMPACT.encode(obj)
    if not items:
        return ends
    inner = "\n" + "  " * (level + 1)
    return ends[0] + inner + ("," + inner).join(items) + "\n" + "  " * level + ends[1]


def _number_rows(obj) -> bool:
    """A non-empty list of non-empty lists, every item an int or a float
    (bools among the ints, numpy float64 among the floats)."""
    return bool(obj) and all(isinstance(r, (list, tuple)) and r for r in obj) and all(
        issubclass(t, (int, float)) for t in {type(v) for r in obj for v in r})


def _rows(rows, level: int) -> str:
    """The indented layout of number rows nested ``level`` deep."""
    outer, inner = "\n" + "  " * (level + 1), "\n" + "  " * (level + 2)
    body = _COMPACT.encode(rows)[2:-2].replace(",", "," + inner)
    body = body.replace("]," + inner + "[", outer + "]," + outer + "[" + inner)
    return "[" + outer + "[" + inner + body + outer + "]\n" + "  " * level + "]"


def _key(k) -> str:
    """A dict key as json writes it: strings as they are, and None, bools,
    ints and floats as their JSON text in quotes."""
    if isinstance(k, str):
        return _COMPACT.encode(k)
    if k is None or isinstance(k, (int, float)):
        return f'"{_COMPACT.encode(k)}"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")


def _emit(payload) -> None:
    print(_dumps(payload))


def _cmd_weight_check(args) -> int:
    w = weight_from_json(load_json_file(args.weight))
    report = analyze_weight(w, args.window, orbit=args.orbit,
                            terms=args.terms, n_max=args.nmax)
    payload = {
        "axiomsOk": report.axioms_ok,
        "violations": [
            {"n": n, "m": m, "description": desc}
            for n, m, desc in report.violations
        ],
        "beurlingDomar": {
            "verdict": report.beurling_domar.verdict,
            "partialSums": [[m, s] for m, s in report.beurling_domar.trace],
        },
        "growth": None if report.growth is None else {
            "N": report.growth.N, "alpha": report.growth.alpha,
            "c1": report.growth.c1, "c2": report.growth.c2,
        },
    }
    _emit(payload)
    return 0


def _cmd_seq(args) -> int:
    f = finseq_from_json(load_json_file(args.seq))
    if args.subcommand == "norm":
        norm = weighted_norm(f, weight_from_json(load_json_file(args.weight)))
        if not math.isfinite(norm):
            raise NumericOverflowError("the weighted norm overflows the float range")
        _emit({"norm": norm})
        return 0
    if args.subcommand == "ft":
        ts, vals = fourier_grid(f, args.grid)
        if args.csv:
            print("t,re,im")
            for t, v in zip(ts, vals):
                print(f"{float(t)!r},{float(v.real)!r},{float(v.imag)!r}")
        else:
            _emit({"grid": args.grid,
                   "values": np.column_stack((ts, vals.real, vals.imag)).tolist()})
        return 0
    if args.subcommand == "order":
        _emit({"t": args.t, "order": vanishing_order(f, args.t, args.tol)})
        return 0
    if args.subcommand == "convolve":
        g = finseq_from_json(load_json_file(args.other))
        _emit(finseq_to_json(convolve(f, g)))
        return 0
    raise AssertionError(args.subcommand)


def _cmd_spectrum(args) -> int:
    s = signal_from_json(load_json_file(args.signal))
    if isinstance(s, TableSignal):
        if not args.gens:
            raise DescriptorError(
                "sampled windows need --gens with candidate annihilators"
            )
        gens = [finseq_from_json(load_json_file(p)) for p in args.gens.split(",")]
        result = spectrum_upper_bound(s, gens, args.tol)
    elif isinstance(s, (ExpPoly, Geometric)):
        result = symbolic_spectrum(s)
    else:
        raise DescriptorError(
            "spectra are computed for expPoly, geometric, or table signals"
        )
    _emit(spectrum_to_json(result))
    return 0


def _cmd_degree(args) -> int:
    p = latticepoly_from_json(load_json_file(args.poly))
    n, witness = degree_with_witness(p, tol=args.tol)
    _emit({"degree": n, "witness": list(witness) if witness else None})
    return 0


def _cmd_decompose(args) -> int:
    s = signal_from_json(load_json_file(args.signal))
    if not isinstance(s, TableSignal):
        raise DescriptorError("decompose expects a sampled-window (table) signal")
    recovered = decompose_finite_spectrum(s, args.kmax, args.nmax, args.tol)
    _emit(signal_to_json(recovered))
    return 0


def _cmd_integrate(args) -> int:
    s = signal_from_json(load_json_file(args.signal))
    try:
        windows = [int(w) for w in args.probe.split(",")]
    except ValueError:
        raise DescriptorError(f"bad probe list {args.probe!r}")
    verdict = boundedness_probe(s, windows)
    _emit({"verdict": verdict.verdict,
           "supTrace": [[w, s_] for w, s_ in verdict.sup_trace]})
    return 0


def _cmd_oracle(args) -> int:
    report = law_suite_finite(args.q, args.trials, args.seed)
    _emit({
        "q": report.q, "trials": report.trials, "seed": report.seed,
        "checks": report.checks, "passed": report.ok,
        "failures": [
            {"law": f.law, "trial": f.trial, "detail": f.detail}
            for f in report.failures
        ],
    })
    return 0 if report.ok else 1


def _cmd_verify(args) -> int:
    reports = run_suite(args.name, seed=args.seed, trials=args.trials)
    _emit([r.to_json() for r in reports])
    return 0 if all(r.passed for r in reports) else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "weight": _cmd_weight_check,
        "seq": _cmd_seq,
        "spectrum": _cmd_spectrum,
        "degree": _cmd_degree,
        "decompose": _cmd_decompose,
        "integrate": _cmd_integrate,
        "oracle": _cmd_oracle,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except ValueError as exc:  # every package error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal failure
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
