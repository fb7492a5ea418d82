"""JSON descriptors for every value the CLI reads or writes.

Conventions: complex scalars are [re, im] pairs; weight and signal
descriptors are tagged by "kind"; sequences serialize as sorted
[offset, re, im] triples.  Parsing failures raise DescriptorError with a
dotted location path into the document.
"""

from __future__ import annotations

import json
import math
from typing import Any

from .errors import DescriptorError
from .seq_algebra import CirclePoint, FinSeq
from .signals import CumSum, ExpPoly, ExpPolyTerm, Geometric, Signal, TableSignal
from .spectra import (
    Empty,
    EmptyCertificate,
    Finite,
    SpectrumPoint,
    SpectrumResult,
    UpperBound,
)
from .weights import (
    ExponentialWeight,
    PowerWeight,
    ProductWeight,
    SignalDerivedWeight,
    TableWeight,
    WeightSpec,
)

#: Largest signal-derived supWindow S: each of the three windows of 2S + 1
#: samples it evaluates at a time takes about 32 MB at this cap.
MAX_SUP_WINDOW = 10 ** 6


def _complex_pair(value: complex) -> list[float]:
    value = complex(value)
    return [value.real, value.imag]


def _is_number(data: Any) -> bool:
    """A JSON number: not a string, and not a boolean, which Python counts
    as an int."""
    return isinstance(data, (int, float)) and not isinstance(data, bool)


def _number(data: Any, where: str) -> float:
    if not _is_number(data):
        raise DescriptorError(f"expected a JSON number, got {type(data).__name__}", where)
    try:
        return float(data)
    except OverflowError as exc:  # an integer past the float range
        raise DescriptorError(str(exc), where) from exc


def _integer(data: Any, where: str) -> int:
    """A JSON integer: not a float such as 2.9 or 2.0, a string, or a boolean."""
    if not isinstance(data, int) or isinstance(data, bool):
        raise DescriptorError(f"expected a JSON integer, got {type(data).__name__}", where)
    return data


def _parse_complex(data: Any, where: str) -> complex:
    if _is_number(data):
        return complex(_number(data, where))
    if isinstance(data, (list, tuple)) and len(data) == 2 and all(map(_is_number, data)):
        return complex(_number(data[0], where), _number(data[1], where))
    raise DescriptorError("expected a number or [re, im] pair", where)


def _require(data: Any, key: str, where: str) -> Any:
    if not isinstance(data, dict):
        raise DescriptorError("expected an object", where)
    if key not in data:
        raise DescriptorError(f"missing key {key!r}", where)
    return data[key]


# ---------------------------------------------------------------------------
# weights


def weight_to_json(w: WeightSpec) -> dict:
    if isinstance(w, PowerWeight):
        return {"kind": "power", "a": w.exponent}
    if isinstance(w, ExponentialWeight):
        return {"kind": "exponential", "base": w.base}
    if isinstance(w, TableWeight):
        return {"kind": "table", "halfWindow": w.half_window, "values": list(w.values)}
    if isinstance(w, ProductWeight):
        return {"kind": "product", "left": weight_to_json(w.left),
                "right": weight_to_json(w.right)}
    if isinstance(w, SignalDerivedWeight):
        return {"kind": "signalDerived", "signal": signal_to_json(w.signal),
                "supWindow": w.sup_window}
    raise TypeError(f"not a weight descriptor: {w!r}")


def weight_from_json(data: Any, where: str = "$") -> WeightSpec:
    kind = _require(data, "kind", where)
    try:
        if kind == "power":
            return PowerWeight(_number(_require(data, "a", where), f"{where}.a"))
        if kind == "exponential":
            return ExponentialWeight(_number(_require(data, "base", where), f"{where}.base"))
        if kind == "table":
            values = _require(data, "values", where)
            if not isinstance(values, list):
                raise DescriptorError("values must be a list", f"{where}.values")
            return TableWeight(_integer(_require(data, "halfWindow", where), f"{where}.halfWindow"),
                               [_number(v, f"{where}.values[{i}]") for i, v in enumerate(values)])
        if kind == "product":
            return ProductWeight(
                weight_from_json(_require(data, "left", where), f"{where}.left"),
                weight_from_json(_require(data, "right", where), f"{where}.right"),
            )
        if kind == "signalDerived":
            sup_window = _integer(_require(data, "supWindow", where), f"{where}.supWindow")
            if sup_window > MAX_SUP_WINDOW:
                raise DescriptorError(f"supWindow {sup_window} is above {MAX_SUP_WINDOW}",
                                      f"{where}.supWindow")
            return SignalDerivedWeight(
                signal_from_json(_require(data, "signal", where), f"{where}.signal"), sup_window)
    except DescriptorError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise DescriptorError(str(exc), where) from exc
    raise DescriptorError(f"unknown weight kind {kind!r}", where)


# ---------------------------------------------------------------------------
# signals


def signal_to_json(s: Signal) -> dict:
    if isinstance(s, ExpPoly):
        return {
            "kind": "expPoly",
            "terms": [
                {"t": term.freq.t, "coeffs": [_complex_pair(c) for c in term.coeffs]}
                for term in s.terms
            ],
        }
    if isinstance(s, Geometric):
        out: dict = {"kind": "geometric", "ratio": s.ratio}
        if s.scale != 1:
            out["scale"] = _complex_pair(s.scale)
        return out
    if isinstance(s, TableSignal):
        return {"kind": "table", "start": s.start,
                "values": [_complex_pair(v) for v in s.values]}
    if isinstance(s, CumSum):
        return {"kind": "cumsum", "inner": signal_to_json(s.inner)}
    raise TypeError(f"not a signal: {s!r}")


def signal_from_json(data: Any, where: str = "$") -> Signal:
    kind = _require(data, "kind", where)
    try:
        if kind == "expPoly":
            terms = _require(data, "terms", where)
            if not isinstance(terms, list):
                raise DescriptorError("terms must be a list", f"{where}.terms")
            parsed = []
            for i, term in enumerate(terms):
                spot = f"{where}.terms[{i}]"
                t = _number(_require(term, "t", spot), f"{spot}.t")
                coeffs = _require(term, "coeffs", spot)
                if not isinstance(coeffs, list) or not coeffs:
                    raise DescriptorError("coeffs must be a non-empty list",
                                          f"{spot}.coeffs")
                parsed.append(ExpPolyTerm(
                    CirclePoint(t),
                    tuple(_parse_complex(c, f"{spot}.coeffs[{j}]")
                          for j, c in enumerate(coeffs)),
                ))
            return ExpPoly(parsed)
        if kind == "geometric":
            scale = data.get("scale", 1.0)
            return Geometric(_number(_require(data, "ratio", where), f"{where}.ratio"),
                             _parse_complex(scale, f"{where}.scale"))
        if kind == "table":
            values = _require(data, "values", where)
            if not isinstance(values, list) or not values:
                raise DescriptorError("values must be a non-empty list",
                                      f"{where}.values")
            return TableSignal(_integer(_require(data, "start", where), f"{where}.start"),
                               [_parse_complex(v, f"{where}.values[{i}]")
                                for i, v in enumerate(values)])
        if kind == "cumsum":
            return CumSum(signal_from_json(_require(data, "inner", where),
                                           f"{where}.inner"))
    except DescriptorError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise DescriptorError(str(exc), where) from exc
    raise DescriptorError(f"unknown signal kind {kind!r}", where)


# ---------------------------------------------------------------------------
# finite sequences


def finseq_to_json(f: FinSeq) -> dict:
    return {"entries": [[n, v.real, v.imag] for n, v in f]}


def finseq_from_json(data: Any, where: str = "$") -> FinSeq:
    entries = _require(data, "entries", where)
    if not isinstance(entries, list):
        raise DescriptorError("entries must be a list", f"{where}.entries")
    out = {}
    for i, row in enumerate(entries):
        spot = f"{where}.entries[{i}]"
        if not isinstance(row, list) or len(row) != 3:
            raise DescriptorError("expected [n, re, im]", spot)
        n, re, im = row
        out[_integer(n, f"{spot}[0]")] = _parse_complex([re, im], spot)
    return FinSeq(out)


# ---------------------------------------------------------------------------
# lattice polynomials


def latticepoly_to_json(p) -> dict:
    return {
        "dim": p.dim,
        "coeffs": [[list(alpha), complex(c).real, complex(c).imag]
                   for alpha, c in p.coeffs],
    }


def latticepoly_from_json(data: Any, where: str = "$"):
    from .diff_calculus import LatticePoly

    dim = _integer(_require(data, "dim", where), f"{where}.dim")
    coeffs = _require(data, "coeffs", where)
    if not isinstance(coeffs, list):
        raise DescriptorError("coeffs must be a list", f"{where}.coeffs")
    out = {}
    for i, row in enumerate(coeffs):
        spot = f"{where}.coeffs[{i}]"
        if not isinstance(row, list) or len(row) != 3:
            raise DescriptorError("expected [[i, j, ...], re, im]", spot)
        alpha, re, im = row
        if not isinstance(alpha, list):
            raise DescriptorError("multi-index must be a list", spot)
        alpha = tuple(_integer(a, f"{spot}[0][{j}]") for j, a in enumerate(alpha))
        out[alpha] = _parse_complex([re, im], spot)
    try:
        return LatticePoly(dim, out)
    except (TypeError, ValueError) as exc:
        raise DescriptorError(str(exc), where) from exc


# ---------------------------------------------------------------------------
# spectrum results


def spectrum_to_json(result: SpectrumResult) -> dict:
    if isinstance(result, Empty):
        cert = result.certificate
        return {
            "verdict": "empty",
            "points": [],
            "certificate": {
                "combination": finseq_to_json(cert.combination),
                "minTransformModulus": cert.min_transform_modulus,
                "grid": cert.grid,
            },
        }
    if isinstance(result, Finite):
        return {"verdict": "finite",
                "points": [{"t": p.angle.t, "mult": p.multiplicity}
                           for p in result.points]}
    if isinstance(result, UpperBound):
        return {"verdict": "upperBound",
                "points": [{"t": p.angle.t, "mult": p.multiplicity}
                           for p in result.points]}
    raise TypeError(f"not a spectrum result: {result!r}")


def spectrum_from_json(data: Any, where: str = "$") -> SpectrumResult:
    verdict = _require(data, "verdict", where)
    points = data.get("points", [])
    parsed = tuple(
        SpectrumPoint(CirclePoint(_number(_require(p, "t", f"{where}.points[{i}]"),
                                          f"{where}.points[{i}].t")),
                      _integer(p.get("mult", 1), f"{where}.points[{i}].mult"))
        for i, p in enumerate(points)
    )
    if verdict == "empty":
        cert = _require(data, "certificate", where)
        return Empty(EmptyCertificate(
            combination=finseq_from_json(_require(cert, "combination", f"{where}.certificate"),
                                         f"{where}.certificate.combination"),
            min_transform_modulus=_number(_require(cert, "minTransformModulus",
                                                   f"{where}.certificate"),
                                          f"{where}.certificate.minTransformModulus"),
            grid=_integer(_require(cert, "grid", f"{where}.certificate"),
                          f"{where}.certificate.grid"),
        ))
    if verdict == "finite":
        return Finite(parsed)
    if verdict == "upperBound":
        return UpperBound(parsed)
    raise DescriptorError(f"unknown verdict {verdict!r}", where)


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise DescriptorError(f"non-finite JSON number {text}")
    return value


def load_json_file(path: str) -> Any:
    """Parse a descriptor file as strict JSON: the constants NaN, Infinity
    and -Infinity are refused, as is a float literal past the float range
    such as 1e400."""
    try:
        with open(path) as handle:
            return json.load(handle, parse_constant=_finite_float, parse_float=_finite_float)
    except FileNotFoundError:
        raise DescriptorError(f"file not found: {path}")
    except json.JSONDecodeError as exc:
        raise DescriptorError(f"invalid JSON in {path}: {exc}")
