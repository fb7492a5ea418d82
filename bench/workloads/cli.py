"""cli: every subcommand through beurling.cli.main(argv), in process.

Descriptor files are written during set-up; each request calls main() with
stdout captured, requires exit code 0 and strict JSON (no NaN or
Infinity), and checks the payload against the planted truth or a numpy
recomputation.  Sequence inputs are sparse and wide (span at least 100
times the entry count), the opposite regime from the kernels workload.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from beurling import cli as bcli

from .common import (
    CheckFailed,
    Request,
    cumsum_sup_bound,
    expect,
    expect_close,
    expect_points,
    expect_positive_certificate,
    expect_recovered,
    exppoly_values,
    generator_coeffs,
    random_exppoly_terms,
    separated_angles,
    unit_phases,
)

#: (kind, size parameter).  Most requests take a few milliseconds, so the
#: median falls among them; weight checks and two verify scenarios are the
#: dear tail.
SLOTS = [
    ("weight", 1), ("weight", 2),
    ("norm", 20), ("norm", 40), ("ft", 20), ("ft", 40),
    ("order", 10), ("order", 20), ("conv", 20), ("conv", 40),
    ("spec_sym", 2), ("spec_sym", 3), ("spec_geo", 0), ("spec_win", 24), ("spec_win", 32),
    ("degree", (2, 3)), ("degree", (3, 2)), ("decompose", 121), ("integrate", 2), ("oracle", 8),
    ("verify", "example-2.4"), ("verify", "remark-5.5a"), ("verify", "remark-5.5b"),
    ("verify", "prop-3.1"), ("verify", "thm-4.1"), ("verify", "example-3.9-truncated"),
]
WARMUP = [(kind, size) for kind, size in SLOTS if kind != "verify"] + [("verify", "thm-4.1")]

FT_GRID = 256
ORACLE_TRIALS = 20


def requests(seed: int, slots, work_dir: Path) -> list[Request]:
    """One request per slot; descriptor files go to ``work_dir``, which
    must not exist yet."""
    work_dir.mkdir(parents=True)
    rng = np.random.default_rng(seed)
    out = []
    for i, (kind, size) in enumerate(slots):
        def write(name, payload, _i=i):
            path = work_dir / f"{_i}-{name}.json"
            path.write_text(json.dumps(payload))
            return str(path)

        argv, check = BUILDERS[kind](rng, size, write)
        out.append(Request(kind, _runner(argv), _strict(check)))
    return out


def _runner(argv):
    def call():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = bcli.main(argv)
        return code, out.getvalue(), err.getvalue()
    return call


def _reject_constant(name):
    raise CheckFailed(f"non-finite number {name} in output")


def _strict(check):
    """Exit code 0 and strict JSON before the payload check."""
    def wrapped(result):
        code, out, err = result
        expect(code == 0, f"exit code {code}: {err.strip()}")
        check(json.loads(out, parse_constant=_reject_constant))
    return wrapped


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _sparse(rng, entries: int, width: int, positive: bool = False) -> dict[int, complex]:
    """``entries`` offsets spread over ``width`` integers around 0."""
    ns = rng.choice(width, size=entries, replace=False) - width // 2
    vals = rng.normal(size=entries) + 1j * rng.normal(size=entries)
    if positive:
        vals = 1.0 + 0.3 * vals
    return {int(n): complex(v) for n, v in zip(ns, vals)}


def _seq_json(entries: dict[int, complex]) -> dict:
    return {"entries": [[n, v.real, v.imag] for n, v in sorted(entries.items())]}


def _entries_of(payload) -> dict[int, complex]:
    return {int(n): complex(re, im) for n, re, im in payload["entries"]}


def _exppoly_json(terms) -> dict:
    return {"kind": "expPoly",
            "terms": [{"t": t, "coeffs": [_pair(c) for c in coeffs]} for t, coeffs in terms]}


def _terms_of(payload):
    return [(term["t"], tuple(complex(re, im) for re, im in term["coeffs"])) for term in payload["terms"]]


def _weight(rng, n, write):
    """Power weight (1+|n|)^a with a = n + a fraction: submultiplicative,
    summable log w(m)/m^2, polynomial growth of order n."""
    a = n + float(rng.uniform(0.05, 0.3))
    path = write("weight", {"kind": "power", "a": a})

    def check(p):
        expect(p["axiomsOk"] and not p["violations"], "power weight reported as violating the axioms")
        expect(p["beurlingDomar"]["verdict"] == "holds", f"Beurling-Domar {p['beurlingDomar']['verdict']}")
        expect(p["growth"] is not None and p["growth"]["N"] == n, f"growth {p['growth']}, expected N = {n}")

    return ["weight", "check", "--weight", path, "--window", "40"], check


def _norm(rng, entries, write):
    f = _sparse(rng, entries, 100 * entries)
    a = float(rng.uniform(0.5, 2.0))
    argv = ["seq", "norm", "--seq", write("seq", _seq_json(f)),
            "--weight", write("weight", {"kind": "power", "a": a})]
    want = sum(abs(v) * (1.0 + abs(n)) ** a for n, v in f.items())

    def check(p):
        expect(abs(p["norm"] - want) <= 1e-12 * want, f"norm {p['norm']!r}, expected {want!r}")

    return argv, check


def _ft(rng, entries, write):
    f = _sparse(rng, entries, 100 * entries)
    folded = np.zeros(FT_GRID, dtype=complex)
    for n, v in f.items():
        folded[n % FT_GRID] += v
    want = np.fft.fft(folded)
    scale = sum(abs(v) for v in f.values())

    def check(p):
        rows = np.array(p["values"])
        expect(p["grid"] == FT_GRID and rows.shape == (FT_GRID, 3), "transform grid shape")
        expect_close(rows[:, 0], 2 * np.pi * np.arange(FT_GRID) / FT_GRID, 1e-12, "ft angles")
        expect_close(rows[:, 1] + 1j * rows[:, 2], want, 1e-10 * scale, "ft values")

    return ["seq", "ft", "--seq", write("seq", _seq_json(f)), "--grid", str(FT_GRID)], check


def _order(rng, entries, write):
    """g * (delta_0 - delta_s)^m vanishes at t = 0 to order exactly m when
    the mass of g is far from 0."""
    m = int(rng.integers(1, 3))
    step = 100 * entries * (m + 1)
    g = _sparse(rng, entries, step, positive=True)
    f: dict[int, complex] = {}
    for j in range(m + 1):
        for n, v in g.items():
            f[n + j * step] = f.get(n + j * step, 0) + v * math.comb(m, j) * (-1) ** j

    def check(p):
        expect(p["order"] == m, f"order {p['order']}, planted {m}")

    return ["seq", "order", "--seq", write("seq", _seq_json(f)), "--t", "0"], check


def _conv(rng, entries, write):
    f, g = _sparse(rng, entries, 100 * entries), _sparse(rng, entries, 100 * entries)
    want: dict[int, complex] = {}
    for n, v in f.items():
        for k, w in g.items():
            want[n + k] = want.get(n + k, 0) + v * w
    tol = 1e-12 * sum(abs(v) for v in f.values()) * max(abs(v) for v in g.values())
    argv = ["seq", "convolve", "--seq", write("f", _seq_json(f)), "--with", write("g", _seq_json(g))]

    def check(p):
        got = _entries_of(p)
        for n in set(got) | set(want):
            expect(abs(got.get(n, 0) - want.get(n, 0)) <= tol, f"convolution differs at {n}")

    return argv, check


def _spec_sym(rng, k, write):
    terms = random_exppoly_terms(rng, [int(d) for d in rng.integers(0, 3, k)])
    truth = {t: len(c) for t, c in terms}

    def check(p):
        expect(p["verdict"] == "finite", f"verdict {p['verdict']}")
        expect_points([(q["t"], q["mult"]) for q in p["points"]], truth, "spectrum", tol=1e-12)

    return ["spectrum", "--signal", write("signal", _exppoly_json(terms))], check


def _spec_geo(rng, _, write):
    """2^n-like signals: empty spectrum, certified by the two-term
    annihilator {-1: r, 1: -1/r}, whose transform has modulus >= |r - 1/r|."""
    r = float(rng.uniform(1.5, 3.0))
    if rng.random() < 0.5:
        r = 1.0 / r
    annihilator = {-1: complex(r), 1: complex(-1.0 / r)}

    def check(p):
        expect(p["verdict"] == "empty", f"verdict {p['verdict']}")
        cert = p["certificate"]["combination"]
        expect_positive_certificate(_entries_of(cert), [annihilator], "geometric spectrum")

    return ["spectrum", "--signal", write("signal", {"kind": "geometric", "ratio": r})], check


def _spec_win(rng, support, write):
    freqs = separated_angles(rng, int(rng.integers(1, 3)))
    own = separated_angles(rng, 2, avoid=freqs)
    terms = [(t, (complex(rng.uniform(0.5, 1.0) * unit_phases(rng, 1)[0]),)) for t in freqs]
    start = int(rng.integers(-50, 1))
    values = exppoly_values(terms, np.arange(start, start + 4 * support))
    table = {"kind": "table", "start": start, "values": [_pair(v) for v in values]}
    paths = []
    for i, u in enumerate(own):
        coeffs = generator_coeffs(rng, support, [(t, 1) for t in freqs] + [(u, 1)])
        lo = int(rng.integers(-support, 1))
        paths.append(write(f"gen{i}", _seq_json({lo + j: complex(v) for j, v in enumerate(coeffs)})))
    truth = {t: 1 for t in freqs}

    def check(p):
        expect(p["verdict"] == "upperBound", f"verdict {p['verdict']}")
        expect_points([(q["t"], q["mult"]) for q in p["points"]], truth, "upper bound")

    return ["spectrum", "--signal", write("table", table), "--gens", ",".join(paths)], check


def _degree(rng, shape, write):
    """Integer lattice polynomial in ``dim`` variables with a planted total
    degree ``deg``."""
    dim, deg = shape
    coeffs: dict[tuple[int, ...], int] = {}
    for _ in range(5):
        alpha = tuple(int(v) for v in rng.integers(0, deg + 1, dim))
        if sum(alpha) <= deg:
            coeffs[alpha] = int(rng.integers(-5, 6))
    lead = tuple(int(v) for v in rng.multinomial(deg, [1.0 / dim] * dim))
    coeffs[lead] = int(rng.integers(1, 6))
    payload = {"dim": dim, "coeffs": [[list(a), c, 0] for a, c in coeffs.items() if c]}

    def check(p):
        expect(p["degree"] == deg, f"degree {p['degree']}, planted {deg}")
        expect(p["witness"] is not None and len(p["witness"]) == dim, f"witness {p['witness']}")

    return ["degree", "--poly", write("poly", payload)], check


def _decompose(rng, length, write):
    truth = random_exppoly_terms(rng, [int(d) for d in rng.integers(0, 2, int(rng.integers(1, 3)))])
    start = int(rng.integers(-length, 1))
    values = exppoly_values(truth, np.arange(start, start + length))
    table = {"kind": "table", "start": start, "values": [_pair(v) for v in values]}

    def check(p):
        expect(p["kind"] == "expPoly", f"kind {p['kind']}")
        expect_recovered(_terms_of(p), truth, "decompose")

    return ["decompose", "--signal", write("table", table), "--kmax", "3", "--nmax", "2"], check


def _integrate(rng, k, write):
    truth = random_exppoly_terms(rng, [0] * k)
    bound = cumsum_sup_bound(truth) * (1.0 + 1e-9)
    signal = {"kind": "cumsum", "inner": _exppoly_json(truth)}

    def check(p):
        expect(p["verdict"] == "bounded", f"verdict {p['verdict']}, spectrum avoids 0")
        expect(all(s <= bound for _, s in p["supTrace"]), f"sup trace above {bound!r}")

    return ["integrate", "--signal", write("signal", signal), "--probe", "100,1000,10000"], check


def _oracle(rng, q, _):
    seed = int(rng.integers(0, 2**31))

    def check(p):
        expect(p["passed"] and p["checks"] == 8 * ORACLE_TRIALS, f"law suite: {p['checks']} checks, passed {p['passed']}")

    return ["oracle", "laws", "--q", str(q), "--trials", str(ORACLE_TRIALS), "--seed", str(seed)], check


def _verify(rng, name, _):
    seed = int(rng.integers(0, 1000))

    def check(p):
        expect(all(r["passed"] for r in p), f"verify {name} --seed {seed} failed")

    return ["verify", name, "--seed", str(seed)], check


BUILDERS = {
    "weight": _weight, "norm": _norm, "ft": _ft, "order": _order, "conv": _conv,
    "spec_sym": _spec_sym, "spec_geo": _spec_geo, "spec_win": _spec_win, "degree": _degree,
    "decompose": _decompose, "integrate": _integrate, "oracle": _oracle, "verify": _verify,
}
