"""Per-layer tracing from outside the package.

While installed, a Tracer replaces each listed function by a wrapper in
every ``beurling`` module that holds it (``spectra`` and ``cli`` bind
``convolve`` and others with ``from ... import``), and counts FinSeq and
LatticePoly constructions.  Nothing under ``src/`` changes; uninstall puts
every original back.

A call's self time is its duration minus the time spent in wrapped calls
nested inside it, so the self times of one request add up to the time it
spent inside the package.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict

#: Traced functions, by module (the package's layers).
LAYERS = {
    "seq_algebra": ["convolve", "fourier_grid", "fourier_eval", "vanishing_order",
                    "weighted_norm", "difference_seq"],
    "signals": ["eval_signal_range", "annihilate"],
    "weights": ["check_weight_axioms", "check_beurling_domar", "classify_growth"],
    "diff_calculus": ["degree_with_witness", "domar_degree", "newton_expand"],
    "spectra": ["hull_of_generators", "polynomial_circle_roots", "spectrum_upper_bound",
                "classify_primary_ideal", "decompose_finite_spectrum"],
    "finite_oracle": ["dft", "idft", "convolve_cyclic", "spectrum_finite", "law_suite_finite"],
    "integration": ["boundedness_probe", "k_transform"],
    "descriptors": [f"{kind}_{way}_json" for kind in ("weight", "signal", "finseq", "latticepoly", "spectrum")
                    for way in ("from", "to")],
    "cli": ["main"],
    "verify": ["run_suite"],
}

#: Classes whose constructions are counted: allocation churn.
COUNTED = {"seq_algebra": "FinSeq", "diff_calculus": "LatticePoly"}


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.created: Counter = Counter()
        self.roots_found = 0      # unit-circle roots returned (with multiplicity)
        self.roots_degree = 0     # degrees of the polynomials passed in
        self.conv_entries = 0     # entries of convolve's inputs
        self.conv_span = 0        # support spans of convolve's inputs
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []
        for layer in LAYERS:
            importlib.import_module(f"beurling.{layer}")

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "beurling" or name.startswith("beurling.")]
        for layer, names in LAYERS.items():
            home = sys.modules[f"beurling.{layer}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(f"{layer}.{name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)
        for layer, cls_name in COUNTED.items():
            cls = getattr(sys.modules[f"beurling.{layer}"], cls_name)
            self._patch(cls, "__init__", self._counting_init(f"{layer}.{cls_name}", cls.__init__))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, key: str, fn):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        observe = {"spectra.polynomial_circle_roots": self._observe_roots,
                   "seq_algebra.convolve": self._observe_convolve}.get(key)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                nested = stack.pop()
                calls[key] += 1
                self_s[key] += elapsed - nested
                if stack:
                    stack[-1] += elapsed
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _counting_init(self, key: str, init):
        created = self.created

        def counting_init(obj, *args, **kwargs):
            created[key] += 1
            init(obj, *args, **kwargs)

        return counting_init

    # -- ratios measured where the work happens -----------------------------

    def _observe_roots(self, args, result) -> None:
        self.roots_degree += max(len(args[0]) - 1, 0)
        self.roots_found += sum(mult for _, mult in result)

    def _observe_convolve(self, args, result) -> None:
        for seq in args[:2]:
            if len(seq):
                lo, hi = seq.support()
                self.conv_entries += len(seq)
                self.conv_span += hi - lo + 1

    # -- report ---------------------------------------------------------------

    def metrics(self, requests: int) -> dict[str, tuple[float, str]]:
        """Per-request averages over ``requests`` traced requests."""
        out: dict[str, tuple[float, str]] = {}
        for layer, names in LAYERS.items():
            for name in names:
                key = f"{layer}.{name}"
                out[f"{key}.calls"] = (self.calls[key] / requests, "calls/req")
                out[f"{key}.self_ms"] = (1e3 * self.self_s[key] / requests, "ms/req")
        for layer, cls_name in COUNTED.items():
            key = f"{layer}.{cls_name}"
            out[f"{key}.created"] = (self.created[key] / requests, "count/req")
        out["spectra.circle_root_yield"] = (_ratio(self.roots_found, self.roots_degree), "ratio")
        out["seq_algebra.convolve.fill"] = (_ratio(self.conv_entries, self.conv_span), "ratio")
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
