"""The package's public surface.

The benchmark's tracer (bench/tracing.py) looks up each traced function and
counted class by name, so a name cut from the package would only show as a
failed benchmark run; and the snapshot of ``beurling``'s exports makes adding
or dropping a public name a deliberate edit of this file.
"""

import importlib
import importlib.util
import types
from pathlib import Path

import beurling

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

EXPORTS = [
    "ANGULAR_TOL", "AnnihilationError", "AnnihilationResult", "BoundednessVerdict",
    "CirclePoint", "ConvergenceVerdict", "CumSum", "CyclicSignal", "DecompositionError",
    "DescriptorError", "Empty", "EmptyCertificate", "ExpPoly", "ExpPolyTerm",
    "ExponentialWeight", "FinSeq", "Finite", "Geometric", "GridSignal", "GrowthClass",
    "IdealClass", "IdealSaturationError", "LatticePoly", "LawCheck", "LawReport",
    "LawSuiteReport", "NotPrimaryError", "PowerWeight", "ProductWeight", "Signal",
    "SignalDerivedWeight", "SpectrumPoint", "SpectrumResult", "TableSignal", "TableWeight",
    "UnboundedSupportError", "UpperBound", "WeightReport", "WeightSpec", "WindowError",
    "add_signals", "analyze_weight", "angles_of", "angles_within", "annihilate",
    "boundedness_probe", "check_beurling_domar", "check_calculus_laws",
    "check_subquadratic", "check_weight_axioms", "circle_distance", "classify_growth",
    "classify_primary_ideal", "constant_signal", "convolve", "convolve_cyclic",
    "cumulative_P", "decompose_finite_spectrum", "default_probes", "degree",
    "degree_with_witness", "delta", "dft", "difference_seq", "difference_signal",
    "domar_degree", "eval_signal_range", "eval_weight", "fourier_eval", "fourier_grid",
    "hull_of_generators", "idft", "involution", "iterated_difference", "k_transform",
    "law_suite_finite", "modulate_signal", "newton_expand", "probe_directions",
    "result_points", "sample_signal", "scale_signal", "signal_is_zero", "spectrum_exppoly",
    "spectrum_finite", "spectrum_upper_bound", "symbolic_spectrum", "translate_signal",
    "vanishing_order", "weighted_norm", "witness_grid",
]


def test_every_traced_and_counted_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for layer, names in tracing.LAYERS.items():
        module = importlib.import_module(f"beurling.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"
    for layer, name in tracing.COUNTED.items():
        assert isinstance(getattr(importlib.import_module(f"beurling.{layer}"), name, None), type)


def test_public_exports_are_the_snapshot():
    public = [name for name, value in vars(beurling).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    assert sorted(public) == EXPORTS
