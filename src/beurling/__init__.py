"""Weighted harmonic analysis on the integers, at desk scale.

Submodules
----------
seq_algebra    finitely supported sequences: convolution, involution,
               weighted norms, transforms and vanishing orders
signals        exactly representable signal classes and annihilation
weights        weight descriptors, axiom checks, growth diagnostics
diff_calculus  finite-difference polynomial calculus on integer lattices
spectra        hulls, exact spectra, primary-ideal classification,
               finite-spectrum recovery, spectral-calculus law checks
finite_oracle  exact DFT spectra on cyclic groups (the ground truth)
integration    indefinite integrals and boundedness probes
descriptors    JSON serialization for all of the above
cli            the command-line surface
"""

from .seq_algebra import (
    ANGULAR_TOL,
    CirclePoint,
    FinSeq,
    angles_within,
    circle_distance,
    convolve,
    delta,
    difference_seq,
    fourier_eval,
    fourier_grid,
    involution,
    vanishing_order,
    weighted_norm,
)
from .signals import (
    AnnihilationResult,
    CumSum,
    ExpPoly,
    ExpPolyTerm,
    Geometric,
    Signal,
    TableSignal,
    annihilate,
    add_signals,
    constant_signal,
    difference_signal,
    eval_signal_range,
    modulate_signal,
    sample_signal,
    scale_signal,
    signal_is_zero,
    translate_signal,
)
from .weights import (
    ConvergenceVerdict,
    ExponentialWeight,
    GrowthClass,
    PowerWeight,
    ProductWeight,
    SignalDerivedWeight,
    TableWeight,
    WeightReport,
    WeightSpec,
    analyze_weight,
    check_beurling_domar,
    check_subquadratic,
    check_weight_axioms,
    classify_growth,
    eval_weight,
)
from .diff_calculus import (
    GridSignal,
    LatticePoly,
    default_probes,
    degree,
    degree_with_witness,
    domar_degree,
    iterated_difference,
    newton_expand,
    probe_directions,
    witness_grid,
)
from .spectra import (
    Empty,
    EmptyCertificate,
    Finite,
    IdealClass,
    LawCheck,
    LawReport,
    SpectrumPoint,
    SpectrumResult,
    UpperBound,
    angles_of,
    check_calculus_laws,
    classify_primary_ideal,
    decompose_finite_spectrum,
    hull_of_generators,
    result_points,
    spectrum_exppoly,
    spectrum_upper_bound,
    symbolic_spectrum,
)
from .finite_oracle import (
    CyclicSignal,
    LawSuiteReport,
    convolve_cyclic,
    dft,
    idft,
    law_suite_finite,
    spectrum_finite,
)
from .integration import (
    BoundednessVerdict,
    boundedness_probe,
    cumulative_P,
    k_transform,
)
from .errors import (
    AnnihilationError,
    DecompositionError,
    DescriptorError,
    IdealSaturationError,
    NotPrimaryError,
    UnboundedSupportError,
    WindowError,
)

__version__ = "0.1.0"
