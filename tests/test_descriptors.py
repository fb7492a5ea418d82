import pytest

from beurling.descriptors import (
    finseq_from_json,
    finseq_to_json,
    latticepoly_from_json,
    latticepoly_to_json,
    signal_from_json,
    signal_to_json,
    spectrum_from_json,
    spectrum_to_json,
    weight_from_json,
    weight_to_json,
)
from beurling.diff_calculus import LatticePoly
from beurling.errors import DescriptorError
from beurling.seq_algebra import CirclePoint, FinSeq, delta
from beurling.signals import CumSum, ExpPoly, Geometric, TableSignal
from beurling.spectra import (
    Empty,
    Finite,
    SpectrumPoint,
    UpperBound,
    hull_of_generators,
)
from beurling.weights import (
    ExponentialWeight,
    PowerWeight,
    ProductWeight,
    SignalDerivedWeight,
    TableWeight,
)

WEIGHTS = [
    PowerWeight(2.0),
    ExponentialWeight(2.0),
    TableWeight(2, [1.0, 2.0, 4.0]),
    ProductWeight(PowerWeight(1.0), ExponentialWeight(3.0)),
    SignalDerivedWeight(ExpPoly([(0.0, (0, 1))]), 100),
]

SIGNALS = [
    ExpPoly([(0.5, (1 + 2j, 3)), (1.2, (-1j,))]),
    ExpPoly(),
    Geometric(2.0),
    Geometric(3.0, 1 - 1j),
    TableSignal(-2, [1, 2j, -3]),
    CumSum(Geometric(2.0)),
    CumSum(CumSum(ExpPoly([(1.0, (1,))]))),
]


class TestRoundTrips:
    @pytest.mark.parametrize("w", WEIGHTS, ids=lambda w: type(w).__name__)
    def test_weights(self, w):
        assert weight_from_json(weight_to_json(w)) == w

    @pytest.mark.parametrize("s", SIGNALS, ids=lambda s: type(s).__name__)
    def test_signals(self, s):
        assert signal_from_json(signal_to_json(s)) == s

    def test_finseq(self):
        f = FinSeq({-3: 1 + 2j, 0: -1, 5: 0.25j})
        assert finseq_from_json(finseq_to_json(f)) == f

    def test_finseq_entries_sorted(self):
        f = FinSeq({5: 1, -3: 2})
        rows = finseq_to_json(f)["entries"]
        assert [r[0] for r in rows] == [-3, 5]

    def test_latticepoly(self):
        p = LatticePoly(2, {(1, 2): 3 + 1j, (0, 0): -2})
        assert latticepoly_from_json(latticepoly_to_json(p)) == p

    @pytest.mark.parametrize("result", [
        Finite((SpectrumPoint(CirclePoint(0.5), 2),)),
        UpperBound((SpectrumPoint(CirclePoint(1.0), 1),)),
        hull_of_generators([FinSeq({-1: 2, 1: -0.5})]),  # Empty + certificate
    ], ids=lambda r: type(r).__name__)
    def test_spectrum_results(self, result):
        back = spectrum_from_json(spectrum_to_json(result))
        if isinstance(result, Empty):
            assert isinstance(back, Empty)
            assert back.certificate.combination == result.certificate.combination
        else:
            assert back == result


class TestErrors:
    def test_unknown_kind_reports_location(self):
        with pytest.raises(DescriptorError, match=r"\$\.left"):
            weight_from_json({"kind": "product",
                              "left": {"kind": "mystery"},
                              "right": {"kind": "power", "a": 1}})

    def test_missing_key(self):
        with pytest.raises(DescriptorError, match="missing key"):
            weight_from_json({"kind": "power"})

    def test_nested_signal_location(self):
        with pytest.raises(DescriptorError, match=r"\$\.inner"):
            signal_from_json({"kind": "cumsum", "inner": {"kind": "nope"}})

    def test_bad_complex_pair(self):
        with pytest.raises(DescriptorError, match=r"values\[0\]"):
            signal_from_json({"kind": "table", "start": 0, "values": [[1, 2, 3]]})

    def test_validation_error_carries_location(self):
        with pytest.raises(DescriptorError):
            weight_from_json({"kind": "exponential", "base": 0.5})

    def test_full_circle_verdict_is_unknown(self):
        with pytest.raises(DescriptorError, match="fullCircle"):
            spectrum_from_json({"verdict": "fullCircle", "points": []})

    def test_finseq_offset_must_be_int(self):
        with pytest.raises(DescriptorError):
            finseq_from_json({"entries": [[0.5, 1, 0]]})

    def test_delta_round_trip(self):
        assert finseq_from_json(finseq_to_json(delta(3))) == delta(3)
