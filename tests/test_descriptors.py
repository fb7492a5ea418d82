import json

import pytest

from beurling.descriptors import (
    MAX_NESTING,
    finseq_from_json,
    finseq_to_json,
    latticepoly_from_json,
    latticepoly_to_json,
    load_json_file,
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


def reread(payload, tmp_path):
    """payload written to a descriptor file and read back."""
    path = tmp_path / "d.json"
    path.write_text(json.dumps(payload))
    return load_json_file(str(path))


def nested_signal(depth: int) -> dict:
    """A cumsum chain whose innermost signal is depth levels below the root."""
    data = {"kind": "expPoly", "terms": [{"t": 0.3, "coeffs": [1]}]}
    for _ in range(depth):
        data = {"kind": "cumsum", "inner": data}
    return data


def nested_weight(depth: int) -> dict:
    """A product chain whose deepest weights are depth levels below the root."""
    data = {"kind": "power", "a": 0.01}
    for _ in range(depth):
        data = {"kind": "product", "left": {"kind": "power", "a": 0.01}, "right": data}
    return data


class TestRoundTrips:
    """Every file a writer makes parses to the value written."""

    @pytest.mark.parametrize("w", WEIGHTS, ids=lambda w: type(w).__name__)
    def test_weights(self, w, tmp_path):
        assert weight_from_json(reread(weight_to_json(w), tmp_path)) == w

    @pytest.mark.parametrize("s", SIGNALS, ids=lambda s: type(s).__name__)
    def test_signals(self, s, tmp_path):
        assert signal_from_json(reread(signal_to_json(s), tmp_path)) == s

    def test_finseq(self, tmp_path):
        f = FinSeq({-3: 1 + 2j, 0: -1, 5: 0.25j, 2 ** 70: 1})
        assert finseq_from_json(reread(finseq_to_json(f), tmp_path)) == f

    def test_finseq_entries_sorted(self):
        f = FinSeq({5: 1, -3: 2})
        rows = finseq_to_json(f)["entries"]
        assert [r[0] for r in rows] == [-3, 5]

    def test_latticepoly(self, tmp_path):
        p = LatticePoly(2, {(1, 2): 3 + 1j, (0, 0): -2})
        assert latticepoly_from_json(reread(latticepoly_to_json(p), tmp_path)) == p

    @pytest.mark.parametrize("result", [
        Finite((SpectrumPoint(CirclePoint(0.5), 2),)),
        UpperBound((SpectrumPoint(CirclePoint(1.0), 1),)),
        hull_of_generators([FinSeq({-1: 2, 1: -0.5})]),  # Empty + certificate
    ], ids=lambda r: type(r).__name__)
    def test_spectrum_results(self, result, tmp_path):
        back = spectrum_from_json(reread(spectrum_to_json(result), tmp_path))
        if isinstance(result, Empty):
            assert isinstance(back, Empty)
            assert back.certificate.combination == result.certificate.combination
        else:
            assert back == result

    def test_descriptors_at_the_nesting_bound(self, tmp_path):
        signal = signal_from_json(nested_signal(MAX_NESTING))
        assert signal_from_json(reread(signal_to_json(signal), tmp_path)) == signal
        weight = weight_from_json(nested_weight(MAX_NESTING))
        assert weight_from_json(reread(weight_to_json(weight), tmp_path)) == weight


class TestRows:
    """Rows are (key, value) pairs handed to the constructor, which sums
    the values at a repeated key."""

    def test_repeated_offsets_are_summed(self):
        rows = [[0, 1, 0], [5, 1, 1], [0, 2, 0]]
        f = finseq_from_json({"entries": rows})
        assert f == FinSeq([(0, 1), (5, 1 + 1j), (0, 2)]) == FinSeq({0: 3, 5: 1 + 1j})

    def test_repeated_offsets_that_cancel_leave_nothing(self):
        assert finseq_from_json({"entries": [[2, 1, -1], [2, -1, 1]]}) == FinSeq()

    def test_repeated_multi_indices_are_summed(self):
        rows = [[[1, 0], 1, 0], [[0, 2], 4, 0], [[1, 0], 2, 1]]
        p = latticepoly_from_json({"dim": 2, "coeffs": rows})
        assert p == LatticePoly(2, [((1, 0), 1), ((0, 2), 4), ((1, 0), 2 + 1j)])
        assert p == LatticePoly(2, {(1, 0): 3 + 1j, (0, 2): 4})

    @pytest.mark.parametrize("parse, data, message", [
        (finseq_from_json, {"entries": 3}, r"\$\.entries: entries must be a list"),
        (finseq_from_json, {"entries": {"0": [1, 0]}}, r"\$\.entries: entries must be a list"),
        (latticepoly_from_json, {"dim": 1, "coeffs": "x"}, r"\$\.coeffs: coeffs must be a list"),
        (spectrum_from_json, {"verdict": "finite", "points": 5},
         r"\$\.points: points must be a list"),
        (spectrum_from_json, {"verdict": "upperBound", "points": {"t": 0}},
         r"\$\.points: points must be a list"),
    ])
    def test_a_non_list_is_located(self, parse, data, message):
        with pytest.raises(DescriptorError, match=message):
            parse(data)

    @pytest.mark.parametrize("parse, data, message", [
        (finseq_from_json, {"entries": [[0, 1, 0], [1, 2]]},
         r"\$\.entries\[1\]: expected \[n, re, im\]"),
        (finseq_from_json, {"entries": [[0, 1, 0], [1.5, 2, 0]]},
         r"\$\.entries\[1\]\[0\]: expected a JSON integer"),
        (finseq_from_json, {"entries": [[0, "1", 0]]},
         r"\$\.entries\[0\]: expected a number or \[re, im\] pair"),
        (latticepoly_from_json, {"dim": 2, "coeffs": [[[1, 0], 1, 0], [1, 1, 0]]},
         r"\$\.coeffs\[1\]: multi-index must be a list"),
        (latticepoly_from_json, {"dim": 2, "coeffs": [[[1, True], 1, 0]]},
         r"\$\.coeffs\[0\]\[0\]\[1\]: expected a JSON integer"),
        (latticepoly_from_json, {"dim": 2, "coeffs": [[[1, 0], 1]]},
         r"\$\.coeffs\[0\]: expected \[\[i, j, \.\.\.\], re, im\]"),
    ])
    def test_a_malformed_row_is_located(self, parse, data, message):
        with pytest.raises(DescriptorError, match=message):
            parse(data)

    @pytest.mark.parametrize("parse, data, message", [
        (latticepoly_from_json, {"dim": 2, "coeffs": [[[1], 1, 0]]},
         r"^\$: multi-index \(1,\) does not match dim 2$"),
        (latticepoly_from_json, {"dim": 1, "coeffs": [[[-1], 1, 0]]},
         r"^\$: multi-index \(-1,\) has negative entries$"),
        (latticepoly_from_json, {"dim": 0, "coeffs": []}, r"^\$: dimension must be >= 1$"),
        (signal_from_json, {"kind": "cumsum", "inner": {"kind": "geometric", "ratio": 0}},
         r"^\$\.inner: geometric ratio must be positive and finite$"),
        (weight_from_json, {"kind": "product", "left": {"kind": "power", "a": 1},
                            "right": {"kind": "table", "halfWindow": 3, "values": [1]}},
         r"^\$\.right: need 4 values for half window 3, got 1$"),
    ])
    def test_a_constructor_refusal_is_located(self, parse, data, message):
        with pytest.raises(DescriptorError, match=message):
            parse(data)


class TestNesting:
    def test_a_signal_past_the_bound_is_located(self):
        with pytest.raises(DescriptorError, match=rf"^\$(\.inner){{{MAX_NESTING}}}: nested more "
                                                  rf"than {MAX_NESTING} levels deep$"):
            signal_from_json(nested_signal(MAX_NESTING + 1))

    def test_a_weight_past_the_bound_is_located(self):
        with pytest.raises(DescriptorError, match=rf"^\$(\.right){{{MAX_NESTING}}}: nested"):
            weight_from_json(nested_weight(MAX_NESTING + 1))

    def test_weights_and_signals_share_one_count(self):
        # a signal-derived weight's signal is one level, and its cumsums count on from there
        weight = {"kind": "signalDerived", "supWindow": 5,
                  "signal": nested_signal(MAX_NESTING - 1)}
        weight_from_json(weight)
        with pytest.raises(DescriptorError, match=r"\.signal(\.inner)+: nested more than"):
            weight_from_json({"kind": "product", "left": {"kind": "power", "a": 1},
                              "right": weight})


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

    @pytest.mark.parametrize("where, data", [
        (r"\$\.points\[0\]\.t", {"verdict": "finite", "points": [{"t": "0.5", "mult": 1}]}),
        (r"\$\.points\[0\]\.t", {"verdict": "finite", "points": [{"t": False}]}),
        (r"\$\.certificate\.minTransformModulus",
         {"verdict": "empty", "points": [],
          "certificate": {"combination": {"entries": [[0, 1, 0]]},
                          "minTransformModulus": "1.0", "grid": 8}}),
    ])
    def test_spectrum_numbers_must_be_json_numbers(self, where, data):
        with pytest.raises(DescriptorError, match=where + ": expected a JSON number"):
            spectrum_from_json(data)

    @pytest.mark.parametrize("where, data", [
        (r"\$\.points\[0\]\.mult", {"verdict": "finite", "points": [{"t": 0.5, "mult": 1.5}]}),
        (r"\$\.certificate\.grid",
         {"verdict": "empty", "points": [],
          "certificate": {"combination": {"entries": [[0, 1, 0]]},
                          "minTransformModulus": 1.0, "grid": True}}),
    ])
    def test_spectrum_integers_must_be_json_integers(self, where, data):
        with pytest.raises(DescriptorError, match=where + ": expected a JSON integer"):
            spectrum_from_json(data)

    @pytest.mark.parametrize("value", [True, "1", [1, True], ["1", 0], None])
    def test_complex_values_must_be_json_numbers(self, value):
        with pytest.raises(DescriptorError, match=r"values\[0\]"):
            signal_from_json({"kind": "table", "start": 0, "values": [value]})

    def test_integer_past_the_float_range_names_its_key(self):
        with pytest.raises(DescriptorError, match=r"\$\.a: "):
            weight_from_json({"kind": "power", "a": 10 ** 400})

    def test_finseq_offset_must_be_int(self):
        with pytest.raises(DescriptorError):
            finseq_from_json({"entries": [[0.5, 1, 0]]})

    def test_delta_round_trip(self):
        assert finseq_from_json(finseq_to_json(delta(3))) == delta(3)
