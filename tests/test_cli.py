import argparse
import json
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from beurling import cli, signals, verify
from beurling.cli import main
from beurling.descriptors import signal_to_json, weight_to_json
from beurling.finite_oracle import MAX_TRIALS
from beurling.signals import ExpPoly, Geometric, TableSignal, sample_signal
from beurling.weights import ExponentialWeight, PowerWeight, SignalDerivedWeight


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _reject(constant):
    raise ValueError(f"non-standard JSON constant {constant}")


class TestWeightCheck:
    def test_exponential_report(self, tmp_path, capsys):
        path = write(tmp_path, "w.json", weight_to_json(ExponentialWeight(2)))
        code, out = run(capsys, "weight", "check", "--weight", path,
                        "--window", "20", "--terms", "1000")
        assert code == 0
        report = json.loads(out)
        assert report["axiomsOk"] is True
        assert report["beurlingDomar"]["verdict"] == "fails"
        assert report["growth"] is None

    def test_power_growth(self, tmp_path, capsys):
        path = write(tmp_path, "w.json", weight_to_json(PowerWeight(1)))
        code, out = run(capsys, "weight", "check", "--weight", path,
                        "--window", "20", "--terms", "10000")
        report = json.loads(out)
        assert code == 0 and report["growth"]["N"] == 1

    def test_weight_defined_nowhere_is_an_input_error(self, tmp_path, capsys):
        signal = sample_signal(ExpPoly([(0.0, (0, 1))]), 0, 30)
        path = write(tmp_path, "w.json", weight_to_json(SignalDerivedWeight(signal, 10)))
        code, out = run(capsys, "weight", "check", "--weight", path, "--window", "5")
        assert (code, out) == (1, "")

    def test_overflowing_weight_checks_in_log_space(self, tmp_path, capsys):
        # 2^n + 2^-n overflows a float from n = 1024 on
        path = write(tmp_path, "w.json", {"kind": "exponential", "base": 2})
        code, out = run(capsys, "weight", "check", "--weight", path, "--window", "1100")
        assert code == 0
        assert json.loads(out, parse_constant=_reject)["axiomsOk"] is True


class TestSeq:
    def test_norm(self, tmp_path, capsys):
        seq = write(tmp_path, "f.json", {"entries": [[-1, 2, 0], [1, -0.5, 0]]})
        w = write(tmp_path, "w.json", weight_to_json(ExponentialWeight(2)))
        code, out = run(capsys, "seq", "norm", "--seq", seq, "--weight", w)
        assert code == 0
        assert json.loads(out)["norm"] == pytest.approx(6.25)

    def test_overflowing_norm_is_an_input_error(self, tmp_path, capsys):
        seq = write(tmp_path, "f.json", {"entries": [[0, 1, 0], [2000, 1, 0]]})
        w = write(tmp_path, "w.json", {"kind": "exponential", "base": 2})
        code = main(["seq", "norm", "--seq", seq, "--weight", w])  # the weight overflows
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert "overflows the float range" in captured.err
        seq = write(tmp_path, "g.json", {"entries": [[0, 1e308, 0], [5, 1e308, 0]]})
        w = write(tmp_path, "v.json", {"kind": "power", "a": 2})
        code = main(["seq", "norm", "--seq", seq, "--weight", w])  # finite weights, the sum overflows
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == "error: the weighted norm overflows the float range\n"

    def test_overflowing_convolution_is_an_input_error(self, tmp_path, capsys):
        # 1e200 * 1e200 is inf, which the zero rule relative to it would prune
        seq = write(tmp_path, "f.json", {"entries": [[0, 1e200, 0], [1, 1e200, 0]]})
        code = main(["seq", "convolve", "--seq", seq, "--with", seq])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert "overflows the float range" in captured.err

    def test_ft_csv(self, tmp_path, capsys):
        seq = write(tmp_path, "f.json", {"entries": [[-1, 2, 0], [1, -0.5, 0]]})
        code, out = run(capsys, "seq", "ft", "--seq", seq, "--grid", "8", "--csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,re,im"
        assert len(lines) == 9
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == pytest.approx(1.5)

    def test_ft_json_default_grid(self, tmp_path, capsys):
        seq = write(tmp_path, "f.json", {"entries": [[0, 1, 0]]})
        code, out = run(capsys, "seq", "ft", "--seq", seq)
        payload = json.loads(out)
        assert code == 0 and payload["grid"] == 4096
        assert len(payload["values"]) == 4096

    def test_order(self, tmp_path, capsys):
        seq = write(tmp_path, "f.json",
                    {"entries": [[0, 1, 0], [1, -2, 0], [2, 1, 0]]})
        code, out = run(capsys, "seq", "order", "--seq", seq)
        assert code == 0 and json.loads(out)["order"] == 2

    def test_convolve(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", {"entries": [[1, 1, 0]]})
        b = write(tmp_path, "b.json", {"entries": [[1, 1, 0]]})
        code, out = run(capsys, "seq", "convolve", "--seq", a, "--with", b)
        assert code == 0
        assert json.loads(out)["entries"] == [[2, 1.0, 0.0]]


class TestSpectrum:
    def test_constant_signal(self, tmp_path, capsys):
        sig = write(tmp_path, "s.json",
                    {"kind": "expPoly", "terms": [{"t": 0.0, "coeffs": [[1, 0]]}]})
        code, out = run(capsys, "spectrum", "--signal", sig)
        payload = json.loads(out)
        assert code == 0 and payload["verdict"] == "finite"
        assert payload["points"] == [{"t": 0.0, "mult": 1}]

    def test_geometric_empty_with_certificate(self, tmp_path, capsys):
        sig = write(tmp_path, "s.json", {"kind": "geometric", "ratio": 2})
        code, out = run(capsys, "spectrum", "--signal", sig)
        payload = json.loads(out)
        assert code == 0 and payload["verdict"] == "empty"
        assert payload["certificate"]["minTransformModulus"] > 0

    def test_table_needs_generators(self, tmp_path, capsys):
        sig = write(tmp_path, "s.json",
                    signal_to_json(sample_signal(Geometric(2), -20, 20)))
        code, _ = run(capsys, "spectrum", "--signal", sig)
        assert code == 1

    def test_table_upper_bound(self, tmp_path, capsys):
        sig = write(tmp_path, "s.json",
                    signal_to_json(sample_signal(Geometric(2), -20, 20)))
        gen = write(tmp_path, "g.json", {"entries": [[-1, 2, 0], [1, -0.5, 0]]})
        code, out = run(capsys, "spectrum", "--signal", sig, "--gens", gen)
        payload = json.loads(out)
        assert code == 0 and payload["verdict"] == "empty"


class TestDegreeCommand:
    def test_square(self, tmp_path, capsys):
        poly = write(tmp_path, "p.json",
                     {"dim": 1, "coeffs": [[[2], 3, 0], [[0], 1, 0]]})
        code, out = run(capsys, "degree", "--poly", poly)
        payload = json.loads(out)
        assert code == 0 and payload["degree"] == 2
        assert payload["witness"] is not None

    @pytest.mark.parametrize("payload", [
        {"dim": 1, "coeffs": [[[65536], 1, 0]]},  # one witness point past MAX_PROBES
        {"dim": 40, "coeffs": [[[1] + [0] * 39, 1, 0]]},
        {"dim": 2, "coeffs": [[[1000000, 0], 1, 0]]},
    ])
    def test_overflow_or_oversized_probe_set_is_an_input_error(self, tmp_path, capsys, payload):
        code, out = run(capsys, "degree", "--poly", write(tmp_path, "p.json", payload))
        assert (code, out) == (1, "")

    @pytest.mark.parametrize("payload, degree, witness", [
        ({"dim": 1, "coeffs": [[[88], 1, 0]]}, 88, [1]),
        ({"dim": 1, "coeffs": [[[200], 1, 0]]}, 200, [1]),
        ({"dim": 3, "coeffs": [[[3, 0, 3], -1e300, 0], [[1, 1, 0], 1, 0]]}, 6, [1, 1, 1]),
        # the top term reads as zero at every probe, up to 151^150
        ({"dim": 1, "coeffs": [[[150], 1e-300, 0], [[0], 1e300, 0]]}, 0, [1]),
        ({"dim": 1, "coeffs": [[[65535], 1, 0]]}, 65535, [1]),  # the MAX_PROBES edge
    ])
    def test_high_degree_and_wide_range(self, tmp_path, capsys, payload, degree, witness):
        code, out = run(capsys, "degree", "--poly", write(tmp_path, "p.json", payload))
        assert code == 0
        assert json.loads(out) == {"degree": degree, "witness": witness}


class TestDecompose:
    def test_round_trip(self, tmp_path, capsys):
        truth = ExpPoly([(0.5, (3, 1)), (1.2, (2,))])
        sig = write(tmp_path, "s.json",
                    signal_to_json(sample_signal(truth, -40, 40)))
        code, out = run(capsys, "decompose", "--signal", sig,
                        "--kmax", "3", "--nmax", "2")
        payload = json.loads(out)
        assert code == 0 and payload["kind"] == "expPoly"
        ts = sorted(term["t"] for term in payload["terms"])
        assert ts == pytest.approx([0.5, 1.2], abs=1e-8)

    def test_no_recurrence_is_input_error(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        noise = TableSignal(0, rng.standard_normal(200))
        sig = write(tmp_path, "s.json", signal_to_json(noise))
        code, out = run(capsys, "decompose", "--signal", sig)
        assert code == 1 and out == ""


class TestIntegrate:
    def test_bounded_character_sum(self, tmp_path, capsys):
        sig = write(tmp_path, "s.json", {
            "kind": "cumsum",
            "inner": {"kind": "expPoly", "terms": [{"t": 1.0, "coeffs": [[1, 0]]}]},
        })
        code, out = run(capsys, "integrate", "--signal", sig,
                        "--probe", "100,1000,10000")
        payload = json.loads(out)
        assert code == 0 and payload["verdict"] == "bounded"
        assert len(payload["supTrace"]) == 3

    def test_non_finite_sup_is_input_error(self, tmp_path, capsys):
        sig = write(tmp_path, "s.json", {"kind": "geometric", "ratio": 2})
        with np.errstate(all="ignore"):
            code, out = run(capsys, "integrate", "--signal", sig,
                            "--probe", "100,1000,10000")
        assert code == 1 and out == ""

    @pytest.mark.parametrize("signal, expected", [
        ({"kind": "expPoly", "terms": [{"t": 1, "coeffs": [[1e308, 1e308]]}]}, 0),
        ({"kind": "expPoly", "terms": [{"t": 0.5, "coeffs": [1e308, 1e308, 1e308]}]}, 1),
        ({"kind": "cumsum", "inner": {"kind": "expPoly", "terms": [{"t": 0, "coeffs": [1e308]}]}}, 1),
    ])
    def test_overflow_near_the_float_range_warns_nothing(self, tmp_path, capsys, signal, expected):
        sig = write(tmp_path, "s.json", signal)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning may escape
            code = main(["integrate", "--signal", sig])
        captured = capsys.readouterr()
        assert code == expected
        assert "Warning" not in captured.err
        if code:
            assert captured.out == "" and "non-finite" in captured.err

    def test_probe_radius_is_bounded(self, tmp_path, capsys):
        sig = write(tmp_path, "s.json", {"kind": "table", "start": 0, "values": [[1, 0]]})
        code, out = run(capsys, "integrate", "--signal", sig,
                        "--probe", "1,1180591620717411303424")
        assert code == 1 and out == ""


class TestOracle:
    def test_laws(self, capsys):
        code, out = run(capsys, "oracle", "laws", "--q", "8",
                        "--trials", "50", "--seed", "1")
        payload = json.loads(out)
        assert code == 0 and payload["passed"] is True
        assert payload["checks"] == 50 * 8

    @pytest.mark.parametrize("q, trials", [("5000", "0"), ("8", "-3"), ("0", "1"),
                                           ("8", str(MAX_TRIALS + 1))])
    def test_bad_size_exits_1(self, capsys, q, trials):
        code = main(["oracle", "laws", "--q", q, "--trials", trials])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: ")


class TestVerify:
    def test_single_suite(self, capsys):
        code, out = run(capsys, "verify", "example-2.4")
        payload = json.loads(out)
        assert code == 0 and payload[0]["passed"] is True

    def test_deterministic(self, capsys):
        code1, out1 = run(capsys, "verify", "thm-4.4", "--seed", "5", "--trials", "5")
        code2, out2 = run(capsys, "verify", "thm-4.4", "--seed", "5", "--trials", "5")
        assert code1 == code2 == 0
        a, b = json.loads(out1), json.loads(out2)
        for r in (a, b):
            for suite in r:
                suite.pop("elapsed")
        assert a == b

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "nonsense"])
        assert exc.value.code == 1

    def test_negative_trials_is_an_input_error(self, capsys):
        code = main(["verify", "thm-4.4", "--trials", "-3"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("name", ["thm-4.4", "thm-3.4", "all"])
    @pytest.mark.parametrize("trials", [str(MAX_TRIALS + 1), "1000000000"])
    def test_trials_above_the_cap_exit_1_before_any_draw(self, capsys, monkeypatch, name, trials):
        def scenario(seed, trials):
            raise AssertionError("a scenario ran")  # an internal error: exit 2

        for suite in list(verify._SUITES):
            monkeypatch.setitem(verify._SUITES, suite, scenario)
        assert main(["verify", name, "--trials", str(MAX_TRIALS)]) == 2  # the cap itself runs
        capsys.readouterr()
        code = main(["verify", name, "--trials", trials])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err.startswith("error: ") and str(MAX_TRIALS) in captured.err

    def test_a_bug_inside_recovery_is_not_a_failed_round_trip(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("a bug")

        monkeypatch.setattr(verify, "decompose_finite_spectrum", broken)
        with pytest.raises(TypeError, match="a bug"):
            verify.run_suite("thm-4.4", 0, 2)
        assert main(["verify", "thm-4.4", "--trials", "2"]) == 2

    def test_seed_33_reports_its_failed_round_trip(self, capsys):
        code, out = run(capsys, "verify", "thm-4.4", "--seed", "33")
        checks = json.loads(out)[0]["checks"]
        assert code == 1
        assert checks[0] == {"check": "20 synth/recover round trips", "passed": False,
                             "detail": "1 failures"}
        assert all(c["passed"] for c in checks[1:])


def round_trip_label(out):
    return json.loads(out)[0]["checks"][0]["check"]


class TestParser:
    @pytest.mark.parametrize("argv", [["oracle", "laws", "--q", "abc"], [], ["seq"]])
    def test_usage_error_exits_1(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 1 and captured.out == ""
        assert captured.err.startswith("usage: beurling")
        assert "error: " in captured.err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "laws", "--help"])
        assert exc.value.code == 0
        assert "--trials" in capsys.readouterr().out

    def test_built_once_per_process(self, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli.build_parser.cache_clear()
        assert run(capsys, "verify", "example-2.4")[0] == 0
        assert built  # the root parser and every subparser
        del built[:]
        assert run(capsys, "verify", "example-2.4")[0] == 0
        assert built == []

    def test_defaults_do_not_leak(self, tmp_path, capsys):
        seq = write(tmp_path, "f.json", {"entries": [[0, 1, 0]]})
        code, out = run(capsys, "seq", "ft", "--seq", seq, "--grid", "8", "--csv")
        assert code == 0 and out.startswith("t,re,im")
        code, out = run(capsys, "seq", "ft", "--seq", seq, "--grid", "8")
        assert code == 0 and json.loads(out)["grid"] == 8
        code, out = run(capsys, "verify", "thm-4.4", "--trials", "2")
        assert code == 0 and round_trip_label(out) == "2 synth/recover round trips"
        code, out = run(capsys, "verify", "thm-4.4")
        assert code == 0 and round_trip_label(out) == "20 synth/recover round trips"

    def test_valid_call_after_usage_error(self, capsys):
        expected = run(capsys, "oracle", "laws", "--q", "8", "--trials", "5")
        with pytest.raises(SystemExit):
            main(["oracle", "laws", "--q", "abc"])
        capsys.readouterr()
        assert run(capsys, "oracle", "laws", "--q", "8", "--trials", "5") == expected


class TestErrorPaths:
    def test_missing_file(self, capsys):
        code, _ = run(capsys, "spectrum", "--signal", "/nonexistent.json")
        assert code == 1

    def test_malformed_descriptor(self, tmp_path, capsys):
        bad = write(tmp_path, "bad.json", {"kind": "martian"})
        code, _ = run(capsys, "spectrum", "--signal", bad)
        assert code == 1

    @pytest.mark.parametrize("argv, payload", [
        (["degree", "--poly"], {"dim": 1, "coeffs": [[[2], float("nan"), 0], [[1], 1, 0]]}),
        (["degree", "--poly"], {"dim": 1, "coeffs": [[[2], float("inf"), 0], [[1], 1, 0]]}),
        (["seq", "ft", "--seq"], {"entries": [[0, 1, 0], [3, float("nan"), 0]]}),
    ] + [
        # raw text: numbers past the float range in a value position
        pytest.param(argv, template % number, id=f"{kind}-{label}")
        for label, number in [("1e400", "1e400"), ("-1e400", "-1e400"),
                              ("400-digit", "1" + "0" * 399)]
        for kind, argv, template in [
            ("seq", ["seq", "ft", "--seq"], '{"entries": [[0, 1, 0], [3, %s, 0]]}'),
            ("weight", ["weight", "check", "--weight"], '{"kind": "power", "a": %s}'),
            ("geometric", ["spectrum", "--signal"], '{"kind": "geometric", "ratio": %s}'),
            ("table", ["spectrum", "--signal"],
             '{"kind": "table", "start": 0, "values": [1, %s, 3]}'),
            ("poly", ["degree", "--poly"], '{"dim": 1, "coeffs": [[[2], %s, 0], [[1], 1, 0]]}'),
        ]
    ])
    def test_non_finite_json_constant_is_input_error(self, tmp_path, capsys, argv, payload):
        # json.dumps writes nan and inf as NaN and Infinity, which strict JSON refuses
        path = tmp_path / "in.json"
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        code, out = run(capsys, *argv, str(path))
        assert (code, out) == (1, "")

    @pytest.mark.parametrize("key, argv, payload", [
        ("$.a", ["seq", "norm", "--weight"], {"kind": "power", "a": "1e400"}),
        ("$.a", ["seq", "norm", "--weight"], {"kind": "power", "a": "2"}),
        ("$.a", ["seq", "norm", "--weight"], {"kind": "power", "a": True}),
        ("$.base", ["seq", "norm", "--weight"], {"kind": "exponential", "base": "2"}),
        ("$.values[1]", ["seq", "norm", "--weight"],
         {"kind": "table", "halfWindow": 2, "values": [1, "1e400", 1]}),
        ("$.values[0]", ["seq", "norm", "--weight"],
         {"kind": "table", "halfWindow": 0, "values": [False]}),
        ("$.right.a", ["seq", "norm", "--weight"],
         {"kind": "product", "left": {"kind": "power", "a": 1}, "right": {"kind": "power", "a": "nan"}}),
        ("$.signal.ratio", ["weight", "check", "--weight"],
         {"kind": "signalDerived", "supWindow": 2, "signal": {"kind": "geometric", "ratio": "2"}}),
        ("$.ratio", ["spectrum", "--signal"], {"kind": "geometric", "ratio": "inf"}),
        ("$.terms[0].t", ["spectrum", "--signal"],
         {"kind": "expPoly", "terms": [{"t": "nan", "coeffs": [1]}]}),
        ("$.terms[0].t", ["spectrum", "--signal"],
         {"kind": "expPoly", "terms": [{"t": True, "coeffs": [1]}]}),
        ("$.values[1]", ["spectrum", "--signal"],
         {"kind": "table", "start": 0, "values": [1, True, 3]}),
    ])
    def test_number_positions_take_only_json_numbers(self, tmp_path, capsys, key, argv, payload):
        path = write(tmp_path, "in.json", payload)
        if argv[:2] == ["seq", "norm"]:
            argv = ["seq", "norm", "--seq", write(tmp_path, "f.json", {"entries": [[0, 1, 0]]}),
                    *argv[2:]]
        code = main([*argv, path])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err.startswith(f"error: {key}: expected a")

    @pytest.mark.parametrize("key, argv, payload", [
        ("$.halfWindow", ["weight", "check", "--weight"], {"kind": "table", "halfWindow": "2", "values": [1, 1, 1]}),
        ("$.halfWindow", ["weight", "check", "--weight"], {"kind": "table", "halfWindow": True, "values": [1, 1]}),
        ("$.halfWindow", ["weight", "check", "--weight"], {"kind": "table", "halfWindow": 2.9, "values": [1, 1, 1]}),
        ("$.supWindow", ["weight", "check", "--weight"],
         {"kind": "signalDerived", "supWindow": 2.0, "signal": {"kind": "geometric", "ratio": 2}}),
        ("$.signal.start", ["weight", "check", "--weight"],
         {"kind": "signalDerived", "supWindow": 1, "signal": {"kind": "table", "start": "0", "values": [1]}}),
        ("$.dim", ["degree", "--poly"], {"dim": "1", "coeffs": [[[2], 1, 0]]}),
        ("$.coeffs[0][0][0]", ["degree", "--poly"], {"dim": 1, "coeffs": [[["2"], 1, 0]]}),
        ("$.entries[1][0]", ["seq", "convolve", "--seq"], {"entries": [[0, 1, 0], [True, 1, 0]]}),
    ])
    def test_integer_positions_take_only_json_integers(self, tmp_path, capsys, key, argv, payload):
        path = write(tmp_path, "in.json", payload)
        if argv[:2] == ["seq", "convolve"]:
            argv = [*argv, path, "--with"]
        code = main([*argv, path])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err.startswith(f"error: {key}: expected a JSON integer")

    @pytest.mark.parametrize("argv", [["seq", "norm"], ["weight", "check"]])
    def test_sup_window_above_the_cap_is_input_error(self, tmp_path, capsys, argv):
        w = write(tmp_path, "w.json", {"kind": "signalDerived", "supWindow": 10 ** 12,
                                       "signal": {"kind": "geometric", "ratio": 2}})
        seq = ["--seq", write(tmp_path, "f.json", {"entries": [[0, 1, 0]]})] if argv[0] == "seq" else []
        code = main([*argv, *seq, "--weight", w])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err.startswith("error: $.supWindow: supWindow 1000000000000 is above 1000000")

    @pytest.mark.parametrize("offset, want", [(2 ** 62, None), (10 ** 6, 5.025834039306693)])
    def test_streamed_running_sum_is_capped(self, tmp_path, capsys, monkeypatch, offset, want):
        real, streamed = signals.outward_chunks, []

        def counted(*args):  # a guard, so an uncapped stream fails and does not hang
            for chunk in real(*args):
                streamed.append(len(chunk))
                assert sum(streamed) < 10 ** 7, "streamed past 10^7 samples"
                yield chunk

        monkeypatch.setattr(signals, "outward_chunks", counted)
        w = write(tmp_path, "w.json", {"kind": "signalDerived", "supWindow": 10, "signal": {
            "kind": "cumsum", "inner": {"kind": "expPoly", "terms": [{"t": 0.5, "coeffs": [1]}]}}})
        seq = write(tmp_path, "f.json", {"entries": [[offset, 1, 0]]})
        code = main(["seq", "norm", "--seq", seq, "--weight", w])
        captured = capsys.readouterr()
        if want is None:
            assert (code, captured.out) == (1, "")
            assert "MAX_PROBE_WINDOW = 100000000" in captured.err
        else:
            assert code == 0 and json.loads(captured.out) == {"norm": want}
            assert sum(streamed) > 10 ** 6  # the running sum reached the offset through the stream

    @pytest.mark.parametrize("argv", [
        ["seq", "ft", "--grid", "8"], ["seq", "ft", "--grid", "8", "--csv"], ["seq", "order", "--t", "0"],
    ])
    def test_overflow_is_reported_as_overflow(self, tmp_path, capsys, argv):
        seq = write(tmp_path, "f.json", {"entries": [[0, 1e308, 0], [1, 1e308, 0], [2, 1e308, 1e308]]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning may escape
            code = main([*argv[:2], "--seq", seq, *argv[2:]])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert "overflows the float range" in captured.err

    @pytest.mark.parametrize("t", ["1.7976931348623157e308", "-1e308", "1e17"])
    def test_order_reduces_a_huge_angle_before_using_it(self, tmp_path, capsys, t):
        # the angle enters mod 2 pi, so no phase n t overflows: one entry
        # of 1.8e308 keeps |F| away from zero (order 0), two overflow the
        # order-0 scale, which is reported as such
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning may escape
            seq = write(tmp_path, "f.json", {"entries": [[15, 8.54, 1e-320], [-39, 1.7976931348623157e308, -6.54]]})
            code = main(["seq", "order", "--seq", seq, f"--t={t}"])
            captured = capsys.readouterr()
            assert (code, json.loads(captured.out)) == (0, {"t": float(t), "order": 0})
            seq = write(tmp_path, "g.json", {"entries": [[0, 1.7976931348623157e308, 0], [1, 1.7976931348623157e308, 0]]})
            code = main(["seq", "order", "--seq", seq, f"--t={t}"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert "order-0 derivative test overflows the float range" in captured.err

    def test_window_error_is_input_error(self, tmp_path, capsys):
        sig = write(tmp_path, "s.json",
                    signal_to_json(sample_signal(Geometric(2), 0, 3)))
        gen = write(tmp_path, "g.json",
                    {"entries": [[-5, 1, 0], [5, 1, 0]]})
        code, _ = run(capsys, "spectrum", "--signal", sig, "--gens", gen)
        assert code == 1


# ---------------------------------------------------------------------------
# the JSON writer: json.dumps(indent=2, allow_nan=False), byte for byte

numbers = st.one_of(
    st.integers(), st.integers(2 ** 63 - 2, 2 ** 70), st.integers(-(2 ** 70), -(2 ** 63) + 2),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e308, -1e308, 0.1]),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
)
scalars = st.one_of(numbers, st.booleans(), st.none(),
                    st.text(st.sampled_from(list(',[]{}"\\: \n\tab\u00e9\u2603\U0001f600\x00'))),
                    st.text())
rows = st.lists(st.lists(st.one_of(numbers, st.booleans()), max_size=4), max_size=5)
json_values = st.recursive(
    st.one_of(scalars, rows),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.tuples(inner, inner),
        st.dictionaries(st.one_of(st.text(max_size=4), st.integers(), st.booleans(), st.none(),
                                  st.floats(allow_nan=False, allow_infinity=False)), inner, max_size=4)),
    max_leaves=12,
)


class TestDumps:
    @settings(max_examples=300, deadline=None)
    @given(json_values)
    def test_equals_the_indented_json_writer(self, obj):
        assert cli._dumps(obj) == json.dumps(obj, indent=2, allow_nan=False)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.one_of(numbers, st.booleans()), min_size=1, max_size=4), min_size=1, max_size=6),
           st.integers(0, 3))
    def test_number_rows_at_any_depth(self, obj, depth):
        for _ in range(depth):
            obj = {"k": [obj, 1]}
        assert cli._dumps(obj) == json.dumps(obj, indent=2, allow_nan=False)

    @pytest.mark.parametrize("obj", [
        [], {}, [[]], [[1]], [[1], []], [[], [1]], [[1, [2]]], [[1, 2], "a"], [[1, None]],
        [[True, 1], [False, 2.5]], [[2 ** 64, -0.0], [5e-324, 1e308]], {"k": [[1, 2], [3]]},
        [{"a": [[1]]}, [[2]]], ([1, 2], (3, 4)), {1: 1, 2.5: 2, True: 3, None: 4, "é": "[,]"},
    ])
    def test_edge_cases(self, obj):
        assert cli._dumps(obj) == json.dumps(obj, indent=2, allow_nan=False)

    @pytest.mark.parametrize("obj", [
        [[1.0, float("inf")]], [float("nan")], {"a": [[float("-inf"), 2]]}, {float("nan"): 1},
        {"rows": [[1, 2], [3, np.float64("nan")]]},
    ])
    def test_non_finite_numbers_are_refused(self, obj):
        with pytest.raises(ValueError, match="not JSON compliant"):
            cli._dumps(obj)

    def test_unserialisable_objects_are_refused_as_json_refuses_them(self):
        for obj in ([[np.int64(1)]], {"a": object()}, {(1, 2): 3}):
            with pytest.raises(TypeError):
                json.dumps(obj, indent=2)
            with pytest.raises(TypeError):
                cli._dumps(obj)

    def test_non_finite_output_exits_1_with_nothing_on_stdout(self, tmp_path, capsys, monkeypatch):
        seq = write(tmp_path, "f.json", {"entries": [[0, 1, 0]]})
        monkeypatch.setattr(cli, "fourier_grid", lambda f, n: (np.arange(2.0), np.array([1, np.nan + 0j])))
        code = main(["seq", "ft", "--seq", seq, "--grid", "2"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert "not JSON compliant" in captured.err


# ---------------------------------------------------------------------------
# fuzzed descriptors: whatever the input, the CLI answers with strict JSON
# (exit 0) or an input error and nothing on stdout (exit 1), never a crash

small = st.floats(-10, 10, allow_nan=False)
pairs = st.tuples(small, small).map(list)
signal_descriptors = st.one_of(
    st.builds(lambda t, cs: {"kind": "expPoly", "terms": [{"t": t, "coeffs": cs}]},
              st.floats(0, 6.28), st.lists(pairs, min_size=1, max_size=3)),
    st.builds(lambda r, c: {"kind": "geometric", "ratio": r, "scale": c},
              st.floats(0.1, 4), pairs),
    st.builds(lambda start, vs: {"kind": "table", "start": start, "values": vs},
              st.integers(-30, 0), st.lists(pairs, min_size=1, max_size=60)),
)
weight_leaves = st.one_of(
    st.builds(lambda a: {"kind": "power", "a": a}, st.floats(0, 50)),
    st.builds(lambda b: {"kind": "exponential", "base": b}, st.floats(1.0001, 10)),
    st.integers(0, 12).flatmap(lambda h: st.builds(
        lambda vs: {"kind": "table", "halfWindow": h, "values": vs},
        st.lists(st.one_of(st.sampled_from([0.0, -1.0]), st.floats(-5, 1e300)),
                 min_size=h + 1, max_size=h + 1))),
    st.builds(lambda sig, k: {"kind": "signalDerived", "signal": sig, "supWindow": k},
              signal_descriptors, st.integers(0, 8)),
)
weight_descriptors = st.recursive(
    weight_leaves,
    lambda inner: st.builds(lambda l, r: {"kind": "product", "left": l, "right": r}, inner, inner),
    max_leaves=3,
)


def assert_contract(capsys, *argv):
    """Exit 0 with strict JSON on stdout, or exit 1 with nothing on it."""
    code, out = run(capsys, *argv)
    assert code in (0, 1), argv
    if code == 0:
        json.loads(out, parse_constant=_reject)
    else:
        assert out == ""


# run() drains capsys after every call, so sharing the fixture across examples is safe
fuzz_settings = settings(max_examples=40, deadline=None,
                         suppress_health_check=[HealthCheck.function_scoped_fixture])


@fuzz_settings
@given(weight_descriptors, st.integers(1, 8), st.integers(10, 40),
       st.lists(st.tuples(st.integers(-5000, 5000), st.floats(-1e300, 1e300), small).map(list),
                max_size=4))
def test_fuzzed_weights_keep_the_exit_code_contract(tmp_path_factory, capsys,
                                                    w, window, terms, entries):
    tmp = tmp_path_factory.mktemp("fuzz")
    wpath = write(tmp, "w.json", w)
    seq = write(tmp, "f.json", {"entries": entries})
    assert_contract(capsys, "weight", "check", "--weight", wpath,
                    "--window", str(window), "--terms", str(terms))
    assert_contract(capsys, "seq", "norm", "--seq", seq, "--weight", wpath)


# Offsets stay within a few hundred so that hulls (a dense eigen-solve over
# the support span) stay cheap.  Multi-indices reach 8, so a degree request
# scans up to 25^3 witness points when a tiny top part reads as zero at
# every probe; values reach the float range.
huge = st.one_of(small, st.floats(-1e300, 1e300), st.sampled_from([0.0, 1e-300]))
seq_descriptors = st.builds(
    lambda rows: {"entries": rows},
    st.lists(st.tuples(st.integers(-300, 300), huge, huge).map(list), max_size=8))
short_seq_descriptors = st.builds(
    lambda rows: {"entries": rows},
    st.lists(st.tuples(st.integers(-6, 6), small, small).map(list), min_size=1, max_size=5))
poly_descriptors = st.integers(1, 3).flatmap(lambda dim: st.builds(
    lambda rows: {"dim": dim, "coeffs": rows},
    st.lists(st.tuples(st.lists(st.integers(0, 8), min_size=dim, max_size=dim), huge, small)
             .map(list), max_size=5)))


@fuzz_settings
@given(seq_descriptors, seq_descriptors, st.integers(-2, 64),
       st.one_of(st.floats(-10, 10), st.sampled_from([float("nan"), float("inf")])),
       st.sampled_from(["1e-9", "1e-3", "0", "-1"]))
def test_fuzzed_sequences_keep_the_exit_code_contract(tmp_path_factory, capsys,
                                                      f, g, grid, t, tol):
    tmp = tmp_path_factory.mktemp("fuzz")
    fpath, gpath = write(tmp, "f.json", f), write(tmp, "g.json", g)
    assert_contract(capsys, "seq", "ft", "--seq", fpath, f"--grid={grid}")
    assert_contract(capsys, "seq", "order", "--seq", fpath, f"--t={t}", f"--tol={tol}")
    assert_contract(capsys, "seq", "convolve", "--seq", fpath, "--with", gpath)


@fuzz_settings
@given(signal_descriptors, st.lists(short_seq_descriptors, min_size=1, max_size=2),
       st.lists(st.integers(-10, 3000), min_size=1, max_size=4),
       st.integers(0, 4), st.integers(-1, 3))
def test_fuzzed_signals_keep_the_exit_code_contract(tmp_path_factory, capsys,
                                                    sig, gens, windows, kmax, nmax):
    tmp = tmp_path_factory.mktemp("fuzz")
    spath = write(tmp, "s.json", sig)
    gpaths = ",".join(write(tmp, f"g{i}.json", g) for i, g in enumerate(gens))
    assert_contract(capsys, "spectrum", "--signal", spath, "--gens", gpaths)
    assert_contract(capsys, "integrate", "--signal", spath, f"--probe={','.join(map(str, windows))}")
    assert_contract(capsys, "decompose", "--signal", spath, f"--kmax={kmax}", f"--nmax={nmax}")


@fuzz_settings
@given(poly_descriptors, st.sampled_from(["1e-9", "0", "-1"]))
def test_fuzzed_lattice_polys_keep_the_exit_code_contract(tmp_path_factory, capsys, poly, tol):
    path = write(tmp_path_factory.mktemp("fuzz"), "p.json", poly)
    assert_contract(capsys, "degree", "--poly", path, f"--tol={tol}")
