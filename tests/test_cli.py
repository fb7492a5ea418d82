import json

import numpy as np
import pytest

from beurling.cli import main
from beurling.descriptors import signal_to_json, weight_to_json
from beurling.signals import ExpPoly, Geometric, TableSignal, sample_signal
from beurling.weights import ExponentialWeight, PowerWeight


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


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


class TestSeq:
    def test_norm(self, tmp_path, capsys):
        seq = write(tmp_path, "f.json", {"entries": [[-1, 2, 0], [1, -0.5, 0]]})
        w = write(tmp_path, "w.json", weight_to_json(ExponentialWeight(2)))
        code, out = run(capsys, "seq", "norm", "--seq", seq, "--weight", w)
        assert code == 0
        assert json.loads(out)["norm"] == pytest.approx(6.25)

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


class TestOracle:
    def test_laws(self, capsys):
        code, out = run(capsys, "oracle", "laws", "--q", "8",
                        "--trials", "50", "--seed", "1")
        payload = json.loads(out)
        assert code == 0 and payload["passed"] is True
        assert payload["checks"] == 50 * 8


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
        with pytest.raises(SystemExit):
            main(["verify", "nonsense"])


class TestErrorPaths:
    def test_missing_file(self, capsys):
        code, _ = run(capsys, "spectrum", "--signal", "/nonexistent.json")
        assert code == 1

    def test_malformed_descriptor(self, tmp_path, capsys):
        bad = write(tmp_path, "bad.json", {"kind": "martian"})
        code, _ = run(capsys, "spectrum", "--signal", bad)
        assert code == 1

    def test_window_error_is_input_error(self, tmp_path, capsys):
        sig = write(tmp_path, "s.json",
                    signal_to_json(sample_signal(Geometric(2), 0, 3)))
        gen = write(tmp_path, "g.json",
                    {"entries": [[-5, 1, 0], [5, 1, 0]]})
        code, _ = run(capsys, "spectrum", "--signal", sig, "--gens", gen)
        assert code == 1
