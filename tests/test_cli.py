import json

import pytest

from hartogs_bergman import cli
from hartogs_bergman.cli import main
from hartogs_bergman.oracle import NonconvergentTruncation


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


class TestEval:
    def test_kernel_value_payload(self, capsys):
        code, doc, _ = run_json(
            capsys, "eval", "--spec", "fat:2", "--z", "0.1,0", "0.5,0", "--w", "0.2,0", "0.4,0"
        )
        assert code == 0
        assert doc["schema_version"] == 1
        res = doc["results"]
        assert res["near_singular"] is False
        assert res["value"]["re"] == pytest.approx(
            res["numerator"]["re"] / res["denominator"]["re"], rel=1e-12
        )

    def test_deterministic_output(self, capsys):
        argv = ["eval", "--spec", "thin:2", "--z", "0.05,0", "0.6,0.1", "--w", "0.02,0.01", "0.5,0"]
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

    def test_outside_point_is_usage_error(self, capsys):
        code, out, err = run(capsys, "eval", "--spec", "fat:2", "--z", "0.9,0", "0.5,0",
                             "--w", "0.2,0", "0.4,0")
        assert code == 1
        assert out == ""
        assert "error" in err

    def test_malformed_spec_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--spec", "nonsense", "--z", "0,0", "0.5,0", "--w", "0,0", "0.5,0"])
        assert exc.value.code == 1


class TestChecks:
    def test_identities_pass(self, capsys):
        code, doc, _ = run_json(capsys, "identities", "--kmax", "30")
        assert code == 0
        assert doc["results"]["all_pass"] is True

    def test_bell_check_exit_codes(self, capsys):
        code, doc, _ = run_json(capsys, "bell-check", "--k", "3", "--pairs", "10", "--seed", "7")
        assert code == 0
        assert doc["results"]["max_residual"] <= 1e-9
        code, _, _ = run_json(
            capsys, "bell-check", "--k", "3", "--pairs", "10", "--seed", "7", "--tol", "1e-30"
        )
        assert code == 2

    def test_biholo_check_defaults(self, capsys):
        code, doc, _ = run_json(capsys, "biholo-check", "--map", "shear", "--pairs", "20", "--seed", "3")
        assert code == 0
        assert doc["results"]["src"] == "classical"
        assert doc["results"]["dst"] == "punctured-bidisc"

    def test_biholo_check_wrong_thin_variant_fails(self, capsys):
        code, doc, _ = run_json(
            capsys, "biholo-check", "--map", "shear-iter", "--k", "2", "--pairs", "10",
            "--seed", "3", "--thin-variant", "1-s"
        )
        assert code == 2

    def test_series_compare(self, capsys):
        code, doc, _ = run_json(
            capsys, "series-compare", "--spec", "fat:2", "--pairs", "5", "--seed", "5"
        )
        assert code == 0
        assert doc["results"]["max_rel_dev"] <= 1e-6

    def test_series_compare_nonconvergent_exits_two(self, capsys, monkeypatch, tmp_path):
        def no_tail(*args, **kwargs):
            raise NonconvergentTruncation("tail bound 1e-3 still above tolerance")

        monkeypatch.setattr(cli, "kernel_series", no_tail)
        report = tmp_path / "report.json"
        code, out, err = run(
            capsys, "--out", str(report), "series-compare", "--spec", "thin:2", "--pairs", "3",
            "--seed", "1"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("hartogs-bergman series-compare: error: tail bound")
        assert not report.exists()

    def test_lqk_witnesses(self, capsys):
        code, doc, _ = run_json(capsys, "lqk", "--kmax", "10")
        assert code == 0
        assert len(doc["results"]["witnesses"]) == 9
        assert doc["results"]["max_numerator_abs"] <= 1e-12

    def test_lqk_thin_mode(self, capsys):
        code, doc, _ = run_json(capsys, "lqk", "--thin-k", "2", "--pairs", "5000", "--seed", "2")
        assert code == 0
        assert doc["results"]["zero_hits"] == 0

    def test_volume(self, capsys):
        code, doc, _ = run_json(capsys, "volume", "--spec", "fat:2", "--n", "200000", "--seed", "4")
        assert code == 0
        assert doc["results"]["rel_dev"] <= 0.01

    def test_inner_product_named_functions(self, capsys):
        code, doc, _ = run_json(
            capsys, "inner-product", "--spec", "classical", "--f", "z2inv", "--g", "z2inv",
            "--n", "100000", "--seed", "9"
        )
        assert code == 0
        res = doc["results"]
        assert res["f"] == "z1^0*z2^-1"
        assert abs(res["value"]["re"] - 9.869604401089358) <= 3.0 * res["std_error"]

    def test_reproducing_command(self, capsys):
        code, doc, _ = run_json(
            capsys, "reproducing", "--spec", "fat:2", "--f", "z1", "--z", "0.1,0", "0.5,0",
            "--n", "200000", "--seed", "10"
        )
        assert code == 0
        assert doc["results"]["residual"] <= 0.02

    def test_reproducing_rejects_bad_function(self, capsys):
        code, _, err = run(capsys, "reproducing", "--spec", "classical", "--f", "z3")
        assert code == 1
        assert "error" in err


class TestCsvCommands:
    def test_zero_scan_csv(self, capsys):
        code, out, _ = run(capsys, "zero-scan", "--k", "2", "--s-points", "5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "# schema_version=1"
        assert lines[1].split(",")[0] == "row_type"
        assert len(lines) > 2

    def test_asymptotics_csv_and_bound(self, capsys):
        code, out, err = run(capsys, "asymptotics", "--spec", "fat:2", "--path", "origin")
        assert code == 0
        assert "tail_quotient=" in err
        assert out.splitlines()[1].startswith("step,")

    def test_asymptotics_delta_mode(self, capsys):
        code, out, _ = run(capsys, "asymptotics", "--spec", "thin:3", "--path", "origin",
                           "--compare", "delta")
        assert code == 0

    def test_delta_mode_needs_origin(self, capsys):
        code, _, err = run(capsys, "asymptotics", "--spec", "fat:2", "--path", "top-face",
                           "--compare", "delta")
        assert code == 1
        assert "origin" in err

    def test_ramadanov_csv(self, capsys):
        code, out, _ = run(capsys, "ramadanov", "--kmax", "5")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[1] == "k,e_p0,e_p1,e_p2,e_max"
        assert len(lines) == 7

    def test_ramadanov_custom_point(self, capsys):
        code, out, _ = run(capsys, "ramadanov", "--kmax", "4", "--point", "0.4,0", "0.5,0")
        assert code == 0
        assert out.strip().splitlines()[1] == "k,e_p0,e_max"

    def test_csv_deterministic(self, capsys):
        argv = ["zero-scan", "--k", "3", "--s-points", "7"]
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2


class TestOutputFile:
    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code = main(["--out", str(target), "identities", "--kmax", "5"])
        capsys.readouterr()
        assert code == 0
        doc = json.loads(target.read_text())
        assert doc["command"] == "identities"


class TestReproduce:
    def test_single_fast_criterion(self, capsys):
        code, out, err = run(capsys, "reproduce", "--only", "1")
        doc = json.loads(out)
        assert code == 0
        assert doc["results"]["all_passed"] is True
        assert "[PASS] criterion 1" in err

    def test_numpy_laden_criterion_serializes(self, capsys):
        # Criterion 2 builds its verdict from numpy scalars; the report
        # must still be plain JSON.
        code, out, _ = run(capsys, "reproduce", "--only", "2")
        doc = json.loads(out)
        assert code == 0
        assert doc["results"]["criteria"][0]["passed"] is True
