import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from hartogs_bergman import acceptance, cli
from hartogs_bergman.acceptance import criterion_2_fat_series
from hartogs_bergman.cli import main
from hartogs_bergman.domain import DomainSpec, Point2C, contains
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

    def test_nonfinite_value_exits_two_without_report(self, capsys):
        # Inside thin:10, but the denominator pi^2 (1-t)^2 (t^10)^2 underflows to 0.
        code, out, err = run(capsys, "eval", "--spec", "thin:10", "--z", "0,0", "3e-14,0",
                             "--w", "0,0", "3e-14,0")
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "error: kernel value (nan+0j) is not finite" in err

    def test_finite_near_singular_value_is_reported(self, capsys):
        code, doc, _ = run_json(capsys, "eval", "--spec", "thin:10", "--z", "0,0", "0.1,0",
                                "--w", "0,0", "0.1,0")
        assert code == 0
        res = doc["results"]
        assert res["near_singular"] is True
        assert res["value"]["re"] == pytest.approx(
            res["numerator"]["re"] / res["denominator"]["re"], rel=1e-12
        )

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

    @pytest.mark.parametrize("spec, seed", [("fat:1", "700006"), ("thin:4", "2066")])
    def test_series_compare_near_rho_one_passes(self, capsys, spec, seed):
        # Each draws a pair with rho = |s|/|t|^(1/gamma) within 0.002 of 1,
        # which needs 2-4 x 10^4 whole rows.
        t0 = time.perf_counter()
        code, doc, _ = run_json(capsys, "series-compare", "--spec", spec, "--pairs", "25",
                                "--seed", seed)
        assert time.perf_counter() - t0 < 5.0
        assert code == 0
        assert max(p["terms"] for p in doc["results"]["pairs"]) > 16384

    def test_series_compare_nonconvergent_exits_two(self, capsys, monkeypatch, tmp_path):
        def no_tail(*args, **kwargs):
            raise NonconvergentTruncation("tail bound 1e-3 still above tolerance")

        monkeypatch.setattr(acceptance, "kernel_series", no_tail)
        report = tmp_path / "report.json"
        code, out, err = run(
            capsys, "--out", str(report), "series-compare", "--spec", "thin:2", "--pairs", "3",
            "--seed", "1"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("hartogs-bergman series-compare: error: tail bound")
        assert not report.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("series-compare", "--spec", "fat:2", "--pairs", "0"),
            ("series-compare", "--spec", "fat:2", "--pairs", "-3"),
            ("bell-check", "--pairs", "0"),
            ("biholo-check", "--map", "shear", "--pairs", "0"),
            ("lqk", "--kmax", "1"),
        ],
        ids=" ".join,
    )
    def test_check_with_nothing_to_check_exits_one(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert f"hartogs-bergman {argv[0]}: error: " in err

    @pytest.mark.parametrize("cap", ["0", "-0.1", "nan"])
    def test_series_compare_rejects_bad_max_mod_at_once(self, capsys, cap):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "series-compare", "--spec", "fat:2", "--max-mod", cap)
        assert time.perf_counter() - t0 < 1.0
        assert code == 1
        assert out == ""
        assert "max_mod must be > 0" in err

    @pytest.mark.parametrize("tol", ["nan", "-1", "0"])
    def test_series_compare_rejects_bad_series_tol_at_once(self, capsys, tol):
        t0 = time.perf_counter()
        code, out, err = run(
            capsys, "series-compare", "--spec", "fat:2", "--pairs", "1", "--series-tol", tol
        )
        assert time.perf_counter() - t0 < 1.0
        assert code == 1
        assert out == ""
        assert "series tolerance must be > 0" in err

    def test_near_singular_residual_exits_two(self, capsys, tmp_path):
        # Pair 250 has |z2| = 4e-4: a thin:4 denominator falls below the
        # absolute near-singular threshold.
        report = tmp_path / "report.json"
        code, out, err = run(
            capsys, "--out", str(report), "biholo-check", "--map", "shear-iter-inv", "--k", "4",
            "--pairs", "300", "--seed", "514032"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("hartogs-bergman biholo-check: error: a kernel evaluation")
        assert len(err.splitlines()) == 1
        assert not report.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("bell-check", "--tol", "nan"),
            ("biholo-check", "--map", "shear", "--tol", "-1"),
            ("series-compare", "--spec", "fat:2", "--tol", "nan"),
            ("lqk", "--kmax", "3", "--tol", "nan"),
            ("asymptotics", "--spec", "fat:2", "--bound", "nan"),
            ("volume", "--spec", "fat:2", "--tol", "-0.5"),
        ],
        ids=" ".join,
    )
    def test_bad_tolerance_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "expected a number >= 0" in captured.err

    def test_rare_pair_filter_is_an_error_line(self, capsys, monkeypatch):
        monkeypatch.setattr(acceptance, "_PAIR_ROUNDS", 3)
        code, out, err = run(
            capsys, "series-compare", "--spec", "fat:2", "--pairs", "1", "--max-mod", "1e-300"
        )
        assert code == 1
        assert out == ""
        assert err.startswith("hartogs-bergman series-compare: error: pair filter on fat:2")

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


def _series_argv(spec, seed, *extra):
    return ("series-compare", "--spec", spec, "--pairs", "12", "--seed", str(seed), *extra)


# sha256 of the stdout of each pair-check command (exit code first).  The
# pair draws, the kernel calls and their order are a contract: the reports
# must stay byte-identical when the loops behind them are restructured.
GOLDEN_PAIR_CHECKS = {
    _series_argv("fat:1", 3): (0, "f587bea5e091399d7e73719adbcb681101d1e0208d55be22596d937bce76c975"),
    _series_argv("fat:1", 19): (0, "8a01188f15ff1b57f667155c1dab8733d980164506a9d72cc29f72f7a80cb43f"),
    _series_argv("fat:2", 3): (0, "a0093e6723183fdfd553ed6eb093b4c9b39833dd598827fd54c1f31e0d65e9f0"),
    _series_argv("fat:2", 19): (0, "4cd184a4de57711df5ab48f516bcb9d402575a44badc74eebe078143a2cb6d1a"),
    _series_argv("fat:4", 3): (0, "210c0fa0c4b351da1284503cb503b7d50f92212a8ae9e7a87505851c38da710d"),
    _series_argv("fat:4", 19): (0, "f462aa4caa089d05dda78b3555e806b9cb11b6a71ef1ea83b667dae46ec759b7"),
    _series_argv("thin:2", 3): (0, "efbfa5e86f58119b4975fbc33e93ee87e72246713333e45cf0a61fbcb31b0144"),
    _series_argv("thin:2", 19): (0, "93e88002dda57e760c165b25e637a9a4130d000cd748f9edac444d14db46d086"),
    _series_argv("thin:3", 3): (0, "f3eb964d2471c8a83e530be87073850359561b9674a911f6af7ecfa1d2f9a176"),
    _series_argv("thin:3", 19): (0, "9dbaec016a9c2b40ec39bca906fc754ff94ab570397bd0e5d1a44c6abf98ac7f"),
    _series_argv("thin:2", 5, "--thin-variant", "1-s", "--max-mod", "0.3"):
        (2, "47c28c2c842b3b987aa17fdb6c8921d1102d9fff336c8a4c328bb595ae6baa26"),
    ("bell-check", "--k", "2", "--pairs", "40", "--seed", "11"):
        (0, "32bb58dfeffbfb166a30168ff42425010b029ddf8448e406cab77b1315728514"),
    ("bell-check", "--k", "3", "--pairs", "40", "--seed", "11"):
        (0, "d1136e4ae45da3617d81c22604411c23e4f06a716ae7b85b67effa0a70d8f443"),
    ("bell-check", "--k", "5", "--pairs", "40", "--seed", "11"):
        (0, "bb5110c06d5caf097ccedce5e5edab58c73a72db384371d5e5342790287b72ed"),
    ("bell-check", "--k", "8", "--pairs", "40", "--seed", "11"):
        (0, "3c0d1ab72566ed97a826c8626aff886b525141d935ff352bf765a00a996495d5"),
    ("biholo-check", "--map", "shear", "--pairs", "40", "--seed", "13"):
        (0, "3b4d158cd789f02971f65efcb32d22f7c6b40c72124cddd52cb1ae910b6a270d"),
    ("biholo-check", "--map", "shear-inv", "--pairs", "40", "--seed", "13"):
        (0, "924255ea8e6fecd368cae6a03a5dbad1835dc143d2a748b72e2c014d19c260ef"),
    ("biholo-check", "--map", "shear-iter", "--k", "3", "--pairs", "40", "--seed", "13"):
        (0, "9442de608aaf8aea7414784febf41df879e3a348687e3f2524400a33f1797496"),
    ("biholo-check", "--map", "shear-iter-inv", "--k", "3", "--pairs", "40", "--seed", "13"):
        (0, "cd147a4868093f44cbd8fa66224e2e9b50cae9fa4c3f44038e47fb39c47ff15a"),
    ("biholo-check", "--map", "shear", "--src", "thin:3", "--dst", "thin:2", "--pairs", "40",
     "--seed", "13"):
        (0, "b0d9dbd8cc16e59ee222b97df53507741b71ce4f2b1a710e9f5bd40e5b7303f0"),
    ("reproduce", "--only", "2", "3", "4", "5"):
        (0, "713df4a795ecff380c5ed4306dcb075c0336151866c3c6fb07b2466f1f4c3b75"),
}


class TestPairCheckGolden:
    @pytest.mark.parametrize("argv", list(GOLDEN_PAIR_CHECKS), ids=" ".join)
    def test_report_bytes(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN_PAIR_CHECKS[argv]

    def test_criterion_2_is_series_compare_at_its_seeds(self, capsys):
        worst = 0.0
        for k in (1, 2, 3, 4):
            _, doc, _ = run_json(
                capsys, "series-compare", "--spec", f"fat:{k}", "--pairs", "50",
                "--seed", str(1000 + k)
            )
            worst = max(worst, doc["results"]["max_rel_dev"])
        assert criterion_2_fat_series().details == f"max relative deviation {worst:.3e}"


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

    def test_asymptotics_unresolvable_steps_exit_one(self, capsys):
        code, out, err = run(capsys, "asymptotics", "--spec", "fat:2", "--steps", "47")
        assert code == 1
        assert out == ""
        assert err.startswith("hartogs-bergman asymptotics: error: step 47 of the origin path")

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


class TestUsageErrors:
    @pytest.mark.parametrize("only", [(), ("11",), ("1", "11")], ids=repr)
    def test_reproduce_selection_naming_no_criterion_exits_one(self, capsys, only):
        code, out, err = run(capsys, "reproduce", "--only", *only)
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("hartogs-bergman reproduce: error: criterion numbers")

    def test_inadmissible_inner_product_exits_one(self, capsys):
        code, out, err = run(capsys, "inner-product", "--spec", "classical", "--f", "z1^0*z2^-3",
                             "--g", "one", "--n", "10000")
        assert code == 1
        assert out == ""
        assert err == "hartogs-bergman inner-product: error: z1^0*z2^-3 is not square-integrable on classical\n"

    @pytest.mark.parametrize("command", ["inner-product", "reproducing"])
    def test_monte_carlo_checks_on_a_bidisc_exit_one(self, capsys, command):
        code, out, err = run(capsys, command, "--spec", "bidisc", "--n", "10000")
        assert code == 1
        assert out == ""
        assert "requires a Hartogs triangle, got bidisc" in err

    @pytest.mark.parametrize(
        "argv",
        [("--map", "shear", "--k", "3"), ("--map", "shear-inv", "--k", "2"),
         ("--map", "shear-iter",), ("--map", "shear-iter-inv", "--k", "0")],
        ids=" ".join,
    )
    def test_biholo_check_exponent_must_fit_the_map(self, capsys, argv):
        code, out, err = run(capsys, "biholo-check", *argv, "--pairs", "2")
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "exponent" in err

    def test_out_into_missing_directory_exits_one(self, capsys, tmp_path):
        target = tmp_path / "missing" / "report.json"
        code, out, err = run(capsys, "--out", str(target), "identities", "--kmax", "5")
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("hartogs-bergman identities: error: ")
        assert not target.exists()


    def test_unsampleable_domain_exits_one_in_bounded_time(self, capsys):
        # thin:200000 accepts almost no proposal; the sampler gives up
        # after its round cap instead of running on.
        t0 = time.perf_counter()
        code, out, err = run(capsys, "series-compare", "--spec", "thin:200000", "--pairs", "1")
        assert time.perf_counter() - t0 < 30.0
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("hartogs-bergman series-compare: error: rejection sampling on "
                              "thin:200000 accepted ")


    def test_bell_check_names_the_image_outside_fat(self, capsys):
        # Pair 86's z is inside the classical triangle, but its image
        # phi(z) = (z1, z2^40) falls in fat:40's margin band.
        code, out, err = run(capsys, "bell-check", "--k", "40", "--pairs", "300")
        assert code == 1
        assert out == ""
        assert err.startswith("hartogs-bergman bell-check: error: phi(z) ((-0.2077168420736706+")
        assert err.endswith(" is not inside fat:40\n")
        z1, z2 = acceptance._pairs(DomainSpec.classical(), 300, 7)[86, :2]
        assert z1 == complex("-0.2077168420736706+0.08693542886080616j")
        assert contains(DomainSpec.classical(), Point2C(z1, z2))


class TestParserReuse:
    """main builds one parser per process; each call must behave as on a fresh parser."""

    SEQUENCE = [
        ("bell-check", "--k", "3", "--pairs", "5", "--seed", "7"),
        ("eval", "--spec", "fat:2", "--z", "0.1,0", "0.5,0", "--w", "0.2,0", "0.6,0"),
        ("bell-check", "--k", "x"),  # a usage error
        ("ramadanov", "--kmax", "3", "--point", "0.1,0", "0.5,0"),
        ("bell-check", "--k", "3", "--pairs", "5", "--seed", "7"),
        ("ramadanov", "--kmax", "3"),  # the appended point above must not linger
        ("asymptotics", "--spec", "fat:2", "--bound", "nan"),  # another usage error
        ("reproducing", "--spec", "fat:2", "--n", "20000", "--seed", "3"),
    ]

    @staticmethod
    def run_all(capsys, sequence):
        results = []
        for argv in sequence:
            try:
                code = main(list(argv))
            except SystemExit as exc:  # argparse rejected argv
                code = exc.code
            results.append((code, capsys.readouterr().out))
        return results

    def test_interleaved_calls_match_fresh_parsers(self, capsys, monkeypatch):
        shared = self.run_all(capsys, self.SEQUENCE)
        assert cli._parser() is cli._parser()
        monkeypatch.setattr(cli, "_parser", cli.build_parser)  # a new parser per call
        assert shared == self.run_all(capsys, self.SEQUENCE)
        assert [code for code, _ in shared] == [0, 0, 1, 0, 0, 0, 1, 0]
        assert shared[0] == shared[4]
        assert shared[3] != shared[5]


class TestUncoveredCommands:
    def test_zero_scan_circle_emits_cell_rows(self, capsys):
        code, out, _ = run(capsys, "zero-scan", "--k", "2", "--s-points", "3", "--t-abs", "0.5",
                           "--tol", "0.01")
        assert code == 0
        cells = [line.split(",") for line in out.splitlines() if line.startswith("cell,")]
        assert [(c[1], c[4], c[5]) for c in cells] == [("-0.5", "0.5", "1")] * 2
        assert all(float(c[6]) < 0.01 for c in cells)

    def test_volume_of_the_bidisc(self, capsys):
        code, doc, _ = run_json(capsys, "volume", "--spec", "bidisc", "--n", "10000", "--seed", "4")
        assert code == 0
        res = doc["results"]
        assert res["quadrature_volume"] == pytest.approx(9.869604401089358, rel=1e-15)
        assert res["acceptance_ratio"] == 1.0
        assert res["rel_dev"] == 0.0


def test_make_tables_writes_every_table(tmp_path):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "make_tables.py"), "--out-dir", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert len(list(tmp_path.glob("*.csv"))) == 44
