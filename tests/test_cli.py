import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hartogs_bergman import acceptance, cli, kernels
from hartogs_bergman.acceptance import criterion_2_fat_series
from hartogs_bergman.cli import main
from hartogs_bergman.domain import DomainSpec, Point2C, contains, volume
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

    @pytest.mark.parametrize("spec, seed", [("fat:1", "1403"), ("thin:4", "10118")])
    def test_series_compare_near_rho_one_passes(self, capsys, spec, seed):
        # Each draws a pair with rho = |s|/|t|^(1/gamma) within 0.002 of 1,
        # which needs 2-10 x 10^4 whole rows.
        t0 = time.perf_counter()
        code, doc, _ = run_json(capsys, "series-compare", "--spec", spec, "--pairs", "25",
                                "--seed", seed)
        assert time.perf_counter() - t0 < 5.0
        assert code == 0
        assert max(p["terms"] for p in doc["results"]["pairs"]) > 16384

    def test_series_compare_nonconvergent_exits_two(self, capsys, monkeypatch, tmp_path):
        def no_tail(*args, **kwargs):
            raise NonconvergentTruncation("tail bound 1e-3 still above tolerance")

        monkeypatch.setattr(acceptance, "series_row_sums", no_tail)
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
        # Pair 243 has |z2| = 3.5e-4: a thin:4 denominator falls below the
        # absolute near-singular threshold.
        report = tmp_path / "report.json"
        code, out, err = run(
            capsys, "--out", str(report), "biholo-check", "--map", "shear-iter-inv", "--k", "4",
            "--pairs", "300", "--seed", "7810"
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

    @pytest.mark.parametrize("pairs", ["0", "-3"])
    def test_lqk_thin_mode_names_the_pair_count(self, capsys, pairs):
        code, out, err = run(capsys, "lqk", "--thin-k", "2", "--pairs", pairs, "--seed", "1")
        assert code == 1
        assert out == ""
        assert err == f"hartogs-bergman lqk: error: pair count must be >= 1, got {pairs}\n"

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

    def test_reproducing_with_every_sample_excluded_exits_two(self, capsys, monkeypatch):
        monkeypatch.setattr(kernels, "NEAR_SINGULAR_THRESHOLD", 1e300)
        code, out, err = run(capsys, "reproducing", "--spec", "fat:2", "--n", "2000")
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["hartogs-bergman reproducing: error: all 2000 samples are "
                                    "near-singular at evaluation point ((0.1+0j), (0.5+0j))"]


def _series_argv(spec, seed, *extra):
    return ("series-compare", "--spec", spec, "--pairs", "12", "--seed", str(seed), *extra)


# sha256 of the stdout of each pair-check command (exit code first).  The
# pair draws, the kernel calls and their order are a contract: the reports
# must stay byte-identical when the loops behind them are restructured.
GOLDEN_PAIR_CHECKS = {
    _series_argv("fat:1", 3): (0, "f9c3d4e74ddf6465f8644a43a224e0b9d394d877cc6de67fdbda03b5f2d41500"),
    _series_argv("fat:1", 19): (0, "3b0e47e0cad6e9faf121493d6f539088e076015d5032f90a60b29b303368b297"),
    _series_argv("fat:2", 3): (0, "51a3979dd0452127c2757e06d3a13398e914b3430b25d6494758ee0743e8dae0"),
    _series_argv("fat:2", 19): (0, "6c3115a5011bdf844e6cfe5140fdf239f2dbcb690471ed42a0ab20f54a4f6fa8"),
    _series_argv("fat:4", 3): (0, "c739a1dd92e89c0aa31977be1f4d9d427ad8aac3dd92bf67507a7a2ad0ecf417"),
    _series_argv("fat:4", 19): (0, "d19378c72f10ea342275d4dcea1db400c506a43b31a63d9e3efb1824266e2b6c"),
    _series_argv("thin:2", 3): (0, "5727002f5493e0eaf0dfb1919900d2c4d14b89d66192ef30ec635963ace1e345"),
    _series_argv("thin:2", 19): (0, "b4aa0a10e9b52e6c4b700fd7997e496bc1bd1e460a7206d7b2ffaa9cd7793145"),
    _series_argv("thin:3", 3): (0, "3d98547258758dbbe2d8829270c56b699314bf71378a958871aad0acda9b9e8a"),
    _series_argv("thin:3", 19): (0, "4e0ccaa2b151a8fe41666a827b005bccd05feba13aace57134390a0a9c93378a"),
    _series_argv("thin:2", 5, "--thin-variant", "1-s", "--max-mod", "0.3"):
        (2, "adcc3aad24044a4bc7ced9d50e5cd383bbe132fc7b64c240b563f67276db4b50"),
    ("bell-check", "--k", "2", "--pairs", "40", "--seed", "11"):
        (0, "6e9cca7e256da1370089b37d66c814678e3d454d8b1c9a8ae241529ddba9e75d"),
    ("bell-check", "--k", "3", "--pairs", "40", "--seed", "11"):
        (0, "fc2ccab1d02eccc35e8857bf3111f475667a7704bae46b0f03784223039afe13"),
    ("bell-check", "--k", "5", "--pairs", "40", "--seed", "11"):
        (0, "165f43cabc22ab94e69b0519559faac308d67ad948543afb926426e16428813c"),
    ("bell-check", "--k", "8", "--pairs", "40", "--seed", "11"):
        (0, "a7cc3f46c20123b8686f01dbc01aee2bf9273667ed1c92e28b8430514aee8e59"),
    ("biholo-check", "--map", "shear", "--pairs", "40", "--seed", "13"):
        (0, "9a561df510909d2b91fbeb1d35a9ee192c8dd5c89f2af128a8f31f65ec98974e"),
    ("biholo-check", "--map", "shear-inv", "--pairs", "40", "--seed", "13"):
        (0, "7adf59cd95ad70c5cd48bbd01b4e61972e634c0cf02320ca69315eecd6e4bceb"),
    ("biholo-check", "--map", "shear-iter", "--k", "3", "--pairs", "40", "--seed", "13"):
        (0, "549fa2f2a35f96654edc663795919a1bbbb047dc67462998aad95ba1f5fe6850"),
    ("biholo-check", "--map", "shear-iter-inv", "--k", "3", "--pairs", "40", "--seed", "13"):
        (0, "d1ca6db2f48792990b5c3a1e5c988e44bb81de6e1c56da97829780aad718c23f"),
    ("biholo-check", "--map", "shear", "--src", "thin:3", "--dst", "thin:2", "--pairs", "40",
     "--seed", "13"):
        (0, "a6744abc4010f5969311352cc7a6c4d4a8ec83bdfd2acbf24779865e73c2a1a7"),
    ("reproduce", "--only", "2", "3", "4", "5"):
        (0, "d9e672daa081cb358e55d91bbb0e2a6ebe543452050f0725948489890a9bb48b"),
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

    @pytest.mark.parametrize("argv, message", [
        (("--spec", "thin:27"), "ratio became nan at (0j, (9.5367431640625e-07+0j))"),
        (("--spec", "thin:7", "--compare", "delta", "--steps", "40"),
         "value became inf at (0j, (1.8189894035458565e-12+0j))"),
    ])
    def test_asymptotics_underflowed_denominator_exits_two(self, capsys, argv, message):
        # On these origin paths the kernel's denominator underflows to 0.
        code, out, err = run(capsys, "asymptotics", "--path", "origin", *argv)
        assert code == 2
        assert out == ""
        assert err == f"hartogs-bergman asymptotics: error: {message}\n"

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
        # On thin:20 the |s|, |t| <= 0.4 filter keeps at most 7.6e-16 of the
        # pairs, and on thin:200000 none: the bound fails before any draw.
        for spec, pairs in (("thin:20", "25"), ("thin:200000", "1")):
            t0 = time.perf_counter()
            code, out, err = run(capsys, "series-compare", "--spec", spec, "--pairs", pairs)
            assert time.perf_counter() - t0 < 1.0
            assert code == 1
            assert out == ""
            assert len(err.splitlines()) == 1
            assert err.startswith(f"hartogs-bergman series-compare: error: pair filter on {spec} "
                                  "keeps at most ")
            assert err.endswith(f"fewer than {pairs}\n")


    @pytest.mark.parametrize("k", [10**15, 10**16])
    def test_unsampleable_thin_exponent_exits_one_at_once(self, capsys, k):
        # r2 = u^(1/(2k+2)) lies in the 1e-14 top margin for all but ~e^(-2k 1e-14) of the
        # draws: the sampler's keep share bound fails before any draw.
        t0 = time.perf_counter()
        code, out, err = run(capsys, "inner-product", "--spec", f"thin:{k}", "--f", "one", "--g",
                             "one", "--n", "20000")
        assert time.perf_counter() - t0 < 1.0
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert err.startswith(f"hartogs-bergman inner-product: error: rejection sampling on thin:{k} "
                              "keeps at most ")
        assert err.endswith(" fewer than 20000\n")

    def test_bell_check_names_the_image_outside_fat(self, capsys):
        # Pair 6's z is inside the classical triangle, but its image
        # phi(z) = (z1, z2^40) falls in fat:40's margin band.
        code, out, err = run(capsys, "bell-check", "--k", "40", "--pairs", "300")
        assert code == 1
        assert out == ""
        assert err.startswith("hartogs-bergman bell-check: error: phi(z) ((-0.18968375475212276+")
        assert err.endswith(" is not inside fat:40\n")
        z1, z2 = acceptance._pairs(DomainSpec.classical(), 300, 7)[6, :2]
        assert z1 == complex("-0.18968375475212276+0.025996740390411045j")
        assert contains(DomainSpec.classical(), Point2C(z1, z2))

    @pytest.mark.parametrize("command,bound,work", [("identities", 150, "verify_coefficient_identities"),
                                                    ("lqk", 1000, "lqk_witness"),
                                                    ("ramadanov", 1000, "ramadanov_table")])
    def test_kmax_one_past_its_bound_fails_at_once(self, capsys, monkeypatch, command, bound, work):
        def never(*args):
            raise AssertionError(f"{work} ran")

        monkeypatch.setattr(cli, work, never)
        code, out, err = run(capsys, command, "--kmax", str(bound + 1))
        assert code == 1
        assert out == ""
        assert err == f"hartogs-bergman {command}: error: --kmax must be <= {bound}, got {bound + 1}\n"

    @pytest.mark.parametrize("command,bound,work", [("identities", 150, "verify_coefficient_identities"),
                                                    ("lqk", 1000, "lqk_witness"),
                                                    ("ramadanov", 1000, "ramadanov_table")])
    def test_kmax_at_its_bound_reaches_the_work(self, capsys, monkeypatch, command, bound, work):
        # The bound itself is accepted; the stand-in stops the command once
        # the work begins.
        def reached(*args):
            raise ValueError(f"{work} ran")

        monkeypatch.setattr(cli, work, reached)
        code, out, err = run(capsys, command, "--kmax", str(bound))
        assert code == 1
        assert out == ""
        assert err == f"hartogs-bergman {command}: error: {work} ran\n"


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

    def test_volume_of_a_thin_triangle_is_exact(self, capsys):
        # pi^2 / 1001.  Composite Simpson on 4096 intervals, which cannot
        # resolve r^2001, read 0.009862775348722054.
        spec = DomainSpec.thin(1000)
        _, doc, _ = run_json(capsys, "volume", "--spec", str(spec), "--n", "20000", "--seed", "1")
        assert doc["schema_version"] == 1
        assert doc["results"]["quadrature_volume"] == volume(spec)


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


def _json_dumps_text(value):
    """json.dumps(value, sort_keys=True, indent=2), or the type of what it raises."""
    try:
        return json.dumps(value, sort_keys=True, indent=2)
    except (TypeError, ValueError) as exc:
        return type(exc)


def _writer_text(value):
    out = []
    try:
        cli._write_json(value, out, "\n  ")
    except (TypeError, ValueError) as exc:
        return type(exc)
    return "".join(out)


JSON_COMMANDS = [
    ("eval", "--spec", "thin:2", "--z", "0.05,0.01", "0.5,0.1", "--w", "0.01,0.02", "0.4,-0.3"),
    ("identities", "--kmax", "6"),
    ("series-compare", "--spec", "thin:3", "--pairs", "6", "--seed", "2"),
    ("series-compare", "--spec", "thin:2", "--pairs", "6", "--seed", "5", "--thin-variant", "1-s",
     "--max-mod", "0.3"),
    ("bell-check", "--k", "3", "--pairs", "30", "--seed", "4"),
    ("biholo-check", "--map", "shear-iter-inv", "--k", "2", "--pairs", "30", "--seed", "4"),
    ("inner-product", "--spec", "fat:2", "--f", "z1", "--g", "z2inv", "--n", "5000", "--seed", "2"),
    ("reproducing", "--spec", "classical", "--f", "z2", "--n", "5000", "--seed", "2"),
    ("lqk", "--kmax", "6"),
    ("lqk", "--thin-k", "2", "--pairs", "500", "--seed", "2"),
    ("volume", "--spec", "thin:2", "--n", "5000", "--seed", "2"),
    ("reproduce", "--only", "1", "4"),
]


class TestJsonWriter:
    """cli._emit's writer makes json.dumps(sort_keys=True, indent=2)'s bytes."""

    @pytest.mark.parametrize("argv", JSON_COMMANDS, ids=" ".join)
    def test_every_json_command_matches_json_dumps(self, capsys, monkeypatch, argv):
        envelopes = []

        def recording(value, out, indent):
            envelopes.append(value)
            return writer(value, out, indent)

        writer = cli._write_json
        monkeypatch.setattr(cli, "_write_json", recording)
        code, out, _ = run(capsys, *argv)
        assert code in (0, 2)
        assert out == json.dumps(envelopes[0], sort_keys=True, indent=2) + "\n"

    @given(st.recursive(
        st.one_of(
            st.none(), st.booleans(), st.integers(min_value=-2**70, max_value=2**70),
            st.floats(allow_nan=True, allow_infinity=True),
            st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 2**64, -2**64, 1e-320]),
            st.text(), st.sampled_from(['"', "\\", "\n\t\x00\x1f", "é∑😀", " "]),
            st.builds(np.float64, st.floats(allow_nan=True, allow_infinity=True)),
        ),
        lambda children: st.one_of(
            st.lists(children, max_size=5),
            st.lists(children, max_size=5).map(tuple),
            st.dictionaries(st.text(max_size=4), children, max_size=5),
            st.dictionaries(st.one_of(st.integers(), st.floats(), st.booleans(), st.none()), children,
                            max_size=3),
        ),
        max_leaves=30,
    ))
    def test_nested_values_match_json_dumps(self, value):
        assert _writer_text(value) == _json_dumps_text(value)

    @pytest.mark.parametrize("value", [
        [], {}, (), [[]], {"a": {}}, [1.5, math.nan], [0.1, -math.inf, 2.0], (0.25, -0.0),
        {1: "one", 2.5: [True, None], None: 0, False: -0.0}, {math.inf: 1, -math.inf: 2, 0.5: 3},
        {math.nan: "nan key"}, {"x": np.float64(0.1)},
        [np.float64(math.inf), np.float64(-1e300)],
    ], ids=repr)
    def test_edge_values_match_json_dumps(self, value):
        assert _writer_text(value) == _json_dumps_text(value)

    @pytest.mark.parametrize("value", [np.int64(3), [1.0, np.int64(3)], {3, 4}, {"a": {1}},
                                       {(1, 2): 0}, {"a": 1, 2: 0}, [np.bool_(True)], object()],
                             ids=repr)
    def test_type_errors_are_json_dumps_type_errors(self, value):
        with pytest.raises(TypeError) as expected:
            json.dumps(value, sort_keys=True, indent=2)
        with pytest.raises(TypeError) as raised:
            cli._write_json(value, [], "\n  ")
        assert str(raised.value) == str(expected.value)
