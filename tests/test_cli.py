import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from hartogs_bergman import acceptance
from hartogs_bergman.acceptance import criterion_2_fat_series
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
    _series_argv("fat:1", 3): (0, "69e32c7f6f8b91a4f27eb890b99293ed902c7a0c2775b5fc13d83a9923dff86a"),
    _series_argv("fat:1", 19): (0, "c0439a8ec57fa74c709fc7e75f742a797c673ba4c9a81a93c5abc47df441f0f8"),
    _series_argv("fat:2", 3): (0, "a041dc7f1e80bf39ef3f21ab739dee03676f5df128160a782c4fa49acb5a1c47"),
    _series_argv("fat:2", 19): (0, "ea606e2230a783fb1c985a337d26bb9800a752d67039b952317bd58944efeb2c"),
    _series_argv("fat:4", 3): (0, "0ef4c763eacb379a502f80e1ec4d447a1e2e8bf6b8305c085828e6fc996e1543"),
    _series_argv("fat:4", 19): (0, "30b01d6f09946ec321e88c3e8170ab9711b761627295d3fa71ff6e4ae66e6ac1"),
    _series_argv("thin:2", 3): (0, "05a51a5934cdf1f46bda238a47cebd5c95739cec3b2a1e2fa3d654fef9ff3af6"),
    _series_argv("thin:2", 19): (0, "33a59e3a729d347daa2a71f39cef9c95729bdb7b22fb643005ebfdf32f14e6cf"),
    _series_argv("thin:3", 3): (0, "2a2ad00160646fcf9181d5628a490add7b568c0dcabcfe57535b2c7b2ac7ebff"),
    _series_argv("thin:3", 19): (0, "2343a98727cc3894f3e64c5a89089180d03b8c5826896c9b78727d0a7d5b115c"),
    _series_argv("thin:2", 5, "--thin-variant", "1-s", "--max-mod", "0.3"):
        (2, "d74216bca41b8611c3513108729bfd9185a0aecc24a7e1b03071c815ccee540f"),
    ("bell-check", "--k", "2", "--pairs", "40", "--seed", "11"):
        (0, "53e447334b87737ba4a5ee279fcbb024d9127593fe617e1cc412c758c67bc5c3"),
    ("bell-check", "--k", "3", "--pairs", "40", "--seed", "11"):
        (0, "c0b4c0d61e371d9f8ecd2f876c282116d1850b15f56d2266bfd24b309ce28086"),
    ("bell-check", "--k", "5", "--pairs", "40", "--seed", "11"):
        (0, "9c5c584eef029273428f54da7d6297e0e62d08ea77d18e3d31e09a48f950eb0c"),
    ("bell-check", "--k", "8", "--pairs", "40", "--seed", "11"):
        (0, "58ee9210e771acfc82ceee8b2d430942bfa6c8807fbf0b9396fa6846899bc7c9"),
    ("biholo-check", "--map", "shear", "--pairs", "40", "--seed", "13"):
        (0, "0a9109899d54b2d83f08e9c5dead538ac230dfe52b1f470fabf6f994574c9c47"),
    ("biholo-check", "--map", "shear-inv", "--pairs", "40", "--seed", "13"):
        (0, "3c4aa48ed87278ae160a7e4b6f65653143386ead24b430dc1af72e847164953b"),
    ("biholo-check", "--map", "shear-iter", "--k", "3", "--pairs", "40", "--seed", "13"):
        (0, "def39d0d9739fae42db0199b586222741c34cc22d70a6b97ff983ed63698c5dd"),
    ("biholo-check", "--map", "shear-iter-inv", "--k", "3", "--pairs", "40", "--seed", "13"):
        (0, "46955225d7f665f52a791045e449857b39ee874c314611559bab9ea7b3e8824b"),
    ("biholo-check", "--map", "shear", "--src", "thin:3", "--dst", "thin:2", "--pairs", "40",
     "--seed", "13"):
        (0, "f8a2292a4042b8dc0d026fdb4fbec6a339f1b2123c35f95920618436908e5ae1"),
    ("reproduce", "--only", "2", "3", "4", "5"):
        (0, "d865a1fb0b8a1d74dd8686a5c11c6a1585cefe24fa8494f2edbb5c3f67e30c55"),
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
