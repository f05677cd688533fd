"""Command-line contract: exit codes and one JSON document on stdout."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ksubmax.cli
from ksubmax import (Dims, OracleRangeError, ValueOracle, parse_instance,
                     random_ksubmodular, tabulate)
from ksubmax.cli import main


def write_instance(tmp_path, doc, name="instance.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


HUGE_CUT = {"kind": "max_k_cut", "n": 20000, "k": 3, "edges": [[0, 1]]}

#: Finite values whose sum overflows a float.
BIG = {"kind": "tabular", "n": 1, "k": 2, "values": [0, 1.5e308, 1.7e308]}


def layer_layout_doc(k):
    return {"kind": "layer_layout", "n": 2, "k": k,
            "edges": [[0, 1]], "directed": True}


def ksubmodular_doc(n, k):
    table = random_ksubmodular(Dims(n, k), atoms=3 * n, seed=n)
    return {"kind": "tabular", "n": n, "k": k, "values": table.values.tolist()}


class TestCheckCommand:
    def test_layer_layout_ksub_violated(self, tmp_path, capsys):
        path = write_instance(tmp_path, layer_layout_doc(3))
        code, out = run(capsys, ["check", path, "--property", "ksub"])
        assert code == 1
        doc = json.loads(out)
        assert doc["property"] == "k_submodular"
        assert doc["holds"] is False
        assert doc["counterexample"] is not None

    def test_layer_layout_k_wise_holds(self, tmp_path, capsys):
        path = write_instance(tmp_path, layer_layout_doc(3))
        code, out = run(capsys, ["check", path, "--property", "monotone:3"])
        assert code == 0
        assert json.loads(out)["holds"] is True

    def test_coverage_characterization_holds(self, tmp_path, capsys):
        path = write_instance(tmp_path, {"kind": "coverage_tight", "n": 2, "k": 4})
        code, out = run(capsys, ["check", path, "--property", "characterization"])
        assert code == 0
        assert json.loads(out)["holds"] is True

    def test_orthant_and_pairs_properties(self, tmp_path, capsys):
        path = write_instance(tmp_path, layer_layout_doc(3))
        code, _ = run(capsys, ["check", path, "--property", "orthant"])
        assert code == 0
        code, _ = run(capsys, ["check", path, "--property", "orthant-pairs"])
        assert code == 1

    def test_bad_property_flag(self, tmp_path, capsys):
        path = write_instance(tmp_path, layer_layout_doc(3))
        for prop in ("nope", "monotone:x"):
            with pytest.raises(SystemExit) as excinfo:
                main(["check", path, "--property", prop])
            assert excinfo.value.code == 2

    @pytest.mark.parametrize("prop", ["monotone:0", "monotone:-1"])
    def test_r_below_one_exit_2_before_reading(self, capsys, prop):
        # monotone:0 passed argparse: a missing file was reported instead,
        # and a real one was read before r was refused
        with pytest.raises(SystemExit) as excinfo:
            main(["check", "/no/such/file.json", "--property", prop])
        captured = capsys.readouterr()
        assert excinfo.value.code == 2
        assert captured.out == ""
        assert "argument --property:" in captured.err
        assert "file.json" not in captured.err

    def test_r_above_k_exit_2(self, tmp_path, capsys):
        path = write_instance(tmp_path, layer_layout_doc(3))
        code = main(["check", path, "--property", "monotone:5"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "error: r: must be in [1, k=3], got 5\n"

    def test_invalid_instance_exit_2(self, tmp_path, capsys):
        path = write_instance(
            tmp_path, {"kind": "det_greedy_tight", "n": 2, "k": 2, "r": 3}
        )
        code, out = run(capsys, ["check", path, "--property", "ksub"])
        assert code == 2
        assert out == ""  # diagnostics go to stderr

    @pytest.mark.parametrize("entry", ["NaN", "Infinity", "1e999", "1" + "0" * 400],
                             ids=["NaN", "Infinity", "1e999", "10^400"])
    def test_non_finite_table_entry_exit_2(self, tmp_path, capsys, entry):
        path = tmp_path / "instance.json"
        path.write_text('{"kind": "tabular", "n": 1, "k": 2, "values": [0, %s, 1]}'
                        % entry)
        code, out = run(capsys, ["check", str(path), "--property", "ksub"])
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize(
        "doc,argv,field",
        [
            ({"kind": "tabular", "n": 20000, "k": 1, "values": [0, 1]},
             ["check", "--property", "ksub"], "values"),
            (HUGE_CUT, ["check", "--property", "orthant"], "cap"),
            (HUGE_CUT, ["maximize", "--algo", "brute"], "cap"),
            (HUGE_CUT, ["maximize", "--algo", "random", "--exact"], "cap"),
            (HUGE_CUT, ["maximize", "--algo", "greedy-rand", "--exact"], "cap"),
        ],
        ids=["tabular-check", "cut-check", "cut-brute", "cut-random", "cut-greedy"],
    )
    def test_huge_n_exit_2(self, tmp_path, capsys, doc, argv, field):
        # (k+1)^n has more digits than Python will format into a message
        path = write_instance(tmp_path, doc)
        code = main(argv[:1] + [path] + argv[1:])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert field in captured.err

    @pytest.mark.parametrize("doc,argv,refusal", [
        ({"kind": "tabular", "n": 10**12, "k": 2, "values": [0, 1, 2]},
         ["check", "--property", "ksub"], "values: need (k+1)^n = 3^1000000000000 "),
        ({**HUGE_CUT, "n": 10**12}, ["check", "--property", "ksub"],
         "tabulation needs 4^1000000000000 states"),
        ({**HUGE_CUT, "n": 10**12}, ["maximize", "--algo", "brute"],
         "brute force needs 4^1000000000000 states"),
    ], ids=["tabular-check", "cut-check", "cut-brute"])
    def test_trillion_n_exit_2_without_building_the_count(self, tmp_path, capsys,
                                                           doc, argv, refusal):
        # the caps built (k+1)^n to compare it: n = 2*10^7 took seconds to refuse
        path = write_instance(tmp_path, doc)
        code = main(argv[:1] + [path] + argv[1:])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert refusal in captured.err

    def test_pair_cap_counts_the_pairs_each_check_scans(self, tmp_path, capsys):
        # n=7, k=3: orthant-pairs scans 9^7 (about 4.8e6) orthant pairs and
        # runs; ksub scans 16^7 (about 2.7e8) assignment pairs, past 1e8
        path = write_instance(tmp_path, {
            "kind": "layer_layout", "n": 7, "k": 3, "directed": True,
            "edges": [[e, e + 1] for e in range(6)]})
        code, out = run(capsys, ["check", path, "--property", "orthant-pairs"])
        assert code == 1
        assert json.loads(out)["holds"] is False
        code = main(["check", path, "--property", "ksub"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "16^7 pairs" in captured.err

    def test_certified_table_past_the_pair_cap_holds(self, tmp_path, capsys):
        # n=8, k=3: 16^8 (about 4.3e9) pairs, past the default cap, but
        # about 1.4e6 local rows, which certify a k-submodular table
        path = write_instance(tmp_path, ksubmodular_doc(8, 3))
        code, out = run(capsys, ["check", path, "--property", "ksub"])
        assert code == 0
        assert json.loads(out) == {"property": "k_submodular", "holds": True,
                                   "counterexample": None, "evals": 4 * 4**16}

    def test_certified_check_memory_stays_bounded(self, tmp_path):
        # a (9, 3) table holds 262144 values; the local sweep works per
        # element and element pair, each block no larger than the table
        if not sys.platform.startswith("linux"):
            pytest.skip("ru_maxrss is in KiB on Linux only")
        path = write_instance(tmp_path, ksubmodular_doc(9, 3))
        code = (
            "import resource, sys\n"
            "from ksubmax.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
            "sys.exit(code)\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        child = subprocess.run(
            [sys.executable, "-c", code, "check", path, "--property", "ksub"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert child.returncode == 0, child.stderr
        assert json.loads(child.stdout)["holds"] is True
        assert int(child.stderr) / 1024 < 150

    def test_missing_file_exit_2(self, capsys):
        assert run(capsys, ["check", "/no/such/file.json",
                            "--property", "ksub"])[0] == 2


class TestMaximizeCommand:
    def test_greedy_det_on_tight_instance(self, tmp_path, capsys):
        path = write_instance(
            tmp_path, {"kind": "det_greedy_tight", "n": 2, "k": 2, "r": 2}
        )
        code, out = run(capsys, ["maximize", path, "--algo", "greedy-det"])
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == pytest.approx(1 / 3, abs=1e-12)
        assert doc["solution"] == [1, 1]
        assert doc["trace"] is not None

    def test_coverage_exact_expectation(self, tmp_path, capsys):
        path = write_instance(tmp_path, {"kind": "coverage_tight", "n": 2, "k": 5})
        code, out = run(capsys, ["maximize", path, "--algo", "greedy-rand", "--exact"])
        assert code == 0
        doc = json.loads(out)
        gamma = 0.5
        assert doc["mode"] == "exact-expectation"
        assert doc["expectation"] == pytest.approx(
            (2 + gamma) / (1 + 4 * gamma), abs=1e-12
        )

    def test_indicator_random_exact(self, tmp_path, capsys):
        path = write_instance(tmp_path, {"kind": "indicator", "n": 1, "k": 3,
                                         "target": 1})
        code, out = run(capsys, ["maximize", path, "--algo", "random", "--exact"])
        assert code == 0
        assert json.loads(out)["expectation"] == pytest.approx(1 / 3, abs=1e-12)

    def test_non_finite_result_exit_2(self, tmp_path, capsys):
        # each term is finite, but their sum overflows to infinity
        term = {"kind": "tabular", "n": 1, "k": 1, "values": [1e308, 1e308]}
        path = write_instance(tmp_path, {"kind": "sum", "n": 1, "k": 1,
                                         "terms": [term, term]})
        code = main(["maximize", path, "--algo", "brute"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "non-finite" in captured.err

    def test_overflowing_edge_sum_exit_2_quietly(self, tmp_path):
        # two finite weighted edges whose sum overflows: the oracle refuses
        # the inf, and no numpy overflow warning reaches stderr first
        doc = {"kind": "max_k_cut", "n": 3, "k": 2, "edges": [[0, 1], [1, 2]],
               "weights": [1e308, 1e308]}
        with pytest.raises(OracleRangeError, match="non-finite"):
            tabulate(parse_instance(json.dumps(doc)).build())
        src = Path(__file__).resolve().parents[1] / "src"
        path_var = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
        child = subprocess.run(
            [sys.executable, "-m", "ksubmax.cli", "maximize",
             write_instance(tmp_path, doc), "--algo", "brute"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": path_var},
        )
        assert (child.returncode, child.stdout) == (2, "")
        assert child.stderr.count("\n") == 1, child.stderr
        assert child.stderr.startswith("error: oracle max_2_cut has a non-finite value")

    @pytest.mark.parametrize("algo", ["random", "greedy-rand"])
    def test_overflowing_trial_mean_exit_2(self, tmp_path, capsys, algo):
        # every value is finite, but ten of them overflow fsum
        path = write_instance(tmp_path, BIG)
        code = main(["maximize", path, "--algo", algo, "--trials", "10"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "overflows" in captured.err

    @pytest.mark.parametrize("flags", [
        ["--algo", "greedy-det"],
        ["--algo", "greedy-rand"],
        ["--algo", "greedy-rand", "--trials", "20"],
        ["--algo", "greedy-rand", "--exact"],
    ], ids=["greedy-det", "greedy-rand", "trials", "exact"])
    def test_overflowing_gain_exit_2(self, tmp_path, capsys, monkeypatch, flags):
        # a hand-built oracle in place of the file's: its finite values
        # differ by more than the largest float, so every gain is inf
        swing = ValueOracle(Dims(3, 2), lambda x: -1e308 if x == (0, 0, 0) else 1e308,
                            name="swing")
        monkeypatch.setattr(ksubmax.cli, "_load_instance", lambda path: swing)
        code = main(["maximize", write_instance(tmp_path, BIG), *flags])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == ("error: oracle swing: a marginal gain at element 0 "
                                "overflows a float\n")

    def test_overflowing_orthant_sum_exit_2(self, tmp_path, capsys):
        # both orthant values are finite, but their sum overflows fsum
        code = main(["maximize", write_instance(tmp_path, BIG), "--algo", "random",
                     "--exact"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "overflows a float" in captured.err

    @pytest.mark.parametrize("flags", [["--seed", "2"], ["--exact"]])
    def test_overflowing_beta_takes_label_k_quietly(self, tmp_path, capsys, flags):
        # gains 1.5e308 and 1.7e308 overflow beta: label 2 is taken, no
        # warning reaches stderr, and the trace writes the beta as null
        path = write_instance(tmp_path, BIG)
        code = main(["maximize", path, "--algo", "greedy-rand", *flags])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        doc = json.loads(captured.out)
        if "--exact" in flags:
            assert doc["expectation"] == 1.7e308
        else:
            assert doc["value"] == 1.7e308
            assert doc["solution"] == [2]
            assert doc["trace"][0]["beta"] is None

    def test_exact_with_deterministic_algo_rejected(self, tmp_path, capsys):
        path = write_instance(tmp_path, {"kind": "coverage_tight", "n": 2, "k": 3})
        assert run(capsys, ["maximize", path, "--algo", "greedy-det",
                            "--exact"])[0] == 2

    @pytest.mark.parametrize("flags,named", [
        (["--algo", "greedy-det", "--orthants-only"], ("--orthants-only", "--algo")),
        (["--algo", "greedy-rand", "--orthants-only"], ("--orthants-only", "--algo")),
        (["--algo", "brute", "--order", "1,0"], ("--order", "--algo")),
        (["--algo", "random", "--order", "1,0"], ("--order", "--algo")),
        (["--algo", "brute", "--seed", "9"], ("--seed", "--algo")),
        (["--algo", "greedy-det", "--seed", "0"], ("--seed", "--algo")),
        (["--algo", "random", "--exact", "--seed", "9"], ("--seed", "--exact")),
        (["--algo", "greedy-rand", "--exact", "--trials", "50"],
         ("--trials", "--exact")),
        (["--algo", "random", "--exact", "--trials", "1"], ("--trials", "--exact")),
        (["--algo", "brute", "--trials", "1"], ("--trials", "--algo")),
    ])
    def test_ignored_flag_exit_2(self, tmp_path, capsys, flags, named):
        path = write_instance(tmp_path, layer_layout_doc(3))
        code = main(["maximize", path, *flags])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert all(flag in captured.err for flag in named)

    def test_closed_stdout_exit_2(self, tmp_path):
        path = write_instance(tmp_path, layer_layout_doc(3))
        src = Path(__file__).resolve().parents[1] / "src"
        path_var = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
        env = {**os.environ, "PYTHONPATH": path_var}
        read_end, write_end = os.pipe()
        os.close(read_end)  # closed before the child can write a byte
        try:
            child = subprocess.run(
                [sys.executable, "-m", "ksubmax.cli", "maximize", path,
                 "--algo", "random", "--exact"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        err = child.stderr.decode()
        assert child.returncode == 2, err
        assert "Traceback" not in err
        assert err.count("\n") == 1 and err.startswith("error: ")

    def test_brute_and_orthants_only(self, tmp_path, capsys):
        path = write_instance(tmp_path, {"kind": "coverage_tight", "n": 2, "k": 3})
        code, out = run(capsys, ["maximize", path, "--algo", "brute"])
        assert code == 0
        gamma = 1 / math.sqrt(2)
        assert json.loads(out)["value"] == pytest.approx(1 + gamma, abs=1e-12)
        code, out = run(capsys, ["maximize", path, "--algo", "brute",
                                 "--orthants-only"])
        assert json.loads(out)["evals"] == 9

    def test_empirical_trials(self, tmp_path, capsys):
        path = write_instance(tmp_path, {"kind": "coverage_tight", "n": 2, "k": 5})
        code, out = run(capsys, ["maximize", path, "--algo", "greedy-rand",
                                 "--trials", "500", "--seed", "3"])
        assert code == 0
        doc = json.loads(out)
        assert doc["mode"] == "empirical-expectation"
        assert doc["trials"] == 500
        exact = (2 + 0.5) / (1 + 4 * 0.5)
        assert abs(doc["mean"] - exact) <= 4 * doc["stderr"]

    def test_seeded_run_reproducible(self, tmp_path, capsys):
        path = write_instance(tmp_path, {"kind": "coverage_tight", "n": 2, "k": 4})
        _, first = run(capsys, ["maximize", path, "--algo", "greedy-rand",
                                "--seed", "12"])
        _, second = run(capsys, ["maximize", path, "--algo", "greedy-rand",
                                 "--seed", "12"])
        assert first == second

    def test_order_flag(self, tmp_path, capsys):
        path = write_instance(
            tmp_path, {"kind": "det_greedy_tight", "n": 2, "k": 2, "r": 2}
        )
        code, out = run(capsys, ["maximize", path, "--algo", "greedy-det",
                                 "--order", "1,0"])
        assert code == 0
        assert json.loads(out)["solution"] == [2, 2]
        assert run(capsys, ["maximize", path, "--algo", "greedy-det",
                            "--order", "0,0"])[0] == 2


class TestBenchCommand:
    def test_paper_tight_all_bounds_hold(self, capsys):
        code, out = run(capsys, ["bench", "--suite", "paper-tight", "--k", "2..4"])
        assert code == 0
        report = json.loads(out)
        assert list(report) == ["suite", "eps", "k_values", "rows",
                                "all_bounds_satisfied"]
        assert (report["suite"], report["k_values"]) == ("paper-tight", [2, 3, 4])
        assert report["all_bounds_satisfied"] is True
        assert all(row["bound_satisfied"] for row in report["rows"])
        # tight rows meet their guarantee with equality
        det_rows = [r for r in report["rows"] if r["algorithm"] == "greedy-det"]
        assert det_rows
        for row in det_rows:
            assert row["ratio"] == pytest.approx(row["bound"], abs=1e-12)
        header = "instance,k,r,algorithm,mode,value,opt,ratio,bound,bound_satisfied,seed"
        assert all(list(row) == header.split(",") for row in report["rows"])
        # the one document, as json.dumps with indent 2 writes it
        assert out == json.dumps(report, indent=2) + "\n"

    def test_random_ksub_reproducible(self, capsys):
        argv = ["bench", "--suite", "random-ksub", "--k", "2,3",
                "--trials", "3", "--seed", "7"]
        code, first = run(capsys, argv)
        assert code == 0
        assert len(json.loads(first)["rows"]) == 2 * 3 * 3
        assert run(capsys, argv) == (0, first)

    def test_violated_bound_exit_1_with_the_report(self, capsys, monkeypatch):
        # a guarantee above every ratio: each greedy-det row fails
        monkeypatch.setattr(ksubmax.cli, "det_greedy_guarantee", lambda r: 2.0)
        code, out = run(capsys, ["bench", "--suite", "paper-tight", "--k", "2"])
        assert code == 1
        report = json.loads(out)
        assert report["all_bounds_satisfied"] is False
        failed = {row["algorithm"] for row in report["rows"]
                  if not row["bound_satisfied"]}
        assert failed == {"greedy-det"}

    def test_out_flag_exit_2(self, tmp_path, capsys):
        # the report is the one stdout document; no flag names a file
        out_path = tmp_path / "r.json"
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--suite", "paper-tight", "--k", "2",
                  "--out", str(out_path)])
        captured = capsys.readouterr()
        assert excinfo.value.code == 2
        assert captured.out == ""
        assert "--out" in captured.err and "usage:" in captured.err
        assert not out_path.exists()

    def test_empty_k_range_exit_2(self, capsys):
        for ks in ("6..2", "1"):
            with pytest.raises(SystemExit) as excinfo:
                main(["bench", "--suite", "paper-tight", "--k", ks])
            assert excinfo.value.code == 2
            assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("rs", ["0", "0..2", "-1", "2,0"])
    def test_r_below_one_exit_2(self, capsys, rs):
        # --r 0 exited 0 with every deterministic-greedy row silently dropped
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--suite", "paper-tight", "--k", "3", "--r", rs])
        captured = capsys.readouterr()
        assert excinfo.value.code == 2
        assert captured.out == ""
        assert "argument --r:" in captured.err and "usage:" in captured.err

    @pytest.mark.parametrize("ks,rs", [("3", "5"), ("2..3", "2..4"), ("2,4", "5")])
    def test_r_above_every_k_exit_2(self, capsys, ks, rs):
        # --k 3 --r 5 exited 0 with no deterministic-greedy row in the report
        code = main(["bench", "--suite", "paper-tight", "--k", ks, "--r", rs])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "--r" in captured.err and "--k" in captured.err

    def test_r_restriction(self, capsys):
        code, out = run(capsys, ["bench", "--suite", "paper-tight", "--k", "3..4",
                                 "--r", "2"])
        assert code == 0
        report = json.loads(out)
        rs = {row["r"] for row in report["rows"] if row["algorithm"] == "greedy-det"}
        assert rs == {2}


class TestEnvironment:
    def test_max_states_flag(self, tmp_path, capsys):
        # coverage_tight k=4 has 5^2 = 25 assignments
        path = write_instance(tmp_path, {"kind": "coverage_tight", "n": 2, "k": 4})
        code = main(["check", path, "--property", "ksub", "--max-states", "4"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "5^2 states, cap is 4" in captured.err
        assert run(capsys, ["check", path, "--property", "ksub"])[0] == 0

    @pytest.mark.parametrize("value", ["4", "0", "not-a-number"])
    def test_max_states_environment_variable_is_ignored(self, tmp_path, capsys,
                                                        monkeypatch, value):
        path = write_instance(tmp_path, {"kind": "coverage_tight", "n": 2, "k": 4})
        argv = ["maximize", path, "--algo", "greedy-rand", "--exact"]
        expected = run(capsys, argv)
        monkeypatch.setenv("KSUB_MAX_STATES", value)
        assert run(capsys, argv) == expected
        assert expected[0] == 0

    @pytest.mark.parametrize("flag", ["--max-states", "--max-pairs"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_non_positive_cap_flag_exit_2(self, tmp_path, capsys, flag, value):
        path = write_instance(tmp_path, {"kind": "coverage_tight", "n": 2, "k": 4})
        with pytest.raises(SystemExit) as excinfo:
            main(["check", path, "--property", "ksub", flag, value])
        captured = capsys.readouterr()
        assert excinfo.value.code == 2
        assert captured.out == ""
        assert flag in captured.err

    def test_usage_error_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["maximize", "--algo", "warp"])
        assert excinfo.value.code == 2


BAD_RUN_FLAGS = [("--eps", "nan"), ("--eps", "inf"), ("--eps", "-1"),
                 ("--seed", "-1"), ("--trials", "0"), ("--trials", "-4")]


@pytest.mark.parametrize(
    "command,flag,value",
    [(command, flag, value) for command in ("maximize", "bench")
     for flag, value in BAD_RUN_FLAGS]
    + [("check", "--eps", value) for value in ("nan", "inf", "-1")],
)
def test_out_of_range_flag_exit_2(tmp_path, capsys, command, flag, value):
    path = write_instance(tmp_path, layer_layout_doc(3))
    argv = {
        "check": ["check", path, "--property", "ksub"],
        "maximize": ["maximize", path, "--algo", "greedy-rand"],
        "bench": ["bench", "--suite", "random-ksub", "--k", "2"],
    }[command]
    with pytest.raises(SystemExit) as excinfo:
        main(argv + [flag, value])
    captured = capsys.readouterr()
    assert excinfo.value.code == 2
    assert captured.out == ""
    assert f"argument {flag}:" in captured.err


#: One edge on 64 elements at k = 1: 2^64 assignments, whose indices
#: overflow int64, and one orthant.
ONE_LABEL_CUT = {"kind": "max_k_cut", "n": 64, "k": 1, "edges": [[0, 1]]}

ONE_LABEL_RUNS = [
    ["maximize", "--algo", "brute"],
    ["maximize", "--algo", "brute", "--orthants-only"],
    ["maximize", "--algo", "random"],
    ["maximize", "--algo", "random", "--exact"],
    ["maximize", "--algo", "random", "--trials", "3"],
    ["maximize", "--algo", "greedy-det"],
    ["maximize", "--algo", "greedy-rand"],
    ["maximize", "--algo", "greedy-rand", "--exact"],
    ["maximize", "--algo", "greedy-rand", "--trials", "3"],
    *(["check", "--property", prop] for prop in
      ("ksub", "orthant", "orthant-pairs", "characterization", "monotone:1")),
]


@pytest.mark.parametrize("argv", ONE_LABEL_RUNS, ids=" ".join)
def test_one_label_instance_past_int64_exits_0_or_2(tmp_path, capsys, argv):
    # the greedy-rand tree built indices 2^e and exited 1 with a traceback
    path = write_instance(tmp_path, ONE_LABEL_CUT)
    code = main([argv[0], path, *argv[1:]])
    captured = capsys.readouterr()
    if code == 0:
        doc = json.loads(captured.out)
        assert captured.err == ""
        if "--exact" in argv:  # the one orthant, or the greedy's one path
            calls = 1 + 64 if "greedy-rand" in argv else 1
            assert (doc["expectation"], doc["evals"]) == (0.0, calls)
    else:
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith("error: ") and "cap is" in captured.err
