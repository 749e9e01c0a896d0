import os
import re
import subprocess
import sys
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sigaug as sg
from sigaug.balance import KEEP
from sigaug.cli import (_KEYS, _TRAIN, EXIT_COMPONENT, EXIT_IO, EXIT_OK, EXIT_USAGE,
                        _experiment_config, build_parser, format_config, main,
                        parse_config_text, resolve_config)

from augment_reference import count_cycles, edge_utility
from conftest import LINE_BREAKS, parse_report
from graph_reference import ReferenceParseError, reference_parse_config


def run_cli(*args, **kw):
    return subprocess.run([sys.executable, "-m", "sigaug", *args],
                          capture_output=True, text=True, **kw)


def parse_kv(text):
    out = {}
    for line in text.splitlines():
        if "=" in line and not line.startswith("#"):
            k, _, v = line.partition("=")
            out[k.strip()] = v.strip()
    return out


BALANCED_TRI_FILE = "0 1 1\n1 2 -1\n0 2 -1\n"
C4_FILE = "0 1 1\n1 2 1\n2 3 1\n0 3 -1\n"
# six nodes, both signs; a split at seed 0 and test fraction 0.2 holds out an
# edge of each sign
SIX_NODE_FILE = ("0 1 1\n1 2 1\n2 3 -1\n3 4 1\n4 5 -1\n5 0 1\n"
                 "0 2 -1\n1 3 1\n2 4 1\n3 5 -1\n0 3 1\n1 4 -1\n")
# datasets for every subcommand: file bytes (None: the path does not exist,
# "directory": it is one), node count, and the subcommands that accept it; the
# others refuse it as bad input (exit 2)
EXIT_CODE_CASES = {
    "empty": (b"", 0, {"stats", "balance"}),
    "missing": (None, 0, set()),
    "directory": ("directory", 0, set()),
    "non_utf8": (b"0 1 1\n\xff\xfe 2 -1\n", 0, set()),
    "two_fields": (b"0 1 1\n1 2\n", 0, set()),
    "non_numeric_weight": (b"0 1 1\n1 2 x\n", 0, set()),
    "sign_two": (b"0 1 1\n1 2 2\n", 0, set()),
    "one_edge": (b"0 1 -1\n", 2, {"stats", "balance", "augment"}),
    "no_negative_edge": (b"0 1 1\n1 2 1\n2 3 1\n0 3 1\n", 4, {"stats", "balance", "augment"}),
    "self_loops_only": (b"a a 1\nb b -1\n", 2, {"stats", "balance"}),
    "byte_order_mark": (("\ufeff" + SIX_NODE_FILE).encode(), 6, set(_KEYS)),
}


class TestStats:
    def test_congress_counts(self, congress_path):
        proc = run_cli("stats", "--dataset", str(congress_path), "--quiet")
        assert proc.returncode == EXIT_OK
        kv = parse_kv(proc.stdout)
        assert kv["n"] == "219" and kv["pos_edges"] == "413" and kv["neg_edges"] == "107"
        assert kv["built_n"] == "219"

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        proc = run_cli("stats", "--dataset", str(path), "--quiet")
        assert proc.returncode == EXIT_OK
        assert parse_kv(proc.stdout)["n"] == "0"

    def test_byte_order_mark_not_in_first_label(self, tmp_path):
        # with the mark kept, "\ufeffa" and "a" were two nodes and the triangle split
        path = tmp_path / "bom.txt"
        path.write_bytes("\ufeffa b 1\nb c -1\nc a 1\n".encode("utf-8"))
        proc = run_cli("stats", "--dataset", str(path), "--quiet")
        assert proc.returncode == EXIT_OK
        kv = parse_kv(proc.stdout)
        assert kv["n"] == "3" and kv["pos_edges"] == "2" and kv["neg_edges"] == "1"

    def test_missing_file(self):
        proc = run_cli("stats", "--dataset", "/nonexistent/file.txt", "--quiet")
        assert proc.returncode == EXIT_IO

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1 1\nbroken\n")
        proc = run_cli("stats", "--dataset", str(path), "--quiet")
        assert proc.returncode == EXIT_IO
        assert "line 2" in proc.stderr


class TestUsage:
    def test_unknown_flag(self):
        proc = run_cli("stats", "--bogus-flag", "1")
        assert proc.returncode == EXIT_USAGE
        assert "usage" in proc.stderr.lower()

    def test_unknown_subcommand(self):
        assert run_cli("frobnicate").returncode == EXIT_USAGE

    def test_zero_denominator_flag(self):
        proc = run_cli("evaluate", "--theta", "1/0")
        assert proc.returncode == EXIT_USAGE
        assert "invalid" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("sub,flag,value", [
        ("train", "--epochs", "1_0"), ("evaluate", "--runs", "\u0662"),
        ("balance", "--eta", "\u0664"), ("balance", "--mu", "\u0660.5"),
        ("evaluate", "--theta", "1/\u0669"), ("evaluate", "--delta", "0.5\u00a0"),
        ("sweep", "--mu-grid", "0.5,0_7"), ("evaluate", "--learning-rate", "1e\u0662"),
    ], ids=["underscore_int", "arabic_indic_int", "arabic_indic_eta", "arabic_indic_float",
            "arabic_indic_denominator", "nbsp_after_float", "underscore_in_list",
            "arabic_indic_exponent"])
    def test_non_ascii_number_flag_refused(self, capsys, congress_path, sub, flag, value):
        # int() and float() alone take these: 1_0 as 10, \u0664 as 4, \u0660.5 as 0.5
        with pytest.raises(SystemExit) as exc:
            main([sub, "--dataset", str(congress_path), flag, value])
        assert exc.value.code == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and f"argument {flag}: invalid" in err and repr(value) in err

    def test_zero_padded_int_flag_read_by_value(self, capsys):
        # int() alone refuses more than 4300 digits, leading zeros too
        args = build_parser().parse_args(["train", "--epochs", "0" * 4400 + "5"])
        assert args.epochs == 5
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["train", "--epochs", "9" * 5000])
        assert exc.value.code == EXIT_USAGE
        assert "argument --epochs: invalid" in capsys.readouterr().err

    def test_ascii_number_flags_accepted(self):
        parser = build_parser()
        args = parser.parse_args(["sweep", "--epochs", " 2", "--mu-grid", "0.5, 0.7,",
                                  "--theta-grid", "1 / 9", "--learning-rate", "+1E-2"])
        assert (args.epochs, args.mu_grid, args.learning_rate) == (2, (0.5, 0.7), 0.01)
        assert args.theta_grid == (1 / 9,)

    @pytest.mark.parametrize("flag,value,message", [
        ("--mu", "nan", "mu must be in [0, 0.9], got nan"),
        ("--mu", "-inf", "mu must be in [0, 0.9], got -inf"),
        ("--theta", "Infinity", "theta must be positive and finite"),
    ])
    def test_non_finite_flags_reach_the_range_checks(self, capsys, congress_path, flag,
                                                     value, message):
        assert main(["augment", "--dataset", str(congress_path), f"{flag}={value}"]) == EXIT_IO
        assert f"input error: {message}" in capsys.readouterr().err

    def test_sweep_has_no_augmentation_key(self, congress_path):
        # a sweep always runs sigaug; without it every cell would be one baseline
        proc = run_cli("sweep", "--dataset", str(congress_path), "--augmentation", "none")
        assert proc.returncode == EXIT_USAGE and proc.stdout == ""
        assert "unrecognized arguments: --augmentation" in proc.stderr


class TestBalanceCmd:
    def test_balanced_triangle_kept(self, tmp_path):
        path = tmp_path / "tri.txt"
        path.write_text(BALANCED_TRI_FILE)
        proc = run_cli("balance", "--dataset", str(path), "--mu", "0.7", "--quiet")
        assert proc.returncode == EXIT_OK
        kv = parse_kv(proc.stdout)
        assert kv["kept"] == "2" and kv["discarded"] == "0"

    def test_mu_zero_keeps_all_defined(self, tmp_path):
        path = tmp_path / "tri.txt"
        path.write_text("0 1 1\n1 2 1\n0 2 -1\n")  # unbalanced: utility 0.0
        proc = run_cli("balance", "--dataset", str(path), "--mu", "0", "--quiet")
        kv = parse_kv(proc.stdout)
        assert kv["kept"] == "1" and kv["discarded"] == "0"

    def test_eta_changes_report(self, tmp_path):
        # on the one-negative 4-cycle the negative edge closes no triangle but
        # three of four length-3 walk closures are balanced: undefined at
        # eta=3, utility 0.75 at eta=4, so the mu=0.8 verdicts differ
        path = tmp_path / "c4.txt"
        path.write_text(C4_FILE)
        run3 = run_cli("balance", "--dataset", str(path), "--eta", "3",
                       "--mu", "0.8", "--quiet")
        run4 = run_cli("balance", "--dataset", str(path), "--eta", "4",
                       "--mu", "0.8", "--quiet")
        line3 = run3.stdout.splitlines()[0]
        line4 = run4.stdout.splitlines()[0]
        assert line3.endswith("undef")
        assert line4.endswith("0.75")
        assert parse_kv(run3.stdout)["kept"] == "1"
        assert parse_kv(run4.stdout)["kept"] == "0"

    @pytest.mark.parametrize("eta", range(3, 7))
    def test_congress_report_line_for_line(self, congress_path, congress_graph, capsys, eta):
        # every line rebuilt apart from the command: shares off the all-pairs
        # count matrices, verdicts tallied with filter_edge
        code = main(["balance", "--dataset", str(congress_path), "--mu", "0.7",
                     "--eta", str(eta), "--quiet"])
        assert code == EXIT_OK
        counts = count_cycles(congress_graph, eta)
        utils = [((u, v), edge_utility(counts, u, v))
                 for u, v, s in congress_graph.edge_array().tolist() if s < 0]
        kept = sum(1 for _edge, util in utils if sg.filter_edge(util, 0.7) == KEEP)
        expected = [f"{u} {v} -1 {'undef' if util is None else repr(util)}"
                    for (u, v), util in utils]
        expected += ["mu=0.7", f"eta={eta}", f"kept={kept}",
                     f"discarded={len(utils) - kept}",
                     f"undefined={sum(1 for _edge, util in utils if util is None)}"]
        assert capsys.readouterr().out.splitlines() == expected


class TestTrainAugmentCmds:
    def test_train_then_augment(self, tmp_path, congress_path):
        out = tmp_path / "model"
        proc = run_cli("train", "--dataset", str(congress_path), "--epochs", "3",
                       "--dim", "8", "--feature-dim", "6", "--seed", "1",
                       "--output", str(out), "--quiet")
        assert proc.returncode == EXIT_OK, proc.stderr
        emb = out.with_suffix(".emb")
        params = out.with_suffix(".params")
        assert emb.exists() and params.exists()
        assert params.read_bytes().startswith(b"SIGAUG-PARAMS-1\n")
        loaded = sg.load_params(params)
        assert loaded.embed_dim == 8

        fused = tmp_path / "augmented.txt"
        proc = run_cli("augment", "--dataset", str(congress_path),
                       "--embeddings", str(emb), "--delta", "0.2",
                       "--output", str(fused), "--log", str(tmp_path / "aug.log"),
                       "--quiet")
        assert proc.returncode == EXIT_OK, proc.stderr
        with fused.open("rb") as fh:
            g = sg.build_graph(sg.load_edge_list(fh, "signed"))
        assert g.num_edges > 0
        log_lines = (tmp_path / "aug.log").read_text().splitlines()
        assert log_lines and len(log_lines[0].split()) == 7

    def test_params_reproduce_the_written_embeddings(self, tmp_path, congress_path,
                                                      congress_graph):
        # what `.params` is kept for: forward over the trained graph and features
        # gives the `.emb` that train wrote, bit for bit
        out = tmp_path / "model"
        assert main(["train", "--dataset", str(congress_path), "--epochs", "3", "--seed", "2",
                     "--output", str(out), "--quiet"]) == EXIT_OK
        params = sg.load_params(out.with_suffix(".params"))
        x = sg.synth_features(congress_graph.n, params.feature_dim, 2)
        got = sg.concat(sg.forward(congress_graph, params, x))
        assert got.tobytes() == sg.concat(sg.load_embeddings(out.with_suffix(".emb"))).tobytes()

    def test_zero_delta_writes_an_empty_log(self, tmp_path, congress_path):
        with congress_path.open("rb") as fh:
            g = sg.build_graph(sg.load_edge_list(fh, "signed"))
        emb = tmp_path / "model.emb"
        sg.save_embeddings(sg.train(g, sg.TrainConfig(epochs=1, embed_dim=4,
                                                      feature_dim=4)).embeddings, emb)
        log = tmp_path / "aug.log"
        proc = run_cli("augment", "--dataset", str(congress_path), "--embeddings", str(emb),
                       "--delta", "0", "--log", str(log), "--quiet")
        assert proc.returncode == EXIT_OK, proc.stderr
        assert log.read_bytes() == b""
        assert len(proc.stdout.splitlines()) == g.num_edges

    def test_diverged_training_is_a_component_failure(self, tmp_path, congress_path):
        out = tmp_path / "model"
        proc = run_cli("train", "--dataset", str(congress_path), "--epochs", "3",
                       "--lambda", "1e300", "--output", str(out), "--quiet")
        assert proc.returncode == EXIT_COMPONENT
        assert "train failed: training diverged: the objective is inf at epoch 2" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert not out.with_suffix(".emb").exists() and not out.with_suffix(".params").exists()

    def test_graph_without_edges_refused(self, tmp_path):
        dataset = tmp_path / "loops.txt"
        dataset.write_text("a a 1\nb b -1\n")  # self-loops only: two nodes, no edge
        emb = tmp_path / "loops.emb"
        emb.write_text("0 0.1 0.2\n1 0.3 0.4\n")
        proc = run_cli("augment", "--dataset", str(dataset), "--embeddings", str(emb),
                       "--quiet")
        assert proc.returncode == EXIT_IO and proc.stdout == ""
        assert "input error: cannot augment a graph without edges" in proc.stderr

    @pytest.mark.parametrize("emb_text,where", [
        ("0 0.1 0.2\nx 0.3 0.4\n2 0.5 0.6\n3 0.7 0.8\n", "bad.emb:2:"),  # non-integer node id
        ("0 0.1 0.2\n2 0.3 0.4\n3 0.5 0.6\n4 0.7 0.8\n", "bad.emb:2:"),  # ids not dense
        ("0 0.1 0.2\n1 0.3 0.4\n2 0.5 0.6\n", "bad.emb:"),                # 3 rows, 4 nodes
        ("0 0.1 0.2\n1 0.3 0.4\n2 0.5 zz\n3 0.7 0.8\n", "bad.emb:3:"),   # non-numeric value
        ("0 0.1 0.2\n1 0.3\n2 0.5 0.6\n3 0.7 0.8\n", "bad.emb:2:"),      # short row
        ("0\n1\n2\n3\n", "bad.emb:1: node 0 has no embedding values"),  # ids only
        ("0 0.1 0.2\n1 nan 0.4\n2 0.5 0.6\n3 0.7 0.8\n", "bad.emb:2: non-finite"),
    ], ids=["non_integer_id", "non_dense_ids", "row_count", "non_numeric", "width",
            "no_values", "non_finite"])
    def test_malformed_embeddings_exit_code(self, tmp_path, emb_text, where):
        data = tmp_path / "c4.txt"
        data.write_text(C4_FILE)
        emb = tmp_path / "bad.emb"
        emb.write_text(emb_text)
        proc = run_cli("augment", "--dataset", str(data), "--embeddings", str(emb),
                       "--output", str(tmp_path / "out.txt"), "--quiet")
        assert proc.returncode == EXIT_IO, proc.stderr
        assert "input error" in proc.stderr and where in proc.stderr


class TestEvaluateCmd:
    def test_deterministic_reports(self, tmp_path, congress_path):
        args = ["evaluate", "--dataset", str(congress_path), "--augmentation", "none",
                "--runs", "1", "--seed", "7", "--epochs", "3", "--dim", "8",
                "--feature-dim", "6", "--quiet"]
        a = run_cli(*args, "--output", str(tmp_path / "a.csv"))
        b = run_cli(*args, "--output", str(tmp_path / "b.csv"))
        assert a.returncode == EXIT_OK, a.stderr
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_report_parses(self, tmp_path, congress_path):
        out = tmp_path / "r.csv"
        proc = run_cli("evaluate", "--dataset", str(congress_path), "--runs", "1",
                       "--epochs", "3", "--dim", "8", "--feature-dim", "6",
                       "--output", str(out), "--quiet")
        assert proc.returncode == EXIT_OK
        report = parse_report(out.read_text().splitlines())
        assert set(report.per_run) == {"auc", "f1_binary_avg", "neg_precision",
                                       "neg_recall", "neg_f1", "pos_f1"}

    def test_component_failure_exit_code(self, congress_path):
        proc = run_cli("evaluate", "--dataset", str(congress_path), "--runs", "1",
                       "--epochs", "3", "--dim", "8", "--feature-dim", "6",
                       "--lambda", "1e300", "--quiet")
        assert proc.returncode == EXIT_COMPONENT
        assert "evaluate failed: run 0 failed: training diverged" in proc.stderr


class TestSweepCmd:
    def test_csv_output(self, tmp_path, congress_path):
        out = tmp_path / "sweep.csv"
        proc = run_cli("sweep", "--dataset", str(congress_path), "--runs", "1",
                       "--epochs", "3", "--dim", "8", "--feature-dim", "6",
                       "--mu-grid", "0.7", "--theta-grid", "1/9",
                       "--delta-grid", "0.2,0.4", "--output", str(out), "--quiet")
        assert proc.returncode == EXIT_OK, proc.stderr
        lines = out.read_text().splitlines()
        assert lines[0] == "mu,theta,delta,mean_auc,std"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert float(first[2]) == 0.2


class TestExitCodes:
    # each case names a dataset that does not exist, so the value must be
    # refused before any dataset work (else the missing file would be reported)
    @pytest.mark.parametrize("args,message", [
        (["evaluate", "--eta", "9"], "eta must be"),
        (["evaluate", "--mu", "0.95"], "mu must be"),
        (["evaluate", "--epochs", "0"], "epochs must be"),
        (["evaluate", "--format", "bogus"], "unknown format"),
        (["sweep", "--eta", "9"], "eta must be"),
        (["sweep", "--mu-grid", "0.95"], "mu must be"),
        (["sweep", "--delta-grid", "0.2,1.5"], "delta must be"),
        (["sweep", "--delta-grid", ",".join(["0.2"] * 201)], "201 cells, more than the cap"),
        (["augment", "--eta", "9", "--embeddings", "model.emb"], "eta must be"),
        (["train", "--epochs", "0"], "epochs must be"),
        (["balance", "--mu", "2"], "mu must be"),
        (["balance", "--eta", "2"], "eta must be"),
        (["evaluate", "--augmentation", "sigaug", "--theta", "nan"], "theta must be"),
        (["evaluate", "--augmentation", "sigaug", "--theta", "inf"], "theta must be"),
        (["evaluate", "--learning-rate", "nan"], "learning_rate must be"),
        (["evaluate", "--lambda", "nan"], "lam must be"),
        (["evaluate", "--weight-decay", "nan"], "weight_decay must be"),
        (["sweep", "--theta-grid", "1,nan"], "theta must be"),
        (["augment", "--theta", "inf", "--embeddings", "model.emb"], "theta must be"),
        (["train", "--learning-rate", "inf"], "learning_rate must be"),
        (["balance", "--mu", "nan"], "mu must be"),
        (["train", "--seed", "-1"], "seed must be"),
        (["evaluate", "--seed", "-1"], "seed must be"),
        (["sweep", "--seed", "-1"], "seed must be"),
    ], ids=["evaluate_eta", "evaluate_mu", "evaluate_epochs", "evaluate_format", "sweep_eta",
            "sweep_mu_grid", "sweep_delta_grid", "sweep_max_cells", "augment_eta",
            "train_epochs", "balance_mu", "balance_eta", "evaluate_theta_nan",
            "evaluate_theta_inf", "evaluate_learning_rate_nan", "evaluate_lambda_nan",
            "evaluate_weight_decay_nan", "sweep_theta_grid_nan", "augment_theta_inf",
            "train_learning_rate_inf", "balance_mu_nan", "train_seed", "evaluate_seed",
            "sweep_seed"])
    def test_rejected_config_value(self, tmp_path, args, message):
        proc = run_cli(*args, "--dataset", str(tmp_path / "missing.txt"), "--quiet")
        assert proc.returncode == EXIT_IO, proc.stderr
        assert "input error" in proc.stderr and message in proc.stderr

    @pytest.mark.parametrize("sub", list(_KEYS))
    def test_missing_dataset_named(self, sub):
        proc = run_cli(sub, "--quiet")
        assert proc.returncode == EXIT_IO and proc.stdout == ""
        assert proc.stderr == "sigaug: input error: no --dataset given\n"

    # each case also names a dataset that does not exist, so the file to write
    # must be refused before any dataset work; "dir" exists and "nodir" does not
    @pytest.mark.parametrize("args,path,reason", [
        (["stats", "--output", "dir"], "dir", "it is a directory"),
        (["balance", "--output", "nodir/b.txt"], "nodir/b.txt", "no directory nodir"),
        (["train", "--output", "nodir/m"], "nodir/m.emb", "no directory nodir"),
        (["train", "--output", "dir/m"], "dir/m.params", "it is a directory"),
        (["augment", "--embeddings", "m.emb", "--output", "nodir/a.txt"], "nodir/a.txt",
         "no directory nodir"),
        (["augment", "--embeddings", "m.emb", "--log", "dir"], "dir", "it is a directory"),
        (["augment", "--embeddings", "m.emb", "--output", "dir/a"], "dir/a.log",
         "it is a directory"),
        (["evaluate", "--output", "dir"], "dir", "it is a directory"),
        (["sweep", "--output", "nodir/s.csv"], "nodir/s.csv", "no directory nodir"),
    ], ids=["stats", "balance", "train", "train_params", "augment", "augment_log",
            "augment_default_log", "evaluate", "sweep"])
    def test_unwritable_output_refused_first(self, tmp_path, monkeypatch, capsys, args, path,
                                             reason):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "dir").mkdir()
        (tmp_path / "dir" / "m.params").mkdir()
        (tmp_path / "dir" / "a.log").mkdir()
        before = sorted(tmp_path.rglob("*"))
        code = main([*args, "--dataset", "missing.txt", "--quiet"])
        assert code == EXIT_IO
        assert capsys.readouterr().err == f"sigaug: input error: cannot write {path}: {reason}\n"
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("sub", ["stats", "evaluate"])
    def test_non_utf8_dataset(self, tmp_path, sub):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"0 1 1\n\xff\xfe 2 -1\n")
        proc = run_cli(sub, "--dataset", str(path), "--quiet")
        assert proc.returncode == EXIT_IO
        assert "input error: line 2: not UTF-8" in proc.stderr

    @pytest.mark.parametrize("sub", ["evaluate", "sweep"])
    def test_empty_test_split(self, congress_path, sub):
        # the refusal is bad input reported before run 0 trains, not a failed run
        proc = run_cli(sub, "--dataset", str(congress_path), "--test-fraction", "0.0005",
                       "--quiet")
        assert proc.returncode == EXIT_IO, proc.stderr
        assert "input error: test_fraction=0.0005 holds out no edge of m=520" in proc.stderr
        assert "run 0" not in proc.stderr

    @pytest.mark.parametrize("sub", ["evaluate", "sweep"])
    def test_empty_train_split(self, congress_path, sub):
        proc = run_cli(sub, "--dataset", str(congress_path), "--test-fraction", "0.9995",
                       "--quiet")
        assert proc.returncode == EXIT_IO, proc.stderr
        assert "input error: test_fraction=0.9995 holds out every edge of m=520" in proc.stderr
        assert "run 0" not in proc.stderr

    @pytest.mark.parametrize("sign,missing", [(1, "negative"), (-1, "positive")])
    @pytest.mark.parametrize("sub", ["train", "evaluate", "sweep"])
    def test_dataset_without_an_edge_of_one_sign(self, tmp_path, capsys, sub, sign, missing):
        # no split of it can train, so it is bad input, refused before any training
        data = tmp_path / "one_sign.txt"
        data.write_text("".join(f"{u} {u + 1} {sign}\n" for u in range(4)))
        out = tmp_path / "out"
        code = main([sub, "--dataset", str(data), "--epochs", "1", "--output", str(out),
                     "--quiet"])
        assert code == EXIT_IO
        assert capsys.readouterr().err == \
            f"sigaug: input error: training requires at least one {missing} edge\n"
        assert list(tmp_path.iterdir()) == [data]

    def test_exit_code_sweep(self, tmp_path, capsys):
        # every subcommand over each dataset of EXIT_CODE_CASES, in process
        tiny = ["--epochs", "1", "--dim", "2", "--feature-dim", "1"]
        got, expected = {}, {}
        for case, (content, nodes, succeeds) in EXIT_CODE_CASES.items():
            data = tmp_path / f"{case}.txt"
            if content == "directory":
                data.mkdir()
            elif content is not None:
                data.write_bytes(content)
            emb = tmp_path / f"{case}.emb"  # a row per node of the dataset
            emb.write_text("".join(f"{i} 0.5 -0.5\n" for i in range(nodes)))
            flags = {"stats": [], "balance": [], "train": tiny,
                     "augment": ["--embeddings", str(emb)],
                     "evaluate": tiny + ["--runs", "1"], "sweep": tiny + ["--runs", "1"]}
            for sub, extra in flags.items():
                got[case, sub] = main([sub, "--dataset", str(data), *extra,
                                       "--output", str(tmp_path / "out"), "--quiet"])
                expected[case, sub] = EXIT_OK if sub in succeeds else EXIT_IO
        capsys.readouterr()
        assert got == expected

    def test_unknown_format(self, congress_path):
        proc = run_cli("stats", "--dataset", str(congress_path), "--format", "bogus", "--quiet")
        assert proc.returncode == EXIT_IO
        assert "input error: unknown format" in proc.stderr

    @pytest.mark.parametrize("big", [False, True], ids=["buffered", "larger_than_buffer"])
    def test_closed_stdout_is_not_a_failure(self, tmp_path, congress_path, big):
        if big:
            dataset = congress_path
        else:
            dataset = tmp_path / "tri.txt"
            dataset.write_text(BALANCED_TRI_FILE)
        read_end, write_end = os.pipe()
        os.close(read_end)  # no reader is left, so the child's first write fails
        try:
            proc = subprocess.run([sys.executable, "-m", "sigaug", "balance", "--dataset",
                                   str(dataset), "--quiet"],
                                  stdout=write_end, stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write_end)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stderr == ""


class TestConfigResolution:
    def test_flags_override_config_file(self, tmp_path, congress_path):
        conf = tmp_path / "run.conf"
        conf.write_text("mu = 0.5\neta = 3\n")
        proc = run_cli("balance", "--dataset", str(congress_path),
                       "--config", str(conf), "--mu", "0.9",
                       "--output", str(tmp_path / "out.txt"))
        assert proc.returncode == EXIT_OK
        kv = parse_kv(proc.stderr.replace(" = ", "="))
        assert kv["mu"] == "0.9"   # flag wins
        assert kv["eta"] == "3"    # config file beats the default

    def test_config_file_with_byte_order_mark(self, tmp_path, congress_path):
        conf = tmp_path / "bom.conf"
        conf.write_bytes("\ufeffmu = 0.5\n".encode("utf-8"))
        proc = run_cli("balance", "--dataset", str(congress_path), "--config", str(conf),
                       "--output", str(tmp_path / "out.txt"))
        assert proc.returncode == EXIT_OK, proc.stderr
        assert parse_kv(proc.stderr.replace(" = ", "="))["mu"] == "0.5"

    def test_banner_round_trips(self):
        cfg = resolve_config("evaluate", {}, {"dataset": "data.txt", "theta": 1 / 9,
                                              "runs": 3})
        text = format_config(cfg)
        parsed = parse_config_text(text, "evaluate")
        assert resolve_config("evaluate", parsed, {}) == cfg

    def test_fraction_flag_syntax(self):
        cfg = resolve_config("evaluate", parse_config_text("theta = 1/9", "evaluate"), {})
        assert cfg.get("theta") == pytest.approx(1 / 9)

    def test_zero_padded_config_int_read_by_value(self):
        assert parse_config_text("epochs = " + "0" * 4400 + "5", "train") == {"epochs": 5}
        with pytest.raises(ValueError, match=r"^config line 1: epochs: Exceeds the limit"):
            parse_config_text("epochs = " + "9" * 5000, "train")

    def test_unknown_config_key(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config_text("bogus = 1", "stats")

    def test_config_booleans(self, tmp_path, congress_path):
        for text, value in (("1", True), ("Yes", True), ("on", True), ("TRUE", True),
                            ("0", False), ("no", False), ("Off", False), ("false", False)):
            assert parse_config_text(f"quiet = {text}", "stats") == {"quiet": value}
        conf = tmp_path / "typo.conf"
        conf.write_text("quiet = ture\n")
        proc = run_cli("stats", "--dataset", str(congress_path), "--config", str(conf))
        assert proc.returncode == EXIT_IO and proc.stdout == ""
        assert "config error: config line 1: quiet: must be one of" in proc.stderr
        assert "'ture'" in proc.stderr

    @pytest.mark.parametrize("sub,line,message", [
        ("train", "epochs = ten", "epochs: invalid literal for int() with base 10: 'ten'"),
        ("sweep", "mu_grid = 0.5,abc", "mu_grid: could not convert string to float: 'abc'"),
        ("evaluate", "theta = 1/0", "theta: '1/0' divides by zero"),
        ("train", "epochs = 1_0", "epochs: invalid literal for int() with base 10: '1_0'"),
        ("balance", "eta = \u0664", "eta: invalid literal for int() with base 10: '\u0664'"),
        ("balance", "mu = \u0660.5", "mu: could not convert string to float: '\u0660.5'"),
        ("evaluate", "theta = \u0661/9", "theta: could not convert string to float: '\u0661'"),
        ("sweep", "delta_grid = 0.5,\u0660.7",
         "delta_grid: could not convert string to float: '\u0660.7'"),
    ], ids=["int", "float_list", "zero_denominator", "underscore_int", "arabic_indic_int",
            "arabic_indic_float", "arabic_indic_numerator", "arabic_indic_in_list"])
    def test_bad_config_value_names_line_and_key(self, tmp_path, congress_path, sub, line,
                                                 message):
        conf = tmp_path / "bad.conf"
        conf.write_text(f"# header\n{line}\n")
        proc = run_cli(sub, "--dataset", str(congress_path), "--config", str(conf))
        assert proc.returncode == EXIT_IO and proc.stdout == ""
        assert f"config error: config line 2: {message}" in proc.stderr

    @pytest.mark.parametrize("brk", LINE_BREAKS, ids=[f"{ord(c):#x}" for c in LINE_BREAKS])
    def test_config_lines_end_at_line_feeds_only(self, brk):
        with pytest.raises(ValueError, match="^config line 3: unknown key 'bogus'"):
            parse_config_text(f"# a{brk}b\nmu = 0.5\nbogus = 1\n", "balance")
        with pytest.raises(ValueError, match="^config line 1: mu: "):
            parse_config_text(f"mu = 0.5{brk}eta = 3\n", "balance")

    @pytest.mark.parametrize("space", ["\u3000", "\xa0", "\x85", "\x1c", "\u2028"],
                             ids=["u3000", "xa0", "x85", "x1c", "u2028"])
    def test_config_strips_ascii_whitespace_only(self, space):
        assert parse_config_text(" \t eta\x0b=\x0c4 \r\n \t\r\n", "balance") == {"eta": 4}
        with pytest.raises(ValueError, match=re.escape(f"line 1: unknown key {space + 'eta'!r}")):
            parse_config_text(f"{space}eta = 4", "balance")
        with pytest.raises(ValueError, match="^config line 1: eta: invalid literal"):
            parse_config_text(f"eta = 4{space}", "balance")
        with pytest.raises(ValueError, match="^config line 2: expected `key = value`"):
            parse_config_text(f"# a\n{space}\n", "balance")
        assert parse_config_text(f"output = {space}out{space}", "balance") == \
            {"output": f"{space}out{space}"}

    def test_config_file_line_ends(self, tmp_path, congress_path, capsys):
        conf = tmp_path / "run.conf"
        args = ["balance", "--dataset", str(congress_path), "--config", str(conf),
                "--output", str(tmp_path / "out.txt"), "--quiet"]
        conf.write_bytes(b"mu = 0.5\r\neta = 3\r\n")
        assert main(args) == EXIT_OK
        assert {"mu=0.5", "eta=3"} <= set((tmp_path / "out.txt").read_text().splitlines())
        conf.write_bytes(b"mu = 0.5\reta = 3\n")  # a lone CR ends no line
        assert main(args) == EXIT_IO
        assert "config error: config line 1: mu: " in capsys.readouterr().err

    def test_config_file_error_exit(self, tmp_path, congress_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("not a key value line")
        proc = run_cli("stats", "--dataset", str(congress_path), "--config", str(conf))
        assert proc.returncode == EXIT_IO

    @pytest.mark.parametrize("sub", ["stats", "balance", "augment"])
    def test_seed_refused_where_nothing_trains(self, tmp_path, congress_path, sub):
        proc = run_cli(sub, "--dataset", str(congress_path), "--seed", "5")
        assert proc.returncode == EXIT_USAGE and proc.stdout == ""
        assert "unrecognized arguments: --seed" in proc.stderr
        conf = tmp_path / "seed.conf"
        conf.write_text("seed = 5\n")
        proc = run_cli(sub, "--dataset", str(congress_path), "--config", str(conf))
        assert proc.returncode == EXIT_IO and proc.stdout == ""
        assert f"config error: config line 1: unknown key 'seed' for {sub}" in proc.stderr


# pieces of config lines. Valid ones: every key, values of every form a key's
# type takes, ASCII blanks around keys, values and "=", comments. A line is
# mutated now and then: Unicode digits and spaces, NaN/inf text, huge or
# zero-padded integers, zero denominators, line breaks other than the line
# feed, a missing "=", an unknown key.
_ALL_KEYS = {key: default for table in _KEYS.values() for key, (_t, default) in table.items()}
_CONFIG_VALUES = {
    bool: ["true", "YES", "off", "0", "On", "1"],
    int: ["3", "+4", "-2", "007", "0", "0" * 4400 + "5"],
    float: ["0.5", "1/9", "1 / 9", "\t2/3", "-1e-3", ".5", "5.", "1e999", "inf", "NaN",
            "inf/inf", "1e308/1e-308"],
    tuple: ["0.5,0.7", "1/9, 0.2", "", ",", " , 0.5", "nan,inf", "1,2,3"],
    str: ["data.txt", "a b", "", "x=y", "#x", "\u3000"],
}
_CONFIG_BAD_VALUES = {
    bool: ["2", "ture", "", "t rue", "\u0131"],
    int: ["9" * 5000, "1_0", "\u0664", "3.0", "", "x", "\uff13"],
    float: ["1/0", "0/0.0", "1/-0", "1_0", "\u0660.5", "\u0661/9", "1/2/3", "/", "1/", "",
            "x", "0x1", "1e"],
    tuple: ["0.5,,x", "0.5;0.7", "1/0,2", "\u0660.5", "0.5 0.7"],
    str: ["x"],  # any text is a str key's value
}
_CONFIG_BLANKS = ["", "", " ", "  ", "\t", "\x0b", "\x0c", "\r"]
_CONFIG_BAD_BLANKS = ["\u3000", "\xa0", "\x85", "\x1c", "\u2028", "\ufeff"]
_CONFIG_OTHER_LINES = ["", " \t", "# comment", "  # mu = x", "#", "no equals sign", "= 5",
                       "mu_grid", "bogus = 1", "MU = 0.5"]


@st.composite
def config_text(draw):
    """A subcommand and a config text of up to 6 lines for it, mostly settings
    of its keys and mostly valid."""
    sub, text = draw(st.sampled_from(sorted(_KEYS))), ""
    for _ in range(draw(st.integers(0, 6))):
        bad = draw(st.sampled_from([None] * 12 + ["blank", "break", "value", "key"]))
        if draw(st.integers(0, 4)) == 0:
            line = draw(st.sampled_from(_CONFIG_OTHER_LINES))
        else:
            key = draw(st.sampled_from(sorted(_ALL_KEYS if bad == "key" else _KEYS[sub])))
            values = _CONFIG_BAD_VALUES if bad == "value" else _CONFIG_VALUES
            value = draw(st.sampled_from(values[type(_ALL_KEYS[key])]))
            blanks = _CONFIG_BAD_BLANKS if bad == "blank" else _CONFIG_BLANKS
            parts = [draw(st.sampled_from(blanks)) for _ in range(4)]
            line = f"{parts[0]}{key}{parts[1]}={parts[2]}{value}{parts[3]}"
        if bad == "break":
            at = draw(st.integers(0, len(line)))
            line = line[:at] + draw(st.sampled_from(LINE_BREAKS)) + line[at:]
        text += line + draw(st.sampled_from(["\n", "\n", "\r\n", "\n\n"]))
    return sub, text


def _config_parsed(parse, text, sub):
    """("ok", repr of the values) or ("error", line, kind) from either parser;
    the repr tells NaN, -0.0, True and 1 apart."""
    try:
        return "ok", repr(parse(text, sub))
    except ReferenceParseError as exc:
        return "error", exc.lineno, exc.kind
    except ValueError as exc:
        lineno, message = re.fullmatch(r"config line (\d+): (.*)", str(exc), re.S).groups()
        kind = ("syntax" if message.startswith("expected `key = value`") else
                "key" if message.startswith("unknown key") else "value")
        return "error", int(lineno), kind


def _reference_config(text, sub):
    return reference_parse_config(text, {k: d for k, (_t, d) in _KEYS[sub].items()})


@given(config=config_text())
@settings(max_examples=400, deadline=None)
def test_config_text_matches_reference(config):
    """parse_config_text against the reference parser: the same verdict,
    values, error line and error kind."""
    sub, text = config
    assert _config_parsed(parse_config_text, text, sub) == \
        _config_parsed(_reference_config, text, sub)


def test_cli_defaults_match_library_defaults():
    train = {f.name: f.default for f in fields(sg.TrainConfig)}
    field_of = {"epochs": "epochs", "learning_rate": "learning_rate", "lambda": "lam",
                "weight_decay": "weight_decay", "dim": "embed_dim",
                "feature_dim": "feature_dim", "layers": "layers"}
    assert {k: d for k, (_t, d) in _TRAIN.items()} == {k: train[f] for k, f in field_of.items()}
    experiment = {f.name: f.default for f in fields(sg.ExperimentConfig)}
    for sub, keys in (("evaluate", ("eta", "runs", "test_fraction", "mu", "theta", "delta")),
                      ("sweep", ("eta", "runs", "test_fraction"))):
        for key in keys:
            assert _KEYS[sub][key][1] == experiment[key], (sub, key)


def test_every_config_field_is_set_by_a_cli_key():
    # a non-default value for each evaluate key; a field left at its default is
    # settable only from code
    flags = {"dataset": "d.txt", "format": "rating", "augmentation": "sigaug", "runs": 2,
             "mu": 0.6, "theta": 0.5, "delta": 0.3, "eta": 3, "test_fraction": 0.3,
             "seed": 1, "epochs": 2, "learning_rate": 0.5, "lambda": 1.0,
             "weight_decay": 0.5, "dim": 8, "feature_dim": 4, "layers": 1}
    exp = _experiment_config(resolve_config("evaluate", {}, flags))
    default = sg.ExperimentConfig(dataset="")
    for got, want in ((exp, default), (exp.train, default.train)):
        for f in fields(got):
            if f.name != "train":
                assert getattr(got, f.name) != getattr(want, f.name), f.name
