import argparse
import csv
import hashlib
import inspect
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest

import rigline
from rigline.baseline_learners import train_rule_list
from rigline.cli import build_parser, main
from rigline.dataset import Dataset, class_order, load_csv, save_csv
from rigline.modeldoc import load_model, model_from_text, model_to_text
from rigline.stacking import register_learner
from rigline.svm_smo import decision_values


def run_cli(*argv):
    return main(list(argv))


def read(path):
    with open(path) as fh:
        return fh.read()


def test_generate_counts_and_determinism(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run_cli("generate", "--rows", "200", "--frac", "0.25", "--seed", "4",
                   "--out", str(a)) == 0
    assert run_cli("generate", "--rows", "200", "--frac", "0.25", "--seed", "4",
                   "--out", str(b)) == 0
    assert read(a) == read(b)
    d = load_csv(str(a))
    assert d.n_rows == 200
    assert int(np.sum(d.labels == "failure")) == 50


def test_generate_unlabeled_and_synthetic_token(tmp_path):
    p = tmp_path / "u.csv"
    assert run_cli("generate", "--rows", "50", "--frac", "0.1", "--unlabeled",
                   "--out", str(p)) == 0
    d = load_csv(str(p))
    assert d.n_rows == 50
    assert not d.label_presence


def test_label_writes_labels_and_gmm(tmp_path):
    raw = tmp_path / "raw.csv"
    lab = tmp_path / "lab.csv"
    gmm_path = tmp_path / "gmm.txt"
    run_cli("generate", "--rows", "300", "--unlabeled", "--seed", "2", "--out", str(raw))
    assert run_cli("label", "--data", str(raw), "--out", str(lab),
                   "--save-gmm", str(gmm_path), "--seed", "2") == 0
    d = load_csv(str(lab))
    assert set(d.labels) == {"normal", "failure"}
    counts = {c: int(np.sum(d.labels == c)) for c in ("normal", "failure")}
    assert counts["normal"] > counts["failure"]
    gmm = load_model(str(gmm_path))
    assert gmm.means.shape[0] == 2


def test_label_column_subset_and_raw(tmp_path):
    raw = tmp_path / "raw.csv"
    run_cli("generate", "--rows", "120", "--unlabeled", "--seed", "5", "--out", str(raw))
    out = tmp_path / "lab.csv"
    assert run_cli("label", "--data", str(raw), "--out", str(out), "--em-raw",
                   "--em-columns", "Operating Pressure,Gas Detector") == 0
    d = load_csv(str(out))
    assert d.arity == 5  # labeling never drops feature columns
    assert run_cli("label", "--data", str(raw), "--out", str(out),
                   "--em-columns", "NoSuchColumn") == 1


def test_sample_under_balances(tmp_path):
    src = tmp_path / "s.csv"
    out = tmp_path / "b.csv"
    run_cli("generate", "--rows", "200", "--frac", "0.2", "--seed", "1", "--out", str(src))
    assert run_cli("sample", "--data", str(src), "--sample", "under",
                   "--out", str(out)) == 0
    d = load_csv(str(out))
    counts = {c: int(np.sum(d.labels == c)) for c in set(d.labels)}
    assert counts["normal"] == counts["failure"]


def test_sample_smote_token(tmp_path):
    src = tmp_path / "s.csv"
    out = tmp_path / "o.csv"
    run_cli("generate", "--rows", "200", "--frac", "0.2", "--seed", "1", "--out", str(src))
    assert run_cli("sample", "--data", str(src), "--sample", "smote:k=3,ratio=0.5",
                   "--out", str(out)) == 0
    d = load_csv(str(out))
    counts = {c: int(np.sum(d.labels == c)) for c in set(d.labels)}
    assert abs(counts["failure"] - round(0.5 * counts["normal"])) <= 1


def test_sample_invalid_token_is_usage_error(tmp_path, capsys):
    src = tmp_path / "s.csv"
    out = tmp_path / "o.csv"
    run_cli("generate", "--rows", "60", "--seed", "1", "--out", str(src))
    assert run_cli("sample", "--data", str(src), "--sample", "smote:k=bad",
                   "--out", str(out)) == 2
    assert not out.exists()
    assert "smote" in capsys.readouterr().err


@pytest.mark.parametrize("token, message", [
    pytest.param("smote:k=0", "k_neighbors must be an integer >= 1", id="smote:k=0"),
    pytest.param("smote:ratio=2", "target_ratio must be a finite number in (0,1]",
                 id="smote:ratio=2"),
])
def test_sample_out_of_range_smote_is_usage_error(tmp_path, capsys, token, message):
    src = tmp_path / "s.csv"
    out = tmp_path / "o.csv"
    run_cli("generate", "--rows", "60", "--seed", "1", "--out", str(src))
    assert run_cli("sample", "--data", str(src), "--sample", token,
                   "--out", str(out)) == 2
    assert not out.exists()
    assert message in capsys.readouterr().err


def test_train_and_evaluate_round_trip(tmp_path):
    data = tmp_path / "d.csv"
    model = tmp_path / "m.txt"
    report = tmp_path / "r.csv"
    detail = tmp_path / "det.txt"
    run_cli("generate", "--rows", "240", "--seed", "3", "--out", str(data))
    assert run_cli("train", "--data", str(data), "--learner", "tree",
                   "--params", "max_depth=4", "--out", str(model)) == 0
    m = load_model(str(model))
    assert m.learner == "tree"
    assert run_cli("evaluate", "--model", str(model), "--data", str(data),
                   "--out", str(report), "--detail", str(detail)) == 0
    lines = read(report).strip().split("\n")
    assert lines[0] == "Measure,tree"
    assert len(lines) == 7
    for line in lines[1:]:
        measure, value = line.split(",")
        assert 0.0 <= float(value) <= 1.0
    assert "== tree ==" in read(detail)


def test_smo_without_support_vectors_trains_and_evaluates(tmp_path):
    # C is too small for any multiplier to leave 0: no support vectors, the
    # bias decides every row, and the document still holds the arity.
    data, model, report = (str(tmp_path / name) for name in ("d.csv", "m.txt", "r.csv"))
    run_cli("generate", "--rows", "120", "--seed", "3", "--out", data)
    assert run_cli("train", "--data", data, "--learner", "smo", "--params", "C=1e-9",
                   "--out", model) == 0
    text = read(model)
    assert "\narity 5\n" in text and "\nn_sv 0\n" in text
    assert run_cli("evaluate", "--model", model, "--data", data, "--out", report) == 0
    X = load_csv(data).X
    m = load_model(model)
    assert model_to_text(m) == text
    p = m.predict_proba(X)
    assert np.array_equal(model_from_text(text).predict_proba(X), p)
    assert np.array_equal(p, np.tile(p[0], (len(X), 1)))
    svm = m.inner.svm
    assert decision_values(svm, X).tolist() == [svm.b] * len(X)


@pytest.mark.parametrize("learner", ["nb", "tree"])
def test_train_and_evaluate_ignore_the_meta_columns(tmp_path, monkeypatch, learner):
    # train and evaluate load without the meta cells; the serial and
    # timestamp columns change no byte of the model or the report.
    loads = []

    def recording_load(path, meta=True):
        loads.append(meta)
        return load_csv(path, meta)

    monkeypatch.setattr(rigline.cli, "load_csv", recording_load)
    data = tmp_path / "d.csv"
    run_cli("generate", "--rows", "240", "--seed", "3", "--out", str(data))
    d = load_csv(str(data))
    meta = [(str(1048576 + i), f"2/8/2014 2:{i % 60:02d}") for i in range(d.n_rows)]
    export = tmp_path / "export.csv"
    save_csv(Dataset(d.schema, d.X, d.labels, meta, ("S No.", "Time Stamp")), str(export))
    outputs = []
    for table in (data, export):
        out = tmp_path / table.stem
        out.mkdir()
        assert run_cli("train", "--data", str(table), "--learner", learner, "--seed", "5",
                       "--out", str(out / "m.txt")) == 0
        assert run_cli("evaluate", "--model", str(out / "m.txt"), "--data", str(table),
                       "--out", str(out / "r.csv"), "--detail", str(out / "det.txt")) == 0
        outputs.append([(out / f).read_bytes() for f in ("m.txt", "r.csv", "det.txt")])
    assert outputs[0] == outputs[1]
    assert loads == [False] * 4


def test_train_cost_wrap(tmp_path):
    data = tmp_path / "d.csv"
    model = tmp_path / "m.txt"
    run_cli("generate", "--rows", "150", "--frac", "0.2", "--seed", "6", "--out", str(data))
    assert run_cli("train", "--data", str(data), "--learner", "nb",
                   "--cost", "1,8", "--out", str(model)) == 0
    m = load_model(str(model))
    assert m.learner == "costwrap"
    assert m.cm.m[1][0] == 8.0


def test_train_needs_exactly_one_model_choice(tmp_path):
    data = tmp_path / "d.csv"
    run_cli("generate", "--rows", "60", "--seed", "1", "--out", str(data))
    assert run_cli("train", "--data", str(data), "--out", str(tmp_path / "m.txt")) == 2
    assert run_cli("train", "--data", str(data), "--learner", "nb", "--stack",
                   "model1", "--out", str(tmp_path / "m.txt")) == 2
    assert run_cli("train", "--data", str(data), "--learner", "nosuch",
                   "--out", str(tmp_path / "m.txt")) == 2


@pytest.mark.parametrize("folds", ["1", "0"])
def test_train_smo_rejects_fewer_than_two_calibration_folds(tmp_path, capsys, folds):
    data = tmp_path / "d.csv"
    model = tmp_path / "m.txt"
    run_cli("generate", "--rows", "60", "--seed", "1", "--out", str(data))
    assert run_cli("train", "--data", str(data), "--learner", "smo",
                   "--params", f"cal_folds={folds}", "--out", str(model)) == 1
    assert "stage train" in capsys.readouterr().err
    assert not model.exists()


def test_train_smo_one_row_minority_falls_back_to_hard_probabilities(tmp_path):
    data = tmp_path / "d.csv"
    model = tmp_path / "m.txt"
    run_cli("generate", "--rows", "20", "--frac", "0.05", "--seed", "1", "--out", str(data))
    assert load_csv(str(data)).labels.tolist().count("failure") == 1
    with pytest.warns(UserWarning, match="rarest class has 1 rows"):
        assert run_cli("train", "--data", str(data), "--learner", "smo",
                       "--out", str(model)) == 0
    assert "fallback 1" in read(model).split("\n")


def test_run_writes_all_artifacts(tmp_path):
    out = tmp_path / "out"
    assert run_cli("run", "--synthetic", "rows=260,frac=0.15", "--label", "em",
                   "--learner", "nb", "--split", "0.66", "--seed", "8",
                   "--out", str(out)) == 0
    names = sorted(os.listdir(out))
    assert names == ["detail.txt", "em_model.txt", "labeled.csv", "manifest.txt",
                     "model.txt", "report.csv"]
    manifest = read(out / "manifest.txt")
    assert "master_seed = 8" in manifest
    assert "seed.split = 11" in manifest
    assert "config.model = nb" in manifest
    report = read(out / "report.csv")
    assert report.startswith("Measure,nb\n")
    assert len(report.strip().split("\n")) == 7


def test_run_manifest_text(tmp_path, monkeypatch):
    # The manifest layout: command, master seed, sorted stage and train
    # seeds, sorted config echo, then the artifacts in write order.
    monkeypatch.chdir(tmp_path)
    assert run_cli("run", "--synthetic", "rows=260,frac=0.15", "--label", "em",
                   "--learner", "nb", "--seed", "8", "--out", "out") == 0
    assert read(tmp_path / "out" / "manifest.txt") == (
        "command = run\n"
        "master_seed = 8\n"
        "seed.generate = 9\n"
        "seed.label = 10\n"
        "seed.sample = 12\n"
        "seed.split = 11\n"
        "seed.train.nb = 2920529380\n"
        "config.cost = -\n"
        "config.data = -\n"
        "config.em_columns = -\n"
        "config.em_max_iter = 200\n"
        "config.em_raw = False\n"
        "config.em_tol = 1e-06\n"
        "config.label = em\n"
        "config.model = nb\n"
        "config.out = out\n"
        "config.sample = none\n"
        "config.split = 0.66\n"
        "config.synthetic = rows=260,frac=0.15,shift=2.0\n"
        "artifact = em_model.txt\n"
        "artifact = labeled.csv\n"
        "artifact = model.txt\n"
        "artifact = report.csv\n"
        "artifact = detail.txt\n"
        "artifact = manifest.txt\n"
    )


@pytest.mark.parametrize("token, message", [
    pytest.param("upside", "sampling token", id="upside"),
    pytest.param("smote:k=0", "k_neighbors must be an integer >= 1", id="smote:k=0"),
    pytest.param("smote:ratio=2", "target_ratio must be a finite number in (0,1]",
                 id="smote:ratio=2"),
])
def test_run_invalid_sampling_leaves_no_artifacts(tmp_path, capsys, token, message):
    out = tmp_path / "nope"
    assert run_cli("run", "--synthetic", "rows=100", "--sample", token,
                   "--out", str(out)) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert message in err


def test_run_determinism_and_env_seed(tmp_path, monkeypatch):
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    args = ("run", "--synthetic", "rows=200,frac=0.2", "--learner", "tree",
            "--split", "0.7")
    assert run_cli(*args, "--seed", "21", "--out", str(out1)) == 0
    monkeypatch.setenv("RIGLINE_SEED", "21")
    # The env var wins over a contradicting flag.
    assert run_cli(*args, "--seed", "999", "--out", str(out2)) == 0
    assert read(out1 / "report.csv") == read(out2 / "report.csv")
    assert read(out1 / "labeled.csv") == read(out2 / "labeled.csv")


def test_config_file_fills_gaps_flags_win(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# pipeline settings\n"
        "synthetic = rows=180,frac=0.2\n"
        "learner = nb\n"
        "seed = 13\n"
        "split = 0.75\n"
    )
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    assert run_cli("run", "--config", str(cfg), "--out", str(out1)) == 0
    manifest = read(out1 / "manifest.txt")
    assert "master_seed = 13" in manifest
    assert "config.split = 0.75" in manifest
    # A flag on the command line overrides the same key in the file.
    assert run_cli("run", "--config", str(cfg), "--learner", "tree",
                   "--out", str(out2)) == 0
    assert read(out2 / "report.csv").startswith("Measure,tree")


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("learner = nb\nwibble = 3\n")
    assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
    assert "wibble" in capsys.readouterr().err


# Each pair is one option as a config file line and as command-line flags.
RUN_OPTIONS = [
    ("synthetic = rows=180,frac=0.2", ["--synthetic", "rows=180,frac=0.2"]),
    ("learner = nb", ["--learner", "nb"]),
    ("seed = 13", ["--seed", "13"]),
    ("split = 0.75", ["--split", "0.75"]),
    ("label = em", ["--label", "em"]),
    ("em_raw = yes", ["--em-raw"]),
    ("em-columns = Operating Pressure,Gas Detector",
     ["--em-columns", "Operating Pressure,Gas Detector"]),
    ("em_tol = 1e-7", ["--em-tol", "1e-7"]),
    ("em_max_iter = 150", ["--em-max-iter", "150"]),
]
GRID_OPTIONS = [
    ("synthetic = rows=200,frac=0.2", ["--synthetic", "rows=200,frac=0.2"]),
    ("seed = 31", ["--seed", "31"]),
    ("regimes = none,smote", ["--regimes", "none,smote"]),
    ("learners = nb,tree", ["--learners", "nb,tree"]),
    ("models = model2", ["--models", "model2"]),
    ("smote_k = 3", ["--smote-k", "3"]),
    ("smote_ratio = 0.8", ["--smote-ratio", "0.8"]),
    ("em_raw = off", []),
]


@pytest.mark.parametrize("command, options", [
    pytest.param("run", RUN_OPTIONS, id="run"),
    pytest.param("grid", GRID_OPTIONS, id="grid"),
])
def test_config_file_matches_flags(tmp_path, monkeypatch, command, options):
    cfg = tmp_path / "opts.cfg"
    cfg.write_text("".join(line + "\n" for line, _ in options))
    flags = [arg for _, argv in options for arg in argv]
    written = {}
    # The same relative --out, so the manifests' config.out lines agree too.
    for how, argv in (("file", ["--config", str(cfg)]), ("flags", flags)):
        (tmp_path / how).mkdir()
        monkeypatch.chdir(tmp_path / how)
        assert run_cli(command, *argv, "--out", "out") == 0
        written[how] = {name: read(tmp_path / how / "out" / name)
                        for name in os.listdir(tmp_path / how / "out")}
    assert written["file"] == written["flags"]
    assert "manifest.txt" in written["file"]
    if command == "run":
        assert "config.em_raw = True" in written["file"]["manifest.txt"]
        assert "model.txt" in written["file"]
    else:
        assert "config.em_raw = False" in written["file"]["manifest.txt"]
        assert "table3.csv" in written["file"]


@pytest.mark.parametrize("text, labeled", [
    ("yes", False), ("off", True), ("ON", False), ("0", True), ("true", False),
])
def test_config_switch_takes_bool_words(tmp_path, text, labeled):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text(f"unlabeled = {text}\n")
    out = tmp_path / "g.csv"
    assert run_cli("generate", "--rows", "40", "--config", str(cfg),
                   "--out", str(out)) == 0
    assert read(out).split("\n")[0].endswith(",class") == labeled


@pytest.mark.parametrize("line, key", [
    ("em_tol = x", "em_tol"),
    ("em_raw = maybe", "em_raw"),
    ("split = half", "split"),
    ("seed = 1.5", "seed"),
    ("config = other.cfg", "config"),
    ("em_max_iter = 0", "em_max_iter"),
    ("em_max_iter = -3", "em_max_iter"),
    ("em_tol = -1", "em_tol"),
])
def test_config_bad_value_names_key(tmp_path, capsys, line, key):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"synthetic = rows=100\n{line}\n")
    out = tmp_path / "o"
    assert run_cli("run", "--config", str(cfg), "--out", str(out)) == 2
    assert f"{key!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line", ["seed 5", "learner", "= nb", "seed ="])
def test_config_line_without_key_and_value_is_usage_error(tmp_path, capsys, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"synthetic = rows=100\n{line}\n")
    out = tmp_path / "o"
    assert run_cli("run", "--config", str(cfg), "--out", str(out)) == 2
    assert f"bad.cfg:2: expected 'key = value', got {line + chr(10)!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, line, key", [
    ("label", "components = 2", "components"),
    ("run", "components = 2", "components"),
    ("train", "cost_file = costs.txt", "cost_file"),
    ("grid", "cost_file = costs.txt", "cost_file"),
    ("generate", "synthetic = rows=50", "synthetic"),
])
def test_config_removed_keys_are_unknown(tmp_path, capsys, stage_inputs, command,
                                         line, key):
    cfg = tmp_path / "old.cfg"
    cfg.write_text(f"{line}\n")
    data = [] if command == "generate" else ["--data", stage_inputs["lab.csv"]]
    out = tmp_path / "out"
    assert run_cli(command, *data, "--config", str(cfg), "--out", str(out)) == 2
    assert f"unknown config key {key!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [
    ("--em-max-iter", "0"), ("--em-max-iter", "-3"), ("--em-tol", "-1"), ("--em-tol", "nan"),
])
@pytest.mark.parametrize("command", ["label", "run", "grid"])
def test_em_iteration_settings_out_of_range_are_usage_errors(tmp_path, capsys, stage_inputs,
                                                             command, flag, value):
    out = tmp_path / "out"
    label = [] if command == "label" else ["--label", "em"]
    assert run_cli(command, "--data", stage_inputs["raw.csv"], *label, flag, value,
                   "--out", str(out)) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


# One bad value per row, given once as a flag and once as a config line.
BAD_VALUES = [
    ("label", "--em-max-iter", "0"),
    ("label", "--em-columns", "a,a"),
    ("run", "--split", "1.5"),
    ("run", "--label", "bogus"),
    ("grid", "--regimes", "none,none"),
    ("grid", "--learners", "zz"),
    ("train", "--learner", "zz"),
    ("sample", "--sample", "smote:k=0"),
    ("run", "--cost", "1"),
    ("run", "--cost", "nan,1"),
    ("run", "--cost", "inf,1"),
    ("run", "--seed", "-1"),
]


@pytest.mark.parametrize("command, flag, value", BAD_VALUES,
                         ids=[f"{c}{f}={v}" for c, f, v in BAD_VALUES])
def test_flag_and_config_line_give_the_same_reason(tmp_path, capsys, stage_inputs,
                                                   command, flag, value):
    key = flag[2:].replace("-", "_")
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{key} = {value}\n")
    argv = [command, "--data", stage_inputs["raw.csv" if command == "label" else "lab.csv"],
            "--out", str(tmp_path / "out")]
    if command == "sample":
        # sample --sample is required on the command line; the file's line
        # is still converted, and rejected, before the flags win over it.
        argv += ["--sample", "none"]
    reasons = {}
    for prefix, extra in ((f"error: argument {flag}: ", [flag, value]),
                          (f"error: config key {key!r}: ", ["--config", str(cfg)])):
        assert main(argv + extra) == 2
        err = capsys.readouterr().err
        assert err.startswith(prefix) and err.count("\n") == 1, err
        reasons[prefix] = err[len(prefix):]
        assert os.listdir(tmp_path) == ["bad.cfg"]
    assert len(set(reasons.values())) == 1, reasons


@pytest.mark.parametrize("argv", [
    ["generate"],
    ["label", "--data", "raw.csv"],
    ["sample", "--data", "lab.csv", "--sample", "under"],
    ["train", "--data", "lab.csv", "--learner", "nb"],
    ["run", "--data", "lab.csv"],
    ["grid", "--data", "lab.csv"],
], ids=lambda argv: argv[0])
def test_negative_env_seed_is_usage_error(tmp_path, capsys, monkeypatch, stage_inputs, argv):
    monkeypatch.setenv("RIGLINE_SEED", "-1")
    argv = [stage_inputs.get(a, a) for a in argv]
    assert run_cli(*argv, "--out", str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == "error: RIGLINE_SEED must be an integer >= 0, got -1\n"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv, message", [
    pytest.param(["label"], "the following arguments are required: --data", id="missing"),
    pytest.param(["train", "--learner", "nb", "--bogus"], "unrecognized arguments: --bogus",
                 id="unknown"),
])
def test_argparse_errors_return_2(tmp_path, capsys, stage_inputs, argv, message):
    data = [] if argv == ["label"] else ["--data", stage_inputs["lab.csv"]]
    assert main(argv + data + ["--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert os.listdir(tmp_path) == []


def test_nan_svm_setting_fails_in_train(tmp_path, capsys, stage_inputs):
    model = tmp_path / "m.txt"
    assert run_cli("train", "--data", stage_inputs["lab.csv"], "--learner", "smo",
                   "--params", "C=nan", "--out", str(model)) == 1
    assert "stage train: C must be a finite number > 0, got nan" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("learner, params, reason", [
    pytest.param("nb", "bogus=1", "'bogus'", id="nb-unknown-key"),
    pytest.param("tree", "max_depth=nan", "max_depth must be an integer >= 0, got nan",
                 id="tree-nan-depth"),
    pytest.param("rf", "max_depth=-1", "max_depth must be an integer >= 0, got -1",
                 id="rf-negative-depth"),
    pytest.param("part", "max_rule_depth=2.5",
                 "max_rule_depth must be an integer >= 0, got 2.5", id="part-depth"),
    pytest.param("part", "min_leaf=1.5", "min_leaf must be an integer >= 1, got 1.5",
                 id="part-fractional-min-leaf"),
    pytest.param("rf", "bootstrap=no", "bootstrap must be True or False, got 'no'",
                 id="rf-bootstrap-word"),
    # The solver has no eps setting: a step either moves the pair or not.
    pytest.param("smo", "eps=inf", "unexpected keyword argument 'eps'",
                 id="smo-infinite-eps"),
    pytest.param("smo", "kkt_tol=inf", "kkt_tol must be a finite number > 0, got inf",
                 id="smo-infinite-kkt-tol"),
    pytest.param("smo", "degree=2.5", "degree must be an integer >= 1, got 2.5",
                 id="smo-fractional-degree"),
    pytest.param("smo", "cal_folds=2.5", "folds must be an integer >= 2, got 2.5",
                 id="smo-fractional-cal-folds"),
    pytest.param("smo", "max_steps=1.5", "max_steps must be an integer >= 1, got 1.5",
                 id="smo-fractional-max-steps"),
    # Values that once trained a model or failed with an error that did
    # not name the setting: a bool is not an integer, and every float
    # setting is finite.
    pytest.param("rf", "n_trees=true,max_depth=true", "n_trees must be an integer >= 1, got True",
                 id="rf-bool-trees-and-depth"),
    pytest.param("tree", "min_leaf=true", "min_leaf must be an integer >= 1, got True",
                 id="tree-bool-min-leaf"),
    pytest.param("smo", "C=true", "C must be a finite number > 0, got True", id="smo-bool-C"),
    pytest.param("smo", "max_steps=true", "max_steps must be an integer >= 1, got True",
                 id="smo-bool-max-steps"),
    pytest.param("rf", "n_trees=2.5", "n_trees must be an integer >= 1, got 2.5",
                 id="rf-fractional-trees"),
    pytest.param("rf", "features_per_split=1.5",
                 "features_per_split must be an integer >= 1, got 1.5",
                 id="rf-fractional-features-per-split"),
    pytest.param("mlp", "epochs=2.5", "epochs must be an integer >= 1, got 2.5",
                 id="mlp-fractional-epochs"),
    pytest.param("mlp", "hidden_units=2.5", "hidden_units must be an integer >= 1, got 2.5",
                 id="mlp-fractional-hidden-units"),
    pytest.param("mlp", "learning_rate=inf", "learning_rate must be a finite number > 0, got inf",
                 id="mlp-infinite-learning-rate"),
    pytest.param("smo", "kernel=polynomial,degree=true", "degree must be an integer >= 1, got True",
                 id="smo-bool-degree"),
])
def test_bad_learner_params_fail_in_train(tmp_path, capsys, stage_inputs, learner, params,
                                          reason):
    model = tmp_path / "m.txt"
    assert run_cli("train", "--data", stage_inputs["lab.csv"], "--learner", learner,
                   "--params", params, "--out", str(model)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: stage train:") and reason in err
    assert os.listdir(tmp_path) == []


def test_train_smo_runaway_stopped_by_max_steps_warns_on_stderr(tmp_path, stage_inputs):
    # C=1e308 on overlapping classes never converges; the pair-update cap
    # ends it. A fresh interpreter, so the warning reaches stderr as a user
    # sees it.
    model = tmp_path / "m.txt"
    src = os.path.dirname(os.path.dirname(rigline.__file__))
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-m", "rigline.cli", "train", "--data", stage_inputs["lab.csv"],
         "--learner", "smo", "--params", "C=1e308,max_steps=50", "--out", str(model)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert done.returncode == 0
    assert time.monotonic() - started < 30.0
    assert ("UserWarning: SMO stopped after 50 pair updates (max_steps=50) without converging"
            in done.stderr)
    assert "converged 0" in read(model).split("\n")


COMMAND_OPTIONS = {
    "generate": ["--rows", "--frac", "--shift", "--unlabeled", "--out"],
    "label": ["--data", "--out", "--save-gmm", "--em-tol", "--em-max-iter",
              "--em-columns", "--em-raw"],
    "sample": ["--data", "--sample", "--out"],
    "train": ["--data", "--learner", "--stack", "--params", "--cost", "--out"],
    "evaluate": ["--model", "--data", "--out", "--detail", "--name"],
    "run": ["--data", "--synthetic", "--label", "--em-tol", "--em-max-iter",
            "--em-columns", "--em-raw", "--split", "--sample", "--cost", "--learner",
            "--stack", "--out"],
    "grid": ["--data", "--synthetic", "--label", "--em-tol", "--em-max-iter",
             "--em-columns", "--em-raw", "--split", "--regimes", "--learners",
             "--models", "--smote-k", "--smote-ratio", "--cost", "--out"],
}


def test_each_command_declares_exactly_its_options():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert sorted(sub.choices) == sorted(COMMAND_OPTIONS)
    settable = 0
    for command, parser in sub.choices.items():
        dests = [a.dest for a in parser._actions
                 if a.option_strings and a.dest not in ("help", "config")]
        expected = [o[2:].replace("-", "_") for o in COMMAND_OPTIONS[command]]
        assert dests == expected + ["seed"], command
        settable += len(dests)
    # Every option a config file can set, over all seven commands.
    assert settable == 61


@pytest.mark.parametrize("command", sorted(COMMAND_OPTIONS))
def test_help_lists_every_option(capsys, command):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    assert set(COMMAND_OPTIONS[command]) | {"--seed", "--config", "--help"} <= listed


@pytest.mark.parametrize("spec, culprit", [
    ("stack:base=nb;folds=x", "bad value for folds: 'x'"),
    ("stack:base=nb;wat=1", "unknown key 'wat'"),
    ("stack:meta=smo", "needs base="),
    ("stack:base=nb,zzz", "'zzz'"),
    ("stack:meta=zzz;base=nb", "unknown learner 'zzz'"),
])
@pytest.mark.parametrize("command", ["train", "run", "grid"])
def test_malformed_stack_spec_is_usage_error(tmp_path, capsys, command, spec, culprit):
    data = tmp_path / "d.csv"
    run_cli("generate", "--rows", "60", "--seed", "1", "--out", str(data))
    argv = {
        "train": ["train", "--data", str(data), "--stack", spec],
        "run": ["run", "--data", str(data), "--stack", spec],
        "grid": ["grid", "--data", str(data), "--models", spec],
    }[command]
    capsys.readouterr()
    assert run_cli(*argv, "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert culprit in err
    assert spec in err
    assert os.listdir(tmp_path) == ["d.csv"]


@pytest.mark.parametrize("models, columns", [
    pytest.param("stack:base=part,mlp", ["stack:base=part,mlp"], id="two-base"),
    pytest.param("stack:meta=smo;base=part,mlp,nb;folds=5",
                 ["stack:meta=smo;base=part,mlp,nb;folds=5"], id="three-base"),
    pytest.param("nb,stack:base=nb,tree;folds=3,model1",
                 ["nb", "stack:base=nb,tree;folds=3", "model1"], id="mixed"),
])
def test_grid_models_hold_multi_base_stacks(tmp_path, models, columns):
    out = tmp_path / "g"
    assert run_cli("grid", "--synthetic", "rows=100,frac=0.2", "--seed", "4",
                   "--regimes", "none", "--learners", "nb", "--models", models,
                   "--out", str(out)) == 0
    with open(out / "table2.csv", newline="") as fh:
        assert next(csv.reader(fh)) == ["Measure"] + columns
    assert f"config.models = {','.join(columns)}\n" in read(out / "manifest.txt")


@pytest.mark.parametrize("argv, flag", [
    pytest.param(["generate", "--rows", "1"], "--rows", id="generate-rows"),
    pytest.param(["generate", "--frac", "0"], "--frac", id="generate-frac"),
    pytest.param(["run", "--synthetic", "frac=1.0"], "--synthetic", id="run"),
    pytest.param(["grid", "--synthetic", "rows=1"], "--synthetic", id="grid"),
    pytest.param(["generate", "--shift", "nan"], "--shift", id="generate-shift-nan"),
    pytest.param(["run", "--synthetic", "shift=inf"], "--synthetic", id="run-shift-inf"),
])
def test_synthetic_range_is_checked_before_anything_is_written(tmp_path, capsys,
                                                               argv, flag):
    out = tmp_path / ("x.csv" if argv[0] == "generate" else "out")
    assert run_cli(*argv, "--out", str(out)) == 2
    assert flag in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.fixture(scope="module")
def stage_inputs(tmp_path_factory):
    """A labeled CSV, an unlabeled one, a trained model and a garbled one."""
    d = tmp_path_factory.mktemp("stage_inputs")
    paths = {name: str(d / name) for name in
             ("lab.csv", "raw.csv", "model.txt", "garbled.txt", "missing.csv")}
    assert run_cli("generate", "--rows", "80", "--frac", "0.2", "--seed", "1",
                   "--out", paths["lab.csv"]) == 0
    assert run_cli("generate", "--rows", "80", "--unlabeled", "--seed", "1",
                   "--out", paths["raw.csv"]) == 0
    assert run_cli("train", "--data", paths["lab.csv"], "--learner", "nb",
                   "--out", paths["model.txt"]) == 0
    with open(paths["garbled.txt"], "w") as fh:
        fh.write("model nb\nclasses [\n")
    return paths


@pytest.mark.parametrize("argv, stage", [
    pytest.param(["label", "--data", "missing.csv"], "load", id="label-missing"),
    pytest.param(["run", "--data", "missing.csv"], "load", id="run-missing"),
    pytest.param(["grid", "--data", "missing.csv"], "load", id="grid-missing"),
    pytest.param(["label", "--data", "raw.csv", "--em-columns", "NoSuch"], "label",
                 id="label-columns"),
    pytest.param(["run", "--data", "raw.csv", "--label", "em", "--em-columns", "NoSuch"],
                 "label", id="run-columns"),
    pytest.param(["grid", "--data", "raw.csv", "--label", "em", "--em-columns", "NoSuch"],
                 "label", id="grid-columns"),
    pytest.param(["sample", "--data", "lab.csv", "--sample", "smote:k=500"], "sample",
                 id="sample-smote-k"),
    pytest.param(["train", "--data", "lab.csv", "--learner", "smo", "--params",
                  "cal_folds=1"], "train", id="train-cal-folds"),
    pytest.param(["evaluate", "--model", "garbled.txt", "--data", "lab.csv"], "load",
                 id="evaluate-garbled-model"),
    pytest.param(["evaluate", "--model", "model.txt", "--data", "raw.csv"], "evaluate",
                 id="evaluate-unlabeled"),
    pytest.param(["generate"], "generate", id="generate-missing-dir"),
])
def test_failure_names_its_stage(tmp_path, capsys, stage_inputs, argv, stage):
    argv = [stage_inputs.get(a, a) for a in argv]
    out = tmp_path / "missing_dir" / "x.csv" if argv[0] == "generate" else tmp_path / "out"
    assert run_cli(*argv, "--out", str(out)) == 1
    assert f"error: stage {stage}:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def hostile_inputs(tmp_path_factory):
    """Labeled tables the pipeline was not built for: three classes (30/30/30),
    labels up/down with a constant column, and a one-row minority (1/79)."""
    d = tmp_path_factory.mktemp("hostile_inputs")
    rng = np.random.default_rng(0)
    schema = [("a", ""), ("b", ""), ("c", "")]
    X = rng.normal(size=(90, 3))
    X[30:60] += 3.0
    X[60:] -= 3.0
    tables = {"three": (X, ["x"] * 30 + ["y"] * 30 + ["z"] * 30)}
    X = rng.normal(size=(80, 3))
    X[:, 2] = 5.0
    X[60:, 0] += 2.0
    tables["updown"] = (X, ["up"] * 60 + ["down"] * 20)
    X = rng.normal(size=(80, 3))
    X[79] += 3.0
    tables["onerow"] = (X, ["normal"] * 79 + ["failure"])
    paths = {}
    for name, (X, labels) in tables.items():
        paths[name] = str(d / f"{name}.csv")
        save_csv(Dataset(schema, X, labels), paths[name])
    return paths


HOSTILE_COMMANDS = {
    "train-nb": ["train", "--learner", "nb"],
    "train-smo": ["train", "--learner", "smo"],
    "train-model1": ["train", "--stack", "model1"],
    "sample-smote": ["sample", "--sample", "smote"],
    "sample-under": ["sample", "--sample", "under"],
    "run-smo": ["run", "--label", "none", "--learner", "smo"],
    "run-model3": ["run", "--label", "none", "--stack", "model3"],
    "grid-model2": ["grid", "--label", "none", "--models", "model2"],
}
TWO_CLASSES = "stage train: two-class solver, got 3 classes"


@pytest.mark.parametrize("table, command, message", [
    ("three", "train-smo", TWO_CLASSES),
    ("three", "train-model1", TWO_CLASSES),
    ("three", "run-smo", TWO_CLASSES),
    ("three", "run-model3", TWO_CLASSES),
    ("three", "sample-smote", "stage sample:"),
    ("three", "sample-under", "stage sample:"),
    ("onerow", "train-model1", "stage train: rarest class has 1 rows"),
    ("onerow", "sample-smote", "stage sample:"),
])
def test_hostile_table_fails_in_its_stage(tmp_path, capsys, hostile_inputs, table, command,
                                          message):
    argv = HOSTILE_COMMANDS[command]
    out = tmp_path / "out"
    assert run_cli(*argv, "--data", hostile_inputs[table], "--out", str(out)) == 1
    assert message in capsys.readouterr().err
    if argv[0] == "run":
        assert not (out / "manifest.txt").exists()
    else:
        assert os.listdir(tmp_path) == []


# The one-row minority's SVM fallback is pinned by
# test_train_smo_one_row_minority_falls_back_to_hard_probabilities.
@pytest.mark.parametrize("table, command", [
    ("three", "train-nb"),
    *[("updown", command) for command in HOSTILE_COMMANDS],
])
def test_hostile_table_runs(tmp_path, hostile_inputs, table, command):
    assert run_cli(*HOSTILE_COMMANDS[command], "--data", hostile_inputs[table],
                   "--out", str(tmp_path / "out")) == 0


def test_three_class_grid_marks_two_class_cells_err(tmp_path, hostile_inputs):
    out = tmp_path / "out"
    assert run_cli(*HOSTILE_COMMANDS["grid-model2"], "--data", hostile_inputs["three"],
                   "--out", str(out)) == 0
    failed = read(out / "summary.txt").partition("failed cells (ERR columns):\n")[2]
    assert [line.split(":")[0].strip() for line in failed.splitlines()] == [
        "none/smo", "smote", "under", "cost", "models/model2"]


def test_train_reads_labels_after_a_leading_blank_line(tmp_path):
    data = tmp_path / "d.csv"
    run_cli("generate", "--rows", "60", "--seed", "1", "--out", str(data))
    data.write_text("\n" + read(data))
    assert run_cli("train", "--data", str(data), "--learner", "nb",
                   "--out", str(tmp_path / "m.txt")) == 0


def test_sample_prints_plain_class_names(tmp_path, capsys):
    data, out = tmp_path / "ab.csv", tmp_path / "s.csv"
    save_csv(Dataset([("x", ""), ("y", "")], np.arange(10.0).reshape(5, 2),
                     ["a", "b", "a", "b", "b"]), str(data))
    assert run_cli("sample", "--data", str(data), "--sample", "under",
                   "--out", str(out)) == 0
    assert capsys.readouterr().out == f"wrote {out}: {{'a': (2, 0.5), 'b': (2, 0.5)}}\n"
    assert all(type(c) is str for c in class_order(load_csv(str(out)).labels))


def test_train_part_on_a_tree_deeper_than_the_recursion_limit(tmp_path):
    # Labels alternate along the one feature, so each rule-list round grows a
    # tree that cuts off one row per level. The CLI runs at the interpreter's
    # own recursion limit; with the limit 100 frames above this test, the
    # first tree (depth 119) is deeper than a walk with one call per level
    # can go, and train_rule_list must still learn the rules the CLI saved.
    n = 120
    data, model = tmp_path / "d.csv", tmp_path / "m.txt"
    d = Dataset([("v", "")], np.arange(float(n)).reshape(-1, 1),
                [("a", "b")[i % 2] for i in range(n)])
    save_csv(d, str(data))
    assert run_cli("train", "--data", str(data), "--learner", "part",
                   "--params", "max_rule_depth=2000", "--out", str(model)) == 0
    saved = load_model(str(model)).rules
    assert len(saved) == n - 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        rules = train_rule_list(d, max_rule_depth=2000).rules
    finally:
        sys.setrecursionlimit(limit)
    assert [r.conditions for r in rules] == [r.conditions for r in saved]


def test_grid_degenerate_matches_run(tmp_path):
    grid_out = tmp_path / "grid"
    run_out = tmp_path / "run"
    common = ("--synthetic", "rows=220,frac=0.2", "--split", "0.66", "--seed", "17")
    assert run_cli("grid", *common, "--regimes", "none", "--learners", "nb",
                   "--models", "", "--out", str(grid_out)) == 0
    names = sorted(f for f in os.listdir(grid_out) if f.endswith(".csv"))
    assert names == ["labeled.csv", "table1.csv"]
    assert run_cli("run", *common, "--learner", "nb", "--out", str(run_out)) == 0
    # One regime, one learner: the single grid cell is the plain pipeline.
    assert read(grid_out / "table1.csv") == read(run_out / "report.csv")


def test_grid_stack_cell_matches_run(tmp_path):
    data = tmp_path / "d.csv"
    # Overlapping classes, so that the report shows a base model's seed.
    assert run_cli("generate", "--rows", "160", "--frac", "0.25", "--shift", "1.0",
                   "--seed", "4", "--out", str(data)) == 0
    common = ("--data", str(data), "--seed", "17")
    assert run_cli("grid", *common, "--regimes", "none", "--learners", "nb",
                   "--models", "model3", "--out", str(tmp_path / "grid")) == 0
    assert run_cli("run", *common, "--stack", "model3", "--out", str(tmp_path / "run")) == 0
    # The grid's model3 shares its nb base with the nb column and its folds
    # with any other stack; run trains it alone, to the same model.
    assert read(tmp_path / "grid" / "table2.csv") == read(tmp_path / "run" / "report.csv")


def test_grid_tables_and_summary(tmp_path):
    out = tmp_path / "g"
    assert run_cli("grid", "--synthetic", "rows=240,frac=0.2", "--seed", "9",
                   "--regimes", "none,under,cost", "--learners", "nb,tree",
                   "--models", "model2", "--out", str(out)) == 0
    csvs = sorted(f for f in os.listdir(out) if f.startswith("table"))
    assert csvs == ["table1.csv", "table2.csv", "table3.csv", "table4.csv",
                    "table5.csv"]
    head = read(out / "table1.csv").split("\n")[0]
    assert head == "Measure,nb,tree"
    head5 = read(out / "table5.csv").split("\n")[0]
    assert head5.startswith("Measure,model2")
    summary = read(out / "summary.txt")
    assert "best model: model2" in summary
    assert "table3.csv: regime cost" in summary
    # Cost-sensitive wrapping reranks nothing, so ROC rows of the cost table
    # match the no-sampling table cell for cell.
    t1 = read(out / "table1.csv").strip().split("\n")
    t3 = read(out / "table3.csv").strip().split("\n")
    assert t1[6].startswith("ROC,") and t1[6] == t3[6]


def test_grid_determinism(tmp_path):
    args = ("grid", "--synthetic", "rows=200,frac=0.2", "--seed", "31",
            "--regimes", "none,under", "--learners", "nb,tree", "--models",
            "model2")
    out1 = tmp_path / "g1"
    out2 = tmp_path / "g2"
    assert run_cli(*args, "--out", str(out1)) == 0
    assert run_cli(*args, "--out", str(out2)) == 0
    for name in os.listdir(out1):
        if name.endswith(".csv"):
            assert read(out1 / name) == read(out2 / name), name


@pytest.fixture
def boom_learner():
    """A registered learner `boom` whose every fit fails."""
    def explode(d, seed, params):
        raise RuntimeError("no model today")

    register_learner("boom", explode)
    yield "boom"
    from rigline.stacking import LEARNERS

    LEARNERS.pop("boom", None)


def test_grid_cell_failure_marks_err_and_continues(tmp_path, boom_learner):
    out = tmp_path / "g"
    assert run_cli("grid", "--synthetic", "rows=150,frac=0.2", "--seed", "2",
                   "--regimes", "none", "--learners", "nb,boom",
                   "--models", "", "--out", str(out)) == 0
    table = read(out / "table1.csv")
    header, tp = table.strip().split("\n")[:2]
    assert header == "Measure,nb,boom"
    assert tp.split(",")[2] == "ERR"
    assert "no model today" in read(out / "summary.txt")


def test_grid_manifest_and_summary_text(tmp_path, monkeypatch, boom_learner):
    # A failing learner (boom) in every table and a failing regime (smote:
    # 40 rows at 15% failures leave too few minority rows for k=5).
    monkeypatch.chdir(tmp_path)
    assert run_cli("grid", "--synthetic", "rows=40,frac=0.15", "--seed", "3",
                   "--regimes", "none,smote", "--learners", "nb,boom",
                   "--models", "nb,boom", "--out", "g") == 0
    assert read(tmp_path / "g" / "summary.txt") == (
        "tables:\n"
        "  table1.csv: regime none\n"
        "  table2.csv: regime smote\n"
        "  table3.csv: stacked models, no sampling\n"
        "  table4.csv: best model (nb) vs single learners\n"
        "best model: nb (ROC 1.000, TP rate 1.000)\n"
        "rank rule: highest ROC, then highest TP rate, then earliest column\n"
        "failed cells (ERR columns):\n"
        "  none/boom: no model today\n"
        "  smote: minority class has 5 rows; need more than k=5\n"
        "  models/boom: no model today\n"
    )
    assert read(tmp_path / "g" / "manifest.txt") == (
        "command = grid\n"
        "master_seed = 3\n"
        "seed.generate = 4\n"
        "seed.label = 5\n"
        "seed.sample = 7\n"
        "seed.split = 6\n"
        "seed.train.boom = 168887340\n"
        "seed.train.nb = 1614433154\n"
        "config.cost = default\n"
        "config.data = -\n"
        "config.em_columns = -\n"
        "config.em_max_iter = 200\n"
        "config.em_raw = False\n"
        "config.em_tol = 1e-06\n"
        "config.label = auto\n"
        "config.learners = nb,boom\n"
        "config.models = nb,boom\n"
        "config.out = g\n"
        "config.regimes = none,smote\n"
        "config.smote_k = 5\n"
        "config.smote_ratio = 1.0\n"
        "config.split = 0.66\n"
        "config.synthetic = rows=40,frac=0.15,shift=2.0\n"
        "artifact = labeled.csv\n"
        "artifact = table1.csv\n"
        "artifact = table2.csv\n"
        "artifact = table3.csv\n"
        "artifact = table4.csv\n"
        "artifact = summary.txt\n"
        "artifact = manifest.txt\n"
    )


def test_grid_failing_regime_marks_err_and_continues(tmp_path):
    out = tmp_path / "g"
    # 40 rows at 15% failures leave SMOTE too few minority rows for k=5.
    assert run_cli("grid", "--synthetic", "rows=40,frac=0.15", "--seed", "3",
                   "--regimes", "none,smote", "--learners", "nb", "--models", "",
                   "--out", str(out)) == 0
    assert (out / "summary.txt").exists() and (out / "manifest.txt").exists()
    rows = read(out / "table2.csv").strip().split("\n")
    assert rows[0] == "Measure,nb"
    assert all(row.split(",")[1] == "ERR" for row in rows[1:])
    assert read(out / "table1.csv").split("\n")[1].split(",")[1] != "ERR"
    summary = read(out / "summary.txt")
    assert "table2.csv: regime smote" in summary
    assert "  smote: minority class has" in summary


def test_each_model_is_scored_once(tmp_path, monkeypatch):
    import rigline.cli
    import rigline.evaluation

    calls = []
    real = rigline.evaluation.evaluate

    def counting(m, test):
        calls.append(m.learner)
        return real(m, test)

    # Both bindings: cli imports evaluate by name.
    monkeypatch.setattr(rigline.evaluation, "evaluate", counting)
    monkeypatch.setattr(rigline.cli, "evaluate", counting)
    assert run_cli("grid", "--synthetic", "rows=200,frac=0.2", "--seed", "31",
                   "--regimes", "none,under", "--learners", "nb,tree",
                   "--models", "model2", "--out", str(tmp_path / "g")) == 0
    # Two regimes x two learners plus one stack; the best-model table
    # reuses the no-sampling reports.
    assert len(calls) == 5
    calls.clear()
    assert run_cli("run", "--synthetic", "rows=200,frac=0.2", "--learner", "nb",
                   "--seed", "31", "--out", str(tmp_path / "r")) == 0
    assert calls == ["nb"]


def test_grid_cost_regime_wraps_the_unsampled_fits(tmp_path, monkeypatch):
    import rigline.stacking

    calls = []
    real = rigline.stacking.train_learner

    def counting(name, *args, **kwargs):
        calls.append(name)
        return real(name, *args, **kwargs)

    monkeypatch.setattr(rigline.stacking, "train_learner", counting)
    assert run_cli("grid", "--synthetic", "rows=200,frac=0.2", "--seed", "31",
                   "--regimes", "none,under,cost", "--learners", "nb,tree",
                   "--models", "", "--out", str(tmp_path / "g")) == 0
    # The under regime fits on its own rows; cost wraps the none regime's fits.
    assert calls == ["nb", "tree", "nb", "tree"]


@pytest.mark.parametrize("options, fits", [
    # 48 fits: 6 learners x (none, smote, under), 5 base learners x 5 folds
    # and 5 meta learners. Stacks reuse the unsampled fits as base models.
    pytest.param((), {"tree": 8, "part": 8, "mlp": 8, "nb": 8, "rf": 8, "smo": 8},
                 id="default"),
    # The models table's nb is the none regime's nb; model2 adds its folds and
    # meta learner, and rf fitted once on all rows.
    pytest.param(("--regimes", "none", "--learners", "nb", "--models", "nb,model2"),
                 {"nb": 6, "rf": 6, "smo": 1}, id="learner-in-models"),
])
def test_grid_fits_each_model_once(tmp_path, monkeypatch, options, fits):
    from rigline.stacking import LEARNERS

    calls = {}

    def counting(name, trainer):
        def train(d, seed, params):
            calls[name] = calls.get(name, 0) + 1
            return trainer(d, seed, params)
        return train

    for name, trainer in list(LEARNERS.items()):
        monkeypatch.setitem(LEARNERS, name, counting(name, trainer))
    out = tmp_path / "g"
    assert run_cli("grid", "--synthetic", "rows=120,frac=0.3", "--seed", "1", *options,
                   "--out", str(out)) == 0
    assert "failed cells" not in read(out / "summary.txt")
    assert calls == fits


def test_grid_failing_fit_fails_both_unsampled_regimes(tmp_path):
    def explode(d, seed, params):
        raise RuntimeError("no model today")

    register_learner("boom", explode)
    try:
        out = tmp_path / "g"
        assert run_cli("grid", "--synthetic", "rows=150,frac=0.2", "--seed", "2",
                       "--regimes", "none,cost", "--learners", "nb,boom",
                       "--models", "", "--out", str(out)) == 0
        for table in ("table1.csv", "table2.csv"):
            assert read(out / table).split("\n")[1].split(",")[2] == "ERR"
        summary = read(out / "summary.txt")
        assert "  none/boom: no model today\n" in summary
        assert "  cost/boom: no model today\n" in summary
    finally:
        from rigline.stacking import LEARNERS

        LEARNERS.pop("boom", None)


def test_grid_rejects_unknown_learner(tmp_path, capsys):
    assert run_cli("grid", "--synthetic", "rows=100", "--learners", "nb,what",
                   "--out", str(tmp_path / "g")) == 2
    assert "what" in capsys.readouterr().err


def _write_stage_export(path, rows, seed):
    """An unlabeled rig export with `S No.` and `Time Stamp` columns: about
    13% of the rows drift up on the pressure and gas columns."""
    rng = np.random.default_rng(seed)
    means = np.array([95.6, 77.2, 78.0, 10.0, 362.9])
    sds = np.array([3.15, 1.84, 1.68, 0.27, 20.3])
    X = rng.normal(means, sds, size=(rows, 5))
    X[rng.random(rows) < 0.13, 1:4] += 2.0 * sds[1:4]
    with open(path, "w", newline="") as fh:
        fh.write("S No.,Time Stamp,Operating Temperature (in Deg.),Operating Pressure (in psi),"
                 "Working Pressure (in psi),Gas Detector (in PPM),Flow Rate (in cc/min)\n")
        for i, x in enumerate(X.tolist()):
            stamp = f"2/{8 + i // 1440}/2014 {i // 60 % 24}:{i % 60:02d}"
            fh.write(",".join([str(1048576 + i), stamp, *map(repr, x)]) + "\n")


# SHA-256 of each output of the label -> sample -> train -> evaluate chain
# on _write_stage_export(rows=900, seed=11), as written before the meta
# columns were held as bytes and SMOTE wrote into the grown table.
STAGE_CHAIN_SHA256 = {
    "labeled.csv": "322e1eff191d1e0cdfb37baf5ccba6cb8151e025553630c2d658c69259a421e5",
    "sampled.csv": "1b7e643e6837b0583e4f7b2cfd504ae6507dea5d075a83b30abe36b2a7cc9439",
    "model.txt": "101f6b6b5a589e76da6c85ae874735a39e7dd3a3793cfee224415994715d9f3e",
    "report.csv": "6d64d3da15aecfac4f045553eb37c8ba9bddabef312d715c671661c449f8591a",
    "detail.txt": "803b9da4e90ad9a4db2fdb8b12867c5fd406f873e46d957747047fc39ec712de",
}


def test_stage_chain_outputs_are_pinned(tmp_path):
    # The commands and options of the benchmark's stages workload on a small
    # export; its minority is more than one 64-row neighbour block.
    export = tmp_path / "export.csv"
    _write_stage_export(export, 900, 11)
    out = {name: str(tmp_path / name) for name in STAGE_CHAIN_SHA256}
    assert run_cli("label", "--data", str(export), "--out", out["labeled.csv"],
                   "--seed", "3") == 0
    labels = load_csv(out["labeled.csv"]).labels
    assert min(np.sum(labels == c) for c in set(labels)) > 64
    assert run_cli("sample", "--data", out["labeled.csv"], "--sample", "smote",
                   "--out", out["sampled.csv"], "--seed", "3") == 0
    assert run_cli("train", "--data", out["sampled.csv"], "--learner", "nb",
                   "--out", out["model.txt"], "--seed", "3") == 0
    assert run_cli("evaluate", "--model", out["model.txt"], "--data", out["labeled.csv"],
                   "--out", out["report.csv"], "--detail", out["detail.txt"]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in STAGE_CHAIN_SHA256}
    assert digests == STAGE_CHAIN_SHA256
