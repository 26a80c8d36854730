import os

import numpy as np
import pytest

from rigline.cli import main
from rigline.dataset import load_csv
from rigline.labeling_em import load_gmm
from rigline.modeldoc import load_model
from rigline.stacking import register_learner


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
    d = load_csv(str(a), has_labels=True)
    assert d.n_rows == 200
    assert int(np.sum(d.labels == "failure")) == 50


def test_generate_unlabeled_and_synthetic_token(tmp_path):
    p = tmp_path / "u.csv"
    assert run_cli("generate", "--synthetic", "rows=50,frac=0.1", "--unlabeled",
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
    d = load_csv(str(lab), has_labels=True)
    assert set(d.labels) == {"normal", "failure"}
    counts = {c: int(np.sum(d.labels == c)) for c in ("normal", "failure")}
    assert counts["normal"] > counts["failure"]
    gmm = load_gmm(str(gmm_path))
    assert gmm.means.shape[0] == 2


def test_label_column_subset_and_raw(tmp_path):
    raw = tmp_path / "raw.csv"
    run_cli("generate", "--rows", "120", "--unlabeled", "--seed", "5", "--out", str(raw))
    out = tmp_path / "lab.csv"
    assert run_cli("label", "--data", str(raw), "--out", str(out), "--em-raw",
                   "--em-columns", "Operating Pressure,Gas Detector") == 0
    d = load_csv(str(out), has_labels=True)
    assert d.arity == 5  # labeling never drops feature columns
    assert run_cli("label", "--data", str(raw), "--out", str(out),
                   "--em-columns", "NoSuchColumn") == 1


def test_sample_under_balances(tmp_path):
    src = tmp_path / "s.csv"
    out = tmp_path / "b.csv"
    run_cli("generate", "--rows", "200", "--frac", "0.2", "--seed", "1", "--out", str(src))
    assert run_cli("sample", "--data", str(src), "--sample", "under",
                   "--out", str(out)) == 0
    d = load_csv(str(out), has_labels=True)
    counts = {c: int(np.sum(d.labels == c)) for c in set(d.labels)}
    assert counts["normal"] == counts["failure"]


def test_sample_smote_token(tmp_path):
    src = tmp_path / "s.csv"
    out = tmp_path / "o.csv"
    run_cli("generate", "--rows", "200", "--frac", "0.2", "--seed", "1", "--out", str(src))
    assert run_cli("sample", "--data", str(src), "--sample", "smote:k=3,ratio=0.5",
                   "--out", str(out)) == 0
    d = load_csv(str(out), has_labels=True)
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
    pytest.param("smote:k=0", "k_neighbors must be >= 1", id="smote:k=0"),
    pytest.param("smote:ratio=2", "target_ratio must be in (0,1]", id="smote:ratio=2"),
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


@pytest.mark.parametrize("token, message", [
    pytest.param("upside", "sampling token", id="upside"),
    pytest.param("smote:k=0", "k_neighbors must be >= 1", id="smote:k=0"),
    pytest.param("smote:ratio=2", "target_ratio must be in (0,1]", id="smote:ratio=2"),
])
def test_run_invalid_sampling_leaves_no_artifacts(tmp_path, capsys, token, message):
    out = tmp_path / "nope"
    assert run_cli("run", "--synthetic", "rows=100", "--sample", token,
                   "--out", str(out)) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert message in err


def test_run_stage_error_names_stage(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    out = tmp_path / "out"
    assert run_cli("run", "--data", str(missing), "--learner", "nb",
                   "--out", str(out)) == 1
    assert "stage load" in capsys.readouterr().err


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


def test_grid_cell_failure_marks_err_and_continues(tmp_path):
    def explode(d, seed, params):
        raise RuntimeError("no model today")

    register_learner("boom", explode)
    try:
        out = tmp_path / "g"
        assert run_cli("grid", "--synthetic", "rows=150,frac=0.2", "--seed", "2",
                       "--regimes", "none", "--learners", "nb,boom",
                       "--models", "", "--out", str(out)) == 0
        table = read(out / "table1.csv")
        header, tp = table.strip().split("\n")[:2]
        assert header == "Measure,nb,boom"
        assert tp.split(",")[2] == "ERR"
        assert "no model today" in read(out / "summary.txt")
    finally:
        from rigline.stacking import LEARNERS

        LEARNERS.pop("boom", None)


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


def test_grid_rejects_unknown_learner(tmp_path, capsys):
    assert run_cli("grid", "--synthetic", "rows=100", "--learners", "nb,what",
                   "--out", str(tmp_path / "g")) == 2
    assert "what" in capsys.readouterr().err
