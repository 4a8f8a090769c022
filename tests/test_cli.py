import argparse
import json
from dataclasses import fields

import numpy as np
import pytest

from optlab import lsq
from optlab.cli import (
    ExperimentConfig,
    GenerateOptions,
    OracleOptions,
    TrainOptions,
    TuneOptions,
    build_parser,
    main,
)
from optlab.training import TRACE_HEADER


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def dataset_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "ds.json"
    code = run_cli("generate", "--n", "12", "--p", "0.75", "--seed", "2",
                   "--out", str(path))
    assert code == 0
    return path


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def test_generate_writes_valid_dataset(dataset_file, capsys):
    ds = lsq.load_dataset(dataset_file)
    assert ds.n == 12 and ds.label_sum > 0


def test_generate_rejects_small_p(tmp_path):
    assert run_cli("generate", "--p", "0.4", "--out", str(tmp_path / "x.json")) == 1


def test_generate_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli("generate", "--n", "9", "--p", "0.8", "--seed", "5", "--out", str(a)) == 0
    assert run_cli("generate", "--n", "9", "--p", "0.8", "--seed", "5", "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_unknown_method_is_usage_error(dataset_file, tmp_path):
    code = run_cli("train", "--dataset", str(dataset_file), "--method", "lion",
                   "--out", str(tmp_path / "run"))
    assert code == 1


def test_missing_dataset_is_io_error(tmp_path):
    code = run_cli("train", "--dataset", str(tmp_path / "nope.json"),
                   "--method", "sgd", "--out", str(tmp_path / "run"))
    assert code == 3


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def test_train_writes_trace_and_weights(dataset_file, tmp_path):
    out = tmp_path / "run"
    code = run_cli(
        "train", "--dataset", str(dataset_file), "--method", "sgd",
        "--alpha", "0.002", "--iters", "500", "--stop-loss", "1e-10",
        "--out", str(out),
    )
    assert code == 0
    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[0] == TRACE_HEADER
    weights = json.loads((out / "weights.json").read_text())
    assert weights["status"] == "ok"
    assert len(weights["w"]) == lsq.load_dataset(dataset_file).d
    run_doc = json.loads((out / "run.json").read_text())
    assert run_doc["converged"] is True


def test_train_zero_iterations_row(dataset_file, tmp_path):
    out = tmp_path / "run0"
    code = run_cli("train", "--dataset", str(dataset_file), "--method", "sgd",
                   "--iters", "0", "--out", str(out))
    assert code == 0
    lines = (out / "trace.csv").read_text().splitlines()
    assert len(lines) == 2
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[2]) == 12.0


def test_train_divergence_exit_code(dataset_file, tmp_path):
    out = tmp_path / "boom"
    code = run_cli("train", "--dataset", str(dataset_file), "--method", "sgd",
                   "--alpha", "50", "--iters", "4000", "--out", str(out))
    assert code == 2
    run_doc = json.loads((out / "run.json").read_text())
    assert run_doc["status"] == "diverged"


@pytest.mark.parametrize("method, alpha", [("adagrad", "0.25"), ("sgd", "1e-4")])
def test_train_is_deterministic(tmp_path, method, alpha):
    dataset = tmp_path / "ds.json"
    assert run_cli("generate", "--n", "200", "--seed", "3", "--out", str(dataset)) == 0
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert run_cli("train", "--dataset", str(dataset), "--method", method,
                       "--alpha", alpha, "--iters", "30", "--out", str(out)) == 0
    for name in ("trace.csv", "weights.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_train_config_file_with_flag_override(dataset_file, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "dataset": str(dataset_file), "method": "sgd", "alpha": 0.002,
        "iters": 50, "out": str(tmp_path / "from_config"),
    }))
    code = run_cli("train", "--config", str(config), "--iters", "10")
    assert code == 0
    run_doc = json.loads((tmp_path / "from_config" / "run.json").read_text())
    assert run_doc["iterations"] == 10
    assert run_doc["options"]["alpha"] == 0.002


OPTIONS = {
    "generate": GenerateOptions,
    "train": TrainOptions,
    "oracle": OracleOptions,
    "tune": TuneOptions,
    "experiment": ExperimentConfig,
}


@pytest.mark.parametrize("command", list(OPTIONS))
def test_config_rejects_unknown_keys(command, tmp_path, capsys):
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    flags = {s for a in subparsers.choices[command]._actions for s in a.option_strings}
    names = {f.name for f in fields(OPTIONS[command])}
    assert flags - {"-h", "--help"} == {"--" + n.replace("_", "-") for n in names} | {"--config"}

    config = tmp_path / "bad.json"
    for key in ("grandient", "workers"):
        config.write_text(json.dumps({key: 1}))
        assert run_cli(command, "--config", str(config)) == 1
        assert "unknown config keys" in capsys.readouterr().err
        assert run_cli(command, f"--{key}", "1") == 1


@pytest.mark.parametrize("dataset_text, config_text, flags", [
    (None, None, ["--trace-every", "0"]),
    (None, None, ["--trace-every", "-3"]),
    ("{}", None, []),
    ("[1]", None, []),
    ('{"n": 1, "d": 4, "labels": [1], "rows": 5}', None, []),
    (None, "[]", []),
    (None, None, ["--decay", "fixed_decay"]),
    (None, None, ["--period", "5"]),
    (None, None, ["--decay", "dev_decay", "--period", "5"]),
    (None, None, ["--dev-size", "0"]),
], ids=["trace_every_0", "trace_every_negative", "empty_dataset", "dataset_not_object",
        "dataset_rows_not_list", "config_not_object", "fixed_decay_without_period",
        "period_without_decay", "period_with_dev_decay", "dev_size_0"])
def test_malformed_input_is_usage_error(dataset_text, config_text, flags, dataset_file,
                                        tmp_path, capsys):
    dataset = dataset_file
    if dataset_text is not None:
        dataset = tmp_path / "bad_dataset.json"
        dataset.write_text(dataset_text)
    if config_text is not None:
        config = tmp_path / "bad_config.json"
        config.write_text(config_text)
        flags = ["--config", str(config)]
    out = tmp_path / "run"
    assert run_cli("train", "--dataset", str(dataset), "--iters", "5", "--out", str(out),
                   *flags) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("optlab: "), err
    assert not out.exists()


def test_config_values_take_the_field_types(dataset_file, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"dataset": str(dataset_file), "alpha": 1, "iters": 0,
                                  "period": None, "out": str(tmp_path / "run")}))
    assert run_cli("train", "--config", str(config)) == 0
    options = json.loads((tmp_path / "run" / "run.json").read_text())["options"]
    assert isinstance(options["alpha"], float) and options["period"] is None
    config.write_text(json.dumps({"alpha": "fast"}))
    assert run_cli("train", "--config", str(config)) == 1

    config.write_text(json.dumps({"n": 12, "seeds": 1, "iters": 50, "m_test": 100,
                                  "methods": ["sgd"], "out": str(tmp_path / "exp")}))
    assert run_cli("experiment", "--config", str(config), "--grid-count", "3") == 0
    summary = json.loads((tmp_path / "exp" / "summary.json").read_text())
    assert summary["config"]["methods"] == ["sgd"]
    assert summary["config"]["grid_count"] == 3
    assert "out" not in summary["config"]


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def test_oracle_report_on_synthetic(dataset_file, tmp_path):
    out = tmp_path / "oracle.json"
    assert run_cli("oracle", "--dataset", str(dataset_file), "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["sign_available"] is True
    assert doc["sign"]["c"] == 4.0
    assert doc["sign"]["tau"] == 0.25
    assert doc["min_norm_loss"] <= 1e-16
    assert doc["analytic_test_error"]["sign"] == 0.25
    assert doc["analytic_test_error"]["min_norm"] == 0.0


def test_oracle_reports_both_closed_form_pairs(tmp_path):
    ds = lsq.generate_synthetic(3, 0.6, seed=1)  # n_pos=2, n_neg=1
    path = tmp_path / "ds21.json"
    lsq.save_dataset(ds, path)
    out = tmp_path / "oracle21.json"
    assert run_cli("oracle", "--dataset", str(path), "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["closed_form_alphas"]["alpha_plus"] == pytest.approx(0.175)
    assert doc["closed_form_alphas"]["alpha_minus"] == pytest.approx(0.225)
    assert doc["exact_closed_form_alphas"]["alpha_plus"] == pytest.approx(1 / 6)
    assert doc["min_norm"]["alpha_plus"] == pytest.approx(1 / 6)


def test_oracle_flags_unavailable_sign(tmp_path):
    # hand-built design whose label correlation has a zero on an active column
    ds = lsq.Dataset(
        n=2, d=2,
        rows=(((1, 1.0), (2, 1.0)), ((1, 1.0), (2, -1.0))),
        y=np.array([1.0, 1.0]),
    )
    path = tmp_path / "toy.json"
    lsq.save_dataset(ds, path)
    out = tmp_path / "oracle.json"
    assert run_cli("oracle", "--dataset", str(path), "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["sign_available"] is False
    assert doc["sign"] is None
    assert "min_norm" in doc


def test_dev_stream_needs_dataset_p(tmp_path, capsys):
    # a hand-built design has no p, so no dev labels can be drawn
    ds = lsq.Dataset(
        n=2, d=2,
        rows=(((1, 1.0), (2, 1.0)), ((1, 1.0), (2, -1.0))),
        y=np.array([1.0, 1.0]),
    )
    path = tmp_path / "toy.json"
    lsq.save_dataset(ds, path)
    note = "no dev stream runs (dev_size=None)"
    out = tmp_path / "run"
    assert run_cli("train", "--dataset", str(path), "--iters", "5", "--out", str(out)) == 0
    assert note in capsys.readouterr().err
    assert json.loads((out / "run.json").read_text())["options"]["dev_size"] is None
    assert run_cli("tune", "--dataset", str(path), "--alpha", "0.1", "--count", "3",
                   "--iters", "5", "--seeds", "2", "--out", str(tmp_path / "tune.json")) == 0
    assert note in capsys.readouterr().err
    doc = json.loads((tmp_path / "tune.json").read_text())
    assert all(t["best_dev"] is None for t in doc["trials"])


# ---------------------------------------------------------------------------
# tune
# ---------------------------------------------------------------------------


def test_empty_samples_are_usage_errors(dataset_file, tmp_path, capsys):
    tune_out = tmp_path / "tune.json"
    assert run_cli("tune", "--dataset", str(dataset_file), "--count", "3", "--iters", "5",
                   "--seeds", "2", "--dev-size", "0", "--out", str(tune_out)) == 1
    assert "must not be empty" in capsys.readouterr().err
    assert not tune_out.exists()
    for flags, message in ((["--m-test", "0"], "m_test"), (["--methods", ""], "methods")):
        exp_out = tmp_path / "exp"
        assert run_cli("experiment", "--n", "12", "--iters", "5", "--out", str(exp_out),
                       *flags) == 1
        assert message in capsys.readouterr().err
        assert not exp_out.exists()


def test_tune_command(dataset_file, tmp_path):
    out = tmp_path / "tune.json"
    code = run_cli(
        "tune", "--dataset", str(dataset_file), "--method", "adagrad",
        "--alpha", "0.25", "--count", "3", "--iters", "400", "--seeds", "2",
        "--dev-size", "200", "--out", str(out),
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["winner"]["alpha"] > 0
    assert len(doc["trials"]) >= 6


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------


def test_experiment_small_run(tmp_path):
    out = tmp_path / "exp"
    code = run_cli(
        "experiment", "--n", "12", "--p", "0.75", "--seed", "2", "--seeds", "2",
        "--iters", "4000", "--m-test", "2000", "--out", str(out),
    )
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    rows = {r["method"]: r for r in summary["methods"]}
    assert set(rows) == {"sgd", "hb", "nag", "adagrad", "rmsprop", "adam"}
    for name in ("sgd", "hb", "nag"):
        assert rows[name]["empirical_test_error"] == 0.0
    for name in ("adagrad", "rmsprop", "adam"):
        assert abs(rows[name]["empirical_test_error"]
                   - rows[name]["analytic_test_error"]) < 0.05
    csv_lines = (out / "summary.csv").read_text().splitlines()
    assert len(csv_lines) == 7
    # summary.json sorts its keys; the CSV keeps the row's own order
    assert sorted(csv_lines[0].split(",")) == sorted(summary["methods"][0])
    for name in rows:
        trace = (out / "traces" / f"{name}.csv").read_text().splitlines()
        assert trace[0] == TRACE_HEADER
