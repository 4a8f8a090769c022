import argparse
import json
from dataclasses import fields

import numpy as np
import pytest

from optlab import lsq, training
from optlab import tune as tune_module
from optlab.cli import (
    ExperimentConfig,
    GenerateOptions,
    OracleOptions,
    TrainOptions,
    TuneOptions,
    build_parser,
    main,
)
from optlab.optim import MethodKind, OptimizerSpec
from optlab.training import MAX_LABELS, TRACE_HEADER, run_training
from reference import gradient, product


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


@pytest.mark.parametrize("command, key, value, message", [
    ("experiment", "iters", True, "must be an integer, got true"),
    ("experiment", "seeds", 2.9, "must be an integer, got 2.9"),
    ("experiment", "n", "12", 'must be an integer, got "12"'),
    ("experiment", "grid_center", True, "must be a number, got true"),
    ("experiment", "stop_loss", "1e-3", 'must be a number, got "1e-3"'),
    ("experiment", "grid_ratio", 10 ** 400, "int too large to convert to float"),
    ("experiment", "methods", [1], "must be a list of strings or a comma-separated string"),
    ("experiment", "methods", {"sgd": 1}, "must be a list of strings or a comma-separated"),
    ("experiment", "n", None, "must not be null"),
    ("experiment", "out", 5, "must be a string, got 5"),
    ("train", "period", 2.0, "must be an integer, got 2.0"),
    ("train", "alpha", None, "must not be null"),
    ("generate", "p", False, "must be a number, got false"),
])
def test_config_values_must_have_their_json_type(command, key, value, message, tmp_path,
                                                 capsys):
    # A bool, a float or a string where an integer belongs used to run
    # (iters=true ran one iteration, seeds=2.9 ran two), and methods=[1]
    # ended in a traceback.
    out = tmp_path / "out"
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"out": str(out), key: value}))
    assert run_cli(command, "--config", str(config)) == 1
    err = capsys.readouterr().err
    assert f"config key {key!r}: {message}" in err
    assert not out.exists() and set(tmp_path.iterdir()) == {config}


def test_config_accepts_each_json_type_its_field_takes(tmp_path):
    # An integer for a float field, null for an optional field and a
    # comma-separated string for the method list.
    out = tmp_path / "exp"
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"n": 12, "seeds": 1, "iters": 50, "m_test": 100,
                                  "grid_center": 1, "methods": "sgd, adam",
                                  "out": str(out)}))
    assert run_cli("experiment", "--config", str(config)) == 0
    saved = json.loads((out / "summary.json").read_text())["config"]
    assert saved["methods"] == ["sgd", "adam"] and saved["grid_center"] == 1.0
    config.write_text(json.dumps({"dataset": str(tmp_path / "missing.json"),
                                  "stop_loss": None, "period": None}))
    assert run_cli("train", "--config", str(config)) == 3  # types pass; the file is missing


@pytest.mark.parametrize("command", list(OPTIONS))
def test_parser_builds_only_the_invoked_commands_flags(command):
    # The help texts and the subcommand names are those of the full parser;
    # only the invoked command has flags.
    full, lean = build_parser(), build_parser(command)
    assert lean.format_help() == full.format_help()

    def subparsers(parser):
        return next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices

    for name, sub in subparsers(lean).items():
        if name == command:
            assert sub.format_help() == subparsers(full)[name].format_help()
        else:
            assert {s for a in sub._actions for s in a.option_strings} == {"-h", "--help"}
    assert build_parser("").format_help() == full.format_help()


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


def test_all_zero_design(tmp_path, capsys):
    ds = lsq.Dataset(n=2, d=3, rows=((), ()), y=np.array([1.0, -1.0]))
    w = np.array([1.0, -2.0, 3.0])
    assert ds.multiplicity.size == 0  # no column survives the quotient
    assert np.array_equal(product(ds, w), [0.0, 0.0])
    assert np.array_equal(gradient(ds, w), np.zeros(3))
    for method in MethodKind:
        res = run_training(ds, OptimizerSpec(method=method, alpha=0.1, epsilon=0.0), 5)
        assert (res.status, res.iterations, res.final_loss) == ("ok", 5, 2.0)
        assert np.array_equal(res.w, np.zeros(3))
    path = tmp_path / "zero.json"
    lsq.save_dataset(ds, path)
    assert run_cli("oracle", "--dataset", str(path), "--out", str(tmp_path / "o.json")) == 2
    assert "Xw = y has no solution: row 1 has no entries and label +1" in capsys.readouterr().err


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
    assert "dev_size must be at least 1, got 0" in capsys.readouterr().err
    assert not tune_out.exists()
    for flags, message in ((["--m-test", "0"], "m_test"), (["--methods", ""], "methods")):
        exp_out = tmp_path / "exp"
        assert run_cli("experiment", "--n", "12", "--iters", "5", "--out", str(exp_out),
                       *flags) == 1
        assert message in capsys.readouterr().err
        assert not exp_out.exists()


def test_tune_rejects_negative_extension_cap(dataset_file, tmp_path, capsys):
    out = tmp_path / "tune.json"
    assert run_cli("tune", "--dataset", str(dataset_file), "--count", "3", "--iters", "5",
                   "--extension-cap", "-1", "--out", str(out)) == 1
    assert "extension_cap must be nonnegative" in capsys.readouterr().err
    assert not out.exists()


def test_tune_all_diverged_says_how_to_recover(tmp_path, capsys):
    path, out = tmp_path / "ds.json", tmp_path / "tune.json"
    assert run_cli("generate", "--n", "100", "--seed", "1", "--out", str(path)) == 0
    assert run_cli("tune", "--dataset", str(path), "--alpha", "100", "--extension-cap", "0",
                   "--iters", "50", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("optlab: every step size diverged for sgd")
    assert "after 0 of 0 extensions, the smallest step 25.0;" in err
    assert "raise --extension-cap or start the grid lower" in err
    assert not out.exists()


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


@pytest.mark.parametrize("flags, message", [
    (["--methods", "sgd,foo"], "unknown method 'foo'"),
    (["--methods", "sgd,adam,sgd"], "methods must not repeat"),
    (["--seeds", "0"], "at least one seed"),
    (["--grid-count", "0"], "count must be at least 1"),
    (["--grid-ratio", "1"], "ratio must exceed 1"),
    (["--extension-cap", "-1"], "extension_cap must be nonnegative"),
    (["--iters", "-1"], "iters must be nonnegative"),
    (["--p", "0.4"], "p must lie in"),
    (["--n", "2", "--methods", "adam"], "no negative example"),
])
def test_experiment_checks_its_config_before_writing(flags, message, tmp_path, capsys):
    # Each of these used to fail only after dataset.json, oracle.json and the
    # output folders were written (a repeated method did not fail at all).
    out = tmp_path / "exp"
    assert run_cli("experiment", "--n", "12", "--iters", "5", "--out", str(out), *flags) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["generate", "--n", str(lsq.MAX_EXAMPLES + 1)],
     f"n = {lsq.MAX_EXAMPLES + 1} exceeds the ceiling of {lsq.MAX_EXAMPLES} examples"),
    (["experiment", "--n", str(lsq.MAX_EXAMPLES + 1)],
     f"n = {lsq.MAX_EXAMPLES + 1} exceeds the ceiling of {lsq.MAX_EXAMPLES} examples"),
    (["experiment", "--m-test", str(MAX_LABELS + 1)],
     f"m_test = {MAX_LABELS + 1} exceeds the ceiling of {MAX_LABELS} labels per stream"),
    (["train", "--dev-size", str(MAX_LABELS + 1)],
     f"dev_size = {MAX_LABELS + 1} exceeds the ceiling of {MAX_LABELS} labels per stream"),
    (["tune", "--dev-size", str(MAX_LABELS + 1)],
     f"dev_size = {MAX_LABELS + 1} exceeds the ceiling of {MAX_LABELS} labels per stream"),
    (["train", "--dev-size", "-1"], "dev_size must be at least 1, got -1"),
    (["train", "--dev-size", "0"], "dev_size must be at least 1, got 0"),
    (["tune", "--dev-size", "-1"], "dev_size must be at least 1, got -1"),
    (["tune", "--dev-size", "0"], "dev_size must be at least 1, got 0"),
], ids=["generate_n", "experiment_n", "experiment_m_test", "train_dev_size", "tune_dev_size",
        "train_dev_size_negative", "train_dev_size_zero", "tune_dev_size_negative",
        "tune_dev_size_zero"])
def test_ceilings_are_usage_errors_before_anything_is_allocated(argv, message, tmp_path,
                                                                capsys, monkeypatch):
    # One past each ceiling, and each empty or negative label stream: exit 1
    # with a message naming the limit, before any random draw or dataset
    # read (train and tune name a dataset that does not exist: reading it
    # would exit 3) and before any output.
    def no_draws(*args, **kwargs):
        raise AssertionError("a random stream was made")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    out = tmp_path / "out"
    if argv[0] in ("train", "tune"):
        argv = [*argv, "--dataset", str(tmp_path / "missing.json")]
    assert run_cli(*argv, "--out", str(out)) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_dataset_file_above_the_ceiling_is_a_usage_error(dataset_file, tmp_path, capsys,
                                                        monkeypatch):
    # The file is measured before it is read: with the ceiling one byte below
    # its size, neither `train` nor `oracle` parses it.
    size = dataset_file.stat().st_size
    with monkeypatch.context() as patch:
        patch.setattr(lsq, "MAX_DATASET_BYTES", size - 1)
        patch.setattr(json, "load", lambda *args, **kwargs: pytest.fail("the file was read"))
        for command in ("train", "oracle"):
            out = tmp_path / command
            assert run_cli(command, "--dataset", str(dataset_file), "--out", str(out)) == 1
            assert (f"{dataset_file}: {size} bytes exceeds the ceiling of {size - 1} bytes "
                    "for a dataset file") in capsys.readouterr().err
            assert not out.exists()
    monkeypatch.setattr(lsq, "MAX_DATASET_BYTES", size)  # a file at the ceiling loads
    assert lsq.load_dataset(dataset_file).n == 12


def test_tune_stack_above_the_ceiling_is_a_usage_error(dataset_file, tmp_path, capsys,
                                                      monkeypatch):
    # The default tune round is 5 step sizes times 5 seeds, 25 untraced rows
    # of the orbit quotient's 2n + 2 = 26 transposed-fold terms (16 bytes
    # each) and 2000 dev labels (8 bytes each).  With the ceiling one below
    # that, the round fails before its labels are drawn.
    ds = lsq.load_dataset(dataset_file)
    assert ds.orbits.terms == 26
    size = 25 * (16 * 26 + 8 * 2000)
    out = tmp_path / "tune.json"
    argv = ["tune", "--dataset", str(dataset_file), "--iters", "20", "--out", str(out)]
    with monkeypatch.context() as patch:
        patch.setattr(training, "MAX_STACK_SIZE", size - 1)
        patch.setattr(tune_module, "dev_labels_for",
                      lambda *args: pytest.fail("dev labels were drawn"))
        assert run_cli(*argv) == 1
        assert (f"a lockstep stack of 25 rows has size {size}, above the ceiling of {size - 1} "
                "(training.MAX_STACK_SIZE") in capsys.readouterr().err
        assert not out.exists()
    monkeypatch.setattr(training, "MAX_STACK_SIZE", size)  # a stack at the ceiling runs
    assert run_cli(*argv) == 0


def test_experiment_stack_above_the_ceiling_fails_before_the_dataset_is_drawn(
        tmp_path, capsys, monkeypatch):
    # An experiment's tallest stacks are a tune's round 0, 5 untraced rows of
    # the synthetic design's 2n + 2 transposed-fold terms (16 bytes each), and
    # a final run, one traced row of as many terms, 2000 dev labels (8 bytes
    # each) and 5n + 3 features (8 bytes each).  At n = 12 the final run is
    # the taller, at n = 1 000 round 0.  With the ceiling one below the
    # taller, the experiment fails before anything is drawn or written; at
    # it, the dataset is drawn.
    drawn = []

    def generate(*args):
        drawn.append(args)
        raise ValueError("the dataset was drawn")

    monkeypatch.setattr(lsq, "generate_synthetic", generate)
    for n, rows, size in ((12, 1, 16 * 26 + 8 * 2000 + 8 * 63), (1000, 5, 5 * 16 * 2002)):
        out = tmp_path / f"exp{n}"
        argv = ["experiment", "--n", str(n), "--iters", "5", "--out", str(out)]
        monkeypatch.setattr(training, "MAX_STACK_SIZE", size - 1)
        assert run_cli(*argv) == 1
        assert (f"a lockstep stack of {rows} rows has size {size}, above the ceiling of "
                f"{size - 1} (training.MAX_STACK_SIZE") in capsys.readouterr().err
        assert not drawn and not out.exists()
        monkeypatch.setattr(training, "MAX_STACK_SIZE", size)  # a stack at the ceiling passes
        assert run_cli(*argv) == 1
        assert "the dataset was drawn" in capsys.readouterr().err
        assert drawn.pop() == (n, 0.75, 1)


@pytest.mark.parametrize("argv, message", [
    (["train", "--iters", "-1"], "iters must be nonnegative, got -1"),
    (["train", "--stop-loss", "nan"], "stop_loss must be a number, got nan"),
    (["train", "--trace-every", "0"], "trace_every must be at least 1, got 0"),
    (["train", "--alpha", "nan"], "alpha must be positive, got nan"),
    (["tune", "--seeds", "0"], "need at least one seed, got 0"),
], ids=["train_iters", "train_stop_loss", "train_trace_every", "train_alpha", "tune_seeds"])
def test_run_options_are_checked_before_the_dataset_is_read(argv, message, dataset_file,
                                                           tmp_path, capsys, monkeypatch):
    # `train` and `tune` build their spec, policy and grid and check their
    # run options before they load the dataset, let alone run anything.
    def fail(name):
        def patched(*args, **kwargs):
            raise AssertionError(f"{name} ran")
        return patched

    monkeypatch.setattr(lsq, "load_dataset", fail("lsq.load_dataset"))
    monkeypatch.setattr(training, "run_lockstep", fail("training.run_lockstep"))
    out = tmp_path / "out"
    assert run_cli(*argv, "--dataset", str(dataset_file), "--out", str(out)) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["tune", "--ratio", "nan"], "ratio must exceed 1, got nan"),
    (["tune", "--alpha", "nan"], "center must be positive, got nan"),
    (["tune", "--stop-loss", "nan"], "stop_loss must be a number, got nan"),
    (["experiment", "--grid-center", "nan"], "center must be positive, got nan"),
    (["experiment", "--grid-ratio", "nan"], "ratio must exceed 1, got nan"),
    (["experiment", "--stop-loss", "nan"], "stop_loss must be a number, got nan"),
    (["train", "--epsilon", "nan"], "epsilon must be nonnegative, got nan"),
    (["train", "--g-init", "nan"], "g_init must be nonnegative, got nan"),
    (["train", "--stop-loss", "nan"], "stop_loss must be a number, got nan"),
], ids=["tune_ratio", "tune_alpha", "tune_stop_loss", "experiment_grid_center",
        "experiment_grid_ratio", "experiment_stop_loss", "train_epsilon", "train_g_init",
        "train_stop_loss"])
def test_nan_fails_each_range_check(argv, message, dataset_file, tmp_path, capsys,
                                   monkeypatch):
    # A NaN compares false with every bound, so a check written as
    # `x <= bound` lets it through: these ran on (a grid of NaNs, "every step
    # size diverged", "diverged", a stop loss never met) instead of failing.
    # `experiment` checks its whole config before it draws the dataset.
    # `tune` checks its budget before its first round draws dev labels.
    out = tmp_path / "out"
    if argv[0] == "experiment":
        monkeypatch.setattr(lsq, "generate_synthetic",
                            lambda *args: pytest.fail("the dataset was drawn"))
        argv = [*argv, "--n", "12", "--iters", "5"]
    else:
        monkeypatch.setattr(tune_module, "dev_labels_for",
                            lambda *args: pytest.fail("dev labels were drawn"))
        argv = [*argv, "--dataset", str(dataset_file)]
    assert run_cli(*argv, "--out", str(out)) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("fields, message", [
    ({"n": 1.7}, "field 'n' must be an integer, got 1.7"),
    ({"n": True}, "field 'n' must be an integer, got True"),
    ({"n": 0}, "field 'n' must be at least 1, got 0"),
    ({"d": -1}, "field 'd' must be at least 0, got -1"),
    ({"d": 63.0}, "field 'd' must be an integer, got 63.0"),
    ({"seed": 2.5}, "field 'seed' must be an integer, got 2.5"),
    ({"rejections": -4}, "field 'rejections' must be at least 0, got -4"),
    ({"rejections": "0"}, "field 'rejections' must be an integer, got '0'"),
    ({"p": 5.0}, "field 'p' must be null or lie in (1/2, 1), got 5.0"),
    ({"p": 0.5}, "field 'p' must be null or lie in (1/2, 1), got 0.5"),
    ({"p": float("nan")}, "field 'p' must be null or lie in (1/2, 1), got nan"),
    ({"p": "0.75"}, "field 'p' must be null or lie in (1/2, 1), got '0.75'"),
])
def test_dataset_document_fields_are_checked(fields, message, dataset_file, tmp_path, capsys):
    # `int()` used to truncate 1.7 and take true; p = 5 ran an all-positive
    # dev stream; n = 0 and d = -1 failed inside numpy.
    doc = {**json.loads(dataset_file.read_text(encoding="utf-8")), **fields}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for command in ("train", "oracle"):
        out = tmp_path / command
        assert run_cli(command, "--dataset", str(path), "--out", str(out)) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_failed_experiment_writes_nothing(tmp_path, capsys):
    # Every step of the grid around 1000 diverges for sgd, and the cap allows
    # no extension: the run fails after the dataset and oracles are computed.
    out = tmp_path / "exp"
    code = run_cli("experiment", "--n", "20", "--grid-center", "1000", "--extension-cap", "0",
                   "--iters", "200", "--out", str(out))
    assert code == 2
    assert "diverged" in capsys.readouterr().err
    assert not out.exists()


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
