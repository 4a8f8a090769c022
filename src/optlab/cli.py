"""Command-line entry point: `optlab generate|train|oracle|tune|experiment`.

Each command's options are the fields of one frozen dataclass, set by
`--flag` (the field name with `_` -> `-`) or by field name in `--config FILE`
(flags override file values).  Every command is deterministic: identical
configuration produces byte-identical output files.  Exit codes: 0 ok,
1 usage error, 2 numerical failure (divergence, singular systems), 3 I/O.
"""

import argparse
import csv
import json
import sys
import typing
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import lsq, oracle
from .errors import LemmaPreconditionError, OptlabError
from .optim import ADAPTIVE_METHODS, MethodKind, OptimizerSpec, spec_to_document
from .schedules import DECAY_KINDS, DecayPolicy
from .training import RunResult, check_label_stream, check_stack, run_training, write_trace_csv
from .tune import check_tune_budget, make_log_grid, tune, tune_report_to_document

__all__ = ["main", "run_experiment", "ExperimentConfig", "GenerateOptions", "TrainOptions",
           "OracleOptions", "TuneOptions"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3

ALL_METHODS = tuple(m.value for m in MethodKind)

# Field metadata read by `build_parser`.
_METHOD = {"choices": ALL_METHODS}
_DECAY = {"choices": DECAY_KINDS}

# Spawn keys carving independent RNG streams out of one experiment seed.
_TEST_STREAM = 101
_DEV_STREAM = 202


class _Parser(argparse.ArgumentParser):
    """argparse that exits with the usage code instead of 2."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _policy_from(options) -> DecayPolicy:
    return DecayPolicy(kind=options.decay, delta=options.delta, period=options.period)


def _name_list(value) -> tuple[str, ...]:
    """Comma-separated names (a flag) or a list of names (a config file)."""
    if isinstance(value, str):
        return tuple(m.strip() for m in value.split(",") if m.strip())
    return tuple(value)


def _parse_fn(hint):
    """Converter for an options field of type `hint`; `T | None` parses as T."""
    if typing.get_origin(hint) is tuple:
        return _name_list
    kinds = [t for t in typing.get_args(hint) if t is not type(None)]
    return kinds[0] if kinds else hint


# The JSON types a config value may have, by field type (a bool is not a number).
_JSON_TYPES = {int: ((int,), "an integer"), float: ((int, float), "a number"),
               str: ((str,), "a string")}


def _config_value(hint, value):
    """A config file's value for an options field of type `hint`, which must
    have the field's JSON type; `null` only for a `T | None` field."""
    if value is None:
        if type(None) in typing.get_args(hint):
            return None
        raise ValueError("must not be null")
    if typing.get_origin(hint) is tuple:
        if isinstance(value, str) or (isinstance(value, list)
                                      and all(isinstance(v, str) for v in value)):
            return _name_list(value)
        raise ValueError("must be a list of strings or a comma-separated string, "
                         f"got {json.dumps(value)}")
    kind = _parse_fn(hint)
    kinds, name = _JSON_TYPES[kind]
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ValueError(f"must be {name}, got {json.dumps(value)}")
    return kind(value)


def _merge_options(cls, args: argparse.Namespace):
    """Field defaults <- config file <- explicit flags, as one `cls`."""
    hints = {f.name: f.type for f in fields(cls)}
    values = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            file_values = json.load(fh)
        if not isinstance(file_values, dict):
            raise ValueError(f"config file {args.config}: the top level must be a JSON object")
        unknown = set(file_values) - set(hints)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, value in file_values.items():
            try:
                values[key] = _config_value(hints[key], value)
            except (ValueError, OverflowError) as exc:  # OverflowError: an int beyond float
                raise ValueError(f"config key {key!r}: {exc}") from None
    for f in fields(cls):
        value = getattr(args, f.name)
        if value is not None:
            values[f.name] = value
    return cls(**values)


def _outcome(result: RunResult) -> dict:
    """How a run ended, as `weights.json`, `run.json` and a summary row record it."""
    return {"status": result.status, "converged": result.converged,
            "iterations": result.iterations, "final_train_loss": result.final_loss}


def _weights_document(spec: OptimizerSpec, result: RunResult) -> dict:
    return {"spec": spec_to_document(spec), **_outcome(result), "w": result.w}


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GenerateOptions:
    n: int = 100
    p: float = 0.75
    seed: int = 1
    out: str = "dataset.json"


def cmd_generate(options: GenerateOptions) -> int:
    ds = lsq.generate_synthetic(options.n, options.p, options.seed)
    out = Path(options.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    lsq.save_dataset(ds, out)
    print(
        f"wrote {out}: n={ds.n} d={ds.d} n_pos={ds.n_pos} n_neg={ds.n_neg} "
        f"label_sum={ds.label_sum} rejections={ds.rejections}"
    )
    return EXIT_OK


def _dev_size_for(ds: lsq.Dataset, dev_size: int | None) -> int | None:
    """`dev_size`, or None, with a note on stderr, when `ds` has no p to draw dev labels with."""
    if dev_size is None or ds.p is not None:
        return dev_size
    print("note: the dataset has no label probability p, so no dev stream runs "
          "(dev_size=None)", file=sys.stderr)
    return None


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainOptions:
    dataset: str = "dataset.json"
    method: str = field(default="sgd", metadata=_METHOD)
    alpha: float = 0.1
    beta: float = 0.9
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    g_init: float = 0.0
    iters: int = 1000
    seed: int = 1
    decay: str = field(default="none", metadata=_DECAY)
    delta: float = 0.9
    period: int | None = None
    dev_size: int | None = 2000
    stop_loss: float | None = None
    trace_every: int | None = None
    out: str = "run"


def cmd_train(options: TrainOptions) -> int:
    if options.dev_size is not None:
        check_label_stream("dev_size", options.dev_size)
    ds = lsq.load_dataset(options.dataset)
    spec = OptimizerSpec(MethodKind.parse(options.method), **{
        f.name: getattr(options, f.name) for f in fields(OptimizerSpec) if f.name != "method"})
    policy = _policy_from(options)
    options = replace(options, dev_size=_dev_size_for(ds, options.dev_size))
    dev_labels = None
    if options.dev_size is not None:
        ss = np.random.SeedSequence(entropy=options.seed, spawn_key=(_DEV_STREAM,))
        dev_labels = lsq.dev_labels_for(ds.p, options.dev_size, ss)
    result = run_training(ds, spec, options.iters, policy=policy, dev_labels=dev_labels,
                          stop_loss=options.stop_loss, trace_every=options.trace_every)
    out = Path(options.out)
    out.mkdir(parents=True, exist_ok=True)
    write_trace_csv(result.trace, out / "trace.csv")
    lsq.write_json(_weights_document(spec, result), out / "weights.json")
    lsq.write_json({"options": asdict(options), **_outcome(result), "failure": result.failure},
                   out / "run.json")
    print(f"status={result.status} iterations={result.iterations} "
          f"final_train_loss={result.final_loss!r}")
    return EXIT_OK if result.status == "ok" else EXIT_NUMERICAL


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OracleOptions:
    dataset: str = "dataset.json"
    out: str = "oracle.json"


def _oracle_report(ds: lsq.Dataset):
    """The oracle document for `ds`, with the min-norm solution and the sign
    solution (None when no scalar c exists) it was computed from."""
    mn = oracle.min_norm_solution(ds)
    report: dict = {
        "n": ds.n,
        "n_pos": ds.n_pos,
        "n_neg": ds.n_neg,
        "min_norm": oracle.solution_to_document(mn),
        "min_norm_margin": lsq.margin(ds, mn.w),
        "min_norm_loss": lsq.loss(ds, mn.w),
    }
    try:
        sg = oracle.sign_solution(ds)
    except LemmaPreconditionError:
        sg = None
    report["sign_available"] = sg is not None
    report["sign"] = None
    if sg is not None:
        report["sign"] = oracle.solution_to_document(sg)
        report["sign_margin"] = lsq.margin(ds, sg.w)
        report["sign_loss"] = lsq.loss(ds, sg.w)
    if ds.p is not None and ds.n_pos >= 1 and ds.n_neg >= 1:
        a_plus, a_minus = oracle.synthetic_alphas(ds.n_pos, ds.n_neg)
        e_plus, e_minus = oracle.exact_synthetic_alphas(ds.n_pos, ds.n_neg)
        report["closed_form_alphas"] = {"alpha_plus": a_plus, "alpha_minus": a_minus}
        report["exact_closed_form_alphas"] = {"alpha_plus": e_plus, "alpha_minus": e_minus}
        report["analytic_test_error"] = {
            "sign": oracle.analytic_test_error("sign", ds.p, ds.n_pos, ds.n_neg),
            "min_norm": oracle.analytic_test_error("min_norm", ds.p, ds.n_pos, ds.n_neg),
        }
    return report, mn, sg


def cmd_oracle(options: OracleOptions) -> int:
    ds = lsq.load_dataset(options.dataset)
    report, _, _ = _oracle_report(ds)
    out = Path(options.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    lsq.write_json(report, out)
    c_text = report["sign"]["c"] if report["sign"] else "unavailable"
    print(f"wrote {out}: sign oracle c={c_text}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# tune
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TuneOptions:
    dataset: str = "dataset.json"
    method: str = field(default="sgd", metadata=_METHOD)
    alpha: float = field(default=0.5, metadata={"help": "grid center"})
    ratio: float = 2.0
    count: int = 5
    iters: int = 2000
    seeds: int = 5
    decay: str = field(default="none", metadata=_DECAY)
    delta: float = 0.9
    period: int | None = None
    dev_size: int | None = 2000
    extension_cap: int = 8
    stop_loss: float | None = 1e-12
    out: str = "tune.json"


def cmd_tune(options: TuneOptions) -> int:
    if options.dev_size is not None:
        check_label_stream("dev_size", options.dev_size)
    ds = lsq.load_dataset(options.dataset)
    spec = OptimizerSpec(MethodKind.parse(options.method), alpha=1.0)
    grid = make_log_grid(options.alpha, options.ratio, options.count)
    policy = _policy_from(options)
    dev_size = _dev_size_for(ds, options.dev_size)
    report = tune(ds, spec, grid, policy, options.iters, options.seeds, dev_size=dev_size,
                  extension_cap=options.extension_cap, stop_loss=options.stop_loss)
    out = Path(options.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    lsq.write_json(tune_report_to_document(report), out)
    print(
        f"winner alpha={report.winner.spec.alpha!r} metric={report.winner.metric_mean!r} "
        f"extensions={report.extensions}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    n: int = 100
    p: float = 0.75
    seed: int = 1
    seeds: int = 5
    iters: int = 40000
    m_test: int = 20000
    stop_loss: float = 1e-12
    grid_center: float = 0.5
    grid_ratio: float = 2.0
    grid_count: int = 5
    extension_cap: int = 8
    methods: tuple[str, ...] = field(
        default=ALL_METHODS, metadata={"help": "comma-separated subset of methods"}
    )
    out: str = "experiment"


def base_spec_for(method: MethodKind) -> OptimizerSpec:
    """Experiment defaults: momentum 0.9; adaptive methods run exact
    (epsilon 0, zero accumulator) so their fixed point is the sign solution."""
    if method not in ADAPTIVE_METHODS:
        return OptimizerSpec(method=method, alpha=1.0, beta=0.9)
    if method is MethodKind.RMSPROP:
        return OptimizerSpec(method=method, alpha=1.0, beta2=0.9, epsilon=0.0, g_init=0.0)
    return OptimizerSpec(method=method, alpha=1.0, beta1=0.9, beta2=0.999,
                         epsilon=0.0, g_init=0.0)


def _relative_distance(w: np.ndarray, target: np.ndarray) -> float:
    return lsq.l2_norm(w - target) / lsq.l2_norm(target)


def run_experiment(cfg: ExperimentConfig, out_dir) -> dict:
    """Tune and train every method, compare against both oracles, and then
    write every document to `out_dir` (not `cfg.out`): a run that fails
    writes nothing.  Returns the summary dictionary."""
    # The whole config is checked before anything is computed.
    check_label_stream("m_test", cfg.m_test)
    methods = [MethodKind.parse(name) for name in cfg.methods]
    if not methods:
        raise ValueError("methods must name at least one method")
    if len(set(methods)) < len(methods):
        raise ValueError(f"methods must not repeat: {', '.join(cfg.methods)}")
    check_tune_budget(cfg.iters, cfg.seeds, cfg.extension_cap, cfg.stop_loss)
    grid = make_log_grid(cfg.grid_center, cfg.grid_ratio, cfg.grid_count)
    # The tallest stack is a tune's round 0: a row per grid value, no dev labels.
    check_stack(len(grid.values), sum(lsq.synthetic_shape(cfg.n)))
    ds = lsq.generate_synthetic(cfg.n, cfg.p, cfg.seed)
    # A synthetic design always has the sign solution (c = 4).
    oracle_doc, mn, sg = _oracle_report(ds)
    if "analytic_test_error" not in oracle_doc:  # its closed forms need both classes
        raise ValueError(f"the drawn dataset has no negative example (n={cfg.n}, seed={cfg.seed})")
    test_labels = lsq.dev_labels_for(
        cfg.p, cfg.m_test, np.random.SeedSequence(entropy=cfg.seed, spawn_key=(_TEST_STREAM,))
    )
    test_counts = lsq.label_counts(test_labels)
    dev_labels = lsq.dev_labels_for(
        cfg.p, 2000, np.random.SeedSequence(entropy=cfg.seed, spawn_key=(_DEV_STREAM,))
    )

    rows, runs = [], []  # runs: (method, tune report, final run), written after the loop
    for method in methods:
        adaptive = method in ADAPTIVE_METHODS
        report = tune(ds, base_spec_for(method), grid, DecayPolicy(), cfg.iters, cfg.seeds,
                      dev_size=None, extension_cap=cfg.extension_cap, stop_loss=cfg.stop_loss)
        final = run_training(ds, report.winner.spec, cfg.iters, dev_labels=dev_labels,
                             stop_loss=cfg.stop_loss)
        runs.append((method, report, final))

        w = final.w
        (empirical,) = lsq.error_rates(w[None], [test_counts])
        dist_mn = _relative_distance(w, mn.w)
        dist_sg = _relative_distance(w, sg.w)
        # A tuned winner ends "ok", so the last trace row is the final iterate's.
        last = final.trace[-1]
        trace_ratio = max(r.rowspan_resid / (1.0 + r.w_l2) for r in final.trace)
        if adaptive:
            verdict_gen = abs(empirical - (1.0 - cfg.p)) <= 0.02
            verdict_oracle = dist_sg <= 1e-4
        else:
            verdict_gen = empirical == 0.0
            verdict_oracle = dist_mn <= 1e-4
        rows.append(
            {
                "method": method.value,
                "family": "adaptive" if adaptive else "non_adaptive",
                "alpha": report.winner.spec.alpha,
                "extensions": report.extensions,
                **_outcome(final),
                "dist_to_min_norm_rel": dist_mn,
                "dist_to_sign_rel": dist_sg,
                "empirical_test_error": empirical,
                "analytic_test_error": oracle_doc["analytic_test_error"][
                    "sign" if adaptive else "min_norm"],
                "margin_final": last.margin,
                "rowspan_resid_final": last.rowspan_resid,
                "rowspan_ratio_trace_max": trace_ratio,
                "w_l2": last.w_l2,
                "verdict_generalization": verdict_gen,
                "verdict_oracle_agreement": verdict_oracle,
            }
        )

    config = asdict(cfg)
    del config["out"]  # where the artifacts go is not part of what they record
    summary = {
        "config": config,
        "dataset": {
            "n": ds.n,
            "d": ds.d,
            "n_pos": ds.n_pos,
            "n_neg": ds.n_neg,
            "label_sum": ds.label_sum,
            "rejections": ds.rejections,
            "precondition_npos_gt_nneg_third": ds.n_pos > ds.n_neg / 3,
        },
        "oracles": {
            "c": sg.c,
            "tau": sg.tau,
            "min_norm_margin": oracle_doc["min_norm_margin"],
            "sign_margin": oracle_doc["sign_margin"],
            "alpha_plus_exact": mn.alpha_plus,
            "alpha_minus_exact": mn.alpha_minus,
        },
        "methods": rows,
    }
    out = Path(out_dir)
    for folder in ("traces", "weights", "tune"):
        (out / folder).mkdir(parents=True, exist_ok=True)
    lsq.save_dataset(ds, out / "dataset.json")
    lsq.write_json(oracle_doc, out / "oracle.json")
    for method, report, final in runs:
        lsq.write_json(tune_report_to_document(report), out / "tune" / f"{method.value}.json")
        write_trace_csv(final.trace, out / "traces" / f"{method.value}.csv")
        lsq.write_json(_weights_document(report.winner.spec, final),
                       out / "weights" / f"{method.value}.json")
    lsq.write_json(summary, out / "summary.json")

    with open(out / "summary.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(rows[0])
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row.values()])
    return summary


def cmd_experiment(cfg: ExperimentConfig) -> int:
    summary = run_experiment(cfg, cfg.out)
    for row in summary["methods"]:
        print(
            f"{row['method']:>8}: alpha={row['alpha']!r} "
            f"loss={row['final_train_loss']:.3e} "
            f"test_err={row['empirical_test_error']:.4f} "
            f"(analytic {row['analytic_test_error']:.4f}) "
            f"gen={'pass' if row['verdict_generalization'] else 'FAIL'} "
            f"oracle={'pass' if row['verdict_oracle_agreement'] else 'FAIL'}"
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


_COMMANDS = {
    "generate": (GenerateOptions, cmd_generate, "draw a synthetic dataset"),
    "train": (TrainOptions, cmd_train, "run one optimizer on a dataset"),
    "oracle": (OracleOptions, cmd_oracle, "closed-form solutions for a dataset"),
    "tune": (TuneOptions, cmd_tune, "step-size grid search"),
    "experiment": (ExperimentConfig, cmd_experiment, "full tuned comparison of all methods"),
}


def build_parser(command: str | None = None) -> _Parser:
    """One subcommand per `_COMMANDS` entry, with one `--flag` per options
    field for `command` only, or for every command when it is None."""
    parser = _Parser(prog="optlab", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (cls, _, help_text) in _COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        if command not in (None, name):
            continue
        for f in fields(cls):
            sub.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                             type=_parse_fn(f.type), **f.metadata)
        sub.add_argument("--config", help="JSON file with option values; flags override")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # Only the command being run needs its flags; the first command name in
    # argv is that command, since the top level takes no option with a value.
    parser = build_parser(next((arg for arg in argv if arg in _COMMANDS), ""))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on usage errors and --help
        return int(exc.code or 0)
    cls, handler, _ = _COMMANDS[args.command]
    try:
        options = _merge_options(cls, args)
        return handler(options)
    except ValueError as exc:
        print(f"optlab: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OptlabError as exc:  # divergence, singular systems, generator exhaustion
        print(f"optlab: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"optlab: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
