"""The benchmark's workloads: inputs, the timed CLI calls, and output checks.

Each workload drives optlab the way a user does, through `optlab.cli.main`.
`setup` writes the workload's input files, `run` makes the CLI calls a user
waits for, `checks` reads the written artifacts and says which outputs are
right, and `iterations` counts the optimizer iterations they record.  Smoke
sizes keep every phase but shrink the problem so a test can run it quickly.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

METHODS = ("sgd", "hb", "nag", "adagrad", "rmsprop", "adam")
ADAPTIVE = frozenset({"adagrad", "rmsprop", "adam"})
P = 0.75  # the CLI's default positive-class rate, used by every workload


def _load(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _read_or_none(path: Path):
    try:
        return _load(path)
    except (OSError, ValueError):
        return None


def distinct_iterations(trials) -> int:
    """Iterations over distinct trajectories in a tune report's trials.

    Without a dev stream every seed of one step size follows the same
    trajectory, so such trials count once per step size.
    """
    shared: dict[float, int] = {}
    total = 0
    for trial in trials:
        if trial["best_dev"] is None:
            shared[trial["alpha0"]] = trial["iterations"]
        else:
            total += trial["iterations"]
    return total + sum(shared.values())


def _generate(cli_main, workdir: Path, n: int, seed: int) -> None:
    code = cli_main(["generate", "--n", str(n), "--seed", str(seed),
                     "--out", str(workdir / "dataset.json")])
    if code != 0:
        raise RuntimeError(f"optlab generate exited with {code}")


class PaperDefault:
    """`optlab experiment` with its defaults but an eighth of the step budget:
    the paper's headline end to end, short enough to repeat within a run."""

    name = "paper_default"

    def __init__(self, smoke: bool) -> None:
        self.extra = ["--n", "20", "--iters", "1000"] if smoke else ["--iters", "5000"]

    def setup(self, cli_main, workdir: Path, seed: int) -> None:
        """The experiment generates its own dataset; set-up is the import alone."""

    def run(self, cli_main, workdir: Path, seed: int) -> dict[str, int]:
        argv = ["experiment", "--seed", str(seed), "--out", str(workdir / "exp"), *self.extra]
        return {"experiment": cli_main(argv)}

    def checks(self, workdir: Path, codes: dict[str, int]) -> dict[str, bool]:
        result = {"experiment.exit_0": codes["experiment"] == 0}
        summary = _read_or_none(workdir / "exp" / "summary.json") or {}
        rows = {row["method"]: row for row in summary.get("methods", [])}
        for method in METHODS:
            row = rows.get(method, {})
            for verdict in ("verdict_generalization", "verdict_oracle_agreement"):
                result[f"{method}.{verdict}"] = row.get(verdict) is True
        return result

    def iterations(self, workdir: Path) -> int:
        exp = workdir / "exp"
        total = 0
        for method in METHODS:
            total += distinct_iterations(_load(exp / "tune" / f"{method}.json")["trials"])
            total += _load(exp / "weights" / f"{method}.json")["iterations"]
        return total


class TuneDevDecay:
    """`optlab tune --decay dev_decay` for every method: one trajectory per trial.

    The grid 0.25 ... 16 holds every method's winner inside it (2, or 8 for
    sgd, hb and nag when their first step separates), so it is never extended
    and every seed runs the same 7 x 5 trials per method.
    """

    name = "tune_dev_decay"

    def __init__(self, smoke: bool) -> None:
        self.n = 100
        self.tune_args = ["--alpha", "2", "--count", "7", "--iters", "200",
                          "--seeds", "2" if smoke else "5"]

    def setup(self, cli_main, workdir: Path, seed: int) -> None:
        _generate(cli_main, workdir, self.n, seed)

    def run(self, cli_main, workdir: Path, seed: int) -> dict[str, int]:
        codes = {}
        for method in METHODS:
            codes[method] = cli_main([
                "tune", "--dataset", str(workdir / "dataset.json"), "--method", method,
                "--decay", "dev_decay", *self.tune_args,
                "--out", str(workdir / "tune" / f"{method}.json"),
            ])
        return codes

    def checks(self, workdir: Path, codes: dict[str, int]) -> dict[str, bool]:
        # From zero, a non-adaptive method's first step is a positive multiple
        # of X^T y, which scores a fresh negative point 2 * label_sum - n:
        # negative, so dev error 0, exactly when 2 * label_sum < n.
        # Otherwise no later epoch beats that first one before dev_decay,
        # which also decays on ties, has shrunk the step, and the winner stays
        # at the all-positive classifier's error, 1 - p (seeds 1-30 at n = 100
        # split 16 / 14 between the two cases, with no exception).
        labels = _load(workdir / "dataset.json")["labels"]
        first_step_separates = 2 * sum(labels) < len(labels)
        result = {}
        for method in METHODS:
            result[f"{method}.exit_0"] = codes[method] == 0
            report = _read_or_none(workdir / "tune" / f"{method}.json") or {}
            winner = report.get("winner", {})
            trials = [t for t in report.get("trials", []) if t["alpha0"] == winner.get("alpha")]
            result[f"{method}.winner_completed"] = bool(trials) and all(
                t["status"] == "ok" for t in trials)
            reaches_zero = method not in ADAPTIVE and first_step_separates
            target = 0.0 if reaches_zero else 1.0 - P
            metric = winner.get("metric_mean")
            result[f"{method}.winner_dev_metric"] = (
                isinstance(metric, float) and abs(metric - target) <= 0.02)
        return result

    def iterations(self, workdir: Path) -> int:
        return sum(distinct_iterations(_load(workdir / "tune" / f"{m}.json")["trials"])
                   for m in METHODS)


class ScaleN1000:
    """n = 1000 (d = 5003): the oracle, then one fixed-step `train` per method."""

    name = "scale_n1000"

    # Stable fixed steps: lambda_max(XX^T) is about 2.4e3 at n = 1000.
    TRAIN_ARGS = {
        "sgd": ["--alpha", "1e-4"],
        "hb": ["--alpha", "1e-4"],
        "nag": ["--alpha", "1e-4"],
        "adagrad": ["--alpha", "0.25", "--epsilon", "0"],
        "rmsprop": ["--alpha", "0.05", "--beta2", "0.9", "--epsilon", "0"],
        "adam": ["--alpha", "0.01", "--epsilon", "0"],
    }

    def __init__(self, smoke: bool) -> None:
        self.n = 200 if smoke else 1000
        self.iters = 10 if smoke else 20

    def setup(self, cli_main, workdir: Path, seed: int) -> None:
        _generate(cli_main, workdir, self.n, seed)

    def run(self, cli_main, workdir: Path, seed: int) -> dict[str, int]:
        dataset = str(workdir / "dataset.json")
        codes = {"oracle": cli_main(["oracle", "--dataset", dataset,
                                     "--out", str(workdir / "oracle.json")])}
        for method, args in self.TRAIN_ARGS.items():
            codes[method] = cli_main([
                "train", "--dataset", dataset, "--method", method, *args,
                "--iters", str(self.iters), "--out", str(workdir / "train" / method),
            ])
        return codes

    def checks(self, workdir: Path, codes: dict[str, int]) -> dict[str, bool]:
        from optlab.oracle import exact_synthetic_alphas

        result = {"oracle.exit_0": codes["oracle"] == 0}
        report = _read_or_none(workdir / "oracle.json") or {}
        min_norm = report.get("min_norm") or {}
        try:
            expected = exact_synthetic_alphas(report["n_pos"], report["n_neg"])
            got = (min_norm["alpha_plus"], min_norm["alpha_minus"])
            result["oracle.min_norm_alphas"] = all(
                abs(g - e) <= 1e-8 * abs(e) for g, e in zip(got, expected))
        except (KeyError, TypeError):
            result["oracle.min_norm_alphas"] = False
        result["oracle.sign_c_is_4"] = (report.get("sign") or {}).get("c") == 4.0
        for method in METHODS:
            result[f"{method}.exit_0"] = codes[method] == 0
            weights = _read_or_none(workdir / "train" / method / "weights.json") or {}
            w = weights.get("w") or []
            result[f"{method}.finite_weights"] = bool(w) and all(math.isfinite(v) for v in w)
        return result

    def iterations(self, workdir: Path) -> int:
        return sum(_load(workdir / "train" / m / "run.json")["iterations"] for m in METHODS)


WORKLOADS = {cls.name: cls for cls in (PaperDefault, TuneDevDecay, ScaleN1000)}
