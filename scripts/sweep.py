"""Byte-identity sweep: run a fixed list of optlab commands, print a manifest.

    PYTHONPATH=src python scripts/sweep.py OUT_DIR > manifest.txt

OUT_DIR must be empty (it is made if missing).  Every command runs in it,
in this process, through `optlab.cli.main`, with relative `--out` paths.
The manifest has one ``sha256  exit-code  path`` line per file a command
wrote (new or changed) and one per command's stdout and stderr (the path is
then ``stdout:`` or ``stderr:`` and the command line).  To compare two
checkouts, run the sweep once with `PYTHONPATH` pointing at each one's
`src` and `diff` the two manifests: every written byte, exit code and
message must match.

The sweep covers the 20 `experiment --iters 5000` runs at seeds 1-20 and the
default seed-1 `experiment`; the oracle and six 20-step `train` runs of an
n = 1000 dataset; two tunes (dev decay and fixed decay) and two trains
(traced with a stop loss, and dev decay) per method on an n = 100 dataset,
and four extension walks there (a one-point grid's walk that goes up once and
turns down, two dev-stream walks that extend, and a walk that stops at its
cap); on a hand-built real-valued 6 x 9 design with a duplicate and an
all-zero column, a traced, a diverging and a tuned run per method, plus its
oracle; and on a hand-built 8 x 10 design whose rows fall into orbit classes
of several rows (and two pairs of rows that must stay apart), a traced and a
tuned run per method.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

METHODS = ("sgd", "hb", "nag", "adagrad", "rmsprop", "adam")

# Stable fixed steps at n = 1000 (the `scale_n1000` bench workload's arguments).
N1000_TRAIN_ARGS = {
    "sgd": ["--alpha", "1e-4"],
    "hb": ["--alpha", "1e-4"],
    "nag": ["--alpha", "1e-4"],
    "adagrad": ["--alpha", "0.25", "--epsilon", "0"],
    "rmsprop": ["--alpha", "0.05", "--beta2", "0.9", "--epsilon", "0"],
    "adam": ["--alpha", "0.01", "--epsilon", "0"],
}

# Real-valued 6 x 9 design: features 4 and 5 are equal, feature 9 is all zero.
HAND_DESIGN = (
    (0.5, 1.0, 0.0, -0.75, -0.75, 0.25, 0.0, 1.5, 0.0),
    (-1.0, 0.0, 2.0, 0.5, 0.5, 0.0, -0.3, 0.0, 0.0),
    (0.0, 1.0, -0.5, 0.0, 0.0, 1.25, 0.7, -1.0, 0.0),
    (1.5, -0.25, 0.0, 1.0, 1.0, 0.0, 0.0, 0.4, 0.0),
    (0.0, 0.6, 1.1, -0.2, -0.2, -1.0, 0.9, 0.0, 0.0),
    (0.3, 0.0, 0.0, 0.8, 0.8, 0.5, -0.6, 1.2, 0.0),
)
HAND_LABELS = (1, -1, 1, 1, -1, 1)

# Real-valued 8 x 10 design: rows 1-3 are equal but for their private
# features 8-10, rows 4 and 5 differ only in their label, rows 6 and 7 only in
# the last bit of their first value; features 6 and 7 are equal.
ORBIT_DESIGN = (
    (1.0, 0.5, 0.0, 2.0, 0.0, -0.25, -0.25, 1.0, 0.0, 0.0),
    (1.0, 0.5, 0.0, 2.0, 0.0, -0.25, -0.25, 0.0, 1.0, 0.0),
    (1.0, 0.5, 0.0, 2.0, 0.0, -0.25, -0.25, 0.0, 0.0, 1.0),
    (0.0, -1.0, 1.5, 0.0, 0.75, 0.0, 0.0, 0.0, 0.0, 0.0),
    (0.0, -1.0, 1.5, 0.0, 0.75, 0.0, 0.0, 0.0, 0.0, 0.0),
    (0.3, 0.0, 1.0, 0.0, -0.5, 1.25, 1.25, 0.0, 0.0, 0.0),
    (0.30000000000000004, 0.0, 1.0, 0.0, -0.5, 1.25, 1.25, 0.0, 0.0, 0.0),
    (0.0, 0.5, 0.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
)
ORBIT_LABELS = (1, 1, 1, 1, -1, 1, 1, -1)


def hand_document(design=HAND_DESIGN, labels=HAND_LABELS) -> dict:
    rows = [[[j + 1, v] for j, v in enumerate(row) if v != 0.0] for row in design]
    return {"n": len(design), "d": len(design[0]), "labels": list(labels),
            "rows": rows, "p": None, "seed": None}


def commands() -> list[list[str]]:
    """The sweep's command lines, in order (the hand-built dataset files are
    written before the first command that reads them)."""
    cmds = [["experiment", "--iters", "5000", "--seed", str(seed),
             "--out", f"experiment-5000/seed{seed}"] for seed in range(1, 21)]
    cmds.append(["experiment", "--out", "experiment-default"])

    cmds.append(["generate", "--n", "1000", "--out", "n1000/dataset.json"])
    cmds.append(["oracle", "--dataset", "n1000/dataset.json", "--out", "n1000/oracle.json"])
    for method, args in N1000_TRAIN_ARGS.items():
        cmds.append(["train", "--dataset", "n1000/dataset.json", "--method", method, *args,
                     "--iters", "20", "--out", f"n1000/train/{method}"])

    cmds.append(["generate", "--n", "100", "--out", "n100/dataset.json"])
    for method in METHODS:
        data = ["--dataset", "n100/dataset.json", "--method", method]
        cmds.append(["tune", *data, "--decay", "dev_decay", "--alpha", "2", "--count", "7",
                     "--iters", "200", "--seeds", "5",
                     "--out", f"n100/tune-dev-decay/{method}.json"])
        cmds.append(["tune", *data, "--decay", "fixed_decay", "--period", "50", "--iters", "300",
                     "--seeds", "3", "--out", f"n100/tune-fixed-decay/{method}.json"])
        cmds.append(["train", *data, "--trace-every", "7", "--stop-loss", "1e-6",
                     "--out", f"n100/train-traced/{method}"])
        cmds.append(["train", *data, "--decay", "dev_decay",
                     "--out", f"n100/train-dev-decay/{method}"])
    walk = ["--dataset", "n100/dataset.json", "--iters", "300", "--dev-size", "200"]
    cmds.append(["tune", *walk, "--alpha", "0.0078125", "--count", "1", "--seeds", "2",
                 "--out", "n100/tune-walk/turn.json"])
    for method in ("sgd", "rmsprop"):
        cmds.append(["tune", *walk, "--method", method, "--alpha", "1", "--count", "3",
                     "--seeds", "3", "--out", f"n100/tune-walk/dev-{method}.json"])
    cmds.append(["tune", *walk, "--alpha", "1e-5", "--count", "3", "--extension-cap", "3",
                 "--seeds", "2", "--out", "n100/tune-walk/cap.json"])

    cmds.append(["oracle", "--dataset", "hand/dataset.json", "--out", "hand/oracle.json"])
    for method in METHODS:
        data = ["--dataset", "hand/dataset.json", "--method", method]
        cmds.append(["train", *data, "--alpha", "0.05", "--iters", "300",
                     "--out", f"hand/train/{method}"])
        cmds.append(["train", *data, "--alpha", "1e300", "--iters", "300",
                     "--out", f"hand/diverge/{method}"])
        cmds.append(["tune", *data, "--iters", "300", "--seeds", "2",
                     "--out", f"hand/tune/{method}.json"])
    for method in METHODS:
        data = ["--dataset", "orbit/dataset.json", "--method", method]
        cmds.append(["train", *data, "--alpha", "0.05", "--iters", "300",
                     "--out", f"orbit/train/{method}"])
        cmds.append(["tune", *data, "--iters", "300", "--seeds", "2",
                     "--out", f"orbit/tune/{method}.json"])
    return cmds


def digests(root: Path) -> dict[str, str]:
    """sha256 of every file under `root`, by path relative to it."""
    return {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file()}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 1
    root = Path(argv[0])
    root.mkdir(parents=True, exist_ok=True)
    if any(root.iterdir()):
        print(f"sweep: {root} is not empty", file=sys.stderr)
        return 1
    os.chdir(root)
    root = Path(".")
    from optlab.cli import main as optlab_main

    for path, doc in (("hand/dataset.json", hand_document()),
                      ("orbit/dataset.json", hand_document(ORBIT_DESIGN, ORBIT_LABELS))):
        Path(path).parent.mkdir()
        Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    seen = digests(root)
    for path, digest in seen.items():  # written here, by no command
        print(f"{digest}  -  {path}")
    for cmd in commands():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = optlab_main(cmd)
        now = digests(root)
        for path, digest in now.items():
            if seen.get(path) != digest:
                print(f"{digest}  {code}  {path}")
        seen = now
        for stream, text in (("stdout", out), ("stderr", err)):
            digest = hashlib.sha256(text.getvalue().encode("utf-8")).hexdigest()
            print(f"{digest}  {code}  {stream}: optlab {' '.join(cmd)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
