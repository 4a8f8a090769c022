"""One benchmark process: a workload's set-up, then its timed phase, repeated.

Sets up one workload's inputs (`import optlab` plus input files), then makes
its timed CLI calls again and again, each repetition on fresh outputs, until
about `--budget` seconds after the process started (at least once; once
with `--trace 1`).  After each repetition it checks the outputs and counts the
iterations the artifacts record.  The record goes to `--record` as JSON.
`run.py` starts this script; it is not meant to be run by hand.
"""

import time

START = time.perf_counter()  # before any heavy import: set-up time includes them

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402


def artifact_digest(workdir: Path) -> tuple[str, int]:
    """sha256 over every written file (relative path and bytes), and their total size."""
    digest = hashlib.sha256()
    size = 0
    for path in sorted(p for p in workdir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        digest.update(str(path.relative_to(workdir)).encode() + b"\0" + data)
        size += len(data)
    return digest.hexdigest(), size


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--dir", required=True)
    parser.add_argument("--record", required=True)
    args = parser.parse_args()

    record_path = Path(args.record).resolve()
    # CLI calls use paths relative to the work directory, so the artifacts
    # (and their digest) do not depend on where the run happens.
    Path(args.dir).mkdir(parents=True, exist_ok=True)
    os.chdir(args.dir)
    workdir = Path(".")
    workload = workloads.WORKLOADS[args.workload](args.smoke)

    import optlab.cli

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    def cli_main(argv):
        # Looked up on every call, so the tracer's wrapper is the one called.
        return optlab.cli.main(argv)

    call_s: list[float] = []  # seconds of each CLI call of the current repetition

    def timed_cli_main(argv):
        begun = time.perf_counter()
        try:
            return cli_main(argv)
        finally:
            call_s.append(time.perf_counter() - begun)

    workload.setup(cli_main, workdir, args.seed)
    setup_s = time.perf_counter() - START
    inputs = set(workdir.iterdir())
    deadline = START + args.budget
    reps = []
    while True:
        call_s = []
        rep_start = time.perf_counter()
        cpu_start = time.process_time()
        codes = workload.run(timed_cli_main, workdir, args.seed)
        wall_s = time.perf_counter() - rep_start
        cpu_s = time.process_time() - cpu_start
        if tracer is not None:
            tracer.uninstall()
        digest, size = artifact_digest(workdir)
        reps.append({
            "wall_s": wall_s,
            "call_s": call_s,
            "cpu_s": cpu_s,
            "exit_codes": codes,
            "checks": workload.checks(workdir, codes),
            "iterations": (workload.iterations(workdir)
                           if all(c == 0 for c in codes.values()) else 0),
            "artifact_sha256": digest,
            "artifact_bytes": size,
        })
        for path in set(workdir.iterdir()) - inputs:
            shutil.rmtree(path) if path.is_dir() else path.unlink()
        # Another repetition only if at least half of it fits in the budget.
        now = time.perf_counter()
        if tracer is not None or now + 0.5 * (now - START - setup_s) / len(reps) > deadline:
            break
    record = {
        "setup_s": setup_s,
        "traced": bool(args.trace),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "reps": reps,
    }
    if tracer is not None:
        record["layers"] = tracer.metrics(rep_start, wall_s, size)
        record["trace"] = tracer.report()
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main()
