"""Peak memory of one optlab command: run it, print one JSON line.

    PYTHONPATH=src python scripts/peak_rss.py COMMAND [OPTIONS...]

The command runs in this process, through `optlab.cli.main`, as
`scripts/sweep.py` runs its commands; start one process per measurement, so
that no earlier command's peak is counted.  The command's own stdout goes to
stderr, and stdout gets one JSON object: the command line (`argv`), its exit
code (`exit`), the wall time of the `main` call (`wall_s`) and the process's
peak resident set size, `ru_maxrss`, in MiB (`peak_rss_mib`; the import of
optlab is included, about 30 MiB).  README's size ceilings are reproduced
with it.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 1
    from optlab.cli import main as optlab_main

    start = time.perf_counter()
    with contextlib.redirect_stdout(sys.stderr):
        code = optlab_main(argv)
    wall_s = time.perf_counter() - start
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    print(json.dumps({"argv": argv, "exit": code, "wall_s": round(wall_s, 3),
                      "peak_rss_mib": round(peak_kib / 1024, 1)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
