"""Run a list of coppit CLI commands in one fresh process and time them.

Usage: python3 bench/child.py PLAN.json RESULT.json T_SPAWN [TRACE.json]

PLAN.json holds a list of argv lists for ``coppit.cli.main``; an empty list
only imports the package (a warm-up).  T_SPAWN is the parent's
``time.monotonic()`` taken just before it started this process, so
``setup_s`` covers interpreter start, importing ``coppit.cli`` from the
checkout's ``src/`` and parsing every argv.  RESULT.json receives setup
time, time inside each ``main()`` call, exit codes and peak RSS.  With
TRACE.json, public functions are wrapped after set-up (see spans.py) and
the spans are written there in Chrome trace format at exit.
"""

import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main():
    plan_path, result_path, t_spawn = sys.argv[1], sys.argv[2], float(sys.argv[3])
    trace_path = sys.argv[4] if len(sys.argv) > 4 else None
    sys.path.insert(0, str(SRC))
    import coppit.cli

    if Path(coppit.cli.__file__).resolve().parent != SRC / "coppit":
        sys.exit(f"coppit was imported from {coppit.cli.__file__}, not from {SRC}")
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    for argv in plan:
        coppit.cli.build_parser().parse_args(argv)
    setup_s = time.monotonic() - t_spawn

    recorder = None
    if trace_path:
        import spans

        recorder = spans.install()
    codes, main_s = [], []
    for argv in plan:
        t = time.perf_counter()
        codes.append(coppit.cli.main(argv))
        main_s.append(time.perf_counter() - t)
    if recorder is not None:
        recorder.write_chrome(trace_path)

    result = {"setup_s": setup_s, "main_s": main_s, "codes": codes,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
