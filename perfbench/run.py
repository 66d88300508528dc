"""The repository benchmark: paper queries through ``repro.execute()``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each measurement runs in a
fresh process (``measure.py``), so peak memory and the ``processes``
worker pool never leak from one run into the next.

``--trace 0`` prints the end-to-end metrics: a closed loop (one client,
one query at a time) of untraced queries for ``--seconds``, every answer
checked against the oracle, plus set-up time as the median of several
fresh-process set-ups.  ``--trace 1`` prints the per-layer metrics from
traced queries alternated with untraced ones.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit).  Workloads, metric definitions and
the layer-to-metric predictions are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

from metrics import END_TO_END, PER_LAYER
from probe import REFERENCE_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Fresh-process set-ups per untraced run; ``setup_s`` is their median.
SETUP_SAMPLES = 3

#: Seconds within which a run must finish, start-up included.
RUN_LIMIT = 170.0


class RunError(Exception):
    pass


def child_env() -> Dict[str, str]:
    """The environment of a measurement process: the checkout's sources
    on the path, and no ``REPRO_*`` variable, so the program runs on its
    defaults whatever the caller's environment says."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([SRC, HERE])
    return env


def measure(args: argparse.Namespace, deadline: float, *extra: str) -> Dict[str, Any]:
    """Run ``measure.py`` in a fresh process; its last stdout line."""
    command = [
        sys.executable,
        os.path.join(HERE, "measure.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--scale", str(args.scale),
        *extra,
    ]
    process = subprocess.Popen(
        command,
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = process.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise RunError(f"measurement exceeded {RUN_LIMIT:.0f} s") from None
    if process.returncode != 0:
        raise RunError(f"measurement exited with code {process.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise RunError("measurement printed nothing")
    return json.loads(lines[-1])


def stamp() -> str:
    """nproc, Python version, git commit (when the checkout is a git
    repository) and a digest of the sources measured."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or "unavailable"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unavailable"
    digest = hashlib.sha256()
    for directory, subdirs, files in os.walk(SRC):
        subdirs[:] = sorted(d for d in subdirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return (
        f"nproc={os.cpu_count()} python={platform.python_version()} "
        f"commit={commit} src_sha256={digest.hexdigest()[:16]}"
    )


def end_to_end(main: Dict[str, Any], setups: List[float]) -> Dict[str, float]:
    seconds = main["query_seconds"]
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": main["peak_rss_mb"],
        "correct_frac": (main["attempted"] - main["failed"]) / main["attempted"],
    }
    if seconds:
        metrics["query_s_p50"] = statistics.median(seconds)
        metrics["rows_per_s"] = main["rows"] * len(seconds) / sum(seconds)
    for name in ("shuffled_records", "max_reducer_load", "modelled_s"):
        if name in main:
            metrics[name] = main[name]
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="relation-size factor (the smoke test runs at reduced sizes)",
    )
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no program sources under {SRC}", file=sys.stderr)
        return 2
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} scale={args.scale:g}")
    print(f"stamp: {stamp()}")
    try:
        if args.trace:
            main_run = measure(args, deadline, "--trace")
            metrics, units = main_run["per_layer"], PER_LAYER
        else:
            setups = [
                measure(args, deadline, "--setup-only")["setup_s"]
                for _ in range(SETUP_SAMPLES - 1)
            ]
            main_run = measure(args, deadline)
            metrics = end_to_end(main_run, setups + [main_run["setup_s"]])
            units = END_TO_END
    except RunError as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 1
    print(main_run["workload"])
    report(args, main_run, metrics, units)
    attempted, failed = main_run["attempted"], main_run["failed"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
            if name in metrics
        },
    }))
    return 0


def report(args, main_run, metrics, units) -> None:
    """Human-readable lines before the JSON result."""
    samples = len(main_run["query_seconds"])
    print(f"times are reference seconds: wall x {REFERENCE_S * 1e3:g} ms / host "
          f"probe; probe median {statistics.median(main_run['probe_s']) * 1e3:.1f} ms")
    if main_run["query_wall_s"]:
        print(f"untraced query wall time: median "
              f"{statistics.median(main_run['query_wall_s']):.4f} s")
    if not args.trace:
        print(f"query_s_p50 is the median of {samples} untraced queries; "
              f"setup_s the median of {SETUP_SAMPLES} fresh-process set-ups")
    else:
        print(f"per-layer values are medians over {main_run['traced_queries']} "
              f"traced queries; obs.trace_overhead_frac against "
              f"{samples} untraced ones")
        print(f"named layers' self times sum to {main_run['attributed_frac']:.1%} "
              f"of the traced query's time "
              f"({main_run['traced_wall_s']:.3f} s)")
        if main_run["executor"] == "processes":
            print("note: map and reduce tasks run in worker processes here; the "
                  "sub-reduce metrics (local_join, index, sweep, owns, schema) "
                  "see only the driver process, so take them from the serial "
                  "workloads")
    for name, unit in units.items():
        if name in metrics:
            print(f"  {name:34s} {metrics[name]:>16.6g} {unit}")
    print(f"queries: {main_run['attempted']} attempted, {main_run['failed']} failed "
          f"(failed_frac {main_run['failed'] / main_run['attempted']:.3g})")


if __name__ == "__main__":
    sys.exit(main())
