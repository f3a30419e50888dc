"""riskengine benchmark: time the engine end to end, or trace it per layer.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload desk --seed 1 --seconds 20 --trace 0

Each repetition runs in a fresh interpreter (perfbench/child.py) against
the checkout's src/ with the BLAS/OpenMP thread variables removed, so every
commit runs under the threading a user gets by default. A run cycles over
PANELS_PER_RUN generated price panels until --seconds have passed (at
least one full cycle) and reports medians over the repetitions.

--trace 0 reports the end-to-end metrics. --trace 1 repeats rounds of an
untraced, a traced and a one-thread repetition on the first panel and
reports the per-layer metrics (see perfbench/README.md).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; attempted counts evaluation days (grid
points x days for a sweep) and failed counts invalid days plus every day
of a repetition that exited non-zero or failed the output check. Full
results, with the machine facts, go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import numpy as np
import scipy

import check
import layers
from workloads import PANELS_PER_RUN, WORKLOADS, run_config, write_panel_csv

HERE = os.path.dirname(os.path.abspath(__file__))
HARD_LIMIT_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    "GOTO_NUM_THREADS", "OMP_THREAD_LIMIT", "OMP_DYNAMIC",
)
ONE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
END_TO_END = [
    ("wall_s", "s"), ("setup_s", "s"), ("days_per_s", "1/s"), ("peak_rss_mb", "MB"),
]


def child_env(src_dir: str, extra: dict | None = None) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = src_dir
    env.update(extra or {})
    return env


class Runner:
    """Spawns repetitions, checks their reports and keeps their results."""

    def __init__(self, root: str, workload: str, seed: int, work: str):
        self.root, self.workload, self.seed, self.work = root, workload, seed, work
        self.src = os.path.join(root, "src")
        self.deadline = time.monotonic() + HARD_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[int, set[str]] = {}
        self.log: list[dict] = []
        self.n_reps = 0
        w = WORKLOADS[workload]
        self.days_per_rep = w["days"] * len(w["grid"] or [1])

    def csv_path(self, panel: int) -> str:
        path = os.path.join(self.work, f"prices_{panel}.csv")
        if not os.path.exists(path):
            write_panel_csv(path, self.seed, panel, WORKLOADS[self.workload]["days"])
        return path

    def rep(self, panel: int, trace: bool = False, env_extra: dict | None = None):
        """One child process; returns its result dict (with wall_s), or None if it
        did not finish."""
        self.n_reps += 1
        tag = f"rep{self.n_reps}"
        out = os.path.join(self.work, tag)
        spec = {
            "csv": self.csv_path(panel),
            "out": out,
            "config": run_config(self.workload, self.seed),
            "grid": WORKLOADS[self.workload]["grid"],
            "package_dir": os.path.join(self.src, "riskengine"),
            "trace": os.path.join(self.work, f"{tag}.trace.json") if trace else None,
            "result": os.path.join(self.work, f"{tag}.result.json"),
        }
        spec_path = os.path.join(self.work, f"{tag}.spec.json")
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        self.attempted += self.days_per_rep
        timeout = max(1.0, self.deadline - time.monotonic())
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"), spec_path],
                env=child_env(self.src, env_extra), cwd=self.root,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return self._fail(f"{tag}: timed out after {timeout:.0f} s")
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            return self._fail(f"{tag}: exit {proc.returncode}: {tail[0]}")
        with open(spec["result"]) as fh:
            result = json.load(fh)
        os.remove(spec["result"])
        os.remove(spec_path)
        result["wall_s"] = result["t_end"] - t_spawn
        self.log.append({"rep": tag, "panel": panel, "trace": trace, "env": env_extra or {},
                         **{k: result[k] for k in ("wall_s", "setup_s", "run_s", "report_s")}})
        if trace:
            with open(spec["trace"]) as fh:
                result["trace"] = json.load(fh)
            os.remove(spec["trace"])
        problems = check.check_report(out, self.workload, spec["csv"])
        if problems:  # timed all the same; the report stays for inspection
            self._fail(f"{tag}: " + "; ".join(problems[:3]))
            return result
        self.failed += result["invalid_days"]
        if not env_extra:
            self.digests.setdefault(panel, set()).add(check.output_digest(out, self.workload))
        shutil.rmtree(out)
        return result

    def _fail(self, message: str):
        self.failed += self.days_per_rep
        self.problems.append(message)
        return None

    def out_of_time(self, seconds: float, started: float, last_s: float) -> bool:
        """True when another step as long as the last would end mostly past --seconds.

        The run then lasts about --seconds on average, and never reaches the
        hard limit.
        """
        now = time.monotonic()
        return now - started + last_s / 2 >= seconds or now + last_s > self.deadline - 10.0

    def run_digest(self) -> str | None:
        """Digest over panels 0..n-1, or None when a rerun's bytes differed."""
        h = hashlib.sha256()
        for panel in sorted(self.digests):
            if len(self.digests[panel]) != 1:
                return None
            h.update(next(iter(self.digests[panel])).encode())
        return h.hexdigest()


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, int]:
    """Repetitions over the panels in turn: one full cycle, then until time is up."""
    started = time.monotonic()
    reps = []
    n_reps, rep_s = 0, 0.0
    while n_reps < PANELS_PER_RUN or not runner.out_of_time(seconds, started, rep_s):
        t = time.monotonic()
        result = runner.rep(n_reps % PANELS_PER_RUN)
        n_reps += 1
        rep_s = time.monotonic() - t
        if result is not None:
            result["days_per_s"] = runner.days_per_rep / result["run_s"]
            reps.append(result)
    return {
        name: {"value": statistics.median(r[name] for r in reps) if reps else None, "unit": unit}
        for name, unit in END_TO_END
    }, n_reps


def per_layer(runner: Runner, seconds: float) -> tuple[dict, int]:
    """Rounds of untraced, traced and one-thread repetitions on panel 0."""
    started = time.monotonic()
    plain, traced, one_thread = [], [], []
    while True:
        round_start = time.monotonic()
        plain.append(runner.rep(0))
        traced.append(runner.rep(0, trace=True))
        one_thread.append(runner.rep(0, env_extra=ONE_THREAD))
        if runner.out_of_time(seconds, started, time.monotonic() - round_start):
            break
    n_reps = len(plain) + len(traced) + len(one_thread)
    plain = [r for r in plain if r is not None]
    traced = [r for r in traced if r is not None]
    one_thread = [r for r in one_thread if r is not None]
    if not (plain and traced and one_thread):
        return {n: {"value": None, "unit": u} for n, u, _ in layers.per_layer_spec()}, n_reps

    values = layers.counts(traced[0]["trace"], traced[0]["report_bytes"])
    for r in traced[1:]:
        if layers.counts(r["trace"], r["report_bytes"]) != values:
            runner.problems.append("per-layer counts differ between identical traced runs")
    per_rep = [layers.timings(r["trace"]) for r in traced]
    for name in per_rep[0]:
        values[name] = statistics.median(t[name] for t in per_rep)
    untraced_wall = statistics.median(r["wall_s"] for r in plain)
    values["trace.wall_s"] = statistics.median(r["wall_s"] for r in traced)
    values["trace.overhead_s"] = values["trace.wall_s"] - untraced_wall
    values["ref.default_threads.wall_s"] = untraced_wall
    values["ref.one_thread.wall_s"] = statistics.median(r["wall_s"] for r in one_thread)
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit, _ in layers.per_layer_spec()
    }, n_reps


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: str) -> str | None:
    """HEAD when root is the top of a git work tree, else None."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(root):
        return None
    return lines[1]


def _source_sha256(src: str) -> str:
    h = hashlib.sha256()
    pkg = os.path.join(src, "riskengine")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def machine_facts(root: str) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "child_thread_env": {k: v for k, v in child_env("").items() if k in THREAD_VARS},
        "one_thread_reference_env": ONE_THREAD,
        "git_commit": _git_commit(root),
        "source_sha256": _source_sha256(os.path.join(root, "src")),
    }


def stored_digest(workload: str, seed: int) -> str | None:
    with open(os.path.join(HERE, "digests.json")) as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SystemExit inside subprocess.run kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "riskengine", "__init__.py")):
        print("no src/riskengine here: run from the root of a riskengine checkout",
              file=sys.stderr)
        return 2

    work = os.path.join(root, ".perfbench_out", f"{args.workload}-{args.seed}-{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    runner = Runner(root, args.workload, args.seed, work)
    measure = per_layer if args.trace else end_to_end
    metrics, n_reps = measure(runner, args.seconds)

    digest = runner.run_digest()
    if digest is None:
        runner.problems.append("a rerun of the same panel wrote different bytes")
    expected = stored_digest(args.workload, args.seed) if args.trace == 0 else None
    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "repetitions": n_reps,
        "failed_frac": runner.failed / runner.attempted,
        "problems": runner.problems,
        "repetitions_log": runner.log,
        "outputs_digest": digest,
        "outputs_identical": None if expected is None else digest == expected,
        "facts": machine_facts(root),
    }
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(f"failed_frac = {details['failed_frac']} ({runner.failed}/{runner.attempted} days)")
    print("details: " + json.dumps(details, sort_keys=True))
    with open(os.path.join(work, "result.json"), "w") as fh:
        json.dump(dict(result, **details), fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
