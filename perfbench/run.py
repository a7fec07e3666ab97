"""fedconn benchmark: time to verdict of real ``fedconn`` commands.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each job is one ``fedconn`` command in a
fresh child process, launched only after the previous one has exited: a
closed loop with one client.  Every report is checked (exit code 0, no
traceback, no FAIL line, a summary line) and, at the default seed, compared
byte for byte with the sha256 committed in ``reference.json``.

With ``--trace 0`` the jobs are repeated in passes until S seconds have gone
by, and the medians over passes of these end-to-end metrics are printed:

* ``verdict_s``: time of one pass, each job from launch to exit;
* ``setup_s``: per pass, the summed time from each job's launch until its
  model is built; measured at least ``SETUP_ROUNDS`` times per run;
* ``peak_rss_mb``: the largest peak resident set of any job in a pass.

The speed of a shared host drifts by up to 1.8x over minutes, so the two
times are given at a fixed reference speed: each child samples the machine's
speed while its job runs (``probe.py``), and the job's wall time, less the
time spent sampling, is scaled by ``probe.REF_S`` over the mean sample.  Raw
wall times and the samples' means are printed and kept in the results file.

With ``--trace 1`` one plain pass, one pass under spans and one pass under
``cProfile`` give the per-layer metrics and the tracing overhead.

The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A results file with the samples,
every report's sha256 and the machine goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import gen
import probe
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
REFERENCE = BENCH / "reference.json"
DEFAULT_SEED = 0
SETUP_ROUNDS = 5
# every run must end inside the 180 s the harness allows; the slowest run,
# a traced family-gauge run, takes about 115 s on 2 cores
DEADLINE_S = 170.0

WORKLOADS = ("quantize-curved", "family-gauge", "kahler-order1")

# a child always runs with exactly this environment: no FEDCONN_REPORT_DIR,
# so no report files are written, and a fixed hash seed
CHILD_ENV = {"PYTHONPATH": "src", "PYTHONHASHSEED": "0", "LC_ALL": "C.UTF-8"}


@dataclass(frozen=True)
class Job:
    label: str        # key into reference.json and the results' hashes
    argv: tuple       # fedconn command line


def _job(command, scenario, seed, order=None):
    argv = [command, "--scenario", str(scenario)]
    label = f"{command} {Path(scenario).name}"
    if order is not None:
        argv += ["--order", str(order)]
        label += f" K={order}"
    argv += ["--seed", str(seed)]
    return Job(f"{label} seed={seed}", tuple(argv))


def jobs_for(workload: str, seed: int, generated: Path) -> list:
    """The jobs of one pass; ``generated`` is the curved R^4 scenario file."""
    sc = Path("scenarios")
    if workload == "quantize-curved":
        # deep h-order on R^2, then a wide (15-monomial basis) shallow R^4 case
        return [_job("quantize", sc / "curved_r2.scn", seed, 3),
                _job("quantize", generated, seed, 2)]
    if workload == "family-gauge":
        return [_job("family", sc / "family_r2.scn", seed, 3),
                _job("gauge", sc / "family_r2.scn", seed, 3),
                _job("family", sc / "family2_r2.scn", seed, 3)]
    if workload == "kahler-order1":
        return [_job("kahler", sc / "kahler_r4.scn", 3 * seed + i) for i in range(3)] + \
               [_job("kahler", sc / "kahler_r2.scn", seed)]
    raise ValueError(f"unknown workload {workload!r}")


def generate_scenario(seed: int, workdir: Path):
    """Write and check the curved R^4 scenario; returns (path, error or None)."""
    path = workdir / gen.NAME
    path.write_text(gen.curved_r4(seed), encoding="utf-8")
    return path, gen.check(path)


@dataclass
class Outcome:
    wall_s: float
    cpu_s: float
    setup_s: float | None
    rss_kb: int
    code: int
    report: bytes
    stderr: bytes
    side: dict

    @property
    def probe_s(self) -> float:
        """Time the child spent timing speed samples."""
        return self.side.get("probe", {}).get("total_s", 0.0)

    @property
    def scale(self) -> float:
        """Reference speed over the machine's speed during the job (1 if unsampled)."""
        samples = self.side.get("probe")
        return probe.REF_S / samples["mean_s"] if samples else 1.0

    @property
    def net_s(self) -> float:
        """Wall time without the speed samples."""
        return self.wall_s - self.probe_s

    @property
    def net_setup_s(self) -> float | None:
        if self.setup_s is None:
            return None
        return self.setup_s - self.side.get("setup_probe_s", 0.0)


def run_child(argv, mode: str, workdir: Path, deadline: float) -> Outcome:
    """One fedconn command in a fresh process, timed from launch to exit."""
    side_path = workdir / "side.json"
    side_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "child.py"), "--side", str(side_path),
           "--mode", mode, "--", *argv]
    with open(workdir / "stdout", "w+b") as out, open(workdir / "stderr", "w+b") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=CHILD_ENV, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        watchdog = threading.Timer(max(deadline - t0, 1.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        t1 = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        report, stderr = out.read(), err.read()
    try:
        side = json.loads(side_path.read_text())
    except (OSError, ValueError):  # the child died before writing it
        side = {}
    setup = side["setup_end"] - t0 if "setup_end" in side else None
    return Outcome(t1 - t0, usage.ru_utime + usage.ru_stime, setup,
                   side.get("peak_rss_kb") or 0, proc.returncode, report, stderr, side)


def judge(outcome: Outcome, expected_sha256: str | None):
    """Return the reason a job failed, or None when it passed."""
    if outcome.code != 0:
        return f"exit code {outcome.code}"
    if b"Traceback (most recent call last)" in outcome.stderr:
        return "traceback"
    if b"[FAIL]" in outcome.report:
        return "FAIL check"
    if b"\nsummary: " not in outcome.report or b" 0 failed, " not in outcome.report:
        return "no passing summary line"
    if expected_sha256 is not None and \
            hashlib.sha256(outcome.report).hexdigest() != expected_sha256:
        return "report differs from the committed reference"
    return None


class Run:
    """Jobs attempted, failures and report hashes of one benchmark run."""

    def __init__(self, workload, seed, workdir, deadline):
        self.workdir, self.deadline = workdir, deadline
        refs = json.loads(REFERENCE.read_text())
        self.reference = refs[workload] if seed == refs["seed"] else {}
        self.attempted = 0
        self.failures = []
        self.hashes = {}
        self.missing = set()  # traced functions the program no longer has
        generated, invalid = generate_scenario(seed, workdir)
        self.jobs = jobs_for(workload, seed, generated)
        # a seed whose scenario fails its checks is not re-drawn: its jobs fail
        self.skipped = {job.label: f"generated scenario {invalid}" for job in self.jobs
                        if invalid and job.argv[2] == str(generated)}

    def out_of_time(self, reserve: float = 0.0) -> bool:
        return time.monotonic() + reserve > self.deadline

    def job(self, job: Job, mode: str = "plain") -> Outcome | None:
        self.attempted += 1
        if job.label in self.skipped:
            self.failures.append((job.label, self.skipped[job.label]))
            return None
        outcome = run_child(job.argv, mode, self.workdir, self.deadline)
        digest = hashlib.sha256(outcome.report).hexdigest()
        self.hashes.setdefault(job.label, digest)
        if self.hashes[job.label] != digest:
            reason = f"{mode} report differs from an earlier report of the same job"
        else:
            reason = judge(outcome, self.reference.get(job.label))
        if reason:
            detail = outcome.stderr.decode(errors="replace").strip().splitlines()[-1:]
            self.failures.append((job.label, reason, *detail))
        return outcome

    def full_pass(self, mode: str = "plain") -> dict:
        """All jobs once: verdict, setup and peak RSS of this pass, plus layer sums."""
        wall = verdict = cpu = setup = 0.0
        rss_kb = 0
        layers, jobs, scales = {}, {}, []
        for job in self.jobs:
            outcome = self.job(job, mode)
            if outcome is None:
                continue
            jobs[job.label] = outcome.wall_s
            scales.append(outcome.scale)
            wall += outcome.net_s
            verdict += outcome.net_s * outcome.scale
            cpu += outcome.cpu_s
            setup += (outcome.net_setup_s or 0.0) * outcome.scale
            rss_kb = max(rss_kb, outcome.rss_kb)
            self.missing.update(outcome.side.get("missing", ()))
            for key, value in outcome.side.get("layers", {}).items():
                layers[key] = layers.get(key, 0) + value
        return {"verdict_s": verdict, "wall_s": wall, "cpu_s": cpu, "setup_s": setup,
                "peak_rss_mb": rss_kb / 1024, "jobs": jobs, "scales": scales, "layers": layers}

    def setup_round(self) -> float:
        """Every job stopped once its model is built; the summed set-up time."""
        total = 0.0
        for job in self.jobs:
            if job.label in self.skipped:
                continue
            outcome = run_child(job.argv, "setup", self.workdir, self.deadline)
            if outcome.code != 0 or outcome.setup_s is None:
                self.attempted += 1
                self.failures.append((job.label, "set-up only run failed"))
                continue
            total += outcome.net_setup_s * outcome.scale
        return total


def warm_up(run: Run):
    """One discarded job, so that every module's bytecode cache exists."""
    run_child(("quantize", "--scenario", "scenarios/flat_r2.scn", "--order", "1"),
              "plain", run.workdir, run.deadline)


def measure(run: Run, seconds: float) -> dict:
    start = time.monotonic()
    passes, setups = [], []
    while not passes or (time.monotonic() - start < seconds and not run.out_of_time(
            1.5 * passes[-1]["wall_s"])):
        passes.append(run.full_pass())
        setups.append(passes[-1]["setup_s"])
    while len(setups) < SETUP_ROUNDS and not run.out_of_time(5.0):
        setups.append(run.setup_round())
    return {
        "verdict_s": (statistics.median(p["verdict_s"] for p in passes), "s", len(passes)),
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MiB", len(passes)),
        "samples": {"verdict_s": [p["verdict_s"] for p in passes],
                    "wall_s": [p["wall_s"] for p in passes],
                    "scales": [p["scales"] for p in passes],
                    "cpu_s": [p["cpu_s"] for p in passes], "setup_s": setups,
                    "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
                    "jobs_s": [p["jobs"] for p in passes]},
    }


def measure_traced(run: Run) -> dict:
    plain = run.full_pass()
    spanned = run.full_pass("spans")
    profiled = run.full_pass("profile")
    layers = spans.layer_metrics({**spanned["layers"], **profiled["layers"]})
    # traced children take no speed samples, so compare raw wall times
    layers["trace.spans_overhead_s"] = spanned["wall_s"] - plain["wall_s"]
    layers["trace.profile_overhead_s"] = profiled["wall_s"] - plain["wall_s"]
    units = spans.metric_units()
    out = {name: (value, units[name], 1) for name, value in layers.items()}
    out["samples"] = {"wall_s": {"plain": plain["wall_s"], "spans": spanned["wall_s"],
                                 "profile": profiled["wall_s"]}}
    return out


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fedconn" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no fedconn sources under {ROOT / 'src'}; "
                         "run from the root of a fedconn checkout\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    deadline = time.monotonic() + DEADLINE_S

    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH) as tmp:
        run = Run(args.workload, args.seed, Path(tmp), deadline)
        warm_up(run)
        metrics = measure_traced(run) if args.trace else measure(run, args.seconds)
    samples = metrics.pop("samples")

    info = machine()
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"python {info['python']}  nproc {info['nproc']}  cpu {info['cpu']}")
    for name, (value, unit, count) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit:6s} n={count}")
    if not args.trace:
        scales = [x for p in samples["scales"] for x in p]
        print(f"  times above are at the reference speed; raw wall time per pass: median "
              f"{statistics.median(samples['wall_s']):.6g} s; machine speed over reference: "
              f"median {statistics.median(scales):.3g}, "
              f"range {min(scales):.3g}-{max(scales):.3g} over {len(scales)} jobs")
    failed = len(run.failures)
    print(f"  {'fail_ratio':40s} {failed / run.attempted:14.6g} {'ratio':6s} "
          f"n={run.attempted} ({failed} failed of {run.attempted} jobs)")
    for failure in run.failures:
        print("  FAILED:", " | ".join(failure))
    if run.missing:
        print("  not traced, no longer in the program:", ", ".join(sorted(run.missing)))

    RESULTS.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "machine": info, "attempted": run.attempted,
              "failures": run.failures, "report_sha256": run.hashes,
              "not_traced": sorted(run.missing),
              "metrics": {k: {"value": v, "unit": u, "samples": n}
                          for k, (v, u, n) in metrics.items()},
              "samples": samples}
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(json.dumps({
        "correct": not run.failures, "attempted": run.attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
