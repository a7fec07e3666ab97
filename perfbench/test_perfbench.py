"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import gen  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def test_generator_is_deterministic_per_seed(tmp_path):
    texts = {seed: gen.curved_r4(seed) for seed in range(6)}
    assert all(gen.curved_r4(seed) == text for seed, text in texts.items())
    assert len(set(texts.values())) > 1
    for seed in texts:
        path, invalid = run.generate_scenario(seed, tmp_path)
        assert invalid is None
        assert path.read_text() == texts[seed]


def test_a_failing_generated_scenario_counts_as_failed(tmp_path, monkeypatch):
    broken = tmp_path / gen.NAME
    broken.write_text(gen.curved_r4(0).replace("Gamma[1][1][1]", "Gamma[1][2][2]", 1))
    problem = gen.check(broken)
    assert problem
    monkeypatch.setattr(run, "generate_scenario", lambda seed, workdir: (broken, problem))
    r = run.Run("quantize-curved", 5, tmp_path, time.monotonic() + 60)
    assert list(r.skipped) == [r.jobs[1].label]
    assert r.job(r.jobs[1]) is None
    assert r.attempted == 1 and r.failures[0][0] == r.jobs[1].label


REPORT = (b"command: quantize\nscenario: x.scn\nseed: 0\n\n[PASS] a: b\n\n"
          b"summary: 1 passed, 0 failed, 0 n/a\n")


def _outcome(report, code=0, stderr=b""):
    return run.Outcome(1.0, 1.0, 0.1, 1024, code, report, stderr, {})


def test_one_changed_byte_is_a_failure():
    digest = hashlib.sha256(REPORT).hexdigest()
    assert run.judge(_outcome(REPORT), digest) is None
    for i in range(len(REPORT)):
        changed = REPORT[:i] + bytes([REPORT[i] ^ 1]) + REPORT[i + 1:]
        assert run.judge(_outcome(changed), digest) is not None, i


def test_failing_jobs_are_failures_without_a_reference():
    assert run.judge(_outcome(REPORT), None) is None
    assert run.judge(_outcome(REPORT, code=1), None)
    assert run.judge(_outcome(REPORT, stderr=b"Traceback (most recent call last):\n"), None)
    assert run.judge(_outcome(REPORT.replace(b"[PASS]", b"[FAIL]")), None)
    assert run.judge(_outcome(b""), None)


def test_job_times_are_scaled_to_the_reference_speed(tmp_path, monkeypatch):
    # a machine at half the reference speed; 0.5 s of the job went to samples
    side = {"probe": {"n": 20, "mean_s": 2 * probe.REF_S, "total_s": 0.5},
            "setup_probe_s": 0.1}
    monkeypatch.setattr(run, "run_child", lambda *args: run.Outcome(
        3.5, 3.0, 1.1, 1024, 0, REPORT, b"", side))
    r = run.Run("kahler-order1", 5, tmp_path, time.monotonic() + 60)
    measured = r.full_pass()
    assert not r.failures
    assert measured["wall_s"] == pytest.approx(3.0 * len(r.jobs))
    assert measured["verdict_s"] == pytest.approx(1.5 * len(r.jobs))
    assert measured["setup_s"] == pytest.approx(0.5 * len(r.jobs))
    assert r.setup_round() == pytest.approx(0.5 * len(r.jobs))


def test_sampler_times_pieces_while_the_job_runs():
    sampler = probe.Sampler()
    sampler.start()
    busy_until = time.monotonic() + 3 * probe.PERIOD_S
    while time.monotonic() < busy_until:
        pass
    sampler.stop()
    stats = sampler.stats()
    assert stats["n"] >= 4  # start, at least two ticks, stop
    assert 0 < stats["mean_s"] < stats["total_s"] < 3 * probe.PERIOD_S


def test_reference_covers_every_default_seed_job(tmp_path):
    reference = json.loads(run.REFERENCE.read_text())
    assert reference["seed"] == run.DEFAULT_SEED
    for workload in run.WORKLOADS:
        jobs = run.jobs_for(workload, run.DEFAULT_SEED, tmp_path / gen.NAME)
        assert set(reference[workload]) == {job.label for job in jobs}


# small versions of each workload's jobs: the emitted metric set does not
# depend on job size, and these keep a traced run to a few seconds
SMALL = {
    "quantize-curved": [("quantize", "scenarios/curved_r2.scn", 1), ("quantize", None, 1)],
    "family-gauge": [("family", "scenarios/family_r2.scn", 1),
                     ("gauge", "scenarios/family_r2.scn", 1)],
    "kahler-order1": [("kahler", "scenarios/kahler_r2.scn", None)],
}
EXERCISED = {
    "quantize-curved": ("weylforms.mw.pairs", "fedosov.tau.calls", "fedosov.extract_star.terms",
                        "polynomials.Poly.calls", "scalars.Scalar.calls"),
    "family-gauge": ("families.connection_form.terms", "multidiff.operator_from_callable.evals",
                     "multidiff.apply.calls", "polynomials.ParamPoly.calls"),
    "kahler-order1": ("kahler.gtilde_variation.calls", "polynomials.ParamRational.calls"),
}


def _traced(workload, tmp_path):
    r = run.Run(workload, run.DEFAULT_SEED, tmp_path, time.monotonic() + 120)
    generated = r.jobs[1].argv[2] if workload == "quantize-curved" else None
    r.jobs = [run._job(cmd, scn or generated, 0, order) for cmd, scn, order in SMALL[workload]]
    metrics = run.measure_traced(r)
    assert not r.failures
    metrics.pop("samples")
    return metrics


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload, tmp_path):
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    units = spans.metric_units()
    assert [m["name"] for m in declared] == list(units)
    assert all(m["unit"] == units[m["name"]] for m in declared)

    first = _traced(workload, tmp_path)
    assert list(first) == list(units)
    assert all(first[name][1] == units[name] for name in units)
    for name in EXERCISED[workload]:
        assert first[name][0] > 0, name

    counts = [n for n, unit in units.items() if unit == "count"]
    second = _traced(workload, tmp_path)
    assert {n: first[n][0] for n in counts} == {n: second[n][0] for n in counts}
