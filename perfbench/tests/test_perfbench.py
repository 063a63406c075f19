"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/tests

Each workload runs through the same op, gate and fingerprint path as a
full run; the traced run must report every per-layer metric and leave every
``tunnelfill`` binding as it found it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import PER_LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tunnelfill_bindings() -> dict[tuple[str, str], object]:
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "tunnelfill" or name.startswith("tunnelfill.")
        for attr, value in vars(module).items()
    }


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_workload_passes_its_gates(name):
    workload, complaints, _, _ = run.setup(name, seed=7, tiny=True)
    result = run.run_pass(workload, workload.op, workload.check, workload.finish)
    assert complaints == [] and result.complaints == []
    assert len(result.latencies) == len(workload.items) > 0


def test_seed_fixes_the_inputs():
    first, _, _, _ = run.setup("realize-verify", seed=3, tiny=True)
    again, _, _, _ = run.setup("realize-verify", seed=3, tiny=True)
    other, _, _, _ = run.setup("realize-verify", seed=4, tiny=True)
    entries = lambda w: [seq.entries for seq, _ in w.items]  # noqa: E731
    assert entries(first) == entries(again) != entries(other)


def test_census_gate_rejects_a_changed_csv():
    workload, _, _, _ = run.setup("census", seed=1, tiny=True)
    rows = [workload.op(seq) for seq in workload.items]
    csv_text = workload.finish(rows)
    assert workload.check_finish(csv_text) is None
    assert workload.check_finish(csv_text.replace("REALIZABLE", "NOT_REALIZABLE", 1))


def test_long_decide_gate_rejects_a_wrong_verdict():
    workload, _, _, _ = run.setup("long-decide", seed=1, tiny=True)
    ladder_item = next(item for item in workload.items if item[2] is None)
    random_item = next(item for item in workload.items if item[2] is not None)
    assert workload.check(random_item, workload.op(ladder_item))
    assert workload.check(ladder_item, workload.op(random_item))


def test_verify_docs_gate_rejects_another_documents_reports():
    workload, _, _, _ = run.setup("verify-docs", seed=1, tiny=True)
    outputs = {i: workload.op(i) for i in workload.items}
    assert all(workload.check(i, out) is None for i, out in outputs.items())
    pinned = {i: workload.pins[i] for i in outputs}
    first, second = next((a, b) for a in outputs for b in outputs if pinned[a] != pinned[b])
    assert workload.check(first, outputs[second])


@pytest.mark.parametrize(
    "name, busy_layer",
    [
        ("census", "oracle.oracle_decide.calls"),
        ("long-decide", "filler.partial_realize.calls"),
        ("realize-verify", "builder.glue.self_s"),
        ("verify-docs", "f2poly.smith_normal_form.calls"),
    ],
)
def test_traced_run_reports_every_layer_and_restores_bindings(name, busy_layer):
    workload, _, _, _ = run.setup(name, seed=2, tiny=True)
    before = tunnelfill_bindings()
    untraced = run.run_pass(workload, workload.op, workload.check, workload.finish, timer=False)
    traced, tracer, unrestored = run.traced_pass(workload, vars(workload.lib))
    assert tracer.bindings, "nothing was wrapped"
    assert unrestored == []
    after = tunnelfill_bindings()
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())
    assert traced.complaints == []

    values = run.layer_metrics(
        tracer, traced.wall, traced.nominal()[1] / untraced.nominal()[1], run.src_loc()
    )
    assert [m["name"] for m in BENCHMARK["per_layer"]] == [n for n, _ in PER_LAYER_METRICS]
    assert set(values) == {n for n, _ in PER_LAYER_METRICS}
    assert values[busy_layer] > 0
    assert abs(values["trace.attributed_ratio"] - 1) < run.ATTRIBUTION_TOLERANCE


def test_self_time_is_span_minus_children():
    tracer = run.Tracer()

    def inner():
        return sum(range(20000))

    traced_inner = tracer.spanned("inner", inner)

    def outer():
        return traced_inner() + traced_inner()

    tracer.spanned("outer", outer)()
    calls, self_s, roots = tracer.summary()
    assert calls == {"outer": 1, "inner": 2}
    starts, ends = tracer.starts, tracer.ends
    assert roots == pytest.approx(ends[0] - starts[0])
    assert self_s["outer"] == pytest.approx(roots - (ends[1] - starts[1]) - (ends[2] - starts[2]))
    assert sum(self_s.values()) == pytest.approx(roots)


def test_end_to_end_metrics_match_the_benchmark_file():
    latencies = [0.001 * (i + 1) for i in range(100)]
    values = run.end_to_end([(latencies, sum(latencies))], 90.0, 0.5, 30.0)
    assert set(values) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert values["op_tail_ms"] == pytest.approx(90.0)


def test_op_times_scale_by_the_reference_samples_around_them():
    nominal = run.NOMINAL_REFERENCE_S
    result = run.Pass(
        latencies=[0.01, 0.02, 0.03], finish_time=0.04,
        samples=[(0, 2 * nominal), (2, 2 * nominal), (3, nominal)],
    )
    # Ops 0 and 1 have the samples at 0 and 2 around them; op 2 the ones at
    # 2 and 3; the finish step, at position 3, only the last one.
    assert run.scales(result.samples, 4) == pytest.approx([0.5, 0.5, 2 / 3, 1.0])
    latencies, busy = result.nominal()
    assert latencies == pytest.approx([0.005, 0.01, 0.02])
    assert busy == pytest.approx(0.035 + 0.04)


def test_samples_taken_during_an_op_set_its_scale():
    nominal = run.NOMINAL_REFERENCE_S
    samples = [(0, nominal), (1, 4 * nominal), (1, 4 * nominal), (2, nominal)]
    assert run.scales(samples, 2) == pytest.approx([2 / 5, 3 / 9])


def test_a_long_op_is_sampled_while_it_runs():
    sampler = run.HostSampler()
    with sampler:
        stop = run.perf_counter() + 4 * run.REFERENCE_EVERY
        while run.perf_counter() < stop:
            pass
    assert len(sampler.samples) >= 4
    assert sampler.stolen > 0
    assert sampler.clock() == pytest.approx(run.perf_counter() - sampler.stolen, abs=1e-3)


def test_without_the_timer_samples_come_between_ops():
    workload, _, _, _ = run.setup("verify-docs", seed=1, tiny=True)
    result = run.run_pass(workload, workload.op, workload.check, workload.finish, timer=False)
    assert result.samples[0][0] == 0 and result.samples[-1][0] == len(result.latencies)
    assert len(result.samples) >= 2


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(47988) == 99.0
    assert run.tail_percentile(500) == 98.0
    assert run.tail_percentile(112) == 90.0
    assert run.tail_percentile(12) == 50.0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "census",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode not in (0, None)
    assert done.stdout == ""
