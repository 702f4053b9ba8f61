"""Checks of the benchmark itself: the traced call computes what the untraced
call computes, and its spans account for the traced time. Small corpora
keep these fast; the workloads' full sizes are exercised by ``run.py``."""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workloads as wl  # noqa: E402
from spans import Tracer  # noqa: E402

SMALL = {"sem-hybrid": 20, "topo-lowlevel": 30}


@pytest.fixture(scope="module", params=sorted(SMALL))
def traced(request):
    """(untraced output, traced output, tracer) for one small workload."""
    workload = dataclasses.replace(wl.WORKLOADS[request.param],
                                   n_per_sense=SMALL[request.param])
    inputs = wl.make_inputs(workload, seed=3)
    tracer = Tracer()
    wl.trace_preprocess(inputs, tracer)
    return wl.run(inputs), wl.run_traced(inputs, tracer), tracer


def test_traced_rows_equal_untraced_rows(traced):
    untraced, output, _ = traced
    assert output.rows == untraced.rows
    assert output.digest() == untraced.digest()
    assert output.acc_lam0 == untraced.acc_lam0
    assert output.acc_best == untraced.acc_best


def test_spans_nest_and_self_times_are_nonnegative(traced):
    _, _, tracer = traced
    assert all(span.end is not None for span in tracer.spans)
    for span in tracer.spans:
        if span.parent is not None:
            parent = tracer.spans[span.parent]
            assert parent.start <= span.start <= span.end <= parent.end
    assert all(t >= 0 for t in tracer.self_times())
    assert [s.name for s in tracer.roots()] == ["corpus.preprocess", "evaluate.run"]


def test_layer_self_times_add_up_to_traced_total(traced):
    _, output, tracer = traced
    metrics = wl.layer_metrics(tracer, output)
    # corpus preprocessing is set-up, outside the traced call; p-values
    # are part of the evaluate layer's self time
    outside = {"corpus.preprocess_s", "evaluate.pvalue_s"}
    layers = sum(metrics[f"{n}_s"] for n in wl.TIMED_SPANS if f"{n}_s" not in outside)
    assert layers + metrics["evaluate.self_s"] == pytest.approx(metrics["trace.total_s"],
                                                                rel=1e-9, abs=1e-12)


def test_every_per_layer_metric_is_reported(traced):
    _, output, tracer = traced
    metrics = wl.layer_metrics(tracer, output)
    # the worker adds these two from its own timings
    produced = set(metrics) | {"corpus.preprocess_s", "trace.overhead_s"}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["per_layer"]} <= produced


def test_launcher_fails_without_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sem-hybrid", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
