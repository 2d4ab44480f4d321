"""Tests of the benchmark's own code.

Run from the root of the repository:

    python3 -m pytest -q benchmarks

The package's test suite (``tests/``) does not collect this file.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from liequad import expquad, reconstruct  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def make_spans(rows):
    """Spans from (name, start, end, parent) rows."""
    spans = []
    for name, start, end, parent in rows:
        s = tracing.Span(name, start, parent)
        s.end = end
        s.ok = True
        spans.append(s)
    return spans


# -- span arithmetic -----------------------------------------------------------------


def test_self_time_subtracts_children_once():
    spans = make_spans([
        ("route", 0.0, 10.0, -1),
        ("node", 1.0, 4.0, 0),
        ("chart", 1.5, 2.5, 1),
        ("chart", 3.0, 3.5, 1),
        ("node", 5.0, 9.0, 0),
        ("chart", 5.0, 9.0, 4),
    ])
    assert tracing.self_times(spans) == pytest.approx([3.0, 1.5, 1.0, 0.5, 0.0, 4.0])


def test_self_time_merges_overlapping_children_and_clips_them():
    spans = make_spans([
        ("outer", 0.0, 4.0, -1),
        ("a", 1.0, 3.0, 0),
        ("b", 2.0, 5.0, 0),  # overlaps a and runs past its parent
    ])
    assert tracing.self_times(spans)[0] == pytest.approx(1.0)


def test_summary_adds_calls_failures_and_layer_self_time():
    spans = make_spans([
        ("route", 0.0, 10.0, -1),
        ("node", 1.0, 4.0, 0),
        ("node", 5.0, 9.0, 0),
        ("chart", 5.0, 6.0, 2),
    ])
    spans[2].ok = False
    spans[1].info["doublings"] = 2
    summary = tracing.summarize(spans)
    assert summary["node"]["calls"] == 2
    assert summary["node"]["failed"] == 1
    assert summary["node"]["self_s"] == pytest.approx(6.0)
    assert summary["node"]["total_s"] == pytest.approx(7.0)
    assert summary["node"]["info"] == {"doublings": 2}
    assert summary["route"]["self_s"] == pytest.approx(3.0)


def test_wrapper_records_nesting_only_while_active():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4 and tracer.spans == []
    tracer.active = True
    assert outer(1) == 4
    assert [(s.name, s.parent, s.ok) for s in tracer.spans] == [("outer", -1, True), ("inner", 0, True)]

    failing = tracer.wrap("failing", lambda: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        failing()
    assert tracer.spans[-1].ok is False and tracer._stack == []


# -- patching ------------------------------------------------------------------------


def wrapped_attributes():
    found = []
    for mod in tracing.package_modules():
        for key, value in vars(mod).items():
            if tracing.is_wrapper(value):
                found.append(f"{mod.__name__}.{key}")
            elif isinstance(value, type):
                found += [f"{mod.__name__}.{key}.{a}" for a, v in vars(value).items() if tracing.is_wrapper(v)]
    return found


def test_patch_covers_every_import_site_and_uninstalls():
    tracer = tracing.Tracer()
    patch = tracing.Patch(tracer).install()
    try:
        originals = set(map(id, patch.originals.values()))
        for mod in tracing.package_modules():
            for key, value in vars(mod).items():
                assert id(value) not in originals, f"{mod.__name__}.{key} still unwrapped"
                if isinstance(value, type):
                    for attr, member in vars(value).items():
                        assert id(member) not in originals, f"{mod.__name__}.{key}.{attr} unwrapped"
        # the from-import sites named in the package
        assert tracing.is_wrapper(reconstruct.matrix_exp_oracle)
        assert tracing.is_wrapper(reconstruct.exp_general)
        assert tracing.is_wrapper(expquad.integrate_by_quadratures)
        assert len(patch.originals) == len(tracing.TARGETS)
    finally:
        patch.uninstall()
    assert wrapped_attributes() == []
    assert not tracing.is_wrapper(reconstruct.exp_general)


def test_workloads_hold_no_direct_package_functions():
    # workloads reach routes through their modules, so wrappers see the calls
    for value in vars(workloads).values():
        assert getattr(value, "__module__", "").split(".")[0] != "liequad" or isinstance(value, type)


def test_untraced_run_installs_no_wrappers(monkeypatch, capsys):
    def refuse(self):
        raise AssertionError("the untraced run installed wrappers")

    monkeypatch.setattr(tracing.Patch, "install", refuse)
    assert run.main(["--workload", "exp", "--seed", "3", "--seconds", "1", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert wrapped_attributes() == []


# -- whole runs ----------------------------------------------------------------------


def bench(workload, trace, cwd=ROOT, seed=5):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_names(result, entries):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {e["name"]: e["unit"] for e in entries}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_end_to_end_metric(workload):
    result = result_of(bench(workload, 0))
    check_names(result, SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_smoke_traced_run_emits_every_per_layer_metric_with_repeatable_counts():
    first, second = result_of(bench("exp", 1)), result_of(bench("exp", 1))
    check_names(first, SPEC["per_layer"])
    for name, entry in first["metrics"].items():
        if entry["unit"] in ("count", "count/sample") or name.endswith("fail_ratio"):
            assert second["metrics"][name]["value"] == entry["value"], name
    assert first["metrics"]["liegroup.oracle_calls_per_sample"]["value"] == 0.0
    assert first["metrics"]["trace.overhead_ratio"]["value"] > 0.0


def test_run_without_the_package_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("exp", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
