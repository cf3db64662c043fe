"""Self-tests of the benchmark harness: span arithmetic, wrapper install and
restore, the seeded generator and the output check.

Run from the repository root: python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import shutil
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import qshield  # noqa: E402
import qshield.cli  # noqa: E402

import trace_child  # noqa: E402
import workloads as wl  # noqa: E402
from spans import TRACED, Tracer, summarize  # noqa: E402


def test_self_time_on_nested_and_sibling_spans():
    spans = [
        [0, None, "a", 0.0, 10.0],
        [1, 0, "b", 1.0, 3.0],  # first child of a
        [2, 0, "c", 4.0, 8.0],  # second child of a, sibling of b
        [3, 2, "d", 5.0, 6.0],  # grandchild of a
        [4, None, "b", 11.0, 12.0],  # b again, at the top
    ]
    stats = summarize(spans)
    assert stats["a"] == {"calls": 1, "total_s": 10.0, "self_s": 4.0}
    assert stats["b"] == {"calls": 2, "total_s": 3.0, "self_s": 3.0}
    assert stats["c"] == {"calls": 1, "total_s": 4.0, "self_s": 3.0}
    assert stats["d"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}


def test_recursive_span_counts_total_once():
    stats = summarize([[0, None, "r", 0.0, 5.0], [1, 0, "r", 1.0, 3.0]])
    assert stats["r"] == {"calls": 2, "total_s": 5.0, "self_s": 5.0}


@pytest.fixture
def fake_package(monkeypatch):
    def f(x):
        return x + 1

    package = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")
    a.f = b.f = f
    for mod in (package, a, b):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return f, a, b


def test_function_bound_in_two_modules_is_one_span_per_call(fake_package):
    f, a, b = fake_package
    tracer = Tracer("t", package="fakepkg")
    assert tracer.install(["a.f", "a.missing"]) == ["a.missing"]
    assert a.f is b.f and a.f is not f
    assert a.f(1) == 2 and b.f(2) == 3
    stats = summarize(tracer.spans)
    assert stats["a.f"]["calls"] == 2
    assert tracer.restore() == []
    assert a.f is f and b.f is f


def qshield_bindings() -> dict:
    bound = {}
    for name, mod in list(sys.modules.items()):
        if name == "qshield" or name.startswith("qshield."):
            for attr, value in vars(mod).items():
                bound[(name, attr)] = id(value)
                if isinstance(value, type) and value.__module__.startswith("qshield"):
                    for meth, impl in vars(value).items():
                        bound[(name, attr, meth)] = id(impl)
    return bound


def tiny_run(tmp_path: Path) -> tuple[wl.Workload, Path, list[str]]:
    w = wl.Workload(
        name="tiny", command="run", rows=40, features=6, shape="", why="",
        config={"model": {"type": "vqc", "n_qubits": 2, "n_layers": 1, "repetitions": 1},
                "training": {"epochs": 1}},
    )
    wl.prepare_inputs(w, 3, tmp_path / "inputs")
    out = tmp_path / "out"
    out.mkdir()
    return w, out, wl.timed_command(w, tmp_path / "inputs", out)


def test_traced_run_restores_every_binding(tmp_path):
    w, out, args = tiny_run(tmp_path)
    before = qshield_bindings()
    spans_path = tmp_path / "spans.json"
    assert trace_child.main([str(spans_path), "t", *args]) == 0
    assert qshield_bindings() == before
    payload = json.loads(spans_path.read_text())
    assert payload["not_restored"] == [] and payload["missing"] == []
    stats = summarize(payload["spans"])
    assert stats["cli.main"]["calls"] == 1 and stats["vqc.train_vqc"]["calls"] == 1
    assert set(stats) <= set(TRACED)
    wl.read_outputs(w, out, "")


def test_generator_is_a_function_of_the_seed(tmp_path):
    paths = {}
    for key, seed, stream in (("a", 5, 0), ("b", 5, 0), ("c", 6, 0), ("d", 5, 1)):
        paths[key] = tmp_path / f"{key}.csv"
        wl.write_dataset(paths[key], 30, 8, seed, stream)
    data = {k: p.read_bytes() for k, p in paths.items()}
    assert data["a"] == data["b"]
    assert data["a"] != data["c"] and data["a"] != data["d"]
    assert data["a"].splitlines()[0] == b"f0,f1,f2,f3,f4,f5,f6,f7,label"


def test_output_check_fails_on_one_flipped_label(tmp_path, capsys):
    w, out, args = tiny_run(tmp_path)
    assert qshield.cli.main(args) == 0
    digest = wl.read_outputs(w, out, capsys.readouterr().out)

    flipped = tmp_path / "flipped"
    shutil.copytree(out, flipped)
    lines = (flipped / "predictions.csv").read_text().splitlines()
    index, p, label = lines[1].split(",")
    lines[1] = f"{index},{p},{1 - int(label)}"
    (flipped / "predictions.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(wl.OutputError, match="label"):
        wl.read_outputs(w, flipped, "")

    # A flip that keeps label = [p >= 0.5] is caught by the comparison.
    other = {**digest, "predictions": [list(row) for row in digest["predictions"]]}
    p0, label0 = other["predictions"][0]
    other["predictions"][0] = [1.0 - p0, 1 - label0]
    assert wl.mismatches(other, digest)


def test_comparison_tolerance():
    base = {"p": [0.25, 1], "n": 3}
    assert wl.mismatches({"p": [0.25 + 1e-12, 1], "n": 3}, base) == []
    assert wl.mismatches({"p": [0.25 + 1e-6, 1], "n": 3}, base)
    assert wl.mismatches({"p": [0.25, 0], "n": 3}, base)
    assert wl.mismatches({"p": [0.25, 1], "n": 4}, base)


def test_benchmark_json_lists_what_the_harness_reports():
    import run

    bench = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in bench["end_to_end"]] == list(run.END_TO_END.values())
    assert [m["name"] for m in bench["per_layer"]] == run.all_layer_metrics()
    assert [m["unit"] for m in bench["per_layer"]] == [run.layer_unit(n) for n in run.all_layer_metrics()]
    assert [w["name"] for w in bench["workloads"]] == list(wl.WORKLOADS)


def test_refuses_to_run_without_the_sources(tmp_path):
    import subprocess

    shutil.copytree(Path(__file__).resolve().parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "vqc-train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_child_peak_rss_is_the_childs_own(tmp_path):
    import resource

    import run

    own_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    child = run.spawn([sys.executable, "-c", "pass"], tmp_path / "log")
    assert child.code == 0
    assert child.rss_mb < own_mb - 5
