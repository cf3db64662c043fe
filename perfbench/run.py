#!/usr/bin/env python3
"""qshield benchmark: seeded CLI workloads, end-to-end timings and a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

``--trace 0`` sets the workload up SETUPS times (data, config, and for
ensemble-score the trained model), then runs its CLI command in a child
process, one at a time, for about S seconds, and reports the medians of the
end-to-end metrics. ``--trace 1`` makes one untraced and one traced run of
every workload, whatever S, and reports the per-layer metrics, so every
per-layer metric is present whichever workload is named. ``--workload all``
runs each workload's ``--trace 0`` invocation in turn and prints every
end-to-end metric of every workload. The workloads, their shapes and predicted
effects are in workloads.py; the trace wrappers in spans.py.

qshield runs from this checkout's src/ (PYTHONPATH is prefixed with it), so
nothing needs installing; without src/qshield the benchmark exits with code 2.
Scratch files go under .perfbench-work/, with one result file per invocation
(metrics, every sample, environment) in .perfbench-work/results/. The last line
of standard output is one JSON object with the keys correct, attempted, failed
and metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import workloads as wl
from spans import summarize

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = ROOT / ".perfbench-work"
PYTHON = sys.executable
SETUPS = 5
MIN_RUNS = 3
# Children still running this long after start are killed and count as failed,
# so that one invocation ends within 180 seconds whatever the program does.
DEADLINE = time.monotonic() + 160.0
IMPORT_CHECK = "import qshield, qshield.cli; print(qshield.__file__)"

END_TO_END = {  # name -> unit
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "rows_per_s": "1/s",
    "setup_s": "s",
}


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if "_us." in name:  # gate probes, statevector.apply_gate.<gate>_us.n<qubits>
        return "us"
    if name.endswith("_s"):
        return "s"
    return "count"


def global_layer_metrics() -> list[str]:
    probes = [f"statevector.apply_gate.{g}_us.n{n}" for g in ("ry", "cnot") for n in wl.PROBE_QUBITS]
    return probes + ["cli.import_s"]


def all_layer_metrics() -> list[str]:
    names = global_layer_metrics()
    for workload, metrics in wl.LAYER_METRICS.items():
        names += [f"{workload}.{m}" for m in metrics]
    return names


@dataclass
class Child:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    output: str


# Children see this process's environment, with the checkout's src/ first on PYTHONPATH.
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
}


def spawn(argv: list[str], log: Path) -> Child:
    """Run one child to exit through launch.py, which measures it."""
    timeout = max(0.5, DEADLINE - time.monotonic())
    done = subprocess.run([PYTHON, "-S", str(HERE / "launch.py"), str(log), str(timeout), *argv],
                          cwd=ROOT, env=CHILD_ENV, capture_output=True, text=True)
    if done.returncode != 0:
        raise SetupError(f"launcher failed: {done.stderr}")
    measured = json.loads(done.stdout)
    return Child(
        wall=measured["wall_s"],
        cpu=measured["cpu_s"],
        rss_mb=measured["rss_mb"],
        code=measured["code"],
        output=log.read_text(encoding="utf-8", errors="replace"),
    )


def qshield(*args: str) -> list[str]:
    return [PYTHON, "-m", "qshield.cli", *args]


class SetupError(Exception):
    pass


def set_up(w: wl.Workload, seed: int, dest: Path) -> float:
    """Generate inputs, check the checkout's qshield imports, run set-up commands."""
    start = time.perf_counter()
    wl.prepare_inputs(w, seed, dest)
    child = spawn([PYTHON, "-c", IMPORT_CHECK], dest / "import.log")
    location = Path(child.output.strip().splitlines()[-1]) if child.output.strip() else None
    if child.code != 0 or location is None or ROOT / "src" not in location.parents:
        raise SetupError(f"qshield does not import from {ROOT / 'src'}: {child.output.strip()}")
    for i, args in enumerate(wl.setup_commands(w, dest)):
        child = spawn(qshield(*args), dest / f"setup{i}.log")
        if child.code != 0:
            raise SetupError(f"set-up command {args[:2]} exited {child.code}: {child.output}")
    return time.perf_counter() - start


def tree_digest(path: Path) -> dict:
    return {
        str(p.relative_to(path)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(path.rglob("*"))
        if p.is_file() and p.suffix in (".csv", ".json")
    }


class Checker:
    """Checks each run's outputs: structure always, stored references for the
    default seed, and agreement with the first run of this invocation."""

    def __init__(self, w: wl.Workload, seed: int, writing_reference: bool = False):
        self.w = w
        self.reference = None
        self.first = None
        self.problems: list[str] = []
        if seed == wl.DEFAULT_SEED and not writing_reference:
            try:
                self.reference = json.loads(wl.reference_path(w).read_text(encoding="utf-8"))
            except OSError as exc:
                self.problems.append(f"no stored reference: {exc}")

    def check(self, child: Child, out: Path, label: str) -> dict | None:
        try:
            if child.code != 0:
                raise wl.OutputError(f"exit code {child.code}: {child.output[-2000:]}")
            digest = wl.read_outputs(self.w, out, child.output)
        except wl.OutputError as exc:
            self.problems.append(f"{label}: {exc}")
            return None
        found = []
        if self.reference is not None:
            found += [f"vs reference {m}" for m in wl.mismatches(digest, self.reference)]
        if self.first is None:
            self.first = digest
        else:
            found += [f"vs first run {m}" for m in wl.mismatches(digest, self.first)]
        if found:
            self.problems.append(f"{label}: " + "; ".join(found[:5]))
            return None
        return digest


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4, method="inclusive")


def measure(w: wl.Workload, seed: int, seconds: float, work: Path, writing_reference: bool) -> dict:
    """Set up SETUPS times, then time the command for about ``seconds``."""
    setup_times = [set_up(w, seed, work / f"setup{k}") for k in range(SETUPS)]
    inputs = work / "setup0"
    problems = []
    first_tree = tree_digest(inputs)
    for k in range(1, SETUPS):
        if tree_digest(work / f"setup{k}") != first_tree:
            problems.append(f"set-up {k} produced different inputs than set-up 0")

    checker = Checker(w, seed, writing_reference)
    samples = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        typical = statistics.median(s["wall_s"] for s in samples) if samples else 0.0
        if len(samples) >= MIN_RUNS and (elapsed + typical > seconds or time.monotonic() + typical > DEADLINE):
            break
        out = work / f"out{len(samples)}"
        out.mkdir()
        child = spawn(qshield(*wl.timed_command(w, inputs, out)), work / f"run{len(samples)}.log")
        digest = checker.check(child, out, f"run {len(samples)}")
        samples.append({
            "wall_s": child.wall,
            "cpu_s": child.cpu,
            "peak_rss_mb": child.rss_mb,
            "ok": digest is not None,
        })
        shutil.rmtree(out)

    ok = [s for s in samples if s["ok"]] or samples
    metrics = {
        "wall_s": statistics.median(s["wall_s"] for s in ok),
        "cpu_s": statistics.median(s["cpu_s"] for s in ok),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in ok),
        "rows_per_s": statistics.median(wl.input_rows(w) / s["wall_s"] for s in ok),
        "setup_s": statistics.median(setup_times),
    }
    spread = {
        "setup_s": quartiles(setup_times),
        **{k: quartiles([s[k] for s in ok]) for k in ("wall_s", "cpu_s", "peak_rss_mb")},
    }
    return {
        "metrics": metrics,
        "spread": spread,
        "samples": samples,
        "setup_times": setup_times,
        "attempted": len(samples),
        "failed": sum(not s["ok"] for s in samples),
        "problems": problems + checker.problems,
        "first_digest": checker.first,
    }


def layer_values(w: wl.Workload, stats: dict, digest: dict, inputs: Path) -> dict:
    """Span statistics plus the counts and rates derived from the outputs."""
    def total(span: str) -> float:
        return stats.get(span, {}).get("total_s", 0.0)

    values = {f"{span}.{key}": value for span, by_key in stats.items() for key, value in by_key.items()}
    epochs = w.config.get("training", {}).get("epochs")
    if epochs:
        values["vqc.train_vqc.epoch_s"] = total("vqc.train_vqc") / epochs
    if w.command == "run" and "svm" in digest["report"]:
        n_train = digest["report"]["data"]["n_train"]
        values["qkernel.train_qsvm.updates"] = digest["report"]["svm"]["n_updates"]
        values["qkernel.n_support"] = digest["report"]["svm"]["n_support"]
        if total("qkernel.kernel_matrix"):
            values["qkernel.kernel_matrix.entries_per_s"] = n_train * (n_train + 1) / 2 / total("qkernel.kernel_matrix")
    if w.command == "predict":
        model = json.loads((inputs / "model" / "model.json").read_text(encoding="utf-8"))
        svm = next(m for m in model["members"] if m["model_type"] == "qsvm")
        values["qkernel.n_support"] = len(svm["dual_coeffs"])
    if total("preprocess.load_csv"):
        values["preprocess.load_csv.cells_per_s"] = w.rows * (w.features + 1) / total("preprocess.load_csv")
    return values


def trace_all(first: str, seed: int, work: Path) -> dict:
    """One untraced and one traced run of every workload, plus the gate probe
    and the import time; returns the per-layer metrics."""
    order = [first] + [name for name in wl.WORKLOADS if name != first]
    inputs = {}
    for name in order:
        inputs[name] = work / f"{name}-inputs"
        set_up(wl.WORKLOADS[name], seed, inputs[name])

    metrics: dict = {}
    import_times = [spawn([PYTHON, "-c", "import qshield.cli"], work / "import.log").wall for _ in range(3)]
    metrics["cli.import_s"] = statistics.median(import_times)
    probe = spawn([PYTHON, str(HERE / "probe.py"), str(seed)], work / "probe.log")
    if probe.code != 0:
        raise SetupError(f"gate probe failed: {probe.output}")
    gate_us = json.loads(probe.output.strip().splitlines()[-1])
    bytes_moved = {}
    for gate, by_n in gate_us.items():
        for n, us in by_n.items():
            metrics[f"statevector.apply_gate.{gate}_us.n{n}"] = us
            bytes_moved[f"statevector.apply_gate.{gate}_us.n{n}"] = 2 * 16 * 2 ** int(n)

    attempted = failed = 0
    problems, shares, spans_meta = [], {}, {}
    for name in order:
        w = wl.WORKLOADS[name]
        checker = Checker(w, seed)
        runs = {}
        for mode in ("untraced", "traced"):
            out = work / f"{name}-{mode}"
            out.mkdir()
            args = wl.timed_command(w, inputs[name], out)
            spans_path = work / f"{name}-spans.json"
            argv = qshield(*args) if mode == "untraced" else [
                PYTHON, str(HERE / "trace_child.py"), str(spans_path), f"{name}-{seed}-{os.getpid()}", *args
            ]
            child = spawn(argv, work / f"{name}-{mode}.log")
            digest = checker.check(child, out, f"{name} {mode}")
            attempted += 1
            failed += digest is None
            runs[mode] = (child, digest)
        problems += checker.problems
        traced, digest = runs["traced"]
        if digest is None:
            metrics.update({f"{name}.{m}": 0 for m in wl.LAYER_METRICS[name]})
            continue
        payload = json.loads(spans_path.read_text(encoding="utf-8"))
        if payload["not_restored"]:
            problems.append(f"{name}: wrappers not restored: {payload['not_restored']}")
        stats = summarize(payload["spans"])
        values = layer_values(w, stats, digest, inputs[name])
        values["trace.overhead_s"] = traced.wall - runs["untraced"][0].wall
        metrics.update({f"{name}.{m}": values.get(m, 0) for m in wl.LAYER_METRICS[name]})
        spans_meta[name] = {"missing": payload["missing"], "spans": len(payload["spans"]), "stats": stats}
        dominant, floor = wl.SHARES[name]
        main_s = stats.get("cli.main", {}).get("total_s", 0.0)
        share = sum(stats.get(s, {}).get("total_s", 0.0) for s in dominant) / main_s if main_s else 0.0
        shares[name] = {"spans": dominant, "share_of_cli_main": share, "expected_at_least": floor}
    return {
        "metrics": metrics,
        "bytes_moved_computed": bytes_moved,
        "import_times": import_times,
        "shares": shares,
        "spans": spans_meta,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }


def environment() -> dict:
    def version(package: str):
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return None

    def git(*args: str):
        try:
            done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30,
                                  env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout if done.returncode == 0 else None

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    sha, status = git("rev-parse", "HEAD"), git("status", "--porcelain")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "click": version("click"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_sha": sha.strip() if sha else None,
        "git_dirty": bool(status.strip()) if status is not None else None,
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "child_PYTHONPATH": CHILD_ENV["PYTHONPATH"],
    }


def print_metric(name: str, value, unit: str, note: str = "") -> None:
    shown = f"{value:.6g}" if isinstance(value, float) else str(value)
    print(f"  {name:<58} {shown:>12} {unit:<5} {note}".rstrip())


def run_workload(name: str, seed: int, seconds: float, work: Path, write_reference: bool) -> dict:
    w = wl.WORKLOADS[name]
    print(f"workload {name}: {w.shape}")
    result = measure(w, seed, seconds, work, write_reference)
    m, n = result["metrics"], result["attempted"]
    for key, unit in END_TO_END.items():
        if key == "setup_s":
            note = f"median of {SETUPS} set-ups"
        elif key == "rows_per_s":
            note = f"median of {n} runs of {wl.input_rows(w)} input rows / wall_s"
        else:
            q1, _, q3 = result["spread"][key]
            note = f"median of {n} runs, quartiles {q1:.4g}..{q3:.4g}"
        print_metric(key, m[key], unit, note)
    print_metric("fail_frac", result["failed"] / n, "", f"{result['failed']} of {n} runs failed")
    if write_reference and result["first_digest"] is not None and not result["problems"]:
        wl.reference_path(w).write_text(json.dumps(result["first_digest"], indent=1) + "\n", encoding="utf-8")
        print(f"  wrote {wl.reference_path(w)}")
    return result


def run_all(seed: int, seconds: float) -> int:
    """Every workload in its own invocation of this script, with one summary."""
    metrics, attempted, failed, correct = {}, 0, 0, True
    for name in wl.WORKLOADS:
        argv = [PYTHON, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0"]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            print(done.stderr, end="", file=sys.stderr)
            return done.returncode or 1
        result = json.loads(lines[-1])
        metrics.update({f"{name}.{key}": value for key, value in result["metrics"].items()})
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["correct"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help=f"store the outputs as references (seed {wl.DEFAULT_SEED} only)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.workload == "all" and (args.trace or args.write_reference):
        parser.error("--workload all takes neither --trace 1 nor --write-reference")
    if args.write_reference and (args.seed != wl.DEFAULT_SEED or args.trace):
        parser.error(f"--write-reference needs --seed {wl.DEFAULT_SEED} --trace 0")
    if not (ROOT / "src" / "qshield" / "cli.py").is_file():
        print(f"error: no qshield sources at {ROOT / 'src' / 'qshield'}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)

    loadavg_start = os.getloadavg()[0]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORK / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True)
    print(f"qshield benchmark: {tag}, {args.seconds:g} s")
    try:
        if args.trace:
            traced = trace_all(args.workload, args.seed, work)
            metrics = {name: (value, layer_unit(name)) for name, value in traced["metrics"].items()}
            missing = set(all_layer_metrics()) - set(metrics)
            if missing:
                raise SetupError(f"per-layer metrics not measured: {sorted(missing)}")
            for name in all_layer_metrics():
                value, unit = metrics[name]
                note = ""
                if name in traced["bytes_moved_computed"]:
                    note = f"moves {traced['bytes_moved_computed'][name]} B (computed)"
                print_metric(name, value, unit, note)
            for name, share in traced["shares"].items():
                verdict = "holds" if share["share_of_cli_main"] >= share["expected_at_least"] else "DOES NOT HOLD"
                print(f"  share {name}: {' + '.join(share['spans'])} = "
                      f"{share['share_of_cli_main']:.1%} of cli.main "
                      f"(rationale: >= {share['expected_at_least']:.0%}, {verdict})")
            details = traced
        else:
            details = run_workload(args.workload, args.seed, args.seconds, work, args.write_reference)
            details.pop("first_digest")
            metrics = {key: (value, END_TO_END[key]) for key, value in details["metrics"].items()}
        attempted, failed, problems = details["attempted"], details["failed"], details["problems"]
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in problems:
        print(f"  check failed: {problem}")
    env = environment()
    env["loadavg_1min_start"], env["loadavg_1min_end"] = loadavg_start, os.getloadavg()[0]
    print(f"  environment: {json.dumps(env, sort_keys=True)}")
    summary = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {
        "args": vars(args),
        "environment": env,
        "summary": summary,
        "details": details,
        "workloads": {n: {"shape": w.shape, "why": w.why} for n, w in wl.WORKLOADS.items()},
        "predictions": wl.PREDICTIONS,
    }
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
