#!/usr/bin/env python3
"""urmem end-to-end benchmark.

Builds the benchmark binary (perfbench/CMakeLists.txt, which compiles the
urmem modules from src/) and runs one workload:

    python3 perfbench/run.py --workload fig7_quality --seed 99 --seconds 20 --trace 0

The last line of stdout is the JSON result object. Other modes:

    --all             every workload untraced, then traced, at its default seed
    --selftest        every workload once at tiny sizes; checks that each
                      metric named in BENCHMARK.json is emitted with its unit
                      and a finite value
    --record-digests  re-record perfbench/digests.json on this host

Build output goes to stderr. The build directory is $CARGO_TARGET_DIR
(default .bench_build) under the checkout root.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORKLOADS = ["fig7_quality", "hrm_memory", "fig5_yield", "serve_mixed"]
RECORDED_SEEDS = range(32)
RUN_TIMEOUT_S = 175

# Tiny sizes for --selftest: every layer still runs, in well under a second.
TINY = {
    "fig7_quality": ["workload.samples=1", "schemes=none"],
    "hrm_memory": ["workload.trials=4"],
    "fig5_yield": ["workload.runs=20000", "workload.nmax=10"],
    "serve_mixed": ["serve.requests=4000"],
}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not path.is_absolute():
        path = ROOT / path
    return path / "perfbench"


def build():
    """Configures (once) and builds urmem_perfbench; returns its path or None."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    if not ((out / "build.ninja").exists() or (out / "Makefile").exists()):
        command = ["cmake", "-S", str(BENCH), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            command += ["-G", "Ninja"]
        if subprocess.run(command, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            log("perfbench: cmake configure failed")
            return None
    command = ["cmake", "--build", str(out), "--target", "urmem_perfbench", "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr, cwd=ROOT).returncode != 0:
        log("perfbench: build failed")
        return None
    return out / "urmem_perfbench"


def source_id():
    """git sha when the checkout is a repository, else a hash of the sources."""
    if (ROOT / ".git").exists():
        result = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True)
        if result.returncode == 0:
            return "git-" + result.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:12]


def binary_args(binary, workload, seed, seconds, trace, sets=()):
    args = [str(binary), "--workload", workload,
            "--spec", str(BENCH / "specs" / f"{workload}.json"),
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            "--digests", str(BENCH / "digests.json"), "--source", source_id()]
    for pair in sets:
        args += ["--set", pair]
    return args


def run_binary(args, capture):
    """Runs urmem_perfbench; returns (exit code, stdout or None)."""
    try:
        result = subprocess.run(args, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                                stdout=subprocess.PIPE if capture else None, text=True)
    except subprocess.TimeoutExpired:
        log(f"perfbench: urmem_perfbench timed out after {RUN_TIMEOUT_S} s")
        return 1, None
    return result.returncode, result.stdout


def default_seed(workload):
    spec = json.loads((BENCH / "specs" / f"{workload}.json").read_text())
    return spec["seeds"]["root"]


def benchmark_config():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def last_json(stdout):
    lines = [line for line in (stdout or "").splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


def check_result(result, expected, label):
    """Problems with one result object against the expected metric list."""
    if result is None:
        return [f"{label}: no result line"]
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{label}: not correct")
    metrics = result.get("metrics", {})
    if sorted(metrics) != sorted(m["name"] for m in expected):
        problems.append(f"{label}: metric names differ from BENCHMARK.json")
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"]:
            problems.append(f"{label}: {m['name']} unit {got.get('unit')} != {m['unit']}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{label}: {m['name']} value {value!r} is not finite")
    return problems


def selftest(binary):
    config = benchmark_config()
    problems = []
    layers = json.loads((BENCH / "layers.json").read_text())
    if sorted(layers) != sorted(m["name"] for m in config["per_layer"]):
        problems.append("layers.json does not cover exactly the per_layer metrics")
    if [w["name"] for w in config["workloads"]] != WORKLOADS:
        problems.append("BENCHMARK.json workloads differ from run.py's list")
    for workload in WORKLOADS:
        for trace, expected in ((0, config["end_to_end"]), (1, config["per_layer"])):
            label = f"{workload} trace={trace}"
            code, stdout = run_binary(
                binary_args(binary, workload, default_seed(workload), 0.2, trace,
                            TINY[workload]), capture=True)
            if code != 0:
                problems.append(f"{label}: exit code {code}")
            problems += check_result(last_json(stdout), expected, label)
            log(f"selftest: {label} done")
    for problem in problems:
        log("selftest FAILED:", problem)
    print(json.dumps({"selftest": "failed" if problems else "passed",
                      "problems": len(problems)}))
    return 1 if problems else 0


def run_all(binary):
    """Every workload untraced, then traced, at its default seed."""
    config = benchmark_config()
    failed = False
    summary = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            log(f"== {workload} trace={trace}")
            code, stdout = run_binary(
                binary_args(binary, workload, default_seed(workload),
                            config["run_seconds"], trace), capture=True)
            sys.stdout.write(stdout or "")
            result = last_json(stdout)
            failed |= code != 0 or result is None or not result["correct"]
            if result is not None:
                for name, metric in result["metrics"].items():
                    summary.append((workload, trace, name, metric["value"], metric["unit"]))
    print("\nsummary (workload, trace, metric, value, unit):")
    for row in summary:
        print(f"  {row[0]:<13} {row[1]}  {row[2]:<28} {row[3]:<22.10g} {row[4]}")
    return 1 if failed else 0


def record_digests(binary):
    """Re-records perfbench/digests.json: one digest per workload and seed."""
    host = json.loads(subprocess.run([str(binary), "--host-only"], capture_output=True,
                                     text=True, check=True).stdout)
    table = {}
    for workload in WORKLOADS:
        seeds = sorted(set(RECORDED_SEEDS) | {default_seed(workload)})
        table[workload] = {}
        for seed in seeds:
            out = subprocess.run(binary_args(binary, workload, seed, 1, 0) + ["--digest-only"],
                                 cwd=ROOT, capture_output=True, text=True, check=True).stdout
            table[workload][str(seed)] = out.split()[-1]
            log(f"digest {workload} seed={seed} {table[workload][str(seed)]}")
    doc = {"host": {key: host[key] for key in ("cpu", "cpu_flags", "compiler", "build_type")},
           "digests": table}
    (BENCH / "digests.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--all", action="store_true")
    mode.add_argument("--selftest", action="store_true")
    mode.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()
    single = not (args.all or args.selftest or args.record_digests)
    if single and (args.workload is None or args.seed is None or args.seconds is None):
        parser.error("--workload, --seed and --seconds are required")

    binary = build()
    if binary is None:
        return 2
    if args.selftest:
        return selftest(binary)
    if args.all:
        return run_all(binary)
    if args.record_digests:
        return record_digests(binary)
    code, _ = run_binary(binary_args(binary, args.workload, args.seed, args.seconds,
                                     args.trace), capture=False)
    return code


if __name__ == "__main__":
    sys.exit(main())
