"""Run one benchmark workload and print its metrics.

From the root of a checkout::

    python3 perfbench/run.py --workload batch|edit|serve --seed N --seconds S --trace 0|1

The seed fixes the generated inputs.  Every set-up and every measurement
runs in a fresh child process (``child.py``) with the compilation disk
cache off and a bytecode cache owned by the benchmark, so each run starts
from the same state.  With ``--trace 0`` the run sets the workload up
``SETUP_RUNS`` times and reports the median set-up time, measures once,
and reports every end-to-end metric of ``BENCHMARK.json``.  With
``--trace 1`` it measures once untraced and once traced, on the same
inputs, and reports every per-layer metric plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit status is
0 only if every output agreed with the reference.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from stats import finite_or_none

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 5
CHILD_TIMEOUT_S = 150


def child_env(state: Path) -> dict:
    env = dict(os.environ)
    for name in ("REPRO_CACHE_DIR", "PYTHONDONTWRITEBYTECODE", "PYTHONSTARTUP", "PYTHONPROFILEIMPORTTIME"):
        env.pop(name, None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONPYCACHEPREFIX"] = str(state / "pycache")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(role: str, inputs_path: Path, trace: int, env: dict) -> dict:
    """Run ``child.py`` in a fresh process; its report, with ``setup_s``."""
    started = time.monotonic()
    process = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), role, str(inputs_path), str(trace)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, start_new_session=True,
    )
    try:
        out, _ = process.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise SystemExit(f"perfbench: {role} child ran past {CHILD_TIMEOUT_S}s")
    finally:
        # A child killed mid-run leaves its service worker behind.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if process.returncode != 0:
        raise SystemExit(f"perfbench: {role} child exited with status {process.returncode}")
    report = json.loads(out.decode().strip().splitlines()[-1])
    report["setup_s"] = report["ready"] - started
    return report


def make_inputs(workload: str, seed: int, seconds: int) -> dict:
    """The generated inputs of one run, each with its reference outcome."""
    sys.path.insert(0, str(ROOT / "src"))
    import inputs
    import reference

    entries = reference.load()
    files = inputs.corpus_files()
    data = {"workload": workload, "seed": seed, "seconds": seconds}
    if workload == "batch":
        # CPython's verdict: a valid file may only be rejected where the
        # grammar's 3.8-level scope ends.
        data["files"] = [
            (f.name, f.text, f.nbytes, reference.lookup(entries, f.text, f.name),
             f.name in inputs.SCOPE_LIMITED or not _compiles(f.text))
            for f in files
        ]
        data["warmup"] = [f.name for f in files].index("bisect.py")
        data.update(inputs.batch_workload(seed, seconds, files))
    elif workload == "edit":
        buffers, pool = inputs.edit_universe(files)
        data["buffers"] = [
            (b.name, b.text, b.nbytes, reference.lookup(entries, b.text, b.name)) for b in buffers
        ]
        data["pool"] = []
        rejects = []
        for number, action in enumerate(pool):
            states = inputs.action_states(buffers[action.buffer].text, action)
            expected = [reference.lookup(entries, s, f"edit action {number}") for s in states]
            data["pool"].append((action.buffer, action.kind, action.steps, expected))
            rejects.append(sum(1 for outcome in expected if outcome[0] == 0))
        data["warmup"] = next(i for i, a in enumerate(pool) if a.kind == "rename")
        data.update(inputs.edit_workload(seed, seconds, pool, rejects))
    else:
        data["requests"] = []
        for number, (raw, nbytes) in enumerate(inputs.serve_universe(files)):
            layouted = inputs.layout(raw)
            data["requests"].append((nbytes, layouted, reference.lookup(entries, layouted, f"request {number}")))
        data["warmup"] = 0
        sizes = [nbytes for nbytes, _, _ in data["requests"][: len(data["requests"]) // 2]]
        data.update(inputs.serve_workload(seed, seconds, sizes))
    return data


def _compiles(text: str) -> bool:
    try:
        compile(text, "<corpus>", "exec")
    except SyntaxError:
        return False
    return True


def end_to_end(report: dict, setup_s: float) -> dict:
    latency = report["latency"]
    return {
        "setup_s": setup_s,
        "p50_ms": 1000 * latency["p50"],
        "tail_ms": 1000 * latency["tail"],
        "kb_per_s": report["kb_per_s"],
        "peak_rss_mb": report["peak_rss_mb"],
    }


def overhead(plain: dict, traced: dict) -> dict:
    """How much worse each end-to-end metric read with tracing on, in %."""
    def worse(name, lower_is_better=True):
        before, after = plain[name], traced[name]
        change = (after - before) if lower_is_better else (before - after)
        return 100 * change / before

    return {
        "trace.overhead_setup_pct": worse("setup_s"),
        "trace.overhead_p50_pct": worse("p50_ms"),
        "trace.overhead_tail_pct": worse("tail_ms"),
        "trace.overhead_kb_per_s_pct": worse("kb_per_s", lower_is_better=False),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("batch", "edit", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (ROOT / "src" / "repro", ROOT / "examples" / "python", HERE / "expected.json"):
        if not needed.exists():
            print(f"perfbench: {needed} is missing; run from the root of a full checkout", file=sys.stderr)
            return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    state = ROOT / ".perfbench"
    fresh = not (state / "pycache").exists()
    workdir = state / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    env = child_env(state)
    try:
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", "src/repro", str(HERE)],
            cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL,
        )
        inputs_path = workdir / "inputs.pickle"
        with open(inputs_path, "wb") as out:
            pickle.dump(make_inputs(args.workload, args.seed, args.seconds), out)
        if fresh:
            spawn("setup", inputs_path, 0, env)  # fills the bytecode cache with the standard library
        if args.trace == 0:
            setups = [spawn("setup", inputs_path, 0, env) for _ in range(SETUP_RUNS - 1)]
            report = spawn("measure", inputs_path, 0, env)
            reports = setups + [report]
            setup_s = statistics.median(r["setup_s"] for r in reports)
            metrics = end_to_end(report, setup_s)
            wanted = spec["end_to_end"]
        else:
            plain = spawn("measure", inputs_path, 0, env)
            report = spawn("measure", inputs_path, 1, env)
            reports = [plain, report]
            metrics = dict.fromkeys((m["name"] for m in spec["per_layer"]), 0.0)
            metrics.update(report["layers"])
            metrics.update(overhead(end_to_end(plain, plain["setup_s"]), end_to_end(report, report["setup_s"])))
            wanted = spec["per_layer"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r["attempted"] for r in reports)
    failures = [f for r in reports for f in r["failures"]]
    print_table(args, wanted, metrics, report, attempted, failures)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": finite_or_none(metrics[m["name"]]), "unit": m["unit"]} for m in wanted},
    }))
    return 0 if not failures else 1


def print_table(args, wanted: list[dict], metrics: dict, report: dict, attempted: int, failures: list) -> None:
    latency = report["latency"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for metric in wanted:
        print(f"  {metric['name']:<28} {metrics[metric['name']]:>14.4f} {metric['unit']}")
    print(f"  {'fail_ratio':<28} {len(failures) / attempted:>14.4f} share ({len(failures)} of {attempted})")
    print(f"  tail_ms is p{latency['tail_percentile']:.2f} of {latency['samples']} samples")
    for name, value in report["detail"].items():
        print(f"  {name}: {value}")
    for failure in failures[:20]:
        print(f"  FAILED {failure}")


if __name__ == "__main__":
    raise SystemExit(main())
