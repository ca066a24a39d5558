"""sumkit benchmark: closed loop, one client, ``sumkit.cli.run`` in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all

Run from the repository root; ``sumkit`` is imported from ``src/``.  With
``--trace 0`` the workload runs untraced in a fresh process and the
end-to-end metrics are reported: ``setup_s`` (fresh interpreter plus
``import sumkit.cli``, median of several), ``wall_s`` (median pass time)
and ``peak_rss_mb``; per-invocation latency percentiles, pooled over the
run, are printed beside them.  With ``--trace 1`` one pass runs under the
tracer and the per-layer metrics are reported, together with the layer
suite (``layers.py``).  ``all`` runs every workload both ways.  Each report is
checked; the exit code is 1 when any invocation failed.  The last line of
standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
SETUP_REPEATS = 11
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _child(script: str, *args: str) -> dict:
    """Run a benchmark script in a fresh interpreter; its last stdout line
    is a JSON object."""
    proc = subprocess.run([sys.executable, str(BENCH / script), *args], cwd=ROOT,
                          env=_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{script} exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def setup_seconds() -> float:
    """Median time to start a fresh interpreter and import sumkit.cli."""
    cmd = [sys.executable, "-c", "import sumkit.cli"]
    subprocess.run(cmd, cwd=ROOT, env=_env(), check=True, timeout=60)  # bytecode warm-up
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=_env(), check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def untraced(workload: str, seed: int, seconds: float) -> dict:
    setup = setup_seconds()
    res = _child("worker.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds))
    lat = res["latencies_s"]
    metrics = {
        "setup_s": setup,
        "wall_s": statistics.median(res["wall_s"]),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} fresh interpreters",
        "wall_s": f"median of {len(res['wall_s'])} passes",
    }
    # Latency percentiles are printed, not gated: with a few heterogeneous
    # invocations per run the median is one invocation's latency.
    extra = {"latency_p50_s": (statistics.median(lat), f"{len(lat)} samples")}
    if len(lat) >= 100:  # a p90 needs at least ten samples beyond it
        extra["latency_p90_s"] = (percentile(lat, 90), f"{len(lat)} samples")
    return {"attempted": res["attempted"], "failed": res["failed"],
            "failures": res["failures"], "metrics": metrics, "notes": notes, "extra": extra}


def traced(workload: str, seed: int) -> dict:
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{workload}-seed{seed}.jsonl"
    res = _child("worker.py", "--workload", workload, "--seed", str(seed),
                 "--traced", str(spans))
    layers = _child("layers.py")
    metrics = {**res["metrics"], **layers["metrics"]}
    failures = res["failures"] + layers["failures"]
    return {"attempted": res["attempted"] + layers["attempted"],
            "failed": res["failed"] + len(layers["failures"]),
            "failures": failures, "metrics": metrics,
            "notes": {"trace.overhead_s": "traced pass minus untraced pass",
                      "trace.spans": f"written to {spans.relative_to(ROOT)}"},
            "extra": {}}


def show(title: str, res: dict, names) -> None:
    print(f"== {title}: {res['attempted']} invocations, {res['failed']} failed, "
          f"error_rate {res['failed'] / res['attempted']:.4f} ratio")
    for why in res["failures"]:
        print(f"   FAILED {why}")
    rows = [(name, res["metrics"][name], UNITS[name], res["notes"].get(name, ""))
            for name in names]
    rows += [(name, value, "s", note) for name, (value, note) in res["extra"].items()]
    for name, value, unit, note in rows:
        print(f"   {name:<45} {value:>14.6g} {unit:<6} {note}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="sumkit benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=None,
                   help="0: end-to-end metrics, 1: per-layer metrics "
                        "(default 0; 'all' runs both)")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "sumkit" / "cli.py").is_file():
        print(f"sumkit sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    e2e = [m["name"] for m in SPEC["end_to_end"]]
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    if args.workload == "all":
        runs = [(w, t) for w in WORKLOADS
                for t in ((0, 1) if args.trace is None else (args.trace,))]
    else:
        runs = [(args.workload, args.trace or 0)]

    attempted = failed = 0
    metrics = {}
    try:
        for workload, trace in runs:
            if trace:
                res, names = traced(workload, args.seed), per_layer
            else:
                res, names = untraced(workload, args.seed, args.seconds), e2e
            show(f"{workload} seed {args.seed} trace {trace}", res, names)
            attempted += res["attempted"]
            failed += res["failed"]
            prefix = "" if len(runs) == 1 else f"{workload}."
            for name in names:
                metrics[prefix + name] = {"value": res["metrics"][name], "unit": UNITS[name]}
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
