"""Replay of the benchmark's exact ``transform``/``inverse --matrix`` and
exact ``dual-check`` reports.

The benchmark (``perfbench/``) checks every report of seeds 1 and 2
against the exit code and sha256 it recorded in
``perfbench/expected_digests.json``, but only when the benchmark runs.
This test reads the exact-values invocation list from
``perfbench/workloads.py`` and the recorded digests, both unchanged, and
replays every ``transform``/``inverse --matrix`` invocation and the exact
``dual-check`` of those seeds through ``run_cli``, so a digest that drifts
on either path fails here too.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest
from conftest import run_cli

PERFBENCH = Path(__file__).parent.parent / "perfbench"


def load_workloads():
    spec = importlib.util.spec_from_file_location("_perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = load_workloads()
EXPECTED = json.loads((PERFBENCH / "expected_digests.json").read_text())["exact-values"]


def _replayed(argv: list) -> bool:
    if argv[0] in ("transform", "inverse"):
        return "--matrix" in argv
    return (argv[0] == "dual-check" and "--mode" in argv
            and argv[argv.index("--mode") + 1] == "exact")


def replay_cases(seed: int) -> list:
    """(index, argv, recorded digest) of every ``transform``/``inverse
    --matrix`` invocation and every exact ``dual-check`` of the seed,
    indexed as the benchmark records."""
    invocations = WORKLOADS.exact_values(seed)
    recorded = EXPECTED[str(seed)]
    assert len(recorded) == len(invocations)
    return [(i, argv, recorded[i]) for i, (argv, _) in enumerate(invocations)
            if _replayed(argv)]


CASES = [(seed, *case) for seed in (1, 2) for case in replay_cases(seed)]


def test_the_replay_covers_both_directions():
    commands = {(argv[0], argv[argv.index("--matrix") + 1].split(":")[0])
                for _, _, argv, _ in CASES if "--matrix" in argv}
    assert {("transform", "cesaro"), ("inverse", "cesaro"), ("transform", "euler")} <= commands


def test_the_replay_covers_the_exact_beta_statistic():
    kinds = [argv[argv.index("--kind") + 1] for _, _, argv, _ in CASES
             if argv[0] == "dual-check"]
    assert kinds == ["beta", "beta"]


@pytest.mark.parametrize("seed, index, argv, recorded", CASES,
                         ids=[f"seed{seed}-{index}" for seed, index, _, _ in CASES])
def test_report_matches_the_benchmark_digest(seed, index, argv, recorded):
    code, text = run_cli(*argv)
    assert [code, hashlib.sha256(text.encode()).hexdigest()] == recorded
