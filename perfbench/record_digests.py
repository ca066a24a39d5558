"""Record the exit code and sha256 of every report, per workload, for the
default seed and one held-out seed, into ``expected_digests.json``.

    PYTHONPATH=src python3 perfbench/record_digests.py

Later runs of those seeds must reproduce every report byte for byte.
Nothing is recorded when an invocation of the recording pass fails.
"""

from __future__ import annotations

import json
import sys

from worker import DIGESTS, run_pass
from workloads import WORKLOADS

SEEDS = (1, 2)  # the default seed of run.py and the held-out seed


def main() -> int:
    recorded: dict[str, dict[str, list]] = {}
    for name, build in WORKLOADS.items():
        for seed in SEEDS:
            result = run_pass(build(seed))
            if result.failures:
                print("\n".join(result.failures), file=sys.stderr)
                return 1
            recorded.setdefault(name, {})[str(seed)] = result.digests
    DIGESTS.write_text(json.dumps(recorded, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
