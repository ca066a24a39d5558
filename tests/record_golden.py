"""Re-record the golden report digests in ``golden_reports.json``.

Usage, from the repository root::

    PYTHONPATH=src python3 tests/record_golden.py [COMMAND ...]

Every command already keyed in the file is run again through ``run_cli``
and its exit code and report sha256 are written back in place.  Each
COMMAND given on the command line (one argv string, e.g.
``"class-check --source l1 --target l1 --matrix cesaro"``) is added to the
``extra`` section if it is not keyed yet.  Record on the commit whose
reports the digests should pin, before changing any source.
"""

import hashlib
import json
import shlex
import sys
from pathlib import Path

from conftest import run_cli

PATH = Path(__file__).parent / "golden_reports.json"


def record(command: str) -> dict:
    code, text = run_cli(*shlex.split(command))
    return {"exit_code": code, "sha256": hashlib.sha256(text.encode()).hexdigest()}


def main(argv: list[str]) -> int:
    golden = json.loads(PATH.read_text())
    for command in argv:
        if command not in golden["readme"]:
            golden["extra"].setdefault(command, None)
    for section in golden.values():
        for command in section:
            section[command] = record(command)
            print(f"{section[command]['exit_code']} {command}", file=sys.stderr)
    PATH.write_text(json.dumps(golden, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
