"""Record golden report digests in ``golden_reports.json``.

Usage, from the repository root::

    PYTHONPATH=src python3 tests/record_golden.py [COMMAND ...]
    PYTHONPATH=src python3 tests/record_golden.py --check

With no COMMAND, every command already keyed in the file is run again
through ``run_cli`` and its exit code and report sha256 are written back in
place.  With COMMANDs (one argv string each, e.g.
``"class-check --source l1 --target l1 --matrix cesaro"``), only those are
recorded: a command keyed in either section is re-recorded where it is, any
other is added to the ``extra`` section, and every other digest is left as
it is.  Record on the commit whose reports the digests should pin, before
changing any source.  Every command runs from the repository root, so a
relative ``csv:`` path (which the report prints) means the same file
wherever the script or the test suite is started.

``--check`` writes nothing: it runs every keyed command again, prints each
one whose exit code or digest differs from the file, and exits 1 if any
does.  It needs no pytest, so it can replay the digests on any CPython the
package supports.
"""

import hashlib
import json
import os
import shlex
import sys
from pathlib import Path

from conftest import run_cli

PATH = Path(__file__).parent / "golden_reports.json"
ROOT = Path(__file__).resolve().parent.parent


def record(command: str) -> dict:
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        code, text = run_cli(*shlex.split(command))
    finally:
        os.chdir(cwd)
    return {"exit_code": code, "sha256": hashlib.sha256(text.encode()).hexdigest()}


def check(golden: dict) -> int:
    cases = {command: want for section in golden.values()
             for command, want in section.items()}
    bad = 0
    for command, want in cases.items():
        got = record(command)
        if got != want:
            bad += 1
            print(f"MISMATCH {command}: exit {got['exit_code']} sha256 {got['sha256']}, "
                  f"recorded exit {want['exit_code']} sha256 {want['sha256']}")
    print(f"{len(cases) - bad} of {len(cases)} digests match on Python "
          f"{sys.version.split()[0]}")
    return 1 if bad else 0


def main(argv: list[str]) -> int:
    golden = json.loads(PATH.read_text())
    if argv == ["--check"]:
        return check(golden)
    for command in argv or [command for section in golden.values() for command in section]:
        section = next((s for s in golden.values() if command in s), golden["extra"])
        section[command] = record(command)
        print(f"{section[command]['exit_code']} {command}", file=sys.stderr)
    PATH.write_text(json.dumps(golden, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
