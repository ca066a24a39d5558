"""Golden reports: the exit code and sha256 of the report of every
documented ``$ sumkit`` invocation, plus class-checks on the default
schedule: a composite target, and one recipe of each table 1-6 on
``euler:1/3``, ``riesz:harmonic`` and ``cesaro`` in float and exact mode
(exact tables 3 and 4 once per matrix, leaving out the runs that end in an
error), with the ``transform``/``inverse --matrix`` values of the same
matrices; the alpha dual-check (with its row-subset cross-check) in both
spaces and modes; the C13 column sums on ``cesaro``; ``taylor:1/2``,
whose rows declare no support, into l1 and bs; the bv-triangle products
of tables 5 and 6 under non-constant weights (``identity`` from linf into
int-bv and ``difference`` from c into d-bv, in both modes); ``difference``
from int-bv into the ``cesaro`` domain; the ``taylor:1/2`` domain target
with ``--row-bound 40``; and three float checks that pin the float rows
of the classical matrices past the default schedule: l1 into bs on
``riesz:harmonic`` and linf into l1 on ``cesaro``, both on the schedule
64,128,256,512, and table 1 l1 into c0s on ``euler:3/7``; and four
consistency checks long enough to walk rows past the first few hundred:
float ``pairing-check`` on d-bv (n = 300) and exact on int-bv (n = 96),
float ``reduction-check`` on ``euler:1/3`` under ``--u geometric:1/2``
(n = 300) and exact on ``riesz:harmonic`` (n = 64).

The digests in ``golden_reports.json`` pin the report bytes, so any change
to a verdict, a trace value or the rendering shows up here.  When a report
changes on purpose, regenerate the file with ``tests/record_golden.py`` and
say why in the change log.
"""

import hashlib
import json
import shlex
from pathlib import Path

import pytest
from conftest import run_cli
from test_acceptance import documented_invocations

GOLDEN = json.loads((Path(__file__).parent / "golden_reports.json").read_text())
CASES = {**GOLDEN["readme"], **GOLDEN["extra"]}


def test_every_documented_invocation_is_recorded():
    documented = [shlex.join(argv) for argv in documented_invocations()]
    assert documented == list(GOLDEN["readme"])


@pytest.mark.parametrize("command", list(CASES))
def test_report_matches_the_recorded_digest(command):
    code, text = run_cli(*shlex.split(command))
    assert code == CASES[command]["exit_code"]
    assert hashlib.sha256(text.encode()).hexdigest() == CASES[command]["sha256"]
