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
(n = 300) and exact on ``riesz:harmonic`` (n = 64); and a float alpha
dual-check on ``power:-2`` whose row-subset cross-check differs in its
last digit when the float sums are compensated (as the builtin ``sum`` is
from CPython 3.12 on); and four float target reductions whose rows
carry nonzero off-diagonal terms: two under a non-constant u, where the
recurrence u_n (S_{n-1} + f(n) w_n A_n) rounds differently from the
product (table 6 on ``cesaro`` and table 5 on ``euler:1/2``), and two
under u = ones, where it keeps the product's bits (``euler:1/2`` on the
default schedule and ``cesaro`` on 128,256,512,1024); and four checks that pin the column windows of C12,
C15 and C16 and the float Riesz rows: exact l1 into cs on ``cesaro`` and
float int-bv into c0 on ``euler:1/3``, both on the overlapping schedule
4,6,8,12,16, float l1 into c0s on ``riesz:harmonic`` at 128..1024, and
float l1 into c on ``riesz:1,3,2`` at 3,5,7,9; and three paths of the
beta prerequisite: d-bv into cs on ``euler:1/3`` at 4,8,16, whose rows
past 8 double their schedule, an exact composite (``euler:1/2`` from
int-bv into the ``cesaro`` domain at 8,16,32), and a float d-bv composite
under a non-constant u (``cesaro`` into the ``riesz:harmonic`` domain);
and four checks that pin the lower-triangle subset-sum truncation of a
strict triangle and its rows of one value: float bs into l1 on
``cesaro`` (C21, C22), cs into l1 on ``euler:1/3`` (C23) and linf into l1
on ``riesz:ones`` (C20), each at 128..1024, and exact linf into l1 on
``difference``; and three float checks under u = ones that pin the target
reduction's rows and a composite's float generator rows: linf into int-bv
on ``cesaro`` at 128..1024, table 6 cs into d-bv on ``euler:1/3`` at
64..512, and int-bv into the ``euler:1/2`` domain on ``cesaro`` at
64..512; and eight runs of the CLI surface no earlier digest reached:
``expr:`` matrices (exact l1 into cs on ``1/(n*k)``, float l1 into c on
``1/(n+k)`` and, with ``--full`` on table 1, on ``1/(n+k)^2``), float
``--full`` target reductions under a non-constant u (table 5 c0 into
int-bv on ``1/(n+k)^2`` and table 6 c0 into d-bv on ``(n-k)/(n+1)``,
both at 8..64), the exact table-5 reduction of ``taylor:1/2``, whose rows
are infinite (at 8,16,32), and a float class-check and an
``inverse --matrix`` on the checked-in lower-triangular
``tests/lower_triangle.csv``; and six ``basis`` reports that pin the
warning's criterion u_{k+1} != w_{k+1}: float int-bv under ``--u ones
--w harmonic`` and float d-bv under ``--u harmonic --w ones`` (both
warn), exact d-bv with u = w and exact int-bv with k past n (both
silent), and ``--u 1/3`` against the 0.333... that is the float nearest
1/3, which warns in exact mode and is silent in float mode, where both
weights round to the same float; and five runs of paths no earlier
digest reached: C21's row reads on the non-triangle ``expr:1/(n+k)^2``
(table 2, ``--full``, bs into l1 at 8..64, in both modes), C16 held by
an exact zero (exact l1 into c0s on ``difference`` at 8..64), an
``expr:`` sequence in ``transform`` and ``;tail=`` specs in ``norm``; and
the zero-coefficient skip of ``matrix_product``'s entry-wise rule: the exact
table-5 reduction of ``taylor:1/2`` from c0 into int-bv under ``--u ones
--w ones`` (at 8,16,32), where every off-diagonal coefficient of the bv
triangle is zero.
``record_golden.record`` runs every
command from the repository root, so that relative path (which the report
prints) resolves the same way here and in the recorder.  The files that
``--csv`` and ``--matrix-csv`` write are pinned by their own sha256 in
``test_cli.py``.

The digests in ``golden_reports.json`` pin the report bytes, so any change
to a verdict, a trace value or the rendering shows up here.  When a report
changes on purpose, regenerate the file with ``tests/record_golden.py`` and
say why in the change log.
"""

import json
import shlex

import pytest
from record_golden import PATH, check, record
from test_acceptance import documented_invocations

GOLDEN = json.loads(PATH.read_text())
CASES = {**GOLDEN["readme"], **GOLDEN["extra"]}


def test_every_documented_invocation_is_recorded():
    documented = [shlex.join(argv) for argv in documented_invocations()]
    assert documented == list(GOLDEN["readme"])


@pytest.mark.parametrize("command", list(CASES))
def test_report_matches_the_recorded_digest(command):
    assert record(command) == CASES[command]


def test_check_names_each_mismatch(capsys):
    # ``record_golden.py --check`` replays the digests without pytest
    command = next(iter(GOLDEN["readme"]))
    recorded = GOLDEN["readme"][command]
    assert check({"readme": {command: recorded}, "extra": {}}) == 0
    assert "1 of 1 digests match" in capsys.readouterr().out
    wrong = {**recorded, "sha256": "0" * 64}
    assert check({"readme": {command: wrong}, "extra": {}}) == 1
    assert capsys.readouterr().out.startswith(f"MISMATCH {command}: ")
