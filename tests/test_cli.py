"""End-to-end tests for the ``sumkit`` command-line interface.

Every test drives :func:`sumkit.cli.run` directly with an in-memory output
buffer, so the assertions cover argument parsing, report assembly and
serialisation exactly as a shell user would see them.
"""

import csv
import hashlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import run_cli

import sumkit
from sumkit import classes
from sumkit.cli import _EXIT_CODES, _identity_check
from sumkit.core import scalar_to_json


def run_json(*argv):
    code, text = run_cli(*argv)
    return code, json.loads(text)


# ---------------------------------------------------------------------------
# transform / inverse / norm / basis
# ---------------------------------------------------------------------------


class TestTransform:
    def test_unit_vector_through_integrated_map(self):
        # u = ones, w = 1/k: off-diagonal entries k*(1/k - 1/(k+1)) = 1/(k+1)
        # and diagonal n*(1/n) = 1, so the image of e1 is (1, 1/2, 1/2, ...).
        code, doc = run_json("transform", "--space", "int-bv", "--u", "ones",
                             "--w", "harmonic", "--x", "e1", "--n", "4")
        assert code == 0
        assert doc["status"] == "SUCCESS"
        assert doc["outputs"]["values"] == ["1", "1/2", "1/2", "1/2"]
        assert doc["mode"] == "exact"
        assert doc["method"] == {"operation": "apply-triangle"}

    def test_inputs_are_echoed_canonically(self):
        code, doc = run_json("transform", "--space", "int-bv",
                             "--w", "harmonic", "--x", "e1", "--n", "4")
        assert doc["inputs"] == {"n": 4, "space": "int-bv", "u": "ones",
                                 "w": "harmonic", "x": "e1"}
        assert doc["command"] == "transform"
        assert doc["tool"] == "sumkit"
        assert doc["schema_version"] == 1

    def test_classical_matrix_route(self):
        code, doc = run_json("transform", "--matrix", "cesaro",
                             "--x", "ones", "--n", "5")
        assert code == 0
        assert doc["outputs"]["values"] == ["1"] * 5

    def test_space_and_matrix_are_mutually_exclusive(self, capsys):
        code, text = run_cli("transform", "--space", "int-bv",
                             "--matrix", "cesaro", "--x", "ones")
        assert code == 1
        assert text == ""


class TestInverse:
    def test_ones_weights_reduce_to_diagonal_division(self):
        # With u = w = ones the integrated map is diag(n), so x_n = y_n / n.
        code, doc = run_json("inverse", "--space", "int-bv", "--u", "ones",
                             "--w", "ones", "--y", "1,2,3", "--n", "3")
        assert code == 0
        assert doc["outputs"]["values"] == ["1", "1", "1"]
        assert doc["method"] == {"operation": "closed-form-inverse"}

    def test_matrix_route_uses_back_substitution(self):
        # Cesaro means equal to 1/n at every order force x = e1.
        code, doc = run_json("inverse", "--matrix", "cesaro",
                             "--y", "harmonic", "--n", "4")
        assert code == 0
        assert doc["outputs"]["values"] == ["1", "0", "0", "0"]
        assert doc["method"] == {"operation": "back-substitution"}

    def test_transform_then_inverse_round_trips(self):
        _, fwd = run_json("transform", "--space", "d-bv", "--u", "ones",
                          "--w", "harmonic", "--x", "1,-2,3,0,5", "--n", "5")
        spec = ",".join(fwd["outputs"]["values"])
        _, back = run_json("inverse", "--space", "d-bv", "--u", "ones",
                           "--w", "harmonic", "--y", spec, "--n", "5")
        assert back["outputs"]["values"] == ["1", "-2", "3", "0", "5"]


class TestNorm:
    def test_truncation_defaults_to_deepest_schedule_size(self):
        code, doc = run_json("norm", "--space", "int-bv", "--u", "2, 4",
                             "--w", "harmonic", "--x", "e2")
        assert code == 0
        assert doc["inputs"]["n"] == 256
        # column 2 of the map is 4 at the diagonal and u_n/3 below it:
        # 4 + 254 * (4/3) = 1028/3.
        assert doc["outputs"] == {"norm": "1028/3", "size": 256}

    def test_weight_spec_is_echoed_without_spaces(self):
        _, doc = run_json("norm", "--space", "int-bv", "--u", "2, 4",
                          "--w", "harmonic", "--x", "e2")
        assert doc["inputs"]["u"] == "2,4"


class TestBasis:
    def test_column_matches_hand_computation(self):
        # Inverting e3 for u = ones, w = 1/k gives x_3 = 1 and x_n = -1/n
        # for n > 3 (the prefix telescopes to k - (k+1) = -1).
        code, doc = run_json("basis", "--space", "int-bv", "--u", "ones",
                             "--w", "harmonic", "--k", "3", "--n", "6")
        assert code == 0
        assert doc["outputs"]["values"] == ["0", "0", "1", "-1/4",
                                            "-1/5", "-1/6"]

    def test_warns_when_tabulated_form_disagrees(self):
        _, doc = run_json("basis", "--space", "int-bv", "--u", "ones",
                          "--w", "harmonic", "--k", "3", "--n", "6")
        assert len(doc["warnings"]) == 1
        assert "tabulated closed form disagrees" in doc["warnings"][0]

    def test_silent_when_both_forms_agree(self):
        _, doc = run_json("basis", "--space", "int-bv", "--u", "ones",
                          "--w", "ones", "--k", "3", "--n", "6")
        assert doc["warnings"] == []

    @pytest.mark.parametrize("weights", ["harmonic", "power:-2", "geometric:2/3"])
    @pytest.mark.parametrize("space", ["int-bv", "d-bv"])
    def test_float_mode_is_silent_when_u_equals_w(self, space, weights):
        # u = w makes the tabulated form right; float rounding alone used
        # to be reported as a disagreement at nearly every n > k
        for k in (1, 2, 3, 5, 9):
            for n in (k, k + 1, 12, 64):
                _, doc = run_json("basis", "--mode", "float", "--space", space,
                                  "--u", weights, "--w", weights,
                                  "--k", str(k), "--n", str(n))
                assert doc["warnings"] == [], (k, n)

    @pytest.mark.parametrize("space", ["int-bv", "d-bv"])
    def test_genuine_disagreement_warns_in_both_modes(self, space):
        warnings = {}
        for mode in ("exact", "float"):
            _, doc = run_json("basis", "--mode", mode, "--space", space, "--u", "ones",
                              "--w", "harmonic", "--k", "3", "--n", "12")
            warnings[mode] = doc["warnings"]
        assert warnings["exact"] == warnings["float"]
        assert "at positions [4, 5, 6, 7, 8, 9, 10, 11, 12];" in warnings["float"][0]


# ---------------------------------------------------------------------------
# dual-check / class-check
# ---------------------------------------------------------------------------


class TestDualCheck:
    def test_alternating_gamma_reports_divergence(self):
        code, doc = run_json("dual-check", "--space", "int-bv",
                             "--kind", "gamma", "--a", "alternating")
        assert code == 2
        assert doc["status"] == "DIVERGENCE_EVIDENCE"
        assert doc["exit_code"] == 2

    def test_inconclusive_maps_to_exit_three(self):
        code, doc = run_json("dual-check", "--space", "int-bv",
                             "--kind", "beta", "--a", "harmonic",
                             "--mode", "exact")
        assert code == 3
        assert doc["status"] == "INCONCLUSIVE"

    def test_report_carries_schedule_and_method_notes(self):
        _, doc = run_json("dual-check", "--space", "int-bv",
                          "--kind", "gamma", "--a", "alternating")
        assert doc["schedule"]["sizes"] == [16, 32, 64, 128, 256]
        assert doc["method"]["operation"] == "gamma-dual-check"
        assert any("lower-triangular" in note for note in doc["method"]["notes"])


class TestClassCheck:
    def test_identity_from_l1_into_c_holds(self):
        code, doc = run_json("class-check", "--table", "1", "--source", "l1",
                             "--target", "c", "--matrix", "identity")
        assert code == 0
        assert doc["status"] == "HOLDS_AT_TRUNCATION"
        report = doc["outputs"]["report"]
        assert report["overall_status"] == "HOLDS_AT_TRUNCATION"
        assert [c["condition"] for c in report["conditions"]] == ["C11", "C12"]
        assert all(c["verdict"]["status"] == "HOLDS_AT_TRUNCATION"
                   for c in report["conditions"])
        assert doc["inputs"]["table"] == 1

    def test_exact_trace_past_the_int_digit_limit_is_reported(self):
        # the C22 trace reaches fractions with over 4300 digits per side
        code, doc = run_json("class-check", "--mode", "exact", "--table", "2",
                             "--source", "bs", "--target", "l1",
                             "--matrix", "riesz:harmonic")
        assert code == 2 == doc["exit_code"]
        trace = doc["outputs"]["report"]["conditions"][1]["verdict"]["trace"]
        assert len(trace[-1]["statistic"]) > 2 * 4300

    def test_full_constant_matrix_is_inconclusive(self):
        code, doc = run_json("class-check", "--matrix", "expr:1", "--full",
                             "--source", "bs", "--target", "l1")
        assert code == 3
        assert doc["status"] == "INCONCLUSIVE"
        statuses = {c["condition"]: c["verdict"]["status"]
                    for c in doc["outputs"]["report"]["conditions"]}
        assert statuses["C21"] == "INCONCLUSIVE"
        assert statuses["C22"] == "HOLDS_AT_TRUNCATION"

    def test_trace_csv_fans_out_per_condition(self, tmp_path):
        base = tmp_path / "trace.csv"
        run_cli("class-check", "--table", "1", "--source", "l1",
                "--target", "c", "--matrix", "identity",
                "--csv", str(base))
        for cid in ("C11", "C12"):
            path = tmp_path / f"trace-{cid}.csv"
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == ["N", "statistic"]
            assert [int(r[0]) for r in rows[1:]] == [16, 32, 64, 128, 256]

    def test_no_recipe_lists_a_condition_twice(self):
        # the trace CSVs are keyed by condition, so a repeat would drop one
        recipes = [conditions for table in classes._TABLES.values()
                   for conditions in table.recipes.values()]
        assert len(recipes) == 36
        for conditions in recipes:
            ids = [cid for cid, _ in conditions]
            assert len(set(ids)) == len(ids), ids

    def test_matrix_csv_dumps_first_truncation(self, tmp_path):
        path = tmp_path / "matrix.csv"
        run_cli("class-check", "--table", "1", "--source", "l1",
                "--target", "c", "--matrix", "identity",
                "--matrix-csv", str(path))
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 16
        assert all(len(r) == 16 for r in rows)
        assert [float(v) for v in rows[0]] == [1.0] + [0.0] * 15

    def test_matrix_csv_of_a_composite_target_is_the_condition_matrix(self, tmp_path):
        # the conditions run on the source reduction of Cesaro * identity;
        # reducing the bare identity would give row 2 = (-1/2, 1, 0, 0)
        path = tmp_path / "matrix.csv"
        run_cli("class-check", "--source", "int-bv", "--target", "cesaro",
                "--matrix", "identity", "--u", "ones", "--w", "harmonic",
                "--schedule", "4,8,16", "--beta-row-limit", "2",
                "--matrix-csv", str(path))
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert [float(v) for v in rows[1]] == [0.25, 0.5, 0.0, 0.0]

    def test_written_csv_files_keep_their_bytes(self, tmp_path):
        # the golden digests pin stdout only; these pin the files beside it
        code, _ = run_cli("class-check", "--mode", "float", "--source", "l1",
                          "--target", "cs", "--matrix", "expr:1/(n*k)",
                          "--schedule", "4,8,16", "--csv", str(tmp_path / "trace.csv"),
                          "--matrix-csv", str(tmp_path / "matrix.csv"))
        assert code == 3
        digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in tmp_path.iterdir()}
        assert digests == {
            "matrix.csv": "b59df4b49ce533dc9c004535216d6d681dbdf89af1255777975c2dd748b68e56",
            "trace-C14.csv": "e510bff4629a2048f41e871211161665b094fdeb17ef3c2d66d7120ce0e9c47d",
            "trace-C15.csv": "a34192b1da681365ffb08eb9898665530f7d16c76ba5f2a88de78a99f96be442",
        }

    @pytest.mark.parametrize("target, described", [
        ("cesaro", "cesaro-bounded"),
        ("euler:1/2", "euler(1/2)-bounded"),
        ("taylor:1/2", "taylor(1/2)-bounded"),
        ("riesz:harmonic", "riesz(harmonic)-bounded"),
    ])
    def test_composite_target_spellings(self, target, described):
        code, doc = run_json("class-check", "--source", "int-bv",
                             "--target", target, "--matrix", "identity",
                             "--schedule", "4,8,16", "--beta-row-limit", "2",
                             "--row-bound", "32")
        assert code in (0, 2, 3)
        assert doc["outputs"]["report"]["target"] == described
        assert doc["inputs"]["target"] == target

    @pytest.mark.parametrize("argv", [
        ("--source", "l1", "--target", "c", "--matrix", "cesaro"),
        ("--mode", "exact", "--source", "int-bv", "--target", "linf",
         "--matrix", "taylor:1/3"),
        ("--source", "c0", "--target", "d-bv", "--matrix", "expr:(n-k)/(n+1)", "--full"),
    ])
    def test_row_bound_outside_a_composite_target_is_an_error(self, capsys, argv):
        code, text = run_cli("class-check", *argv, "--row-bound", "5")
        assert (code, text) == (1, "")
        assert capsys.readouterr().err == (
            "sumkit: a row bound applies only to composite targets\n")


# ---------------------------------------------------------------------------
# pairing-check / reduction-check
# ---------------------------------------------------------------------------


class TestPairingCheck:
    def test_exact_mode_certifies_an_exact_match(self):
        code, doc = run_json("pairing-check", "--space", "int-bv",
                             "--a", "harmonic", "--y", "e3", "--n", "16")
        assert code == 0
        assert doc["status"] == "EXACT_MATCH"
        assert doc["mode"] == "exact"
        assert doc["outputs"]["first_mismatch"] is None
        assert doc["outputs"]["checked_through"] == 16
        for sample in doc["outputs"]["samples"]:
            assert sample["lhs"] == sample["rhs"]
        assert doc["method"]["routes"] == ["kernel-row", "inverse-image"]

    def test_float_mode_downgrades_to_match(self):
        code, doc = run_json("pairing-check", "--space", "int-bv",
                             "--a", "harmonic", "--y", "e3", "--n", "16",
                             "--mode", "float")
        assert code == 0
        assert doc["status"] == "MATCH"


class TestReductionCheck:
    def test_identity_round_trip_is_exact(self):
        code, doc = run_json("reduction-check", "--matrix", "identity",
                             "--y", "ones", "--n", "16")
        assert code == 0
        assert doc["status"] == "EXACT_MATCH"
        assert doc["outputs"]["first_mismatch"] is None
        assert doc["method"]["routes"] == ["rebuilt-matrix", "reduced-matrix"]

    def test_row_infinite_matrix_is_rejected(self, capsys):
        code, text = run_cli("reduction-check", "--matrix", "taylor:1/2",
                             "--y", "ones", "--n", "8")
        assert code == 1
        assert text == ""
        assert "row-finite" in capsys.readouterr().err


class TestIdentityCheck:
    """The MISMATCH route of ``cli._identity_check``, which no command
    reaches on valid input: both sides agree at rows 1 and 2 and differ by
    ``off`` from row 3 on."""

    @staticmethod
    def sides(zero, off):
        return lambda m: (m / (zero + 7), m / (zero + 7) + (off if m >= 3 else zero))

    @pytest.mark.parametrize("mode, zero, off", [("exact", Fraction(0), Fraction(1, 2)),
                                                 ("float", 0.0, 1e-6)])
    def test_first_mismatch_names_row_3(self, mode, zero, off):
        status, outputs = _identity_check(self.sides(zero, off), 12, mode, 1e-9)
        assert status == "MISMATCH"
        assert _EXIT_CODES[status] == 2
        assert outputs["first_mismatch"] == {"n": 3, "lhs": scalar_to_json(3 / (zero + 7)),
                                             "rhs": scalar_to_json(3 / (zero + 7) + off)}
        assert outputs["checked_through"] == 12
        assert [sample["n"] for sample in outputs["samples"]] == list(range(1, 9))

    def test_a_float_difference_inside_the_tolerance_matches(self):
        status, outputs = _identity_check(self.sides(0.0, 1e-12), 12, "float", 1e-9)
        assert status == "MATCH"
        assert outputs["first_mismatch"] is None


# ---------------------------------------------------------------------------
# report envelope, files, errors
# ---------------------------------------------------------------------------

DETERMINISM_CASES = [
    ("transform", "--space", "int-bv", "--u", "ones", "--w", "harmonic",
     "--x", "e1", "--n", "4"),
    ("dual-check", "--space", "int-bv", "--kind", "gamma",
     "--a", "alternating"),
    ("class-check", "--table", "1", "--source", "l1", "--target", "c",
     "--matrix", "identity"),
]


class TestEnvelope:
    @pytest.mark.parametrize("argv", DETERMINISM_CASES,
                             ids=[c[0] for c in DETERMINISM_CASES])
    def test_repeated_runs_are_byte_identical(self, argv):
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first == second

    def test_reports_are_sorted_and_newline_terminated(self):
        _, text = run_cli("transform", "--space", "int-bv", "--x", "e1",
                          "--n", "2")
        assert text.startswith('{\n  "command"')
        assert text.endswith("}\n")
        doc = json.loads(text)
        assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == text

    def test_schedule_block_only_on_schedule_driven_commands(self):
        _, plain = run_json("transform", "--space", "int-bv", "--x", "e1",
                            "--n", "2")
        _, checked = run_json("dual-check", "--space", "int-bv",
                              "--kind", "gamma", "--a", "alternating")
        assert "schedule" not in plain
        assert "schedule" in checked

    def test_out_file_matches_stdout(self, tmp_path):
        path = tmp_path / "report.json"
        _, text = run_cli("norm", "--space", "int-bv", "--x", "e1",
                          "--n", "8", "--out", str(path))
        assert path.read_text() == text

    def test_out_file_and_stdout_are_the_same_bytes(self, tmp_path):
        # the report and its newline are written separately, to both
        path = tmp_path / "report.json"
        env = {**os.environ, "PYTHONPATH": str(Path(sumkit.__file__).parents[1])}
        fresh = subprocess.run(
            [sys.executable, "-c", "from sumkit.cli import main; main()", "transform",
             "--space", "d-bv", "--x", "power:-2", "--n", "40", "--out", str(path)],
            capture_output=True, env=env, timeout=60)
        assert fresh.returncode == 0 and fresh.stderr == b""
        assert path.read_bytes() == fresh.stdout
        assert fresh.stdout.endswith(b"}\n") and not fresh.stdout.endswith(b"\n\n")
        assert fresh.stdout.count(b"\n") == len(fresh.stdout.splitlines())

    def test_exact_trace_csv_quotes_fractions(self, tmp_path):
        path = tmp_path / "trace.csv"
        run_cli("dual-check", "--space", "int-bv", "--kind", "beta",
                "--a", "harmonic", "--mode", "exact", "--csv", str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == '"N","statistic"'
        assert lines[1].startswith('16,"') and lines[1].endswith('"')
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert "/" in rows[1][1]


class TestErrorsAndVersion:
    def test_unknown_command_exits_one(self, capsys):
        code, text = run_cli("nonsense")
        assert code == 1
        assert text == ""
        assert "invalid choice" in capsys.readouterr().err

    def test_missing_required_argument_exits_one(self, capsys):
        code, _ = run_cli("dual-check", "--kind", "gamma", "--a", "ones")
        assert code == 1
        assert "--space" in capsys.readouterr().err

    def test_malformed_spec_reports_prefixed_error(self, capsys):
        code, text = run_cli("norm", "--space", "int-bv", "--x", "expr:(")
        assert code == 1
        assert text == ""
        err = capsys.readouterr().err
        assert err.startswith("sumkit: ")

    @pytest.mark.parametrize("argv, message", [
        (("class-check", "--source", "d-bv", "--target", "linf",
          "--matrix", "cesaro", "--beta-row-limit", "0"), "beta row limit"),
        (("transform", "--space", "int-bv", "--x", "ones", "--n", "0"), "--n"),
        (("transform", "--space", "int-bv", "--x", "ones", "--n", "-3"), "--n"),
        (("inverse", "--space", "int-bv", "--y", "ones", "--n", "0"), "--n"),
        (("inverse", "--space", "int-bv", "--y", "ones", "--n", "-3"), "--n"),
        (("basis", "--space", "int-bv", "--k", "1", "--n", "0"), "--n"),
        (("basis", "--space", "int-bv", "--k", "1", "--n", "-3"), "--n"),
        (("basis", "--space", "int-bv", "--k", "0"), "--k"),
        (("pairing-check", "--space", "int-bv", "--a", "harmonic",
          "--y", "e3", "--n", "-2"), "--n"),
        (("norm", "--space", "int-bv", "--x", "e1", "--n", "-2"), "--n"),
        (("transform", "--matrix", "expr:1/(n-k)", "--x", "ones", "--n", "4"),
         "expression '1/(n-k)' divides by zero at n=1, k=1"),
        # the refusals of the recipe tables
        (("class-check", "--table", "1", "--source", "linf", "--target", "c",
          "--matrix", "cesaro"),
         "no recipe for the class (linf : c): table 1 characterizes classes out of l1"),
        (("class-check", "--table", "1", "--source", "l1", "--target", "c0",
          "--matrix", "cesaro"),
         "no recipe for the class (l1 : c0): not covered by table 1"),
        (("class-check", "--table", "2", "--source", "l1", "--target", "c",
          "--matrix", "cesaro"),
         "no recipe for the class (l1 : c): table 2 characterizes classes into l1"),
        (("class-check", "--table", "3", "--source", "l1", "--target", "c",
          "--matrix", "cesaro"),
         "no recipe for the class (l1 : c): table 3 characterizes classes out of int-bv"),
        (("class-check", "--table", "5", "--source", "bs", "--target", "l1",
          "--matrix", "cesaro"),
         "no recipe for the class (bs : l1): table 5 characterizes classes into int-bv"),
        (("class-check", "--table", "7", "--source", "l1", "--target", "c",
          "--matrix", "cesaro"),
         "no recipe for the class (l1 : c): unknown table 7"),
        (("class-check", "--source", "linf", "--target", "c", "--matrix", "cesaro"),
         "no recipe for the class (linf : c): no table covers this pair"),
        (("class-check", "--source", "int-bv", "--target", "l1", "--matrix", "cesaro"),
         "no recipe for the class (int-bv : l1): not covered by table 3"),
        (("class-check", "--source", "foo", "--target", "l1", "--matrix", "cesaro"),
         "no recipe for the class (foo : l1): not covered by table 2"),
        (("class-check", "--table", "4", "--source", "int-bv", "--target", "cesaro",
          "--matrix", "identity"),
         "no recipe for the class (int-bv : cesaro-bounded): "
         "composite targets fix their own table"),
        (("class-check", "--table", "4", "--source", "linf", "--target", "cesaro",
          "--matrix", "identity"),
         "no recipe for the class (linf : cesaro-bounded): "
         "composite targets need a domain-space source"),
        (("class-check", "--table", "3", "--source", "linf", "--target", "cesaro",
          "--matrix", "identity"),
         "no recipe for the class (linf : cesaro-bounded): "
         "composite targets need a domain-space source"),
        (("class-check", "--source", "l1", "--target", "cesaro", "--matrix", "identity"),
         "no recipe for the class (l1 : cesaro-bounded): "
         "composite targets need a domain-space source"),
        (("class-check", "--source", "int-bv", "--target", "taylor:1/2",
          "--matrix", "identity"),
         "this composite generator has infinite rows; pass an explicit row bound"),
        # back-substitution names the matrix it cannot invert
        (("inverse", "--matrix", "taylor:1/2", "--y", "ones"),
         "cannot invert taylor:1/2: inversion needs a strict triangle"),
        (("inverse", "--matrix", "expr:n-3", "--y", "ones"),
         "cannot invert expr:n-3: zero diagonal entry at row 3"),
        (("inverse", "--mode", "float", "--matrix", "expr:n-3", "--y", "ones"),
         "cannot invert expr:n-3: zero diagonal entry at row 3"),
        (("class-check", "--source", "l1", "--target", "foo", "--matrix", "cesaro"),
         "unknown target space 'foo'"),
        # a float product u_k w_k that underflows names k
        (("inverse", "--mode", "float", "--space", "int-bv", "--y", "ones", "--n", "600",
          "--u", "geometric:1/2", "--w", "geometric:1/2"),
         "weight u[538] times w[538] underflows to zero"),
        (("pairing-check", "--mode", "float", "--space", "d-bv", "--a", "geometric:1/2",
          "--y", "ones", "--n", "1100", "--u", "geometric:1/2", "--w", "geometric:1/2"),
         "weight u[538] times w[538] underflows to zero"),
        (("dual-check", "--space", "int-bv", "--kind", "alpha", "--a", "ones",
          "--u", "geometric:1/2", "--w", "geometric:1/2",
          "--schedule", "128,256,512,1024"),
         "weight u[538] times w[538] underflows to zero"),
        # the int-bv beta lead divides by k u_k w_k, which underflows later
        (("dual-check", "--space", "int-bv", "--kind", "beta", "--a", "ones",
          "--u", "geometric:1/2", "--w", "geometric:1/2",
          "--schedule", "128,256,512,1024"),
         "weight u[543] times w[543] underflows to zero"),
        # w_1075 = 2^-1075 rounds to 0.0 by itself
        (("pairing-check", "--mode", "float", "--space", "int-bv", "--a", "power:-2",
          "--y", "ones", "--n", "1100", "--u", "ones", "--w", "geometric:1/2"),
         "weight w[1075] is zero"),
        # expressions past the token cap, which would nest past the stack
        (("class-check", "--source", "int-bv", "--target", "c",
          "--matrix", "expr:" + "(" * 400 + "n" + ")" * 400), "has 801 tokens"),
        (("norm", "--space", "int-bv", "--x", "ones", "--u", "expr:" + "-" * 985 + "n"),
         "has 986 tokens"),
        (("transform", "--space", "int-bv", "--x", "expr:" + "+".join(["n"] * 1501)),
         "has 3001 tokens"),
        # a source-side reduction names the matrix whose rows are infinite
        (("class-check", "--source", "int-bv", "--target", "linf", "--matrix", "taylor:1/3",
          "--schedule", "4,8,16"),
         "source-side reduction needs a row-finite matrix; taylor:1/3 has infinite rows"),
        # the row bound truncates the generator, not the full expression matrix
        (("class-check", "--source", "d-bv", "--target", "cesaro",
          "--matrix", "expr:1/(n+k)", "--full", "--schedule", "4,8,16", "--row-bound", "8"),
         "source-side reduction needs a row-finite matrix; "
         "cesaro*expr:1/(n+k) has infinite rows"),
        # schedule options must be finite, and sizes positive
        (("dual-check", "--space", "int-bv", "--kind", "beta", "--a", "ones",
          "--schedule", "16,32,64;tol=inf"), "stabilization tolerance must be finite"),
        (("dual-check", "--space", "int-bv", "--kind", "beta", "--a", "ones",
          "--schedule", "16,32,64;ratio=inf"), "growth ratio must be finite"),
        (("class-check", "--source", "l1", "--target", "c", "--matrix", "cesaro",
          "--schedule", "0,4,8"), "schedule sizes must be positive"),
        # a size past the address space fails before anything is allocated
        (("class-check", "--source", "linf", "--target", "l1", "--matrix", "identity",
          "--schedule", "16,32,2305843009213693952"), "out of memory"),
        (("class-check", "--source", "l1", "--target", "bs", "--matrix", "cesaro",
          "--schedule", "16,32,2305843009213693952"), "out of memory"),
        (("class-check", "--source", "linf", "--target", "l1", "--matrix", "identity",
          "--schedule", "16,32,10000000000000000000"),
         "cannot fit 'int' into an index-sized integer"),
    ])
    def test_bad_input_gives_one_error_line(self, capsys, argv, message):
        code, text = run_cli(*argv)
        assert code == 1
        assert text == ""
        err = capsys.readouterr().err
        assert err.startswith("sumkit: ")
        assert err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("body", ["(" * 66 + "n" + ")" * 66,
                                      "(-" * 49 + "n" + ")" * 49,
                                      "+".join(["n"] * 100)],
                             ids=["parentheses", "negations", "sum"])
    def test_expressions_under_the_token_cap_evaluate(self, body):
        code, doc = run_json("class-check", "--source", "int-bv", "--target", "c",
                             "--matrix", "expr:" + body, "--schedule", "8,16,32,64")
        assert code == doc["exit_code"] != 1

    @pytest.mark.parametrize("argv", [
        ("transform", "--matrix", "cesaro", "--x", "ones", "--out"),
        ("dual-check", "--space", "int-bv", "--kind", "alpha", "--a", "ones", "--csv"),
        ("class-check", "--source", "l1", "--target", "l1", "--matrix", "cesaro",
         "--matrix-csv"),
    ], ids=["out", "csv", "matrix-csv"])
    def test_unwritable_path_gives_one_error_line_and_no_report(self, capsys, tmp_path,
                                                                 argv):
        path = tmp_path / "missing" / "file"
        code, text = run_cli(*argv, str(path))
        assert code == 1
        assert text == ""
        err = capsys.readouterr().err
        assert err.startswith("sumkit: ")
        assert err.count("\n") == 1
        assert str(path) in err

    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize("argv, line", [
        (("inverse", "--matrix", "expr:1/(n-3)", "--y", "ones", "--n", "6"),
         "expression '1/(n-3)' divides by zero at n=3, k=3"),
        (("class-check", "--source", "l1", "--target", "c", "--matrix", "expr:1/(n-3)"),
         "expression '1/(n-3)' divides by zero at n=3, k=1"),
        (("class-check", "--source", "l1", "--target", "c",
          "--matrix", "expr:1/((k-2)*(n-5))"),
         "expression '1/((k-2)*(n-5))' divides by zero at n=2, k=2"),
        # two bad cells: C12 alone would meet (12, 1) first in its old
        # column order and (10, 3) in its row order, but C11 runs first and
        # meets (10, 3); C15 and C16 follow C14 in the same way
        (("class-check", "--source", "l1", "--target", "c",
          "--matrix", "expr:1/(((n-10)^2+(k-3)^2)*((n-12)^2+(k-1)^2))"),
         "expression '1/(((n-10)^2+(k-3)^2)*((n-12)^2+(k-1)^2))' divides by zero "
         "at n=10, k=3"),
        (("class-check", "--source", "int-bv", "--target", "c0",
          "--matrix", "expr:1/(((n-10)^2+(k-3)^2)*((n-12)^2+(k-1)^2))"),
         "expression '1/(((n-10)^2+(k-3)^2)*((n-12)^2+(k-1)^2))' divides by zero "
         "at n=10, k=3"),
        (("class-check", "--source", "l1", "--target", "cs",
          "--matrix", "expr:1/(((n-3)^2+(k-2)^2)*((n-5)^2+(k-1)^2))"),
         "expression '1/(((n-3)^2+(k-2)^2)*((n-5)^2+(k-1)^2))' divides by zero "
         "at n=3, k=2"),
        (("class-check", "--source", "l1", "--target", "c0s",
          "--matrix", "expr:1/(((n-3)^2+(k-2)^2)*((n-5)^2+(k-1)^2))"),
         "expression '1/(((n-3)^2+(k-2)^2)*((n-5)^2+(k-1)^2))' divides by zero "
         "at n=3, k=2"),
        # C21 reads rows 1..8 of size 16 from column 9 on: row 2 fails first
        (("class-check", "--table", "2", "--source", "bs", "--target", "l1",
          "--matrix", "expr:1/(n-2)", "--full"),
         "expression '1/(n-2)' divides by zero at n=2, k=9"),
        (("class-check", "--source", "l1", "--target", "c", "--matrix", "riesz:1,0,2"),
         "weight t[2] must be positive for a Riesz matrix"),
        (("class-check", "--source", "l1", "--target", "c", "--matrix", "riesz:1,2,-1,3"),
         "weight t[3] must be positive for a Riesz matrix"),
        (("class-check", "--source", "l1", "--target", "c",
          "--matrix", "riesz:expr:1/(n-4)"),
         "weight t[1] must be positive for a Riesz matrix"),
        # row n of a weighted mean checks t_1..t_n before it reads x_n or y_n:
        # x_2 fails before t_3 = 0 is reached, and t_2 = 0 before x_3
        (("transform", "--matrix", "riesz:1,2,0", "--x", "expr:1/(n-2)", "--n", "6"),
         "expression '1/(n-2)' divides by zero at n=2"),
        (("inverse", "--matrix", "riesz:1,2,0", "--y", "expr:1/(n-2)", "--n", "6"),
         "expression '1/(n-2)' divides by zero at n=2"),
        (("transform", "--matrix", "riesz:1,0,2", "--x", "expr:1/(n-3)", "--n", "6"),
         "weight t[2] must be positive for a Riesz matrix"),
        (("inverse", "--matrix", "riesz:1,0,2", "--y", "expr:1/(n-3)", "--n", "6"),
         "weight t[2] must be positive for a Riesz matrix"),
        # t_2 = 0 and a bad x_2 (y_2) in one row: the weight is read first
        (("transform", "--matrix", "riesz:1,0,2", "--x", "expr:1/(n-2)", "--n", "6"),
         "weight t[2] must be positive for a Riesz matrix"),
        (("inverse", "--matrix", "riesz:1,0,2", "--y", "expr:1/(n-2)", "--n", "6"),
         "weight t[2] must be positive for a Riesz matrix"),
        (("transform", "--matrix", "cesaro", "--x", "expr:1/(n-4)", "--n", "6"),
         "expression '1/(n-4)' divides by zero at n=4"),
        (("inverse", "--matrix", "cesaro", "--y", "expr:1/(n-4)", "--n", "6"),
         "expression '1/(n-4)' divides by zero at n=4"),
        # the beta statistic reads a, then the weights, row by row: row 5
        # reads a_5 before d_4 reads w_5, and row 5 of a_n = 1/(n-6) reads
        # d_4 (u_4, w_5) before div_5 (u_5)
        (("dual-check", "--space", "int-bv", "--kind", "beta", "--a", "expr:1/(n-5)"),
         "expression '1/(n-5)' divides by zero at n=5"),
        (("dual-check", "--space", "d-bv", "--kind", "gamma", "--a", "expr:1/(n-5)",
          "--w", "expr:n-5"), "expression '1/(n-5)' divides by zero at n=5"),
        (("dual-check", "--space", "int-bv", "--kind", "gamma", "--a", "expr:1/(n-6)",
          "--w", "expr:n-5"), "weight w[5] is zero"),
        (("dual-check", "--space", "d-bv", "--kind", "beta", "--a", "expr:1/(n-6)",
          "--u", "expr:n-5"), "weight u[5] is zero"),
        (("dual-check", "--space", "int-bv", "--kind", "gamma", "--a", "power:-2",
          "--w", "1,1,1,0"), "weight w[4] is zero"),
        # a bad weight read while the statistic is still inside the support
        (("dual-check", "--space", "d-bv", "--kind", "gamma", "--a", "3,-1,1/2",
          "--w", "1,0,2"), "weight w[2] is zero"),
    ])
    def test_first_error_is_the_first_bad_entry_read(self, capsys, argv, line, mode):
        # the entry that fails first depends on the order the command reads
        # entries in, not on how the matrix is evaluated or which mode it is in
        code, text = run_cli(*argv, "--mode", mode)
        assert (code, text) == (1, "")
        assert capsys.readouterr().err == f"sumkit: {line}\n"

    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize("argv, line", [
        (("pairing-check", "--space", "int-bv", "--a", "power:-2", "--y", "harmonic",
          "--n", "16", "--w", "expr:n-7"), "weight w[7] is zero"),
        (("pairing-check", "--space", "d-bv", "--a", "power:-2", "--y", "harmonic",
          "--n", "16", "--u", "expr:n-5"), "weight u[5] is zero"),
        (("pairing-check", "--space", "int-bv", "--a", "expr:1/(n-4)", "--y", "harmonic",
          "--n", "16", "--w", "expr:n-7"), "expression '1/(n-4)' divides by zero at n=4"),
        (("reduction-check", "--matrix", "cesaro", "--y", "harmonic", "--n", "16",
          "--w", "expr:n-7"), "weight w[7] is zero"),
        (("reduction-check", "--matrix", "euler:1/3", "--y", "harmonic", "--n", "16",
          "--u", "expr:n-5"), "weight u[5] is zero"),
        (("reduction-check", "--matrix", "expr:1/(n-k-3)", "--y", "ones", "--n", "9"),
         "expression '1/(n-k-3)' divides by zero at n=4, k=1"),
        (("reduction-check", "--matrix", "expr:1/(n-k-3)", "--y", "harmonic", "--n", "9",
          "--w", "expr:n-2"), "weight w[2] is zero"),
        # row 4 reads u_4 before its bad entry (4, 1)
        (("reduction-check", "--matrix", "expr:1/(n-k-3)", "--y", "ones", "--n", "9",
          "--u", "expr:n-4"), "weight u[4] is zero"),
        (("reduction-check", "--matrix", "taylor:1/2", "--y", "ones", "--n", "4"),
         "reduction roundtrips need a row-finite matrix"),
    ])
    def test_consistency_checks_stop_at_the_first_bad_row(self, capsys, argv, line, mode):
        # the rows are walked in order over shared state; the error is the
        # one a fresh evaluation of the first failing row raises
        code, text = run_cli(*argv, "--mode", mode)
        assert (code, text) == (1, "")
        assert capsys.readouterr().err == f"sumkit: {line}\n"

    @pytest.mark.parametrize("argv, line", [
        (("class-check", "--mode", "float", "--table", "1", "--source", "l1",
          "--target", "l1", "--matrix", "expr:10^307*(n-2*k)", "--schedule", "8,16,32,64"),
         "entry (18, 18) of expr:10^307*(n-2*k) is too large for a float"),
        (("transform", "--mode", "float", "--space", "int-bv", "--x", "expr:10^400",
          "--n", "4"), "term 1 of expr:10^400 is too large for a float"),
        (("transform", "--mode", "float", "--space", "int-bv", "--x", "ones",
          "--u", "expr:10^400", "--n", "4"), "term 1 of expr:10^400 is too large for a float"),
        (("dual-check", "--space", "int-bv", "--kind", "beta", "--a", "expr:10^400"),
         "term 1 of expr:10^400 is too large for a float"),
        (("transform", "--mode", "float", "--matrix", "expr:10^400", "--x", "ones",
          "--n", "3"), "entry (1, 1) of expr:10^400 is too large for a float"),
    ])
    def test_float_overflow_names_the_term_or_entry(self, capsys, argv, line):
        code, text = run_cli(*argv)
        assert (code, text) == (1, "")
        assert capsys.readouterr().err == f"sumkit: {line}\n"

    def test_version_exits_zero(self, capsys):
        # the --version action, the package and pyproject.toml (read without
        # tomllib, which CPython 3.10 lacks) give one version string
        code, _ = run_cli("--version")
        assert code == 0
        assert capsys.readouterr().out == f"sumkit {sumkit.__version__}\n"
        pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
        assert re.findall(r'(?m)^version = "(.*)"$', pyproject) == [sumkit.__version__]

    def test_one_parser_serves_every_call(self, capsys):
        # run keeps one parser for the process; a parse that exits or fails
        # must leave nothing behind that a later call would see
        env = {**os.environ, "PYTHONPATH": str(Path(sumkit.__file__).parents[1])}
        value = ("transform", "--space", "int-bv", "--x", "harmonic", "--n", "6")
        for argv in [value,
                     ("--version",),
                     ("norm", "--space", "int-bv", "--x", "ones", "--bogus"),
                     ("dual-check", "--kind", "gamma", "--a", "ones"),
                     ("transform", "--space", "int-bv", "--matrix", "cesaro", "--x", "ones"),
                     value,
                     ("inverse", "--matrix", "cesaro", "--y", "1,2,3", "--n", "5")]:
            fresh = subprocess.run(
                [sys.executable, "-c", "from sumkit.cli import main; main()", *argv],
                capture_output=True, text=True, env=env, timeout=60)
            code, text = run_cli(*argv)
            out, err = capsys.readouterr()
            assert (code, out + text, err) == (fresh.returncode, fresh.stdout,
                                               fresh.stderr), argv


class TestScheduleSelection:
    def test_environment_schedule_is_honoured(self, monkeypatch):
        monkeypatch.setenv("SUMKIT_SCHEDULE", "4,8,16")
        _, doc = run_json("norm", "--space", "int-bv", "--x", "e1")
        assert doc["inputs"]["n"] == 16

    def test_flag_overrides_environment(self, monkeypatch):
        monkeypatch.setenv("SUMKIT_SCHEDULE", "4,8,16")
        _, doc = run_json("dual-check", "--space", "int-bv", "--kind",
                          "gamma", "--a", "alternating",
                          "--schedule", "8,16,32")
        assert doc["schedule"]["sizes"] == [8, 16, 32]
