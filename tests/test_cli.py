"""End-to-end tests for the ``sumkit`` command-line interface.

Every test drives :func:`sumkit.cli.run` directly with an in-memory output
buffer, so the assertions cover argument parsing, report assembly and
serialisation exactly as a shell user would see them.
"""

import csv
import json

import pytest
from conftest import run_cli


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
         "this composite generator has infinite rows; pass row_bound"),
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
    ])
    def test_bad_input_gives_one_error_line(self, capsys, argv, message):
        code, text = run_cli(*argv)
        assert code == 1
        assert text == ""
        err = capsys.readouterr().err
        assert err.startswith("sumkit: ")
        assert err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize("argv, line", [
        (("inverse", "--matrix", "expr:1/(n-3)", "--y", "ones", "--n", "6"),
         "expression '1/(n-3)' divides by zero at n=3, k=3"),
        (("class-check", "--source", "l1", "--target", "c", "--matrix", "expr:1/(n-3)"),
         "expression '1/(n-3)' divides by zero at n=3, k=1"),
        (("class-check", "--source", "l1", "--target", "c",
          "--matrix", "expr:1/((k-2)*(n-5))"),
         "expression '1/((k-2)*(n-5))' divides by zero at n=2, k=2"),
        (("class-check", "--source", "l1", "--target", "c", "--matrix", "riesz:1,0,2"),
         "weight t[2] must be positive for a Riesz matrix"),
        (("class-check", "--source", "l1", "--target", "c", "--matrix", "riesz:1,2,-1,3"),
         "weight t[3] must be positive for a Riesz matrix"),
        (("class-check", "--source", "l1", "--target", "c",
          "--matrix", "riesz:expr:1/(n-4)"),
         "weight t[1] must be positive for a Riesz matrix"),
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
        code, _ = run_cli("--version")
        assert code == 0
        assert "sumkit" in capsys.readouterr().out


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
