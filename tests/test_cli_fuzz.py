"""Argv fuzzing: any command line gives a valid JSON report whose
``exit_code`` is the exit code, or exactly one ``sumkit:`` line with exit 1,
or argparse's usage error with exit 1, and never a traceback.

The commands, their flags and the choices of each flag are read from the
parser; the sequence presets, matrix families and space names from the
tables the program parses them with.  A new name is fuzzed without a test
edit.  Sizes stay small (``--n`` <= 24, schedules <= 64) so the test is
quick.
"""

import argparse
import io
import json
import tempfile
from contextlib import redirect_stderr

from hypothesis import given, settings, strategies as st

from sumkit.cli import build_parser, run
from sumkit.core import SpaceTag
from sumkit.minilang import _PRESETS
from sumkit.operators import MATRIX_FAMILIES
from sumkit.spaces import SpaceName

SUBPARSERS = next(action.choices for action in build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction))
SPACE_NAMES = [tag.value for tag in SpaceTag] + [name.value for name in SpaceName]


def mostly(valid: st.SearchStrategy, invalid: st.SearchStrategy) -> st.SearchStrategy:
    """``valid`` nine times in ten, else ``invalid``."""
    return st.integers(0, 9).flatmap(lambda i: valid if i < 9 else invalid)


small_ints = mostly(st.integers(1, 24), st.integers(-2, 0))
rationals = mostly(st.sampled_from(["1/2", "1/3", "2/3", "3/7", "1", "-1/2", "2"]),
                   st.sampled_from(["0", "x", "1/0"]))


def expressions(variables: str) -> st.SearchStrategy:
    atoms = st.sampled_from(list(variables) + ["1", "2", "3", "1/2", "0.5"])
    return st.recursive(
        atoms,
        lambda inner: st.one_of(
            st.tuples(inner, st.sampled_from("+-*/"), inner).map("".join),
            st.tuples(inner, st.sampled_from(["^2", "^-1", "^0"])).map("".join),
            inner.map(lambda e: f"({e})"),
            inner.map(lambda e: f"-{e}")),
        max_leaves=5)


# malformed expressions: a missing operand, a bad exponent, bad characters,
# trailing input, a missing ')'
BAD_EXPRESSIONS = ["expr:(", "expr:2^(2)", "expr:n $", "expr:1.", "expr:2^2^2", "expr:(((n)"]


def sequence_specs() -> st.SearchStrategy:
    return mostly(st.one_of(
        st.sampled_from(sorted(_PRESETS)),
        st.integers(0, 30).map(lambda k: f"e{k}"),
        st.integers(-3, 3).map(lambda p: f"power:{p}"),
        rationals.map(lambda r: f"geometric:{r}"),
        expressions("n").map(lambda e: f"expr:{e}"),
        st.lists(st.integers(-3, 3), min_size=1, max_size=4).map(
            lambda t: ",".join(map(str, t))),
        st.tuples(st.lists(st.integers(-3, 3), min_size=1, max_size=3),
                  expressions("n")).map(lambda p: ",".join(map(str, p[0])) + f";tail={p[1]}")),
        st.sampled_from(["", "1,,2", "1;foo", "power:x", *BAD_EXPRESSIONS]))


def family_specs() -> st.SearchStrategy:
    def spec(name: str) -> st.SearchStrategy:
        param = MATRIX_FAMILIES[name].param
        if param == "rational":
            return rationals.map(lambda r: f"{name}:{r}")
        if param == "weights":
            return sequence_specs().map(lambda s: f"{name}:{s}")
        return st.just(name)

    return st.sampled_from(sorted(MATRIX_FAMILIES)).flatmap(spec)


def matrix_specs() -> st.SearchStrategy:
    return mostly(st.one_of(family_specs(), expressions("nk").map(lambda e: f"expr:{e}")),
                  st.sampled_from(["csv:/nonexistent/m.csv", "nothing", *BAD_EXPRESSIONS]))


def schedule_specs() -> st.SearchStrategy:
    # no huge size: C11 or a dual check would loop on one, where C20 and
    # column scans fail at once (test_cli's error table pins those)
    sizes = mostly(st.sets(st.integers(1, 64), min_size=3, max_size=5).map(sorted),
                   st.lists(st.integers(0, 64), max_size=4))
    option = mostly(st.sampled_from(["tol=1e-3", "tol=1e-12", "ratio=2", "ratio=1.2",
                                     "steps=1", "steps=2"]),
                    st.sampled_from(["tol=0", "ratio=1", "steps=x", "foo=1", "bad",
                                     "tol=inf", "ratio=inf", "tol=nan"]))
    return st.tuples(sizes.map(lambda s: ",".join(map(str, s))),
                     st.lists(option, max_size=2)).map(lambda p: ";".join([p[0], *p[1]]))


# string flags by destination; any other string flag draws from all of them
STRING_VALUES = {
    "u": sequence_specs(), "w": sequence_specs(), "x": sequence_specs(),
    "y": sequence_specs(), "a": sequence_specs(), "matrix": matrix_specs(),
    "source": mostly(st.sampled_from(SPACE_NAMES), st.just("foo")),
    "target": mostly(st.one_of(st.sampled_from(SPACE_NAMES), family_specs()), st.just("foo")),
    "schedule": schedule_specs(),
}
ANY_STRING = st.one_of(*STRING_VALUES.values())
PATH_FLAGS = {"out", "csv", "matrix_csv"}


def flag_values(action: argparse.Action) -> st.SearchStrategy:
    """Drawn values for one optional argument: a list of argv tokens."""
    flag = action.option_strings[-1]
    if action.nargs == 0:
        return st.just([flag])
    if action.choices is not None:
        values = mostly(st.sampled_from(list(action.choices)), st.just("nope"))
    elif action.type is int:
        values = small_ints.map(str)
    elif action.dest in PATH_FLAGS:
        values = st.just(f"{{tmp}}/{action.dest}.out")
    else:
        values = STRING_VALUES.get(action.dest, ANY_STRING)
    return values.map(lambda v: [flag, v])


@st.composite
def argvs(draw) -> list[str]:
    command = draw(st.sampled_from(sorted(SUBPARSERS)))
    argv = [command]
    for action in SUBPARSERS[command]._actions:
        if not action.option_strings or isinstance(action, argparse._HelpAction):
            continue
        # required flags are left out now and then to reach argparse's usage error
        if draw(st.integers(0, 19)) < (19 if action.required else 10):
            argv += draw(flag_values(action))
    if "--schedule" not in argv and any("--schedule" in a.option_strings
                                        for a in SUBPARSERS[command]._actions):
        argv += ["--schedule", draw(schedule_specs())]  # never the default 16..256
    return argv


def run_captured(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, redirect_stderr(err):
        code = run([a.replace("{tmp}", tmp) for a in argv], out=out)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(argvs())
def test_any_argv_gives_a_report_or_one_error(argv):
    code, text, err = run_captured(argv)
    if text:
        assert json.loads(text)["exit_code"] == code
        assert err == ""
    else:
        assert code == 1
        assert err.startswith("sumkit: ") and err.count("\n") == 1 or \
            err.startswith("usage: ") and "error: " in err

