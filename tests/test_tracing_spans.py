"""The benchmark tracer wraps ``sumkit`` functions by module and name
(``perfbench/tracing.py``, ``SPANS``).  A renamed or dropped import would
make every traced benchmark pass raise ``AttributeError``; this catches it
here first.  The tracer module is only loaded, never installed."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).parent.parent / "perfbench" / "tracing.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


SPANS = load_spans()


def test_spans_are_found():
    assert ("sumkit.cli", "pairing_identity_check") in {s[:2] for s in SPANS}


@pytest.mark.parametrize("modname, attr", sorted({s[:2] for s in SPANS}),
                         ids=lambda part: part)
def test_every_traced_name_resolves(modname, attr):
    assert callable(getattr(importlib.import_module(modname), attr))
