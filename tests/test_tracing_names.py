"""Every name the benchmark's span tracer wraps still exists in the library.

`perfbench/tracing.py` looks its names up with getattr when it installs, so
a library change that drops one breaks traced runs only.  The file is run
for its tables and is not changed.
"""

import importlib
import pathlib
import runpy

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_resolves():
    tracing = runpy.run_path(str(TRACING))
    for modname in tracing["MODULES"]:
        importlib.import_module(f"stratabord.{modname}")
    for _span, modname, attr, _extra in tracing["WRAPPED"]:
        owner = importlib.import_module(f"stratabord.{modname}")
        for part in attr.split("."):
            assert hasattr(owner, part), f"stratabord.{modname}.{attr}"
            owner = getattr(owner, part)
        assert callable(owner), f"stratabord.{modname}.{attr}"
    assert callable(importlib.import_module("stratabord.classes").builtin)
