"""The benchmark's per-layer span names still name library functions.

`perfbench/tracing.py` records one span per call of a public nbqc
function (and of three `SyndromeDecoder` methods) under the name
"<module>.<function>", and `perfbench/workloads.py` sums spans by name.
A name that matches no function reads 0 without an error, so a rename in
the library would silently zero a per-layer metric.  The benchmark files
are read as text; nothing there is imported or changed.
"""

import importlib
import inspect
import re
from pathlib import Path

from nbqc.decoder import SyndromeDecoder

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# names of functions that no longer exist; they read 0 by construction
# until the benchmark drops them (ROADMAP item 1)
STALE = {"binexpand.binary_orthogonal", "harness.trial_rng"}


def span_names() -> set[str]:
    workloads = (PERFBENCH / "workloads.py").read_text()
    tracing = (PERFBENCH / "tracing.py").read_text()
    names = set(re.findall(r'\b(?:total|calls|self_s)\("([^"]+)"\)', workloads))
    names |= set(re.findall(r'^(?:WHT|DECODE|SYNDROME|SOLVE_MOD) = "([^"]+)"$', tracing,
                            flags=re.MULTILINE))
    return names


def resolves(name: str) -> bool:
    """Whether the tracer wraps a function under this span name."""
    module, _, attr = name.partition(".")
    if module == "decoder" and attr.startswith("SyndromeDecoder."):
        return attr.removeprefix("SyndromeDecoder.") in vars(SyndromeDecoder)
    mod = importlib.import_module(f"nbqc.{module}")
    fn = getattr(mod, attr, None)
    return (inspect.isfunction(fn) and fn.__module__ == mod.__name__
            and not attr.startswith("_"))


def test_benchmark_span_names_resolve():
    names = span_names()
    assert len(names) >= 20, sorted(names)
    assert {"decoder.walsh_hadamard", "decoder.SyndromeDecoder.decode",
            "decoder.SyndromeDecoder.syndrome_of_symbols", "modring.solve_mod"} <= names
    assert {name for name in names if not resolves(name)} == STALE
