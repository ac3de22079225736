"""Every module attribute the README names in backticks exists."""

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = ("operators", "solver", "harness", "coeffs", "spectral", "grid", "report", "fieldio", "problems",
           "cli", "_kernels")
# `operators.X`, `acsplit.operators.X(...)` or `operators.X.calls`: only X is checked
REFERENCE = re.compile(rf"^(?:acsplit\.)?({'|'.join(MODULES)})\.([A-Za-z_]\w*)")


def _references() -> list[tuple[str, str]]:
    text = re.sub(r"^```.*?^```", "", README.read_text(), flags=re.DOTALL | re.MULTILINE)
    spans = re.findall(r"`([^`\n]+)`", text)
    return [match.groups() for span in spans if (match := REFERENCE.match(span))]


def test_readme_names_only_module_attributes_that_exist():
    refs = _references()
    assert len(refs) >= 30  # the pattern still finds the README's references
    missing = [f"{module}.{name}" for module, name in refs
               if not hasattr(importlib.import_module(f"acsplit.{module}"), name)]
    assert missing == []
