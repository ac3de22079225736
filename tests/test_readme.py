"""Every module attribute the README names in backticks exists, and every
keyword it passes to a solver or operators function is a parameter of it."""

import importlib
import inspect
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = ("operators", "solver", "harness", "coeffs", "spectral", "grid", "report", "fieldio", "problems",
           "cli", "_kernels")
# `operators.X`, `acsplit.operators.X(...)` or `operators.X.calls`: only X is checked
REFERENCE = re.compile(rf"^(?:acsplit\.)?({'|'.join(MODULES)})\.([A-Za-z_]\w*)")


# `step(..., peak=)` or `solver.step(f, kw=1)`: the function and its keywords
CALL = re.compile(r"^(?:(?:acsplit\.)?(?:solver|operators)\.)?([A-Za-z]\w*)\((.*)\)$")


def _spans(text: str) -> list[str]:
    """The backticked spans of ``text`` outside fenced code blocks."""
    text = re.sub(r"^```.*?^```", "", text, flags=re.DOTALL | re.MULTILINE)
    return re.findall(r"`([^`\n]+)`", text)


def _references() -> list[tuple[str, str]]:
    return [match.groups() for span in _spans(README.read_text()) if (match := REFERENCE.match(span))]


def _keyword_references(text: str) -> list[tuple[str, str, bool]]:
    """``(function, keyword, whether it is a parameter)`` of each keyword in a
    backticked call of a public function of ``acsplit.solver`` or ``acsplit.operators``."""
    modules = [importlib.import_module(f"acsplit.{name}") for name in ("solver", "operators")]
    out = []
    for span in _spans(text):
        match = CALL.match(span)
        if not match:
            continue
        found = [getattr(m, match[1]) for m in modules if inspect.isfunction(getattr(m, match[1], None))]
        if found:
            params = inspect.signature(found[0]).parameters
            out += [(match[1], kw, kw in params) for kw in re.findall(r"([A-Za-z_]\w*)=", match[2])]
    return out


def test_readme_names_only_module_attributes_that_exist():
    refs = _references()
    assert len(refs) >= 30  # the pattern still finds the README's references
    missing = [f"{module}.{name}" for module, name in refs
               if not hasattr(importlib.import_module(f"acsplit.{module}"), name)]
    assert missing == []


def test_readme_passes_only_keywords_the_functions_take():
    refs = _keyword_references(README.read_text())
    assert refs  # the pattern still finds the README's keyword references
    assert [f"{name}(..., {kw}=)" for name, kw, known in refs if not known] == []
    # a keyword that a signature has lost is found
    stale = "defers its last substep (`step(..., defer_last=True)`) and adds (`solver.step(f, carry=tau)`)"
    assert _keyword_references(stale) == [("step", "defer_last", False), ("step", "carry", False)]


def test_readme_lists_every_config_key():
    from acsplit.cli import CONFIG_KEYS

    listed = re.search(r"The keys are (.*?): every option", README.read_text(), re.DOTALL)[1]
    keys = re.findall(r"`(\w+)`", listed)
    assert len(keys) == len(set(keys))
    assert set(keys) == CONFIG_KEYS
