"""Keep ``src/repro/sim`` clean of unused/duplicate imports, and keep
host clocks out of the simulator and the ICLs.

CI runs the real ``ruff check`` + ``mypy`` (lint job); this test runs the
offline subset in ``tools/lint_imports.py`` so the same class of violation
fails fast in environments without the linters installed.
"""

import ast
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

from lint_imports import check_file  # noqa: E402


def test_sim_package_import_hygiene():
    findings = []
    for path in sorted((REPO_ROOT / "src" / "repro" / "sim").rglob("*.py")):
        findings.extend(check_file(path))
    assert not findings, "\n".join(findings)


#: Host-clock readers.  ``perf_counter`` also covers ``perf_counter_ns``.
HOST_CLOCK_NAMES = ("perf_counter", "process_time", "monotonic")


def host_clock_uses(path: Path):
    """``path:line: what`` for each import of ``time`` or host-clock name."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
            if "time" in names:
                found.append((node.lineno, "import time"))
        elif isinstance(node, ast.ImportFrom) and node.module == "time":
            found.append((node.lineno, "from time import ..."))
        else:
            name = (
                node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, ast.alias)
                else None
            )
            if name is not None and name.startswith(HOST_CLOCK_NAMES):
                found.append((node.lineno, name))
    rel = path.relative_to(REPO_ROOT)
    return [f"{rel}:{line}: {what}" for line, what in found]


def test_simulator_and_icls_read_no_host_clock():
    """The gray-box contract: an ICL learns only from syscall results and
    simulated time, so neither the simulator nor the ICLs may read the
    host's clock (host-time measurement lives outside, in ``perfbench``).
    """
    findings = []
    for package in ("sim", "icl"):
        for path in sorted((REPO_ROOT / "src" / "repro" / package).rglob("*.py")):
            findings.extend(host_clock_uses(path))
    assert not findings, "\n".join(findings)
