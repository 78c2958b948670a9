#!/usr/bin/env python3
"""Lint: vendor display names must not appear as string literals outside
``src/repro/products/``.

The ProductSpec registry is the single source of vendor knowledge; a
literal ``"Netsweeper"`` in a pipeline layer is scattered knowledge
creeping back in. Pipeline code should obtain names from
``repro.products.registry`` (the exported constants or spec fields).

Checks every string constant in the AST — including f-string parts —
but exempts docstrings, which may legitimately narrate the paper's
findings ("the Netsweeper access queue...").

Usage::

    python tools/check_vendor_literals.py [src-root ...]

With no arguments, lints ``src/`` and ``tools/`` (this linter itself is
exempt — it must name the vendors to find them) and verifies the
modules in ``REQUIRED_COVERED`` were actually scanned, so a rename
cannot silently drop a module out of coverage.

Exits 1 and prints ``path:line: message`` for each offending literal.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import List, Tuple

# The five registered display names, case-sensitive: prose mentions in
# lowercase ("netsweeper's queue") inside comments never reach the AST,
# and docstrings are exempted below.
VENDOR_NAMES = (
    "Blue Coat",
    "McAfee SmartFilter",
    "Netsweeper",
    "Websense",
    "FortiGuard",
)

#: Modules that must exist and be scanned on a no-argument run. Layers
#: added after the registry refactor land here so a rename or a root
#: change cannot silently drop them out of lint coverage.
REQUIRED_COVERED = (
    "src/repro/world/faults.py",
    "src/repro/exec/resilience.py",
    "src/repro/exec/journal.py",
    "src/repro/exec/checkpoint.py",
    "src/repro/measure/client.py",
    "src/repro/core/pipeline.py",
    "src/repro/scan/banner.py",
    "src/repro/store/records.py",
    "src/repro/store/store.py",
    "src/repro/query/diff.py",
    "src/repro/query/engine.py",
    "src/repro/query/views.py",
    "src/repro/serve/api.py",
    "src/repro/world/population.py",
    "src/repro/scan/stream.py",
    "src/repro/store/segments.py",
    "src/repro/measure/verdict.py",
    "src/repro/measure/classifiers/__init__.py",
    "src/repro/measure/classifiers/blockpage.py",
    "src/repro/measure/classifiers/content.py",
    "src/repro/measure/classifiers/filters.py",
    "src/repro/measure/classifiers/fusion.py",
    "src/repro/measure/classifiers/network.py",
    "src/repro/measure/classifiers/record.py",
    "src/repro/measure/classifiers/throttle.py",
    "src/repro/store/merge.py",
    "src/repro/coord/__init__.py",
    "src/repro/coord/queue.py",
    "src/repro/coord/worker.py",
    "src/repro/coord/coordinator.py",
    "src/repro/coord/runner.py",
    "src/repro/monitor/__init__.py",
    "src/repro/monitor/schedule.py",
    "src/repro/monitor/supervisor.py",
    "src/repro/monitor/alerts.py",
    "src/repro/monitor/service.py",
    "src/repro/monitor/status.py",
    "src/repro/discover/__init__.py",
    "src/repro/discover/index.py",
    "src/repro/discover/crawler.py",
    "src/repro/world/weave.py",
    "tools/serve_smoke.py",
)

def docstring_nodes(tree: ast.AST) -> set:
    """Constant nodes that are docstrings of a module/class/function."""
    exempt = set()
    for node in ast.walk(tree):
        if isinstance(
            node,
            (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
        ):
            body = getattr(node, "body", [])
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                exempt.add(body[0].value)
    return exempt


def check_file(path: Path) -> List[Tuple[int, str]]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    exempt = docstring_nodes(tree)
    findings = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Constant):
            continue
        if not isinstance(node.value, str) or node in exempt:
            continue
        for name in VENDOR_NAMES:
            if name in node.value:
                findings.append(
                    (
                        node.lineno,
                        f"vendor literal {name!r} — import it from "
                        "repro.products.registry instead",
                    )
                )
    return findings


def main(argv: List[str]) -> int:
    repo = Path(__file__).resolve().parent.parent
    self_path = Path(__file__).resolve()
    default_run = not argv
    roots = [Path(arg) for arg in argv] or [repo / "src", repo / "tools"]
    failures = 0
    scanned = set()
    for root in roots:
        exempt_dir = (root / "repro" / "products").resolve()
        for path in sorted(root.rglob("*.py")):
            resolved = path.resolve()
            if "egg-info" in str(resolved):
                continue
            if resolved == self_path:
                continue  # the linter must name the vendors it hunts
            if exempt_dir in resolved.parents or resolved == exempt_dir:
                continue
            scanned.add(resolved)
            for lineno, message in check_file(path):
                print(f"{path}:{lineno}: {message}")
                failures += 1
    if default_run:
        for required in REQUIRED_COVERED:
            if (repo / required).resolve() not in scanned:
                print(f"{required}: required module missing from lint coverage")
                failures += 1
    if failures:
        print(
            f"\n{failures} vendor-name literal(s) outside "
            "src/repro/products/ — use the registry.",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
