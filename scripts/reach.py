"""Static reachability of the ``raykg`` modules from the KG job.

Walks the ``import`` statements of every module under ``raykg/`` with
``ast`` (function-level imports included; nothing is executed) and
computes two closures:

- *job*: everything reachable from ``raykg.job`` and ``raykg.pipeline.api``,
  the product's entry points;
- *registry*: everything reachable from ``raykg.pipeline.queries``, the
  scenario-query registry that ``__ray_entry__.queries`` serves.

Importing ``a.b.c`` also runs ``a/__init__`` and ``a/b/__init__``, so
parent packages join the closure of any module they contain.

Usage: python3 scripts/reach.py [--markdown]

Prints one row per module: lines, and whether the job reaches it or
only the registry (or neither).  ``--markdown`` prints the table in the
form committed to COVERAGE.md.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
from typing import Dict, Iterable, List, Set

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
JOB_ROOTS = ("raykg.job", "raykg.pipeline.api")
REGISTRY_ROOT = "raykg.pipeline.queries"


def module_files(root: str = ROOT) -> Dict[str, str]:
    """Dotted module name -> file path, for every ``.py`` under raykg/."""
    out = {}
    for d, dirs, files in os.walk(os.path.join(root, "raykg")):
        dirs[:] = sorted(x for x in dirs if x != "__pycache__")
        for name in files:
            if not name.endswith(".py"):
                continue
            rel = os.path.relpath(os.path.join(d, name), root)[: -len(".py")]
            parts = rel.split(os.sep)
            if parts[-1] == "__init__":
                parts = parts[:-1]
            out[".".join(parts)] = os.path.join(d, name)
    return out


def _with_parents(name: str) -> List[str]:
    parts = name.split(".")
    return [".".join(parts[:i]) for i in range(1, len(parts) + 1)]


def imports_of(name: str, path: str, modules: Dict[str, str]) -> Set[str]:
    """The raykg modules ``name`` imports anywhere in its body."""
    is_pkg = path.endswith("__init__.py")
    package = name if is_pkg else name.rpartition(".")[0]
    found: Set[str] = set()
    with open(path) as f:
        tree = ast.parse(f.read(), path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            targets = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package.split(".")
                base = base[: len(base) - (node.level - 1)]
                mod = ".".join(base + ([node.module] if node.module else []))
            else:
                mod = node.module or ""
            # ``from pkg import sub`` imports pkg.sub when sub is a module
            targets = [mod] + [f"{mod}.{a.name}" for a in node.names]
        else:
            continue
        for t in targets:
            found.update(p for p in _with_parents(t) if p in modules)
    found.discard(name)
    return found


def closure(roots: Iterable[str], graph: Dict[str, Set[str]]) -> Set[str]:
    seen: Set[str] = set()
    stack = [p for r in roots for p in _with_parents(r)]
    while stack:
        m = stack.pop()
        if m in seen or m not in graph:
            continue
        seen.add(m)
        stack.extend(graph[m])
    return seen


def line_count(path: str) -> int:
    with open(path, "rb") as f:
        return sum(1 for _ in f)


def reach(root: str = ROOT) -> Dict[str, dict]:
    """Module -> {"lines", "reach"} where reach is "job", "registry" or
    "none"."""
    modules = module_files(root)
    graph = {m: imports_of(m, p, modules) for m, p in modules.items()}
    job = closure(JOB_ROOTS, graph)
    registry = closure([REGISTRY_ROOT], graph)
    return {
        m: {
            "lines": line_count(p),
            "reach": "job" if m in job else "registry" if m in registry else "none",
        }
        for m, p in sorted(modules.items())
    }


def summary(table: Dict[str, dict]) -> Dict[str, tuple]:
    out = {}
    for kind in ("job", "registry", "none"):
        rows = [r for r in table.values() if r["reach"] == kind]
        out[kind] = (len(rows), sum(r["lines"] for r in rows))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--markdown", action="store_true",
                    help="print the table as Markdown (for COVERAGE.md)")
    args = ap.parse_args(argv)
    table = reach()
    totals = summary(table)
    if args.markdown:
        print("| module | lines | reached by |")
        print("|---|---:|---|")
        for m, r in table.items():
            print(f"| `{m}` | {r['lines']} | {r['reach']} |")
        print()
        for kind, (n, lines) in totals.items():
            print(f"- **{kind}**: {n} modules, {lines} lines")
        return 0
    for m, r in table.items():
        print(f"{r['reach']:<9} {r['lines']:>6}  {m}")
    for kind, (n, lines) in totals.items():
        print(f"# {kind}: {n} modules, {lines} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
