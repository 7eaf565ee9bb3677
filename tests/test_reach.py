"""The KG job and API must not reach the scenario-query registry, and
every module must be reached by one of the two (``scripts/reach.py``'s
static import walk); every public function and constant of a reached
module must have a user; every ``raykg`` import of a script must
resolve; bench.py and README must agree with the registry."""

import ast
import importlib.util
import os
import re
import subprocess
import sys
from collections import Counter

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def reach():
    spec = importlib.util.spec_from_file_location(
        "reach", os.path.join(ROOT, "scripts", "reach.py")
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _job_modules(table):
    return {m for m, r in table.items() if r["reach"] == "job"}


# the LLM training-data prep chain: registry-only, never part of the KG job
PREP_MODULES = {"raykg.ops.text", "raykg.ops.pack", "raykg.ops.decontam",
                "raykg.core.token_attrs"}


def test_job_closure_excludes_query_registry(reach):
    table = reach.reach()
    job = _job_modules(table)
    assert {"raykg.job", "raykg.pipeline.api", "raykg.pipeline.io"} <= job
    assert table["raykg.pipeline.queries"]["reach"] == "registry"
    leaked = sorted(m for m in job if m.startswith("raykg.pipeline.queries"))
    assert not leaked, f"the job/api closure imports the query registry: {leaked}"
    prep = sorted(PREP_MODULES & job)
    assert not prep, f"the job/api closure imports the prep chain: {prep}"


@pytest.mark.parametrize("flag", ["--prep", "--pagerank", "--entity-ids"])
def test_job_cli_rejects_removed_flags(flag):
    """The job's command line has no prep mode and no whole-graph tables
    (the registry's ``q_pagerank`` / ``q_node_ids`` compute those):
    argparse rejects each removed flag."""
    r = subprocess.run([sys.executable, "-m", "raykg.job", flag, "--input", "x",
                        "--out", "y"], cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert r.returncode == 2, r.stderr[-2000:]
    assert f"unrecognized arguments: {flag}" in r.stderr


def test_no_orphaned_modules(reach):
    """A module that neither the job/api closure nor the query registry
    imports is dead code; delete it with whatever stopped using it."""
    orphans = sorted(m for m, r in reach.reach().items() if r["reach"] == "none")
    assert not orphans, f"modules no entry point reaches: {orphans}"


# entry modules: their public names are the product surface (their
# private helpers are checked like any other module's)
ENTRY_MODULES = {"raykg.job", "raykg.pipeline.api"}
# caller-less on purpose, with the reason
UNCALLED_OK = {
    "raykg.core.ontology.match_sentences": "tests drive the sentence matcher through it",
    "raykg.ops.merge.table_diff":
        "the reference test_fused_equals_composition checks apply_changeset_diff against",
    "raykg.core.lemma.LOOKUP_LEMMA_LANGUAGES":
        "tests/test_core_match.py enumerates the lookup-table languages from it",
}


def _non_test_sources():
    """Every ``.py`` a caller can live in: raykg/, scripts/, perfbench/
    (its ``test_*`` files aside), bench.py and __ray_entry__.py."""
    paths = [os.path.join(ROOT, f) for f in ("bench.py", "__ray_entry__.py")]
    for top in ("raykg", "scripts", "perfbench"):
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = [x for x in dirs if x != "__pycache__"]
            paths += [os.path.join(d, f) for f in files
                      if f.endswith(".py") and not f.startswith("test_")]
    return paths


def _referenced_names(node):
    """Names ``node`` uses: plain names, attributes (``mod.f``) and the
    original name of an aliased import (``from m import f as g``)."""
    out = []
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.append(n.id)
        elif isinstance(n, ast.Attribute):
            out.append(n.attr)
        elif isinstance(n, ast.alias) and n.asname:
            out.append(n.name.rpartition(".")[2])
    return out


def _defined_names(node):
    """The names a top-level statement defines: a function or class, or
    the plain names an assignment binds (subscript and attribute targets
    such as ``QUERIES["x"] = ...`` bind none)."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
    return []


def _uncalled(reach, kind):
    """Top-level functions, classes and constants of the modules ``kind``
    ("job" or "registry") reaches that no non-test file refers to outside
    their own definition: every private name (``_name``; dunders aside),
    and every public name except those of the entry modules."""
    trees = {}
    for path in _non_test_sources():
        with open(path) as f:
            trees[path] = ast.parse(f.read(), path)
    uses = Counter(n for tree in trees.values() for n in _referenced_names(tree))
    files = reach.module_files()
    uncalled = []
    for mod, row in sorted(reach.reach().items()):
        if row["reach"] != kind:
            continue
        for node in trees[files[mod]].body:
            for name in _defined_names(node):
                if name.startswith("__") and name.endswith("__"):
                    continue
                if not name.startswith("_") and mod in ENTRY_MODULES:
                    continue
                if f"{mod}.{name}" in UNCALLED_OK:
                    continue
                own = _referenced_names(node).count(name)
                if uses[name] - own <= 0:
                    uncalled.append(f"{mod}.{name}")
    return uncalled


def test_job_closure_has_no_uncalled_functions(reach):
    """A function, class or constant of a job-closure module that nothing
    uses is dead code the job carries; delete it with whatever stopped
    using it."""
    uncalled = _uncalled(reach, "job")
    assert not uncalled, f"job-closure names nothing uses: {uncalled}"


def test_registry_has_no_uncalled_functions(reach):
    """The same for registry-only modules: a family cut must take the
    functions and constants only its queries used with it."""
    uncalled = _uncalled(reach, "registry")
    assert not uncalled, f"registry names nothing uses: {uncalled}"


def _top_level_names(tree):
    """Names a module binds at top level (definitions, assignments and
    imports, also inside top-level ``if`` blocks)."""
    names = set()
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).partition(".")[0] for a in node.names)
        elif isinstance(node, ast.If):
            stack += node.body + node.orelse
    return names


def test_script_imports_resolve(reach):
    """Every ``raykg`` import in scripts/, perfbench/, bench.py and
    __ray_entry__.py names a module that exists, and every name it
    imports from one is a submodule or a top-level name of it, so a cut
    cannot leave a script that no tier-1 test runs silently broken."""
    files = reach.module_files()
    paths = [os.path.join(ROOT, f) for f in ("bench.py", "__ray_entry__.py")]
    for top in ("scripts", "perfbench"):
        for d, dirs, names in os.walk(os.path.join(ROOT, top)):
            dirs[:] = [x for x in dirs if x != "__pycache__"]
            paths += [os.path.join(d, f) for f in names if f.endswith(".py")]
    defined = {}
    broken = []
    for path in paths:
        with open(path) as f:
            tree = ast.parse(f.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                wanted = [(a.name, []) for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level and node.module:
                wanted = [(node.module, [a.name for a in node.names])]
            else:
                continue
            for mod, names in wanted:
                if mod != "raykg" and not mod.startswith("raykg."):
                    continue
                where = f"{os.path.relpath(path, ROOT)}:{node.lineno}"
                if mod not in files:
                    broken.append(f"{where} {mod}")
                    continue
                for name in names:
                    if name == "*" or f"{mod}.{name}" in files:
                        continue
                    if mod not in defined:
                        with open(files[mod]) as f:
                            defined[mod] = _top_level_names(ast.parse(f.read()))
                    if name not in defined[mod]:
                        broken.append(f"{where} {mod}.{name}")
    assert not broken, f"imports of raykg names that do not exist: {broken}"


def test_walk_follows_function_level_and_relative_imports(reach, tmp_path):
    """A registry import buried in a function body of the job is still
    found, through a relative ``from .. import`` and the package's
    ``__init__``."""
    files = {
        "raykg/__init__.py": "",
        "raykg/job.py": "def main():\n    from .pipeline import queries\n",
        "raykg/pipeline/__init__.py": "",
        "raykg/pipeline/api.py": "",
        "raykg/pipeline/queries/__init__.py": "from ._shared import X\n",
        "raykg/pipeline/queries/_shared.py": "X = 1\n",
        "raykg/ops/__init__.py": "",
        "raykg/ops/unused.py": "",
    }
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    table = reach.reach(str(tmp_path))
    assert {"raykg.pipeline.queries", "raykg.pipeline.queries._shared"} <= _job_modules(table)
    assert table["raykg.ops.unused"]["reach"] == "none"


def _registered_queries():
    """The names the ``QUERIES["<name>"] = ...`` lines under the query
    package register, read as text (nothing is imported)."""
    names = set()
    for d, _, files in os.walk(os.path.join(ROOT, "raykg", "pipeline", "queries")):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(d, f)) as fh:
                    names.update(re.findall(r'^QUERIES\["([^"]+)"\] =', fh.read(), re.M))
    return names


def test_bench_and_readme_match_the_query_registry():
    """Every ``timed("<name>")`` in bench.py names a registered query, and
    README's "All N driver queries" is the registry's size, so a scope cut
    cannot leave a stale bench line or count behind."""
    queries = _registered_queries()
    with open(os.path.join(ROOT, "bench.py")) as f:
        timed = re.findall(r'\btimed\(\s*"([^"]+)"', f.read())
    assert timed
    stale = sorted(set(timed) - queries)
    assert not stale, f"bench.py times unregistered queries: {stale}"
    with open(os.path.join(ROOT, "README.md")) as f:
        counts = re.findall(r"All (\d+) driver queries", f.read())
    assert counts == [str(len(queries))]


def test_coverage_reachability_table_is_current(reach, capsys):
    """COVERAGE.md's reachability table is the output of
    ``scripts/reach.py --markdown``, so a cut that deletes modules
    must regenerate it."""
    with open(os.path.join(ROOT, "COVERAGE.md")) as f:
        text = f.read()
    section = text.split("## Reachability from the KG job", 1)[1].split("\n## ", 1)[0]
    committed = section[section.index("| module | lines | reached by |"):].strip()
    assert reach.main(["--markdown"]) == 0
    assert committed == capsys.readouterr().out.strip()


def _absolute_sys_path_lines(tree):
    """Lines that put a string literal naming an absolute path on
    ``sys.path`` (``insert``, ``append``, ``extend`` or a slice
    assignment), directly or inside an expression such as
    ``os.path.join``."""

    def is_sys_path(node):
        return (isinstance(node, ast.Attribute) and node.attr == "path"
                and isinstance(node.value, ast.Name) and node.value.id == "sys")

    lines = []
    for node in ast.walk(tree):
        values = []
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("insert", "append", "extend")
                and is_sys_path(node.func.value)):
            values = node.args
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Subscript) and is_sys_path(t.value) for t in node.targets):
            values = [node.value]
        if any(isinstance(c, ast.Constant) and isinstance(c.value, str)
               and os.path.isabs(c.value) for v in values for c in ast.walk(v)):
            lines.append(node.lineno)
    return lines


def test_no_fixed_checkout_path_on_sys_path():
    """No script, test or benchmark file puts an absolute path on
    ``sys.path``: it must derive the checkout from its own ``__file__``,
    or a run from another checkout silently imports the code at the
    fixed path."""
    probe = ast.parse('import sys, os\nsys.path.insert(0, "/srv/app")\n'
                      'sys.path[:0] = [os.path.join("/srv", "x")]\nsys.path.append(HERE)\n')
    assert sorted(_absolute_sys_path_lines(probe)) == [2, 3]
    fixed = []
    for top in ("scripts", "tests", "perfbench"):
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = [x for x in dirs if x != "__pycache__"]
            for name in files:
                if name.endswith(".py"):
                    path = os.path.join(d, name)
                    with open(path) as f:
                        tree = ast.parse(f.read(), path)
                    fixed += [f"{os.path.relpath(path, ROOT)}:{line}"
                              for line in _absolute_sys_path_lines(tree)]
    assert not fixed, f"absolute paths put on sys.path: {fixed}"
