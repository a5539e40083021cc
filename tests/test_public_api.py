"""The public API is the code the lab runs.

Every public module-level function in ``src/periodiclab``, and every
public method and property of its classes, is called from ``src/`` outside
its own body; the oracles only the tests use live in
``tests/reference.py``.  Only ``engines`` defines test functions.  Only
``grid`` imports scipy, and a document that needs no grid object never
loads it.  Only ``montecarlo`` keys random
streams, nothing selects unpaired noise, only the run context calls
``transfer_profile``, only the burn-in and the profile march, and the grid's
sparse solves are real except its complex eigenvalue residuals.  The README's library sketch runs as written.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "periodiclab"

# public functions the lab itself does not call, and why they stay in src/
UNCALLED_BY_DESIGN = {
    # traced by the benchmark harness (perfbench/tracing.py wraps them), whose
    # self-test requires every traced name to exist
    "montecarlo.evolve_tangent",
    "ougaussian.apply",
}


def _module_aliases(tree: ast.Module) -> tuple[dict, dict]:
    """(alias -> module) for ``from . import m as alias`` and (name -> (module,
    name)) for ``from .m import name as alias``, for one module of the package."""
    modules, names = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module is None:
                    modules[local] = alias.name
                else:
                    names[local] = (node.module, alias.name)
    return modules, names


def _references(tree: ast.Module, module: str, defined: set) -> set:
    """(caller, function) pairs for each package function referenced in
    ``tree``.  The caller is the enclosing module-level function, or None for
    module-level and class-level code; a function's references to itself are
    left out."""
    modules, names = _module_aliases(tree)
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = owner
            if owner is None and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = (module, child.name)
            target = None
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                if (module, child.id) in defined:
                    target = (module, child.id)
                elif child.id in names:
                    target = names[child.id]
            elif (isinstance(child, ast.Attribute) and isinstance(child.value, ast.Name)
                  and child.value.id in modules):
                target = (modules[child.value.id], child.attr)
            if target is not None and target != inner:
                found.add((inner, target))
            visit(child, inner)

    visit(tree, None)
    return found


def uncalled_public_functions() -> list:
    """``module.name`` of every public module-level function in the package
    with no caller in the package outside its own body.  A caller that is
    itself uncalled does not count, so a test-only helper and the helpers
    only it calls are listed together."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    defined = {(module, node.name) for module, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not node.name.startswith("_")}
    edges = set()
    for module, tree in trees.items():
        edges |= _references(tree, module, defined)
    uncalled = set()
    while True:
        called = {target for caller, target in edges if caller not in uncalled}
        if defined - called == uncalled:
            return sorted(f"{module}.{name}" for module, name in uncalled)
        uncalled = defined - called


def uncalled_public_members() -> list:
    """``module.Class.name`` of every public method or property of a package
    class that no attribute ``.name`` in the package reads outside the
    member's own body.  A name that is also a field or an attribute of
    another object counts as read, so such a member can slip through."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    reads = [node for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)]
    uncalled = []
    for module, tree in trees.items():
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            for member in cls.body:
                if (isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not member.name.startswith("_")):
                    own = {id(node) for node in ast.walk(member)}
                    if not any(node.attr == member.name and id(node) not in own
                               for node in reads):
                        uncalled.append(f"{module}.{cls.name}.{member.name}")
    return sorted(uncalled)


def test_every_public_function_has_a_caller_in_src():
    assert sorted(uncalled_public_functions() + uncalled_public_members()) \
        == sorted(UNCALLED_BY_DESIGN)


def test_engines_alone_defines_test_functions():
    """There is one test-function type, u(s, x): only ``engines`` builds a
    ``TestFunction`` or defines ``BumpWindow``, and no module defines a
    second type or alias such as ``SpaceTimeFunction``."""
    names = {"TestFunction", "BumpWindow", "SpaceTimeFunction"}
    builders, defined = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and "TestFunction" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                builders.add(path.stem)
            name = (node.name if isinstance(node, (ast.ClassDef, ast.FunctionDef))
                    else node.id if isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Store) else None)
            if name in names:
                defined.add((path.stem, name))
    assert builders == {"engines"}
    assert defined == {("engines", "TestFunction"), ("engines", "BumpWindow")}


def _importers(top: str) -> set:
    """Modules of the package with an import statement of package ``top``
    (anywhere in the module, so imports inside functions count too)."""
    importers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            if any(name.split(".")[0] == top for name in names):
                importers.add(path.stem)
    return importers


def test_only_the_memo_module_imports_threading():
    """Every value the lab keeps for concurrent callers goes through ``once.Once``."""
    assert _importers("threading") == {"once"}


def test_only_the_grid_module_imports_scipy():
    """scipy serves the sparse grid engine alone, so only a document that
    needs a grid object pays for loading it."""
    assert _importers("scipy") == {"grid"}


def _top_level_owners(tree: ast.Module):
    """(node, name of the enclosing module-level function or class, or None)
    for every node of ``tree``."""
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            yield node, owner


def test_only_montecarlo_keys_random_streams():
    """``montecarlo.generator`` turns each stream's name into its Philox key:
    only ``montecarlo`` builds a Philox or SeedSequence, no call passes an
    integer literal as a stream and no stream parameter defaults to one, and
    ``default_rng`` serves only the grid's two fixed eigensolver start vectors."""
    builders, literal_streams, default_rngs = set(), [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for node, owner in _top_level_owners(ast.parse(path.read_text())):
            name = (node.attr if isinstance(node, ast.Attribute)
                    else node.id if isinstance(node, ast.Name) else None)
            if name in ("Philox", "SeedSequence"):
                builders.add(path.stem)
            elif name == "default_rng":
                default_rngs.append((path.stem, owner))
            streams = []
            if isinstance(node, ast.Call):
                streams = [kw.value for kw in node.keywords if kw.arg == "stream"]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args.posonlyargs + node.args.args
                streams = [default for arg, default in zip(args[::-1], node.args.defaults[::-1])
                           if arg.arg == "stream"]
            for value in streams:
                if any(isinstance(part, ast.Constant) and type(part.value) is int
                       for part in ast.walk(value)):
                    literal_streams.append((path.stem, owner, ast.unparse(value)))
    assert builders == {"montecarlo"}
    assert literal_streams == []
    assert sorted(default_rngs) == [("grid", "_eig_residuals"), ("grid", "spectrum")]


def test_grid_sparse_work_is_real():
    """No code in ``grid`` calls ``spsolve``: a Crank-Nicolson step factors its
    left side on the slice pattern.  ``spectrum`` casts nothing to complex, so
    its shift-invert solve runs on one real LU, and the only complex
    factorizations are the residual solves of ``_eig_residuals`` at non-real
    eigenvalues.  A cast is
    an ``astype`` to complex, a ``dtype=complex`` keyword or an added ``0j``;
    the dense eigenvalue blocks of ``DiscreteGenerator`` join as complex."""
    spsolve, casts = [], []
    for node, owner in _top_level_owners(ast.parse((PACKAGE / "grid.py").read_text())):
        if isinstance(node, ast.Attribute) and node.attr == "spsolve":
            spsolve.append(owner)
        is_complex = [isinstance(part, ast.Name) and part.id == "complex"
                      for part in ast.walk(node)]
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "astype":
            if any(is_complex):
                casts.append(owner)
        elif isinstance(node, ast.keyword) and node.arg == "dtype" and any(is_complex):
            casts.append(owner)
        elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
              and any(isinstance(side, ast.Constant) and type(side.value) is complex
                      for side in (node.left, node.right))):
            casts.append(owner)
    assert spsolve == []
    assert sorted(set(casts)) == ["DiscreteGenerator", "_eig_residuals"]


def test_only_the_run_context_transports():
    """Each run builds one transfer profile per engine, in
    ``scenarios.RunContext.profile``, and every rate fit and diagnostic reads
    it: no other code in ``src/`` calls ``transfer_profile``."""
    callers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node, owner in _top_level_owners(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "transfer_profile"):
                callers.append((path.stem, owner))
    assert callers == [("scenarios", "RunContext")]


def test_only_the_burn_in_and_the_profile_march():
    """A run marches twice on the Monte Carlo engine: the burn-in of every
    phase and the one transfer profile, which every Monte Carlo diagnostic
    reads.  So ``montecarlo._march`` is called only from
    ``sample_periodic_measure`` and ``MonteCarloEngine.transfer_profile``, and
    no side march can come back.  The one other caller, ``evolve_tangent``, is
    uncalled by design (``UNCALLED_BY_DESIGN``), so it marches in no run."""
    callers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            methods = top.body if isinstance(top, ast.ClassDef) else [top]
            for method in methods:
                name = getattr(method, "name", None)
                owner = f"{top.name}.{name}" if isinstance(top, ast.ClassDef) else name
                for node in ast.walk(method):
                    func = node.func if isinstance(node, ast.Call) else None
                    if (isinstance(func, ast.Name) and func.id == "_march"
                            or isinstance(func, ast.Attribute) and func.attr == "_march"):
                        callers.append((path.stem, owner))
    assert sorted(callers) == [("engines", "MonteCarloEngine.transfer_profile"),
                               ("montecarlo", "evolve_tangent"),
                               ("montecarlo", "sample_periodic_measure")]


def test_no_code_selects_unpaired_noise():
    """Every march pairs its noise, so nothing in ``src/`` is named
    ``antithetic``: no parameter, keyword, variable, class field or
    attribute.  The one mention is the legacy scenario key ``sim.antithetic``,
    whose only value is true."""
    names, keys = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for node, owner in _top_level_owners(ast.parse(path.read_text())):
            name = (node.arg if isinstance(node, (ast.arg, ast.keyword))
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.id if isinstance(node, ast.Name) else None)
            if name == "antithetic":
                names.append((path.stem, owner, ast.unparse(node)))
            elif isinstance(node, ast.Constant) and node.value == "antithetic":
                keys.append((path.stem, owner))
    assert names == []
    assert keys == [("scenarios", None)]            # its entry in the module-level _SECTIONS


def scipy_after(code: str, cwd: Path) -> list:
    """The scipy modules a fresh interpreter has loaded after running ``code``."""
    probe = code + ("\nimport sys\nprint(' '.join(sorted("
                    "m for m in sys.modules if m.split('.')[0] == 'scipy')))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", probe], env=env, cwd=cwd, capture_output=True,
                         text=True, check=True)
    return out.stdout.splitlines()[-1].split()


def reduced(scenario: str, experiments: list) -> str:
    """Code that runs a builtin scenario at toy sizes with ``experiments``."""
    return f"""
from periodiclab import scenarios as sc
doc = sc.load_scenario({scenario!r})
doc["sim"] = {{"particles": 200, "dt": 0.02, "horizon_periods": 2, "n_outer": 8,
              "n_inner": 16, "antithetic": True}}
doc["plan"] = {{"r_max": 5.0, "n_times": 8, "n_axis": 9, "n_shells": 2, "n_shell_dirs": 2}}
doc["grid"] = {{"half_width": 4.5, "points_per_axis": 31, "time_slices": 17,
               "time_scheme": "spectral", "substeps": 1}}
doc["experiments"] = {experiments!r}
sc.run_scenario(doc, "out")
"""


@pytest.mark.parametrize("code", [
    "import periodiclab, periodiclab.cli, periodiclab.scenarios",
    "from periodiclab import cli; cli.main(['list'])",
    "from periodiclab import cli; cli.main(['describe', 'gen2d'])",
    reduced("gen2d", [{"name": "hypothesis-check", "moment_phases": 2},
                      {"name": "decay", "horizons": [1, 1.25, 1.5, 1.75, 2],
                       "window": [1, 2], "contraction_gaps": [1]},
                      {"name": "poincare", "n_phases": 2}]),
], ids=["import", "list", "describe", "gen2d-run"])
def test_documents_without_a_grid_load_no_scipy(code, tmp_path):
    assert scipy_after(code, tmp_path) == []


def test_a_grid_experiment_loads_scipy(tmp_path):
    loaded = scipy_after(reduced("ou1d", [{"name": "spectrum"}]), tmp_path)
    assert "scipy.sparse.linalg" in loaded
    assert (tmp_path / "out" / "spectrum.json").exists()


def test_readme_library_sketch_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library sketch", 1)[1]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert blocks, "README has no Python block under 'Library sketch'"
    exec(compile(blocks[0], "README.md", "exec"), {"__name__": "readme_sketch"})
