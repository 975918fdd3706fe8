"""Static checks over the package source, so deletions leave nothing behind.

Every name a module imports is used in that module, every private
module-level name (_x) is referenced somewhere in the package, every public
function, class and method is referenced by name outside the package
__init__ (two test oracles aside), and no module imports a private name
from another. The package __init__ is left out: its imports are the public
exports. The grid's storage of D1 (band, diff1) is read in mesh alone,
which chooses and assembles the Jacobi's storage, and in the CLI only the
config reader probes the parsed file, so that every key read is recorded. Outside serialize, the one type test is
geodesic_curvature's argument check. The ambient models write no Killing
field and no matrix by hand: one base class pushes their matrices forward,
and algebra_basis builds each of them. Every LAPACK binding in mesh is
called, and only mesh's storage classes define the reductions.
"""

import ast
from pathlib import Path

import pytest

import equideform
from equideform import mesh

PACKAGE = Path(equideform.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _references(tree):
    """The names a module reads: loaded names, attribute names and the
    names it imports from a package module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.level:
            names.update(alias.name for alias in node.names)
    return names


def _imported(tree):
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.asname or alias.name


def _private_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [n.id for t in nodes for n in ast.walk(t)
                       if isinstance(n, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                yield name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = _tree(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(set(_imported(tree)) - used) == []


def test_every_private_module_name_is_referenced():
    everywhere = set()
    for path in PACKAGE.glob("*.py"):
        everywhere |= _references(_tree(path))
    unused = [f"{path.name}: {name}" for path in MODULES
              for name in _private_definitions(_tree(path))
              if name not in everywhere]
    assert unused == []


# public names that only the tests read, as oracles of what the package
# computes another way
TEST_ORACLES = ("metric", "geodesic_curvature")


def test_every_public_definition_is_referenced():
    # the package __init__ only re-exports, so a name that it alone reads
    # has no caller in the package
    everywhere = set(TEST_ORACLES)
    for path in MODULES:
        everywhere |= _references(_tree(path))
    unused = [f"{path.name}: {node.name}" for path in MODULES
              for node in ast.walk(_tree(path))
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")
              and node.name not in everywhere]
    assert unused == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_name_is_imported_from_another_module(path):
    private = [f"{node.module}.{alias.name}"
               for node in ast.walk(_tree(path))
               if isinstance(node, ast.ImportFrom) and node.level
               for alias in node.names
               if alias.name.startswith("_")]
    assert private == []


def _storage_reads(tree):
    """(top-level definition, attribute) for each read of .band or .diff1."""
    for top in tree.body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Attribute)
                    and node.attr in ("band", "diff1")
                    and isinstance(node.ctx, ast.Load)):
                yield getattr(top, "name", None), node.attr


def test_only_the_storage_classes_read_the_grid_storage():
    stray = [f"{path.name}: {where}.{attr}" for path in MODULES
             if path.name != "mesh.py"
             for where, attr in _storage_reads(_tree(path))]
    assert stray == []


def test_the_dense_reduction_calls_no_f2py_wrapper():
    # scipy's f2py wrappers hold the interpreter lock for the whole call;
    # _Tridiagonal, _Banded's reduction and their spectrum base call LAPACK
    # through mesh's ctypes bindings alone, so none of their methods reads a
    # name mesh imports from scipy, nor scipy's lapack module or
    # eigh_tridiagonal by any path; only _Banded's solve reads solve_banded
    tree = _tree(PACKAGE / "mesh.py")
    from_scipy = {alias.asname or alias.name for node in tree.body
                  if isinstance(node, ast.ImportFrom)
                  and node.module.split(".")[0] == "scipy"
                  for alias in node.names}
    allowed = {"_Spectrum": set(), "_Tridiagonal": set(),
               "_Banded": {"solve_banded"}}
    reductions = [node for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name in allowed]
    assert sorted(node.name for node in reductions) == sorted(allowed)
    stray = [f"{node.name}: {name}" for node in reductions
             for name in sorted(_references(node) & (
                 from_scipy | {"scipy", "lapack", "eigh_tridiagonal"}))
             if name not in allowed[node.name]]
    assert stray == []


def test_every_lapack_binding_is_called_by_name():
    # each routine mesh binds is named by a call of _lapack or _workspace in
    # mesh, so a binding nothing calls fails here
    called = {node.args[0].value
              for node in ast.walk(_tree(PACKAGE / "mesh.py"))
              if isinstance(node, ast.Call)
              and isinstance(node.func, ast.Name)
              and node.func.id in ("_lapack", "_workspace") and node.args
              and isinstance(node.args[0], ast.Constant)}
    assert sorted(set(mesh._LAPACK) - called) == []


def test_only_the_storage_classes_make_reductions():
    # the corrector and the certificate hold the reductions mesh makes;
    # a class elsewhere that answers for one is a stand-in
    stray = [f"{path.name}: {node.name}.{method.name}" for path in MODULES
             if path.name != "mesh.py"
             for node in ast.walk(_tree(path)) if isinstance(node, ast.ClassDef)
             for method in node.body
             if isinstance(method, ast.FunctionDef)
             and method.name in ("bordered_reduction", "scaled_reduction")]
    assert stray == []


def test_only_serialize_and_geodesic_curvature_test_types():
    # instances and ambient models are classes, and the branch march reads
    # failures by except, so a type test elsewhere is a dispatch site
    stray = [f"{path.name}: {getattr(top, 'name', None)}"
             for path in MODULES if path.name != "serialize.py"
             for top in _tree(path).body
             if getattr(top, "name", None) != "geodesic_curvature"
             for node in ast.walk(top)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name)
             and node.func.id == "isinstance"]
    assert stray == []


# the parser methods that test for or list keys; in cli.py only _Config,
# which records each key asked for, may call them
PARSER_PROBES = ("has_option", "options", "sections", "has_section", "items")


def test_only_the_config_reader_probes_the_parser():
    tree = _tree(PACKAGE / "cli.py")
    stray = [f"{getattr(top, 'name', None)}: {node.func.attr}"
             for top in tree.body if getattr(top, "name", None) != "_Config"
             for node in ast.walk(top)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr in PARSER_PROBES]
    assert stray == []


def test_killing_fields_are_the_pushforward_of_the_matrices():
    # an ambient model gives embed and algebra(); the shared base alone turns
    # them into Killing fields, and the finite difference oracles that
    # checked hand-written fields against the matrices live in the tests
    ambient = _tree(PACKAGE / "ambient.py")
    owners = [top.name for top in ambient.body
              if isinstance(top, ast.ClassDef)
              for node in top.body
              if isinstance(node, ast.FunctionDef)
              and node.name == "killing_fields"]
    assert owners == ["AmbientModel"]
    oracles = [f"{path.name}: {node.name}"
               for path in sorted(PACKAGE.glob("*.py"))
               for node in ast.walk(_tree(path))
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name in ("structure_match", "killing_residual")]
    assert oracles == []


def test_every_ambient_algebra_is_built_by_algebra_basis():
    # the matrices a model acts by are those verify-bundle scores: each
    # algebra() takes them from algebra_basis and writes no entry itself
    ambient = _tree(PACKAGE / "ambient.py")
    methods = {top.name: node for top in ambient.body
               if isinstance(top, ast.ClassDef)
               for node in top.body
               if isinstance(node, ast.FunctionDef) and node.name == "algebra"}
    assert sorted(methods) == ["FlatTorus", "ScaledSphere", "SpaceForm2"]
    stray = [name for name, method in methods.items()
             if "algebra_basis" not in _references(method)
             or "np" in _references(method)]
    assert stray == []
