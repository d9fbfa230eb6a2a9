"""Source rules for src/latred: no verdict may rest on an assert, which
python -O strips, or on a float.  The wall-clock `elapsed` defaults of
the reports are the one float literal allowed.  And the package stays
pure Python: it imports the standard library, the optional gmpy2 and
itself, nothing else, and its metadata requires nothing at install.  Its one Gram-Schmidt is the integral recurrence
`lattice._lam_row`.  It eliminates a matrix one way, the gcd echelon
`linalg._echelon`: rank is its pivot count, `linear_dependence` and the
42-scan's relation and residues come from one echelon of the generators
with the identity appended and the `linalg.hnf` of its pivot rows, and
the Smith divisors from `linalg.hnf`; latred takes no determinant, no
inverse (the dual basis is read off coordinates) and builds no
adjugate.  `primitive_completion`
decides primitivity on the one basis it carries, with no tail-gcd
transform over `L.basis`.  No module keeps a functools cache or the
42-scan's state: the scan's tables are locals of `appendix_scan`, handed
to the family scans, and report tables are shared only while a report
holds them.  There is no closest-vector search: the one walk,
`enumeration._walk`, is centred at 0 and takes no target.  Every public
linalg function and every error class has a use in src outside its own
definition.  The rational processes, and the helpers and errors only
tests need, live in tests/reference.py."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "latred"


def violations(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    elapsed_defaults = {
        id(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.AnnAssign)
        and isinstance(node.target, ast.Name)
        and node.target.id == "elapsed"
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield "%s:%d assert statement" % (path.name, node.lineno)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        ):
            yield "%s:%d float() call" % (path.name, node.lineno)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, float)
            and id(node) not in elapsed_defaults
        ):
            yield "%s:%d float literal" % (path.name, node.lineno)


def test_no_assert_float_call_or_float_literal_in_src():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 10
    assert [v for p in paths for v in violations(p)] == []


def test_the_rules_catch_each_kind(tmp_path):
    src = tmp_path / "sample.py"
    src.write_text(
        "assert x\n"
        "y = float(3)\n"
        "z = 0.5\n"
        "class R:\n"
        "    elapsed: float = 0.0\n"
        "    other: float = 0.0\n"
    )
    assert sorted(violations(src)) == [
        "sample.py:1 assert statement",
        "sample.py:2 float() call",
        "sample.py:3 float literal",
        "sample.py:6 float literal",
    ]


_ALLOWED_IMPORTS = frozenset(sys.stdlib_module_names) | {"gmpy2", "latred"}


def foreign_imports(path):
    """Imports, at top level or inside a function, of a module that is
    neither in the standard library nor gmpy2 nor the package itself."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        for name in names:
            if name.split(".")[0] not in _ALLOWED_IMPORTS:
                yield "%s:%d import %s" % (path.name, node.lineno, name)


def test_src_imports_only_the_stdlib_gmpy2_and_itself():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 10
    assert [v for p in paths for v in foreign_imports(p)] == []


def test_gmpy2_is_an_optional_extra():
    tomllib = pytest.importorskip("tomllib")
    text = (SRC.parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    meta = tomllib.loads(text)["project"]
    assert meta["dependencies"] == []
    assert meta["optional-dependencies"]["gmpy2"] == ["gmpy2>=2.1"]


def test_the_import_rule_catches_third_party_imports(tmp_path):
    src = tmp_path / "sample.py"
    src.write_text(
        "import numpy\n"
        "import math, os.path\n"
        "from fractions import Fraction\n"
        "from . import linalg\n"
        "from .rationals import Q\n"
        "from latred.errors import LatredError\n"
        "try:\n"
        "    from gmpy2 import mpq\n"
        "except ImportError:\n"
        "    pass\n"
        "def f():\n"
        "    import sympy.ntheory\n"
        "    from scipy import linalg\n"
    )
    assert sorted(foreign_imports(src)) == [
        "sample.py:1 import numpy",
        "sample.py:12 import sympy.ntheory",
        "sample.py:13 import scipy",
    ]


_RATIONAL_GSO = ("gram_schmidt", "GSOData", "_orthogonal_part", "_projected_tails")


def test_src_has_no_rational_gram_schmidt():
    # LLL, coordinates, KZ prefixes, projections,
    # completions and the KZ oracle all run on lattice.IntGSO; no file
    # names the rational Gram-Schmidt or its projection helpers
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 10
    found = [
        "%s: %s" % (p.name, name)
        for p in paths
        for name in _RATIONAL_GSO
        if name in p.read_text(encoding="utf-8")
    ]
    assert found == []


def test_src_has_no_nullspace_or_adjugate_elimination():
    # rank is the pivot count of the gcd echelon linalg._echelon, and
    # linear_dependence and the 42-scan's relation and residues are read
    # off one such echelon of the generators with the identity appended,
    # over the generators' columns, and the linalg.hnf of its pivot rows'
    # left parts; no file names a separate nullspace or adjugate routine
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 10
    found = [
        "%s: %s" % (p.name, name)
        for p in paths
        for name in ("nullspace", "_adjugate")
        if name in p.read_text(encoding="utf-8")
    ]
    assert found == []


_CACHES = ("lru_cache", "cache")


def module_state(path):
    """functools caches, imported or reached as functools attributes, and
    the name of the old module-global scan state `_SS`."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            names = [alias.name for alias in node.names if alias.name in _CACHES]
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "functools"
            and node.attr in _CACHES
        ):
            names = [node.attr]
        else:
            names = [name for name in _identifiers(node) if name == "_SS"]
        for name in names:
            yield "%s:%d %s" % (path.name, node.lineno, name)


def test_src_keeps_no_functools_cache_or_scan_state():
    # a cache that outlives every caller holds what no caller needs, and a
    # module-global scan state is shared by every scan in the process
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 10
    assert [v for p in paths for v in module_state(p)] == []


def test_the_module_state_rule_catches_each_kind(tmp_path):
    src = tmp_path / "sample.py"
    src.write_text(
        "import functools\n"
        "from functools import cached_property, lru_cache, reduce\n"
        "from functools import cache as memo\n"
        "_SS = {}\n"
        "@functools.lru_cache(maxsize=8)\n"
        "def f(x):\n"
        "    return _SS.get(x, functools.cache)\n"
    )
    assert sorted(module_state(src)) == [
        "sample.py:2 lru_cache",
        "sample.py:3 cache",
        "sample.py:4 _SS",
        "sample.py:5 lru_cache",
        "sample.py:7 _SS",
        "sample.py:7 cache",
    ]


def test_reduction_reads_the_one_growing_pool():
    # the greedy and shortest-basis searches read L's pool through
    # enumeration._grow, which hands their picks the pool's integers (M
    # |v|^2, den v and coordinates) and the index past its cut; none runs
    # its own fixed-bound enumeration or unpacks L's pool.  KZ walks the
    # basis it carries and solves no coordinates
    text = (SRC / "reduction.py").read_text(encoding="utf-8")
    for name in ("enumerate_up_to", "_pool", "integer_coordinates"):
        assert name not in text, name


def test_the_pool_is_built_in_integers():
    # the pool builder, the held pool, the growth loop and the greedy and
    # minima picks make no rational: only _Pool.vector and _Pool.norm_sq
    # do, for what leaves
    for function in ("_pool_to", "_held_pool", "_grow", "_minima_picks"):
        assert "Q" not in _names_in(SRC / "enumeration.py", function), function
    assert "Q" not in _names_in(SRC / "reduction.py", "_greedy_picks")


def test_src_takes_no_determinant():
    # every Gram determinant latred needs is an IntGSO's d_n; there is
    # no determinant routine
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 10
    found = [p.name for p in paths if "determinant(" in p.read_text(encoding="utf-8")]
    assert found == []


_SECOND_ELIMINATION = ("inverse", "_eliminate", "Elimination")


def test_linalg_has_one_elimination():
    # the gcd echelon is latred's one elimination of a matrix: linalg
    # defines no fraction-free elimination and no inverse, and no file
    # names them (the dual basis is read off coordinates)
    from latred import linalg

    assert [n for n in _SECOND_ELIMINATION if hasattr(linalg, n)] == []
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 10
    found = [
        "%s:%d %s" % (p.name, node.lineno, name)
        for p in paths
        for node in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
        for name in _identifiers(node)
        if name in _SECOND_ELIMINATION
    ]
    assert found == []


def test_src_defines_no_closest_vector_search():
    # greedy, minima, shortest-basis and KZ all walk centred at 0 (KZ's
    # lifts with the top levels fixed): no name in src mentions closest,
    # and the one walk takes no target or scale
    import inspect

    from latred.enumeration import _walk

    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 10
    found = [
        "%s:%d %s" % (p.name, node.lineno, name)
        for p in paths
        for node in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
        for name in _identifiers(node)
        if "closest" in name
    ]
    assert found == []
    params = list(inspect.signature(_walk).parameters)
    assert params == ["gso", "bound", "budget", "lo", "top"]


def _top_level_uses(path):
    """(owner, name) for each name the file reads, binds or imports, owner
    the top-level function or class the name sits in (None outside one);
    a definition's own name is not a use."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    for stmt in tree.body:
        owner = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(stmt):
            if node is not stmt:
                for name in _identifiers(node):
                    yield owner, name


_DELETED = ("UnknownConstruction", "integer_relation_membership", "zero_vector", "_sq")


def test_every_linalg_function_and_error_class_has_a_caller_in_src():
    # a public linalg function is named in src outside its own definition,
    # and an error class outside errors.py: helpers that nothing in the
    # package calls, and errors that nothing raises or catches, live in
    # tests/reference.py if the tests need them.  Single-caller helpers
    # that were folded into their caller stay folded
    from latred import errors

    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 10
    uses = {(p.name, owner, name) for p in paths for owner, name in _top_level_uses(p)}
    functions = [
        n.name
        for n in ast.parse((SRC / "linalg.py").read_text(encoding="utf-8")).body
        if isinstance(n, ast.FunctionDef) and not n.name.startswith("_")
    ]
    assert {"dot", "hnf", "rank"} <= set(functions)
    unused = [
        "linalg.%s" % f
        for f in functions
        if not any(u[2] == f and u[:2] != ("linalg.py", f) for u in uses)
    ]
    classes = [n for n, c in vars(errors).items() if isinstance(c, type)]
    assert "LatredError" in classes
    unused += [
        "errors.%s" % c
        for c in classes
        if not any(u[2] == c and u[0] != "errors.py" for u in uses)
    ]
    assert unused == []
    defined = [
        "%s:%d %s" % (p.name, node.lineno, node.name)
        for p in paths
        for node in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in _DELETED
    ]
    assert defined == []


def _identifiers(node):
    """The names an AST node binds or reads: a name, an attribute, a
    function or class definition, a parameter, or an imported name."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.arg):
        return [node.arg]
    if isinstance(node, ast.alias):
        return [node.asname or node.name]
    return []


def _names_in(path, function):
    """The names that the top-level function reads in the file path."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    node = next(
        n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == function
    )
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def test_primitive_completion_decides_on_its_carried_basis():
    # the completion solves sub, y0 and its result on the basis it
    # carries (lattice._solve), not over L.basis through the tail-gcd
    # transform
    names = _names_in(SRC / "lattice.py", "primitive_completion")
    assert "_solve" in names
    assert not names & {"_Prefix", "integer_coordinates"}


def test_smith_divisors_are_read_off_the_hnf():
    assert "hnf" in _names_in(SRC / "linalg.py", "snf_divisors")
