"""Checks over the package source itself."""

import ast
import pathlib
import re

import pytest

import gfe25
from gfe25 import descent


def test_no_assert_statements():
    # `python -O` strips assert statements, so every check must raise instead
    found = []
    for path in sorted(pathlib.Path(gfe25.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in the package: {found}"


def test_no_unused_imports():
    # every name a module imports must be used somewhere in that module
    found = []
    for path in sorted(pathlib.Path(gfe25.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line} {name}"
                  for name, line in sorted(imported.items()) if name not in used]
    assert not found, f"unused imports in the package: {found}"


def test_no_sympy_resultant():
    # every resultant and discriminant goes through gfe25.poly; sympy's are
    # second copies
    found = []
    for path in sorted(pathlib.Path(gfe25.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        aliases = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                aliases |= {a.asname or a.name for a in node.names
                            if a.name == "sympy"}
            elif isinstance(node, ast.ImportFrom) and \
                    (node.module or "").split(".")[0] == "sympy":
                found += [f"{path.name}:{node.lineno}" for a in node.names
                          if a.name in ("resultant", "discriminant")]
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and node.attr in ("resultant", "discriminant")
                  and isinstance(node.value, ast.Name) and node.value.id in aliases]
    assert not found, f"sympy resultants or discriminants in the package: {found}"


def test_one_square_and_multiply():
    # poly.power is the package's one square-and-multiply; a right shift of
    # an exponent anywhere else is a private copy of it
    found = []
    for path in sorted(pathlib.Path(gfe25.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        allowed = set()
        if path.name == "poly.py":
            power = next(node for node in tree.body
                         if isinstance(node, ast.FunctionDef)
                         and node.name == "power")
            allowed = {id(node) for node in ast.walk(power)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.AugAssign)
                  and isinstance(node.op, ast.RShift) and id(node) not in allowed]
    assert not found, f"square-and-multiply loops outside poly.power: {found}"


def _q_minus_one_over_five(tree):
    """The lines of the exponents (q - 1) // 5 in tree, for q a name or an
    attribute q."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.FloorDiv)
            and isinstance(node.right, ast.Constant) and node.right.value == 5
            and isinstance(node.left, ast.BinOp)
            and isinstance(node.left.op, ast.Sub)
            and "q" in (getattr(node.left.left, "id", None),
                        getattr(node.left.left, "attr", None))]


def test_one_fifth_power_character():
    # Fq.fifth_power_classes reads a class off the norm to F_p with the
    # exponent (p - 1) // 5; an exponent (q - 1) // 5 is a second character
    # on F_q, for the primes p != 1 mod 5 that the package refuses
    found = []
    for path in sorted(pathlib.Path(gfe25.__file__).parent.glob("*.py")):
        found += [f"{path.name}:{line}" for line in
                  _q_minus_one_over_five(ast.parse(path.read_text()))]
    assert not found, f"(q - 1) // 5 exponents in the package: {found}"
    assert _q_minus_one_over_five(ast.parse("e = (fq.q - 1) // 5"))


def test_no_sympy_matrix_in_the_order_layer():
    # O_K and its ideals are integer matrices (algebra.maximal_order); sympy
    # Matrix round trips are a second representation of the same objects
    found = []
    for name in ("algebra.py", "descent.py"):
        path = pathlib.Path(gfe25.__file__).parent / name
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            modules = [a.name for a in node.names] \
                if isinstance(node, ast.Import) else \
                [node.module or ""] if isinstance(node, ast.ImportFrom) else []
            if any(m.startswith("sympy.matrices") for m in modules) \
                    or getattr(node, "id", None) == "Matrix" \
                    or getattr(node, "attr", None) == "Matrix" \
                    or (isinstance(node, ast.alias) and node.name == "Matrix"):
                found.append(f"{name}:{getattr(node, 'lineno', '?')}")
    assert not found, f"sympy Matrix in the order layer: {found}"


#: the one function that may import sympy: the tests' reference
#: factorization over a number field
SYMPY_FUNCTIONS = {"algebra.factor_nf"}


def _sympy_imports(tree, module):
    """Sorted (scope, line) of each sympy import in the parsed module: scope
    is the qualified name of the innermost function around it, or "" where
    it runs at import (module level or a class body)."""
    found, todo = [], [(tree, module, "")]
    while todo:
        node, path, scope = todo.pop()
        names = [a.name for a in node.names] if isinstance(node, ast.Import) \
            else [node.module or ""] if isinstance(node, ast.ImportFrom) \
            and not node.level else []
        if any(name.split(".")[0] == "sympy" for name in names):
            found.append((scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                todo.append((child, f"{path}.{child.name}",
                             f"{path}.{child.name}"))
            elif isinstance(child, ast.ClassDef):
                todo.append((child, f"{path}.{child.name}", scope))
            else:
                todo.append((child, path, scope))
    return sorted(found)


def test_no_sympy_on_the_run_path():
    # the package's integer layer (gfe25.poly's primes and Sturm count,
    # algebra's HNF and inverse, descent's LLL) does sympy's old jobs, so
    # importing the package and running the verdict load no sympy; only the
    # reference factorization imports it, when called
    found = []
    for path in sorted(pathlib.Path(gfe25.__file__).parent.glob("*.py")):
        found += [f"{path.name}:{line} {scope or 'at import'}"
                  for scope, line in _sympy_imports(
                      ast.parse(path.read_text(), str(path)), path.stem)
                  if scope not in SYMPY_FUNCTIONS]
    assert not found, f"sympy imports on the run path: {found}"
    mutant = ("import numpy\nimport sympy.polys as P\nclass C:\n"
              "    from sympy import ZZ\n    def f(self):\n"
              "        from sympy import QQ\n        def g():\n"
              "            import sympy\n"
              "def h():\n    from . import sympy_like\n")
    assert _sympy_imports(ast.parse(mutant), "m") == \
        [("", 2), ("", 4), ("m.C.f", 6), ("m.C.f.g", 8)]


def test_descent_splits_without_factor_nf():
    # the sextic split finds q numerically and proves it exactly; the
    # factorization over number fields is not a second path to it
    path = pathlib.Path(gfe25.__file__).parent / "descent.py"
    tree = ast.parse(path.read_text(), str(path))
    found = [node.lineno for node in ast.walk(tree)
             if (isinstance(node, ast.Name) and node.id == "factor_nf")
             or (isinstance(node, ast.Attribute) and node.attr == "factor_nf")
             or (isinstance(node, ast.alias) and node.name == "factor_nf")]
    assert not found, f"descent.py uses factor_nf at lines {found}"


def test_table4_does_not_reach_factor_nf():
    # the types over Q(sqrt5) come from factoring over Q, inert primes and a
    # norm over Q; factor_nf is only their reference in the tests
    path = pathlib.Path(gfe25.__file__).parent / "algebra.py"
    tree = ast.parse(path.read_text(), str(path))
    funcs = {node.name: node for node in tree.body
             if isinstance(node, ast.FunctionDef)}
    seen, todo, found = set(), ["factorization_certificates"], []
    idents = set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(funcs[name]):
            ident = node.name if isinstance(node, ast.alias) else \
                getattr(node, "id", None) or getattr(node, "attr", None)
            idents.add(ident)
            if ident == "factor_nf":
                found.append(f"{name}:{node.lineno}")
            if isinstance(node, ast.Name) and node.id in funcs:
                todo.append(node.id)
    assert {"factorization_certificates", "_golden_factorization",
            "_golden_split", "_shifted_norm", "factor_q"} <= seen
    assert "distinct_degree_mod" in idents   # the inert-prime test
    assert not found, f"table4 reaches factor_nf: {found}"


def test_no_sympy_modular_polynomials():
    # factorization over F_p is gfe25.poly's (factor_mod and
    # distinct_degree_mod); a sympy Poly over GF(p) is a second copy of it
    found = []
    for path in sorted(pathlib.Path(gfe25.__file__).parent.glob("*.py")):
        found += [f"{path.name}:{node.lineno}"
                  for node in ast.walk(ast.parse(path.read_text(), str(path)))
                  if isinstance(node, ast.keyword) and node.arg == "modulus"]
    assert not found, f"sympy polynomials modulo p in the package: {found}"


def test_no_sympy_number_field_module():
    # O_K comes from Dedekind certificates (algebra.maximal_order); sympy's
    # number-field module (round_two and its kin) is a second copy of it
    found = []
    for path in sorted(pathlib.Path(gfe25.__file__).parent.glob("*.py")):
        found += [f"{path.name}:{number}"
                  for number, line in enumerate(path.read_text().splitlines(), 1)
                  if "numberfields" in line]
    assert not found, f"sympy.polys.numberfields in the package: {found}"


def test_no_sympy_factor_list():
    # factorization over Q is the package's own (algebra.factor_q: degree
    # patterns, a Hensel lift and recombination); sympy's factor_list is only
    # the tests' reference
    found = []
    for path in sorted(pathlib.Path(gfe25.__file__).parent.glob("*.py")):
        found += [f"{path.name}:{number}"
                  for number, line in enumerate(path.read_text().splitlines(), 1)
                  if "factor_list" in line]
    assert not found, f"sympy's factor_list in the package: {found}"


def test_private_names_are_used():
    # a private function or method that nothing in the package refers to is
    # dead code, or code kept alive only for a test
    defined, used = [], set()
    for path in sorted(pathlib.Path(gfe25.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            body = node.body if isinstance(node, ast.ClassDef) else [node]
            defined += [(f"{path.name}:{d.lineno}", d.name) for d in body
                        if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and d.name.startswith("_") and not d.name.endswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    found = [f"{where} {name}" for where, name in defined if name not in used]
    assert not found, f"private functions nothing refers to: {found}"


def test_one_unit_data_path():
    # descent.verify_unit_data alone reads a unit file, and certifies what it
    # reads; cli._data_digest hashes the file.  Any other reader hands out
    # generators that were never certified
    callers = set()
    for path in sorted(pathlib.Path(gfe25.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        funcs = {id(n): n.name for n in ast.walk(tree)
                 if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))}
        todo = [(tree, "<module>")]
        while todo:
            node, owner = todo.pop()
            owner = funcs.get(id(node), owner)
            if getattr(node, "id", None) == "unit_data_file" or \
                    getattr(node, "attr", None) == "unit_data_file":
                callers.add(f"{path.stem}.{owner}")
            todo += [(child, owner) for child in ast.iter_child_nodes(node)]
    assert callers == {"descent.verify_unit_data", "cli._data_digest"}, \
        f"unit files read outside verify_unit_data: {sorted(callers)}"


def test_one_mismatch_path():
    # a derivation that does not hold raises descent.DerivationFailed, and
    # only cli.run_pipeline (into a report) and cli.main (for a direct
    # subcommand) catch it: a stage body with a try, or a second exception
    # class for the same failure, is a second way to report it
    package = pathlib.Path(gfe25.__file__).parent
    tree = ast.parse((package / "cli.py").read_text())
    tries = [f"{fn.name}:{node.lineno}" for fn in tree.body
             if isinstance(fn, ast.FunctionDef)
             and fn.name.startswith("_stage_")
             for node in ast.walk(fn)
             if isinstance(node, (ast.Try, getattr(ast, "TryStar", ast.Try)))]
    assert not tries, f"try statements in stage bodies: {tries}"
    classes = {name for name, obj in vars(descent).items()
               if isinstance(obj, type) and issubclass(obj, BaseException)
               and obj.__module__ == descent.__name__}
    assert classes == {"DerivationFailed", "BadUnitData", "IndexRisk"}
    catchers = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                catchers |= {f"{path.stem}.{fn.name}"
                             for node in ast.walk(fn)
                             if isinstance(node, ast.ExceptHandler)
                             and "DerivationFailed" in ast.dump(node.type)}
    assert catchers == {"cli.run_pipeline", "cli.main"}, catchers


#: public names that only the benchmark harness (perfbench/) looks up
PERFBENCH_NAMES = {"factor_nf", "fifth_power_class", "active_backend"}


def test_public_names_are_used():
    # a public function, class or method that no module of the package or
    # of scripts/ refers to is dead code, or code kept alive only for a test
    package = pathlib.Path(gfe25.__file__).parent
    scripts = pathlib.Path(__file__).resolve().parent.parent / "scripts"
    defined, used = [], set()
    for path in sorted(package.glob("*.py")) + sorted(scripts.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        if path.parent == package:
            for node in tree.body:
                body = [node] + (node.body if isinstance(node, ast.ClassDef)
                                 else [])
                defined += [(f"{path.name}:{d.lineno}", d.name) for d in body
                            if isinstance(d, (ast.FunctionDef, ast.ClassDef))
                            and not d.name.startswith("_")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    found = [f"{where} {name}" for where, name in defined
             if name not in used | PERFBENCH_NAMES]
    assert not found, f"public names nothing refers to: {found}"


def test_fifth_roots_use_no_floats():
    # nf_fifth_root proves its None by exact p-adic lifting: no float, no
    # numeric solve and no rounding may decide a fifth root, in its body or
    # in any algebra.py function it reaches by name
    path = pathlib.Path(gfe25.__file__).parent / "algebra.py"
    tree = ast.parse(path.read_text(), str(path))
    funcs = {node.name: node for node in tree.body
             if isinstance(node, ast.FunctionDef)}
    banned = {"mpmath", "limit_denominator", "lu_solve"}
    seen, todo, found = set(), ["nf_fifth_root"], []
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(funcs[name]):
            ident = node.name if isinstance(node, ast.alias) else \
                getattr(node, "id", None) or getattr(node, "attr", None)
            if ident in banned:
                found.append(f"{name}:{node.lineno}")
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id in funcs:
                todo.append(node.func.id)
    assert {"_fifth_root_prime", "_fifth_root_bound",
            "_trace_form_inverse", "_power_sums"} <= seen
    assert not found, f"floating point in the fifth-root path: {found}"


def test_no_multiprecision_in_the_package():
    # floating point in the package only chooses what exact arithmetic then
    # proves, and double precision suffices for that; mpmath is a test
    # dependency only
    found = []
    for path in sorted(pathlib.Path(gfe25.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = [a.name for a in node.names] \
                if isinstance(node, ast.Import) else \
                [node.module or ""] if isinstance(node, ast.ImportFrom) else \
                [getattr(node, "id", None) or getattr(node, "attr", None) or ""]
            if any(n.split(".")[0] == "mpmath" for n in names):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"mpmath in the package: {found}"


def test_no_element_denominators_outside_nfelement():
    # an element is integer numerators over one denominator (NFElement.num
    # and .den); a comprehension over an element's Fraction coords that reads
    # their denominators or numerators recomputes that form by hand
    found = []
    for path in sorted(pathlib.Path(gfe25.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, (ast.ListComp, ast.SetComp,
                                     ast.GeneratorExp, ast.DictComp)):
                continue
            over_coords = any(isinstance(n, ast.Attribute) and n.attr == "coords"
                              for g in node.generators for n in ast.walk(g.iter))
            if over_coords and any(
                    isinstance(n, ast.Attribute)
                    and n.attr in ("denominator", "numerator")
                    for n in ast.walk(node)):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"element denominators computed outside NFElement: {found}"


def _numpy_calls_at_import(trees):
    """module:line of every call into numpy that importing the modules would
    make.  trees maps a module name of the package to its parsed source.  A
    call into numpy is a call, in a module-level statement, a class body, a
    decorator or a default value, of a numpy name or of a module-level
    function that refers to one, itself or through the functions it calls
    by name (f, or module.f for `from . import module`)."""
    numpy_names, funcs, imported = {}, {}, {}
    for mod, tree in trees.items():
        numpy_names[mod] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                numpy_names[mod] |= {a.asname or a.name.split(".")[0]
                                     for a in node.names
                                     if a.name.split(".")[0] == "numpy"}
            elif isinstance(node, ast.ImportFrom) and \
                    (node.module or "").split(".")[0] == "numpy":
                numpy_names[mod] |= {a.asname or a.name for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level:
                for a in node.names:  # (module, function) or (module, None)
                    imported[mod, a.asname or a.name] = \
                        (node.module, a.name) if node.module else (a.name, None)
        funcs.update({(mod, node.name): node for node in tree.body
                      if isinstance(node, ast.FunctionDef)})

    def target(mod, func):
        """"numpy", a key of funcs, or None for the callee expression func."""
        root = func
        while isinstance(root, ast.Attribute):
            root = root.value
        if isinstance(root, ast.Name) and root.id in numpy_names[mod]:
            return "numpy"
        if isinstance(func, ast.Name):
            key = imported.get((mod, func.id), (mod, func.id))
        elif isinstance(func, ast.Attribute) and func.value is root and \
                imported.get((mod, getattr(root, "id", None)), (0, 0))[1] is None:
            key = (imported[mod, root.id][0], func.attr)
        else:
            return None
        return key if key in funcs else None

    touches = {key: any(isinstance(node, ast.Name)
                        and node.id in numpy_names[key[0]]
                        for node in ast.walk(fn)) for key, fn in funcs.items()}
    touches["numpy"] = True
    changed = True
    while changed:
        changed = False
        for key, fn in funcs.items():
            if not touches[key] and any(
                    touches.get(target(key[0], node.func), False)
                    for node in ast.walk(fn) if isinstance(node, ast.Call)):
                touches[key] = changed = True

    def run_at_import(stmts):
        """(node, is a decorator) for each part of stmts that runs at
        import: statements, class bodies and bases, decorators and default
        values, but no function body."""
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                yield from ((dec, True) for dec in stmt.decorator_list)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from ((default, False) for default in
                            stmt.args.defaults + stmt.args.kw_defaults)
            elif isinstance(stmt, ast.ClassDef):
                yield from ((base, False) for base in stmt.bases)
                yield from run_at_import(stmt.body)
            else:
                yield stmt, False

    found = []
    for mod, tree in trees.items():
        for top, decorator in run_at_import(tree.body):
            if decorator and touches.get(target(mod, top), False):
                found.append(f"{mod}:{top.lineno}")  # applying it calls it
            todo = [top]
            while todo:
                node = todo.pop()
                if node is None or isinstance(node, ast.Lambda):
                    continue
                if isinstance(node, ast.Call) and \
                        touches.get(target(mod, node.func), False):
                    found.append(f"{mod}:{node.lineno}")
                todo += ast.iter_child_nodes(node)
    return found


def test_no_numpy_work_at_import():
    # the search tables depend on the curve, and every gfe invocation pays
    # for what the package builds at import: nothing may call numpy then
    package = pathlib.Path(gfe25.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(package.glob("*.py"))}
    found = _numpy_calls_at_import(trees)
    assert not found, f"numpy calls at import: {found}"
    mutants = {
        "k": "import numpy as np\ndef f(m):\n    return np.arange(m)\n"
             "T = [f(m) for m in (2, 3)]\n",
        "j": "from . import k\nfrom .k import f\nclass C:\n    A = k.f(2)\n"
             "    B = f(3)\n",
        "i": "from numpy import zeros as z\ndef g(x=z(3)):\n    pass\n",
        "h": "import numpy\n@numpy.vectorize\ndef g(x):\n    pass\n"
             "class D(numpy.ndarray):\n    pass\n",
    }
    assert _numpy_calls_at_import(
        {m: ast.parse(s) for m, s in mutants.items()}) == \
        ["k:4", "j:4", "j:5", "i:2", "h:2"]
    lazy = "import numpy as np\ndef f(m):\n    return np.arange(m)\n" \
           "X = np.int64\nG = lambda: f(3)\n"
    assert _numpy_calls_at_import({"k": ast.parse(lazy)}) == []


def _requirement_names(requirements):
    return {re.split(r"[\s<>=!~;\[]", r, maxsplit=1)[0].lower()
            for r in requirements}


def test_numpy_is_the_one_runtime_dependency():
    # the package runs on numpy alone; sympy, the tests' reference and
    # scripts/find_units.py's kernel, comes with the test extra
    tomllib = pytest.importorskip("tomllib")
    pyproject = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]
    assert _requirement_names(project["dependencies"]) == {"numpy"}
    assert "sympy" in _requirement_names(
        project["optional-dependencies"]["test"])
    assert _requirement_names(["SymPy>=1.12", "numpy", "a[b]; c"]) == \
        {"sympy", "numpy", "a"}
