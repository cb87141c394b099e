"""Rules on the source text of the package, checked on its syntax trees.

Each rule keeps one design decision from eroding: invariants are raised
errors, no import is dead, linalg and criteria reach each other and the
field only through their named entry points, the exact kernel check is a
proof, the p-adic lift works over Q alone, the dense elimination converts
whole rows to and from bytes, f and the witness stay in Z[w] integers, a
line is scaled to integers once, when it is parsed, a Scalar is made only
where a value is read back out, the package holds only what its
commands run, and only the command line's `main` chooses an exit code."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "nearfree"


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def _imported_names(tree, module):
    """(line, name) of every name imported from the package's `module`,
    by `from .module import name`, or of `module` itself by
    `from . import module` or `from nearfree import module`."""
    return [(n.lineno, a.name) for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
            for a in n.names if (n.module or "").split(".")[-1] == module
            or (n.module or "nearfree") == "nearfree" and a.name == module]


def test_no_assert_statements_in_src():
    # invariants are raised errors: `python -O` strips an assert
    bad = [f"{p}:{n.lineno}" for p in sorted(SRC.rglob("*.py"))
           for n in ast.walk(_tree(p)) if isinstance(n, ast.Assert)]
    assert bad == []


def test_no_unused_imports_in_src_or_tests():
    # an imported name that its module never reads is dead code; the imports
    # of __init__.py are the package's re-exports, and from __future__ sets
    # the parser
    files = sorted({*SRC.rglob("*.py"), *(ROOT / "tests").rglob("*.py")} - {SRC / "__init__.py"})
    bad = []
    for p in files:
        tree = _tree(p)
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        bad += [f"{p}:{n.lineno}: {name}" for n in ast.walk(tree)
                if isinstance(n, (ast.Import, ast.ImportFrom)) and getattr(n, "module", None) != "__future__"
                for name in [a.asname or a.name.split(".")[0] for a in n.names] if name not in read]
    assert bad == []


def test_linalg_imports_from_field_only_primitive_pairs():
    # linalg takes Z[w] integer rows only: never Scalar, FieldTag or a row
    # scaler; the slot packing of its elimination, back-substitution and
    # exact check is its own
    bad = [(line, name) for line, name in _imported_names(_tree(SRC / "linalg.py"), "field")
           if name != "primitive_pairs"]
    assert bad == []


def test_annihilates_uses_no_mod_pow_divmod_or_random():
    # the exact kernel check is a proof over Z[w]: a % or a pow would make
    # it a check modulo some number, and anything random a probabilistic one
    tree = _tree(SRC / "linalg.py")
    fns = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_annihilates"]
    assert len(fns) == 1
    names = [str(getattr(n, k)) for n in ast.walk(fns[0])
             for k in ("id", "attr", "name", "module") if hasattr(n, k)]
    bad = [n.lineno for n in ast.walk(fns[0])
           if isinstance(n, (ast.BinOp, ast.AugAssign)) and isinstance(n.op, ast.Mod)]
    bad += [x for x in names if x in ("pow", "divmod") or "rand" in x.lower()]
    assert bad == []


def test_only_step_0_uses_the_prime_element():
    # the p-adic lift is one loop over Q for the Q rows and for the real rows
    # of a Q(w) kernel; only step 0 reads residues mod π in Z[w], so the
    # lift may not reach for π, its remainders or the cube root of unity
    tree = _tree(SRC / "linalg.py")
    lift = ("_padic_kernel", "_padic_digits", "_reconstruct")
    fns = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name in lift]
    assert sorted(n.name for n in fns) == sorted(lift)
    bad = [f"{fn.name}:{n.lineno}: {name}" for fn in fns for n in ast.walk(fn)
           for name in [getattr(n, "id", getattr(n, "attr", None))]
           if name in ("_prime_element", "_nearest_remainder", "_cube_root")]
    assert bad == []


def test_dense_elimination_converts_whole_rows_to_and_from_bytes():
    # `_echelon_dense` packs a row by one int.from_bytes and reads a pivot
    # row back by one to_bytes: in linalg only it converts, never in a
    # comprehension or a loop inside its row or column loop, which would be
    # a call per slot
    tree = _tree(SRC / "linalg.py")
    comprehensions = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    found = []

    def visit(node, fn, loops, comprehension):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) in ("to_bytes", "from_bytes"):
            found.append((fn, node.lineno, loops, comprehension))
        for child in ast.iter_child_nodes(node):
            visit(child, fn, loops + isinstance(node, (ast.For, ast.While)),
                  comprehension or isinstance(node, comprehensions))

    for fn in tree.body:
        visit(fn, getattr(fn, "name", None), 0, False)
    assert {fn for fn, *_ in found} == {"_echelon_dense"}
    assert [line for _, line, loops, comprehension in found if loops > 1 or comprehension] == []


def test_criteria_imports_from_linalg_only_kernel_basis():
    # the degree walk settles every degree by eliminating its rows mod p
    # through kernel_basis; any other linalg entry point would be a second
    # route to a kernel
    bad = [(line, name) for line, name in _imported_names(_tree(SRC / "criteria.py"), "linalg")
           if name != "kernel_basis"]
    assert bad == []


def test_only_main_writes_to_stderr_or_chooses_an_exit_code():
    # a command reports an error by raising it, and main alone maps it to
    # one stderr line and an exit code: no other code of cli.py reads
    # sys.stderr or returns a nonzero integer literal
    tree = _tree(SRC / "cli.py")
    mains = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main"]
    assert len(mains) == 1
    inside = {id(x) for x in ast.walk(mains[0])}
    bad = [n.lineno for n in ast.walk(tree) if id(n) not in inside and (
        isinstance(n, ast.Attribute) and n.attr == "stderr"
        or isinstance(n, ast.Return) and isinstance(n.value, ast.Constant)
        and isinstance(n.value.value, int) and n.value.value)]
    assert bad == []


@pytest.mark.parametrize("module", ["criteria.py", "linalg.py"])
def test_module_imports_no_scalar_and_no_fractions(module):
    # f, the witness and the kernel rows are Z[w] integers from the lines to
    # the verdict; a Scalar or a Fraction here would be a second arithmetic
    # for them
    bad = [f"{module}:{n.lineno}: {a.name}" for n in ast.walk(_tree(SRC / module))
           if isinstance(n, (ast.Import, ast.ImportFrom)) for a in n.names
           if (getattr(n, "module", None) or a.name).split(".")[0] == "fractions"
           or isinstance(n, ast.ImportFrom) and (n.module or "").split(".")[-1] in ("field", "nearfree")
           and a.name == "Scalar"]
    assert bad == []


def test_no_integer_pairs_of_a_coeffs_expression_in_src():
    # a line is parsed once into its primitive Z[w] triple, LinearForm.ints;
    # scaling its Scalar coefficients back to integers repeats that work
    calls = [(p, n) for p in sorted(SRC.rglob("*.py")) for n in ast.walk(_tree(p))
             if isinstance(n, ast.Call)
             and getattr(n.func, "id", getattr(n.func, "attr", None)) == "integer_pairs"]
    bad = [f"{p}:{n.lineno}" for p, n in calls for a in n.args for x in ast.walk(a)
           if isinstance(x, ast.Attribute) and x.attr == "coeffs"]
    assert bad == []


def test_scalars_are_made_only_by_the_views():
    # text is read into Z[w] integers and every command computes on them; a
    # Scalar is made, outside field.py, only where a value is read back out:
    # Poly.coefficient, which fills the --poly relation matrices, and
    # singular_points
    allowed = {"Poly.coefficient", "singular_points"}
    bad = []
    for p in sorted(SRC.rglob("*.py")):
        if p.name == "field.py":
            continue
        tree = _tree(p)
        scopes = [(n.name, n) for n in tree.body if isinstance(n, ast.FunctionDef)]
        scopes += [(f"{c.name}.{m.name}", m) for c in tree.body if isinstance(c, ast.ClassDef)
                   for m in c.body if isinstance(m, ast.FunctionDef)]
        inside = {id(x) for name, fn in scopes if name in allowed for x in ast.walk(fn)}
        bad += [f"{p.name}:{n.lineno}" for n in ast.walk(tree) if isinstance(n, ast.Call)
                and getattr(n.func, "id", getattr(n.func, "attr", None)) == "Scalar"
                and id(n) not in inside]
    assert bad == []


# no command calls these; perfbench/tracer.py LAYERS wraps singular_points as
# its lattice layer, so a traced run needs both until ROADMAP item 1 moves
# that layer to _incidences
UNREFERENCED_ALLOWED = {"singular_points", "SingularPoint"}


def _definitions(tree):
    """(definition, is a method) for every top-level def and class of a
    module and every non-dunder method of its classes."""
    for n in tree.body:
        if isinstance(n, (ast.FunctionDef, ast.ClassDef)):
            yield n, False
        if isinstance(n, ast.ClassDef):
            yield from ((m, True) for m in n.body if isinstance(m, ast.FunctionDef)
                        and not (m.name.startswith("__") and m.name.endswith("__")))


def test_every_definition_in_src_is_referenced():
    # the package is what the commands run: a definition whose name src/
    # never reads outside its own body is library API that belongs in
    # tests/support.py. Reads inside such a definition do not count either,
    # so a helper that only it calls is caught too. A method is read by an
    # attribute of its name, anything else by a name or an attribute;
    # __init__.py only re-exports
    modules = {p.name: _tree(p) for p in sorted(SRC.rglob("*.py")) if p.name != "__init__.py"}
    defs = [(f"{name}:{d.lineno}: {d.name}", d, method)
            for name, tree in modules.items() for d, method in _definitions(tree)]
    reads = {}  # name -> [(node, is an attribute)]
    for tree in modules.values():
        for x in ast.walk(tree):
            if isinstance(x, (ast.Name, ast.Attribute)) and isinstance(x.ctx, ast.Load):
                is_attr = isinstance(x, ast.Attribute)
                reads.setdefault(x.attr if is_attr else x.id, []).append((id(x), is_attr))
    inside = {id(d): {id(x) for x in ast.walk(d)} for _, d, _ in defs}
    unread = set()
    while True:  # until the reads inside unread definitions change nothing
        ignored = set().union(*(inside[i] for i in unread))
        now = {id(d) for _, d, method in defs
               if not any((is_attr or not method) and x not in inside[id(d)] and x not in ignored
                          for x, is_attr in reads.get(d.name, ()))}
        if now == unread:
            break
        unread = now
    bad = [label for label, d, _ in defs if id(d) in unread and d.name not in UNREFERENCED_ALLOWED]
    assert bad == []
    # and the allow-list names only definitions that are there and unread
    assert {d.name for _, d, _ in defs if id(d) in unread} == UNREFERENCED_ALLOWED
