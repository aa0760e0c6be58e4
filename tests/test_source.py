"""Rules about the package's source, read from its syntax tree.

No module asserts, only `cli`, which lays out every report, imports
json, and every refusal the package raises is one of `errors`' classes.
Every top-level function and class in `src/sympl_moduli`, and every
method and property of its classes, serves a subcommand or an
entry point that README lists, and a function or class that serves no
subcommand lives in a module that no command loads; the independent
routes that check the library stay independent of what they check;
the type hints of every function resolve; and the source text of each
mutant that tests/mutants.py replays occurs once in its file.
"""

import ast
import collections
import importlib
import inspect
import re
import typing
from pathlib import Path

import pytest

import sympl_moduli

import mutants
from conftest import loaded_after

ROOT = Path(__file__).resolve().parents[1]
#: The source of the package as imported: src/sympl_moduli, or the
#: mutated copy of it that tests/mutants.py puts first on the path.
PKG = Path(sympl_moduli.__file__).resolve().parent
CONFTEST = ROOT / "tests" / "conftest.py"
SHADOW = ROOT / "tests" / "shadow.py"

_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFS = (*_FUNCS, ast.ClassDef)

#: The PEP 562 hooks of `__init__`, which Python calls by their names.
_HOOKS = {"__getattr__", "__dir__"}


def _names(node):
    """Every name and attribute that node's code reads; a string, a
    docstring included, names nothing."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _members(node):
    """The methods and properties a class defines, less the __dunder__
    methods, which Python calls by itself; none for a function."""
    if not isinstance(node, ast.ClassDef):
        return []
    return [sub for sub in node.body if isinstance(sub, _FUNCS)
            and not (sub.name.startswith("__") and sub.name.endswith("__"))]


def _code(node):
    """The parts of node whose names count once node is reached: all of
    a function, and of a class all but its members, which are reached
    on their own."""
    if not isinstance(node, ast.ClassDef):
        return [node]
    members = _members(node)
    return [*node.bases, *node.keywords, *node.decorator_list,
            *(sub for sub in node.body if sub not in members)]


def _trees():
    """(module, syntax tree) of each module of the package."""
    return [(path.stem, ast.parse(path.read_text()))
            for path in sorted(PKG.glob("*.py"))]


def _package():
    """{name: [(module, qualified name, node)]} of the package's
    top-level defs and classes and of their members, each under the
    name code reads it by ("Class.method" is the qualified name of a
    member), and the walk's fixed roots: every def and class of `cli`
    and every module statement that is neither."""
    defs, roots = {}, []
    for module, tree in _trees():
        for node in tree.body:
            if isinstance(node, _DEFS):
                defs.setdefault(node.name, []).append(
                    (module, node.name, node))
                for member in _members(node):
                    defs.setdefault(member.name, []).append(
                        (module, f"{node.name}.{member.name}", member))
                if module != "cli":
                    continue
            roots.append(node)
    return defs, roots


def _bench_names():
    """Every name and attribute that bench/workloads reads."""
    return {name for path in (ROOT / "bench" / "workloads").glob("*.py")
            for name in _names(ast.parse(path.read_text()))}


def _unreached(listed=()):
    """{(module, qualified name)} of the top-level defs, classes and
    members that neither the fixed roots nor the names in listed reach.

    The walk is rough: it resolves by name only, so a name or an
    attribute reaches every top-level def and every member of that name
    in any module.  A reached class does not reach its members: each is
    reached only where reached code reads its name.  The names that
    bench/workloads reads reach members too, but no top-level def,
    since README's list is of what no command runs.
    """
    defs, roots = _package()
    roots += [node for name in listed
              for _, qualname, node in defs.get(name.rpartition(".")[2], ())
              if qualname == name]
    roots += [node for name in _bench_names()
              for _, qualname, node in defs.get(name, ()) if "." in qualname]
    seen = set()
    while roots:
        node = roots.pop()
        if node not in seen:
            seen.add(node)
            roots += [d for part in _code(node) for name in _names(part)
                      for _, _, d in defs.get(name, ())]
    return {(module, qualname) for found in defs.values()
            for module, qualname, node in found
            if node not in seen and qualname not in _HOOKS}


def _readme_list():
    """The names in the first column of README's "Entry points no command
    runs" table, a member as Class.member."""
    text = (ROOT / "README.md").read_text()
    heading = "\n## Entry points no command runs\n"
    assert heading in text, "README has no list of entry points"
    section = text.split(heading, 1)[1].split("\n#", 1)[0]
    return re.findall(r"^\| `([\w.]+)` +\|", section, flags=re.M)


#: The defs that no command reaches but that stay in a module every
#: command loads, each with the reason it stays there.
_SHARED = {
    ("geometry", "_reduce_angle"):
        "the package's one angle wrap, which model_maps.phi_eval calls too",
}


class TestErrors:
    def test_one_class_per_exit_code(self):
        # SymplModuliError and one subclass of it for each exit code a
        # refusal maps to: 1 DomainError, 2 ParseError, 3 InternalError.
        tree = ast.parse((PKG / "errors.py").read_text())
        classes = {node.name: [ast.unparse(base) for base in node.bases]
                   for node in tree.body if isinstance(node, ast.ClassDef)}
        assert classes == {"SymplModuliError": ["Exception"],
                           "DomainError": ["SymplModuliError"],
                           "ParseError": ["SymplModuliError"],
                           "InternalError": ["SymplModuliError"]}


def _raises(node, module, func=None):
    """(module, innermost function, the name a raise calls or raises) of
    each raise statement under node; None for a bare re-raise."""
    for sub in ast.iter_child_nodes(node):
        if isinstance(sub, ast.Raise):
            exc = sub.exc.func if isinstance(sub.exc, ast.Call) else sub.exc
            yield module, func, exc and ast.unparse(exc)
        yield from _raises(sub, module,
                           sub.name if isinstance(sub, _FUNCS) else func)


#: The refusals a raise may name: one class per exit code, and
#: cli._refused, which returns the ParseError of a refused flag value.
_REFUSALS = {"DomainError", "ParseError", "InternalError", "_refused"}

#: The builtin exceptions the package raises itself, each where a
#: protocol or an exit code needs it: the module __getattr__ of PEP 562,
#: and the OSErrors of an --out path, which exit 2.
_BUILTIN_RAISES = {
    ("__init__", "__getattr__", "AttributeError"),
    ("cli", "_out_file", "FileNotFoundError"),
    ("cli", "_out_file", "PermissionError"),
}


class TestStatements:
    def test_every_refusal_is_a_package_error(self):
        # A caller, cli.main included, catches one class per exit code;
        # a builtin ValueError for a refused value would escape it.
        stray = [found for module, tree in _trees()
                 for found in _raises(tree, module)
                 if found[2] is not None and found[2] not in _REFUSALS
                 and found not in _BUILTIN_RAISES]
        assert not stray, stray

    def test_require_finite_takes_no_class(self):
        # It raises DomainError: a caller names only the fields.
        found = [(module, node.lineno) for module, tree in _trees()
                 for node in ast.walk(tree) if isinstance(node, ast.Call)
                 and ast.unparse(node.func).endswith("require_finite")
                 and node.args]
        assert not found, found

    def test_no_assert(self):
        # python -O strips an assert: a check the library needs raises.
        found = [(module, node.lineno) for module, tree in _trees()
                 for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not found, found

    def test_only_cli_imports_json(self):
        # cli lays out every report; the library returns records.
        importers = {
            module for module, tree in _trees() for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            and any(alias.name.partition(".")[0] == "json"
                    for alias in node.names)
            or isinstance(node, ast.ImportFrom)
            and (node.module or "").partition(".")[0] == "json"}
        assert importers == {"cli"}


class TestReach:
    def test_no_command_loads_code_it_cannot_reach(self):
        # A command compiles each module it loads, all of it, so a def no
        # command reaches lives in a module `import sympl_moduli.cli`
        # does not load, such as points, unless _SHARED names it.  A
        # member lives in its class's module, so README lists it instead.
        eager = {"__init__"} | {
            name.partition(".")[2]
            for name in loaded_after("import sympl_moduli.cli")}
        stray = {(module, name) for module, name in _unreached()
                 if module in eager and "." not in name}
        assert stray == set(_SHARED), (
            f"reached by no subcommand, in a module every command loads: "
            f"{sorted(stray - set(_SHARED))}; no longer there: "
            f"{sorted(set(_SHARED) - stray)}")

    def test_every_def_serves_a_command_or_a_listed_entry_point(self):
        unreached = _unreached(_readme_list())
        assert not unreached, (
            f"reached by no subcommand and no name on README's list: "
            f"{sorted(unreached)}")

    def test_readme_lists_the_exports_no_command_reaches(self):
        # The exports that no command reaches, and the members that
        # neither a command nor those exports reach.
        listed = _readme_list()
        defined = {qualname for found in _package()[0].values()
                   for _, qualname, _ in found}
        assert set(listed) <= defined, (
            f"README lists names src/ does not define: "
            f"{sorted(set(listed) - defined)}")
        exports = set(sympl_moduli.__all__) & {
            name for _, name in _unreached()}
        members = {name for _, name in _unreached(exports) if "." in name}
        assert sorted(listed) == sorted(exports | members)

    def test_a_member_is_reached_by_its_name(self):
        # A reached class does not reach its members: a method that
        # only tests call is unreached, though its class is reached.
        assert ("reeb", "EndClass") not in _unreached()
        assert {("reeb", "ReebOrbit.pole_plus"),
                ("reeb", "ReebOrbit.pole_minus"),
                ("curves", "CurveSpec.example1")} <= _unreached()


def _reads(path: Path, name: str) -> set:
    """The names that the top-level function `name` of path reads, with
    those of every function of the same file that it names, in turn; or,
    where name is the file's own, every name the file reads or imports,
    each part of a dotted module name too."""
    tree = ast.parse(path.read_text())
    if name == path.stem:
        names = set(_names(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                names.update(node.module.split("."))
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(part for alias in node.names
                             for part in alias.name.split("."))
        return names
    funcs = {node.name: node for node in tree.body
             if isinstance(node, ast.FunctionDef)}
    todo, done, names = [name], set(), set()
    while todo:
        current = todo.pop()
        if current in funcs and current not in done:
            done.add(current)
            read = set(_names(funcs[current]))
            names |= read
            todo += read
    assert name in done, (path, name)
    return names


#: Each independent route, with the names of the routes it checks.  The
#: root-of-unity oracle, and _walk_count, the walk it memoises per
#: lattice, walk residues without building them or counting a coset in
#: closed form; the Pick count uses no gcd and no residues; the
#: three-end candidates filter the whole box; the tests' m0 states its
#: closed form without the library's reading of an end; and the tests'
#: exact values, the shadow module, name nothing of the package.
ORACLES = {
    "double_points_bruteforce": (
        PKG / "invariants.py",
        {"residue_pairs", "_closed_form", "double_points_formula"}),
    "_walk_count": (
        PKG / "invariants.py",
        {"residue_pairs", "_closed_form", "double_points_formula"}),
    "double_points_lattice": (
        CONFTEST, {"gcd", "residue_pairs", "_lattice",
                   "double_points_bruteforce", "double_points_formula"}),
    "label3_candidates_bound8": (CONFTEST, {"enumerate_labels"}),
    "m0": (CONFTEST, {"end_windings", "fredholm_index", "c1_pairing"}),
    "shadow": (SHADOW, {"sympl_moduli", *(
        qualname for found in _package()[0].values()
        for _, qualname, _ in found if "." not in qualname)}),
}


@pytest.mark.parametrize("name", ORACLES)
def test_oracle_names_none_of_the_routes_it_checks(name):
    path, checked = ORACLES[name]
    named = _reads(path, name) & checked
    assert not named, sorted(named)


#: Each rule that has one statement in src/, as (the pattern that
#: writes it, the (module, innermost function, a def line?) of every
#: line of src/ that matches it).  1 - 3 cos^2 theta cancels next to the
#: cone, so it is taken at an angle only by geometry._cone_factor, which
#: keeps its digits there; the closed-form families take their angle
#: from one inversion of h/f, points.theta_from_lambda, called only by
#: points._static_point; a polar end's windings come from
#: isqrt(3 m^2 // 2) only in invariants.end_windings; and a size past
#: its work budget is refused in one wording, only by
#: budgets.require_within.
ONE_STATEMENT = {
    "1 - 3 cos^2 theta": (
        r"1\.0 - 3\.0 \* (c|cos)\b|3\.0 \* c \* c - 1\.0",
        [("geometry", "_cone_factor", False)]),
    "inversion of h/f": (
        re.escape("theta_from_lambda("),
        [("points", "_static_point", False),
         ("points", "theta_from_lambda", True)]),
    "polar windings": (
        re.escape("isqrt(3"), [("invariants", "end_windings", False)]),
    "refusal past a budget": (
        re.escape("the budget of"), [("budgets", "require_within", False)]),
}


def _homes(pattern):
    """(module, innermost function, a def line?) of each line of
    src/sympl_moduli that matches pattern, sorted; None for a line in no
    function."""
    found = []
    for path in sorted(PKG.glob("*.py")):
        text = path.read_text()
        funcs = [node for node in ast.walk(ast.parse(text))
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for number, line in enumerate(text.splitlines(), 1):
            if re.search(pattern, line):
                inside = [node for node in funcs
                          if node.lineno <= number <= node.end_lineno]
                home = min(inside, key=lambda node: (
                    node.end_lineno - node.lineno)).name if inside else None
                found.append((path.stem, home,
                              line.lstrip().startswith("def ")))
    return sorted(found, key=str)


@pytest.mark.parametrize("rule", ONE_STATEMENT)
def test_one_statement_of_each_rule(rule):
    pattern, homes = ONE_STATEMENT[rule]
    assert _homes(pattern) == sorted(homes, key=str)


def _functions():
    """Every function whose code is in the package, from its modules'
    and classes' namespaces: functions, methods, class and static
    methods and property getters, unwrapped from their decorators.
    NamedTuple's generated methods have their code elsewhere, and a
    closure built per call (`cli._reader`'s `read`) is in no namespace."""
    found = set()
    for path in sorted(PKG.glob("*.py")):
        name = "" if path.stem == "__init__" else f".{path.stem}"
        module = importlib.import_module(f"sympl_moduli{name}")
        for value in vars(module).values():
            members = [value]
            if inspect.isclass(value) and value.__module__ == module.__name__:
                members = vars(value).values()
            for member in members:
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                member = inspect.unwrap(member)
                if (inspect.isfunction(member) and Path(
                        member.__code__.co_filename).resolve().parent == PKG):
                    found.add(member)
    return found


def test_every_type_hint_resolves():
    functions = _functions()
    defs = sum(isinstance(node, ast.FunctionDef)
               for path in PKG.glob("*.py")
               for top in ast.parse(path.read_text()).body
               for node in [top, *(top.body if isinstance(top, ast.ClassDef)
                                   else ())])
    assert len(functions) == defs, (len(functions), defs)
    unresolved = {}
    for func in functions:
        try:
            typing.get_type_hints(func)
        except (NameError, TypeError) as exc:
            unresolved[f"{func.__module__}.{func.__qualname__}"] = str(exc)
    assert not unresolved, unresolved


def _holds_a_float(hint, seen=()) -> bool:
    """Whether a return hint holds a float or a complex: itself, inside
    a generic such as a tuple, a list or a union, or in a field of a
    NamedTuple it names, in turn."""
    if hint in (float, complex):
        return True
    if typing.get_origin(hint) is not None:
        return any(_holds_a_float(arg, seen) for arg in typing.get_args(hint)
                   if arg is not Ellipsis)
    if (inspect.isclass(hint) and issubclass(hint, tuple)
            and hasattr(hint, "_fields") and hint not in seen):
        return any(_holds_a_float(field, seen + (hint,))
                   for field in typing.get_type_hints(hint).values())
    return False


def test_every_float_export_has_a_digits_row():
    """tests/test_digits.py's table has a row for each exported function
    whose return hint holds a float or a complex (classify_branches is
    unwrapped from its cache), and no row for a name not exported."""
    from test_digits import ROWS
    floats = set()
    for name in sympl_moduli.__all__:
        value = getattr(sympl_moduli, name)
        if not inspect.isclass(value):
            hint = typing.get_type_hints(inspect.unwrap(value)).get("return")
            if _holds_a_float(hint):
                floats.add(name)
    assert len(floats) == 22, sorted(floats)
    assert not floats - set(ROWS), (
        f"float exports with no row: {sorted(floats - set(ROWS))}")
    assert not set(ROWS) - set(sympl_moduli.__all__), (
        f"rows of no export: {sorted(set(ROWS) - set(sympl_moduli.__all__))}")


def _mutant_ids():
    """Each row's file, with its ordinal among that file's rows from the
    second row on: invariants.py, invariants.py-2, ..."""
    seen = collections.Counter()
    for row in mutants.MUTANTS:
        seen[row.file] += 1
        n = seen[row.file]
        yield row.file if n == 1 else f"{row.file}-{n}"


@pytest.mark.parametrize("row", mutants.MUTANTS, ids=list(_mutant_ids()))
def test_each_mutant_finds_its_source_text_once(row):
    # A refactor that moves the text updates the row.
    assert (PKG / row.file).read_text().count(row.source) == 1, row.origin
