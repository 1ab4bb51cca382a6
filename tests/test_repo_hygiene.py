"""The repository tracks no file that its .gitignore excludes (build
outputs, generated sources, test logs), the package defines no public name
that only its tests use, no private function or class that its module does
not use, no method that nothing reads and no defaulted parameter that no
call of it passes, no module of it reads another's private names, none
imports ``dataclasses``, ``algebra`` reads only the kernels, and only
``algebra._signed`` builds a ``RatFun`` by ``object.__new__``."""

import ast
import importlib
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_no_ignored_file_is_tracked():
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    inside = subprocess.run(
        ["git", "rev-parse", "--show-toplevel"], cwd=ROOT, capture_output=True, text=True
    )
    if inside.returncode != 0 or Path(inside.stdout.strip()).resolve() != ROOT:
        pytest.skip("the tests do not run from a git checkout of this repository")
    listed = subprocess.run(
        # only the repository's own .gitignore files, matched case-sensitively,
        # so a personal exclude file or a case-folding checkout cannot fail it
        [
            "git",
            "-c",
            "core.ignorecase=false",
            "ls-files",
            "-ci",
            "--exclude-per-directory=.gitignore",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    tracked = listed.stdout.splitlines()
    assert not tracked, f"tracked files that .gitignore excludes: {tracked}"



SRC = ROOT / "src" / "wreathmac"
# entry points called from outside the package (the console script)
ENTRY_POINTS = {("cli", "main")}


def _public_names(stmt) -> set[str]:
    """Public names a top-level statement defines as a function, class or
    constant."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, ast.Assign):
        names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        names = [stmt.target.id]
    else:
        names = []
    return {name for name in names if not name.startswith("_")}


def _source_module(node: ast.ImportFrom):
    """The module of the package an import reads from ("" for the package
    itself), or None for an import from outside it."""
    if node.level == 1:
        return node.module or ""
    if node.level == 0 and node.module and node.module.split(".")[0] == "wreathmac":
        return node.module.partition(".")[2]
    return None


def _cross_module_reads(module: str, tree, modules) -> set[tuple[str, str]]:
    """(M, n) for each name n that a module reads from another module M of
    the package: by ``from .M import n``, or as ``M.n`` on a module it
    imported with ``from . import M``."""
    reads, aliases = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = _source_module(node)
            for alias in node.names if source is not None else ():
                if source == "" and alias.name in modules:
                    aliases[alias.asname or alias.name] = alias.name
                else:
                    reads.add((source or "__init__", alias.name))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        ):
            reads.add((aliases[node.value.id], node.attr))
    return {(m, n) for m, n in reads if m != module}


def _unused_public_names(sources: dict[str, str]) -> list[str]:
    """``M.n`` for each public name n defined at the top level of module M
    that nothing in the package uses.  A use is ``from .M import n``, ``M.n``
    on an imported module, a load inside M outside n's own definition, or
    n in ``M.__all__``; an attribute of another object that merely has the
    same spelling is not one."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    defined, used = [], set()
    for module, tree in trees.items():
        used |= _cross_module_reads(module, tree, trees)
        for stmt in tree.body:
            own = _public_names(stmt)
            defined += [(module, name) for name in sorted(own)]
            used.update(
                (module, sub.id)
                for sub in ast.walk(stmt)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load) and sub.id not in own
            )
            if (
                # a module's __all__ exports names to code outside the package
                isinstance(stmt, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)
                and isinstance(stmt.value, (ast.List, ast.Tuple))
            ):
                used.update((module, e.value) for e in stmt.value.elts if isinstance(e, ast.Constant))
    return [
        f"{module}.{name}"
        for module, name in defined
        if (module, name) not in used and (module, name) not in ENTRY_POINTS
    ]


def _package_sources() -> dict[str, str]:
    return {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}


def test_every_public_name_is_used():
    # a public name that no other code in the package reads is kept alive
    # only by its own test: it should be deleted or moved into that test
    unused = _unused_public_names(_package_sources())
    assert not unused, f"public names nothing in src/wreathmac uses: {unused}"


def test_a_same_named_attribute_is_not_a_use():
    # `beta.size` reads the attribute of a SimpleType, not a function
    # `partitions.size`: a planted unused one is still reported
    sources = _package_sources()
    sources["partitions"] += "\n\ndef size(lam):\n    return sum(lam)\n"
    assert _unused_public_names(sources) == ["partitions.size"]


def _unused_private_names(sources: dict[str, str]) -> list[str]:
    """``M._f`` for each private top-level function or class ``_f`` of
    module M that no code in M loads outside its own definition (other
    modules may not read it, and a call of itself is no use)."""
    unused = []
    for module, text in sources.items():
        tree = ast.parse(text)
        for stmt in tree.body:
            if not (
                isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and stmt.name.startswith("_")
                and not stmt.name.endswith("__")
            ):
                continue
            loaded = any(
                isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load) and sub.id == stmt.name
                for other in tree.body
                if other is not stmt
                for sub in ast.walk(other)
            )
            if not loaded:
                unused.append(f"{module}.{stmt.name}")
    return unused


def test_every_private_function_and_class_is_used():
    # a private helper that its module no longer calls is a leftover, such
    # as the second copy of an algorithm after the first took its place
    unused = _unused_private_names(_package_sources())
    assert not unused, f"private functions and classes nothing in their module uses: {unused}"


def test_a_private_name_used_only_by_itself_is_reported():
    # a planted twin that only calls itself and an unused class are
    # reported; a helper that a module-level statement calls is used
    sources = _package_sources()
    sources["_kernels_py"] += (
        "\n\ndef _twin(A, B):\n"
        "    return _twin(B, A) if len(A) < len(B) else A\n"
        "\n\nclass _Spare:\n"
        "    pass\n"
        "\n\ndef _kept():\n"
        "    return 1\n"
        "\n\n_KEPT = _kept()\n"
    )
    assert _unused_private_names(sources) == ["_kernels_py._twin", "_kernels_py._Spare"]


def _outside_base_names(cls: ast.ClassDef, tree) -> set[str]:
    """The attribute names of each base ``m.C`` of a class whose module ``m``
    comes from outside the package by ``import m`` (the package imports its
    own modules relatively); a method of such a name overrides the base's."""
    modules = {
        a.asname or a.name: a.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for a in node.names
    }
    names = set()
    for base in cls.bases:
        if (
            isinstance(base, ast.Attribute)
            and isinstance(base.value, ast.Name)
            and base.value.id in modules
        ):
            names |= set(dir(getattr(importlib.import_module(modules[base.value.id]), base.attr)))
    return names


def _unread_methods(sources: dict[str, str]) -> list[str]:
    """``M.C.f`` for each method or property f of a class C of the package
    whose name no attribute read in the package spells (``x.f``).  Dunder
    methods and overrides of a base class from outside the package are
    exempt."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = []
    for module, tree in trees.items():
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            inherited = _outside_base_names(cls, tree)
            unread += [
                f"{module}.{cls.name}.{f.name}"
                for f in cls.body
                if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not (f.name.startswith("__") and f.name.endswith("__"))
                and f.name not in inherited
                and f.name not in read
            ]
    return unread


def test_every_method_is_read():
    # a method or property that nothing calls or reads is dead code, also
    # when a test still exercises it
    unread = _unread_methods(_package_sources())
    assert not unread, f"methods nothing in src/wreathmac reads: {unread}"


def test_an_unread_method_is_reported():
    # a planted property that nothing reads; the property it reads and the
    # override of an outside base class's method are not reported
    sources = _package_sources()
    sources["partitions"] += (
        "\n\nimport argparse\n"
        "\n\nclass _Box(argparse.Namespace):\n"
        "    def _get_kwargs(self):\n"
        "        return []\n"
        "\n"
        "    @property\n"
        "    def width(self):\n"
        "        return 1\n"
        "\n"
        "    @property\n"
        "    def depth(self):\n"
        "        return self.width\n"
    )
    assert _unread_methods(sources) == ["partitions._Box.depth"]


def _defaulted_parameters(module: str, tree):
    """(label, params, bound, defaulted) for each function or method of a
    module: ``params`` are its positional parameter names, ``bound``
    whether the first is ``self``/``cls``, and ``defaulted`` its parameters
    with a default value."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                params = [p.arg for p in a.posonlyargs + a.args]
                defaulted = params[len(params) - len(a.defaults) :]
                defaulted += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                bound = bool(params) and params[0] in ("self", "cls")
                out.append((f"{prefix}{child.name}", params, bound, defaulted))
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, f"{module}.")
    return out


def _calls_in(node, enclosing=None):
    """(call, name of the innermost function defining it) for each call
    under a node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            yield child, enclosing
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        yield from _calls_in(child, inner or enclosing)


def _unpassed_defaults(sources: dict[str, str]) -> list[str]:
    """``M.f(p)`` for each defaulted parameter p of a function or method f of
    the package that no call in the package passes.  A call passes p by
    keyword, or by position to a callee spelled ``f`` or ``x.f`` (for the
    bound ``x.f`` of a method, ``self``/``cls`` is not counted); ``*args``
    and ``**kwargs`` pass every parameter.  A call ``x.f(...)`` inside a
    ``def f`` forwards to a same-named callee and passes nothing, unless
    ``x`` is ``self``/``cls`` (a method calling itself, as ``f(...)`` inside
    ``def f`` does).  Dunder methods and the entry points are exempt."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    calls = [call for tree in trees.values() for call in _calls_in(tree)]
    unpassed = []
    for module, tree in trees.items():
        for label, params, bound, defaulted in _defaulted_parameters(module, tree):
            name = label.rpartition(".")[2]
            if (name.startswith("__") and name.endswith("__")) or (module, name) in ENTRY_POINTS:
                continue
            passed = set()
            for call, enclosing in calls:
                func = call.func
                attr = isinstance(func, ast.Attribute)
                if (func.attr if attr else getattr(func, "id", None)) != name:
                    continue
                receiver = getattr(func.value, "id", None) if attr else None
                if attr and enclosing == name and receiver not in ("self", "cls"):
                    continue
                if any(isinstance(arg, ast.Starred) for arg in call.args) or any(
                    kw.arg is None for kw in call.keywords
                ):
                    passed |= set(defaulted)
                skip = 1 if attr and bound else 0
                passed |= set(params[skip : skip + len(call.args)])
                passed |= {kw.arg for kw in call.keywords}
            unpassed += [f"{label}({p})" for p in defaulted if p not in passed]
    return unpassed


def test_every_optional_parameter_is_passed():
    # a default that no caller overrides is a constant dressed as a knob:
    # the parameter and whatever branch it selects should go
    unpassed = _unpassed_defaults(_package_sources())
    assert not unpassed, f"defaulted parameters no call in src/wreathmac passes: {unpassed}"


def test_an_unpassed_default_is_reported():
    # a planted method whose bound calls pass `start` by position (self not
    # counted) but never `scale`
    sources = _package_sources()
    sources["partitions"] += (
        "\n\nclass _Ruler:\n"
        "    def span(self, lam, start=0, scale=1):\n"
        "        return scale * sum(lam, start)\n"
        "\n\n_SPAN = _Ruler().span((1,), 2)\n"
    )
    assert _unpassed_defaults(sources) == ["partitions._Ruler.span(scale)"]


def test_a_forwarded_default_is_reported():
    # `_Other.span` forwards `start` to a same-named method, and no other
    # call passes it: neither default is ever overridden
    sources = _package_sources()
    sources["partitions"] += (
        "\n\nclass _Ruler:\n"
        "    def span(self, lam, start=0):\n"
        "        return sum(lam, start)\n"
        "\n\nclass _Other:\n"
        "    def span(self, lam, start=0):\n"
        "        return _Ruler().span(lam, start)\n"
        "\n\n_SPAN = _Other().span((1,))\n"
    )
    assert _unpassed_defaults(sources) == [
        "partitions._Ruler.span(start)",
        "partitions._Other.span(start)",
    ]


def test_no_module_imports_a_private_name_of_another():
    # an underscore name belongs to its module; a module that imports one
    # depends on a decision that its owner should keep to itself
    sources = _package_sources()
    trees = {module: ast.parse(text) for module, text in sources.items()}
    private = sorted(
        f"{module} reads {source}.{name}"
        for module, tree in trees.items()
        for source, name in _cross_module_reads(module, tree, trees)
        if name.startswith("_")
    )
    assert not private, f"private names read across modules: {private}"


def test_no_module_imports_dataclasses():
    # records are named tuples: dataclasses brings inspect, ast and dis into
    # the start-up of every process that imports the package
    importers = sorted(
        module
        for module, text in _package_sources().items()
        for node in ast.walk(ast.parse(text))
        if (isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "dataclasses")
    )
    assert not importers, f"modules importing dataclasses: {importers}"


def test_only_signed_builds_an_object_by_hand():
    # a canonical RatFun has two makers, RatFun(num, den) for any pair and
    # algebra._signed for a coprime one: another object.__new__ would be a
    # third, which the reduction rules would have to be checked against
    sites = sorted(
        f"{module}.{enclosing}"
        for module, text in _package_sources().items()
        for call, enclosing in _calls_in(ast.parse(text))
        if isinstance(call.func, ast.Attribute)
        and call.func.attr == "__new__"
        and isinstance(call.func.value, ast.Name)
        and call.func.value.id == "object"
    )
    assert sites == ["algebra._signed"], f"object.__new__ called in: {sites}"


def _modules_algebra_reads(sources: dict[str, str]) -> set[str]:
    trees = {module: ast.parse(text) for module, text in sources.items()}
    return {m for m, _ in _cross_module_reads("algebra", trees["algebra"], trees)}


def test_algebra_reads_nothing_of_the_package_but_the_kernels():
    # the exact arithmetic sits under every other module: a reading or a
    # change of variables of the engine belongs to the module that uses it
    sources = _package_sources()
    assert _modules_algebra_reads(sources) == {"kernels"}
    sources["algebra"] += "\nfrom .partitions import QT_AT_ZW\n"
    assert _modules_algebra_reads(sources) == {"kernels", "partitions"}
