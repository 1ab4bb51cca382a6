"""The repository tracks no file that its .gitignore excludes (build
outputs, generated sources, test logs), and the package defines no public
name that only its tests use."""

import ast
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


def _referenced_names(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.ImportFrom):
            yield from (alias.name for alias in sub.names)
        elif (
            # a module's __all__ exports names to code outside the package
            isinstance(sub, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in sub.targets)
            and isinstance(sub.value, (ast.List, ast.Tuple))
        ):
            yield from (e.value for e in sub.value.elts if isinstance(e, ast.Constant))


def test_every_public_name_is_used():
    # a public name that no other code in the package reads is kept alive
    # only by its own test: it should be deleted or moved into that test
    defined, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            own = _public_names(stmt)
            defined += [(path.stem, name) for name in sorted(own)]
            # a definition's own body does not count as a use of it
            used.update(name for name in _referenced_names(stmt) if name not in own)
    unused = [
        f"{module}.{name}"
        for module, name in defined
        if name not in used and (module, name) not in ENTRY_POINTS
    ]
    assert not unused, f"public names nothing in src/wreathmac uses: {unused}"
