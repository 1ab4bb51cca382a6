"""The repository tracks no file that its .gitignore excludes (build
outputs, generated sources, test logs)."""

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
