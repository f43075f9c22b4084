from __future__ import annotations

import importlib.resources
import io

import pytest

from inconlog import files
from inconlog.cli import run


def fixture_text(name: str) -> str:
    return (importlib.resources.files("inconlog") / "fixtures" / name).read_text(
        encoding="utf-8"
    )


def fixture_path(name: str) -> str:
    return str(importlib.resources.files("inconlog") / "fixtures" / name)


def invoke(*argv):
    """Run the CLI in-process; returns (exit code, stdout text)."""
    out = io.StringIO()
    code = run(list(argv), out=out)
    return code, out.getvalue()


@pytest.fixture(scope="session")
def example1():
    return files.parse_theory(fixture_text("example1.rt"))


@pytest.fixture(scope="session")
def example2():
    return files.parse_theory(fixture_text("example2.rt"))


@pytest.fixture(scope="session")
def example3():
    return files.parse_theory(fixture_text("example3.rt"))


@pytest.fixture(scope="session")
def expansion_theory():
    return files.parse_theory(fixture_text("expansion.rt"))


@pytest.fixture(scope="session")
def bizet():
    return files.parse_theory(fixture_text("bizet.rt"))


@pytest.fixture(scope="session")
def dakota():
    return files.parse_theory(fixture_text("dakota.rt"))


@pytest.fixture(scope="session")
def room():
    return files.parse_theory(fixture_text("room.rt"))
