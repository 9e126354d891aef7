"""Fixtures shared by the test modules."""

import os
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def child_env() -> dict[str, str]:
    """The environment of a child Python process: the package on its path,
    plus PYTHONDONTWRITEBYTECODE when set here, so a child writes bytecode
    into the source tree only if this process would."""
    env = {"PYTHONPATH": str(SRC)}
    if "PYTHONDONTWRITEBYTECODE" in os.environ:
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
    return env
