import os
from pathlib import Path

import pytest

from ellhom import build_root_system

ROOT = Path(__file__).resolve().parent.parent


def subprocess_env(*dirs: str) -> dict[str, str]:
    """The environment for a child interpreter that imports ellhom: src,
    then the given repository directories, on PYTHONPATH. pytest's
    pythonpath setting reaches only the test process itself."""
    path = os.pathsep.join(str(ROOT / d) for d in ("src", *dirs))
    return dict(os.environ, PYTHONPATH=path)


@pytest.fixture(scope="session")
def a1():
    return build_root_system("A", 1)


@pytest.fixture(scope="session")
def a2():
    return build_root_system("A", 2)


@pytest.fixture(scope="session")
def b2():
    return build_root_system("B", 2)


@pytest.fixture(scope="session")
def g2():
    return build_root_system("G", 2)
