import pytest

from nullvar.algebra import build_algebra
from nullvar.roots import build_root_datum


@pytest.fixture(scope="session")
def a1():
    return build_algebra(build_root_datum("A", 1))


@pytest.fixture(scope="session")
def a2():
    return build_algebra(build_root_datum("A", 2))


@pytest.fixture(scope="session")
def c2():
    return build_algebra(build_root_datum("C", 2))


@pytest.fixture(scope="session")
def b2():
    return build_algebra(build_root_datum("B", 2))


@pytest.fixture(scope="session")
def g2():
    return build_algebra(build_root_datum("G", 2))
