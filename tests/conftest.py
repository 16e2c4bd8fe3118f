import pytest

from latticelab import fixtures as fx


@pytest.fixture(scope="session")
def c2():
    return fx.build_fixture("c2")


@pytest.fixture(scope="session")
def c3():
    return fx.build_fixture("c3")


@pytest.fixture(scope="session")
def b2():
    return fx.build_fixture("b2")


@pytest.fixture(scope="session")
def b3():
    return fx.build_fixture("b3")


@pytest.fixture(scope="session")
def m3():
    return fx.build_fixture("m3")


@pytest.fixture(scope="session")
def n5():
    return fx.build_fixture("n5")


@pytest.fixture(scope="session")
def excip():
    return fx.build_fixture("excip")
