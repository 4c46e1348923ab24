import numpy as np
import pytest

from renormlab import cascade, renorm1d, renorm_nd


@pytest.fixture(autouse=True)
def no_kept_cascades():
    """Every test starts with no cascade kept by run_cascade, so that what the
    session-scoped families solved in one test does not serve the next."""
    cascade._KEPT.clear()


@pytest.fixture
def doubling_solves(monkeypatch):
    """The family of every find_doubling_bifurcation call of the test."""
    calls = []
    solve = cascade.find_doubling_bifurcation

    def counted(fam, level, bracket, seed=None):
        calls.append(fam)
        return solve(fam, level, bracket, seed=seed)
    monkeypatch.setattr(cascade, "find_doubling_bifurcation", counted)
    return calls


@pytest.fixture(scope="session")
def phi40():
    return renorm1d.solve_fixed_point(degree=40)


@pytest.fixture(scope="session")
def phi20():
    return renorm1d.solve_fixed_point(degree=20)


@pytest.fixture(scope="session")
def logistic():
    return cascade.logistic_family()


@pytest.fixture(scope="session")
def henon():
    return cascade.henon_family()


@pytest.fixture(scope="session")
def fold3d():
    """A 3-D family far from the standard map:
    (x, y, z) -> (1 - a x^2 + y + 0.2 z, 0.3 x, 0.3 z + 0.4 x^2)."""
    return cascade.OneParamFamily(
        exponents=np.array([[0, 0, 0], [2, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 0]]),
        base=np.array([[1.0, 0, 0], [0, 0, 0.4], [1.0, 0, 0], [0.2, 0, 0.3], [0, 0.3, 0]]),
        slope=np.array([[0.0, 0, 0], [-1.0, 0, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0]]),
        param_range=(-1.0, 1.0), bracket0=(0.05, 0.6), gap_hint=0.5,
        start_at=lambda a: (0.1, 0.03, 0.01))


@pytest.fixture(scope="session")
def logistic_cascade10(logistic):
    return cascade.run_cascade(logistic, 10)


@pytest.fixture(scope="session")
def logistic_cascade12(logistic):
    return cascade.run_cascade(logistic, 12)


@pytest.fixture(scope="session")
def henon_cascade7(henon):
    return cascade.run_cascade(henon, 7)


@pytest.fixture(scope="session")
def henon_cascade9(henon):
    return cascade.run_cascade(henon, 9)


@pytest.fixture(scope="session")
def std_map(phi20):
    return renorm_nd.standard_fct_map(2, phi20.phi0)


@pytest.fixture(scope="session")
def std_disk(std_map):
    found = renorm_nd.search_renorm_disk(std_map, start=np.array([0.3, 0.5]))
    assert found.found
    return found
