import pytest

from besovsampling import cli
from besovsampling.grid import Grid1D, Grid2D, default_grid_1d
from besovsampling.wavelets import build_basis


def clear_cli_memos():
    """Empty every memo of `cli`: the 1D zoo functions and the critical norms."""
    cli._zoo_function.cache_clear()
    cli._NORMS.clear()


@pytest.fixture(autouse=True)
def fresh_cli_memos():
    """No test sees a function or a norm that another test, in any file, left
    in a memo of `cli`."""
    clear_cli_memos()
    yield
    clear_cli_memos()


@pytest.fixture(scope="session")
def db4():
    return build_basis("daubechies", 4, depth=12)


@pytest.fixture(scope="session")
def haar():
    return build_basis("haar")


@pytest.fixture(scope="session")
def grid():
    return default_grid_1d()


@pytest.fixture(scope="session")
def small_grid():
    # cheap grid for unit tests: h = 2^-6 on [-8, 8)
    return Grid1D(-8.0, 2.0**-6, 1024)


@pytest.fixture(scope="session")
def small_grid2d():
    g = Grid1D(-8.0, 2.0**-5, 512)
    return Grid2D(g, Grid1D(-8.0, 2.0**-5, 512))
