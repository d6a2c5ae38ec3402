"""Session setup for the tests.

`hho.cli` pins BLAS to one thread unless the user has set a count, which
works only before numpy loads; importing it first runs the tests on the
BLAS of `hho` and the benchmark.  pytest imports the class of every ini
warning filter before it loads this file, so the filter on a scipy class
is added here, after the pin, and not in pyproject.toml.
"""

import hho.cli  # noqa: F401


def pytest_configure(config):
    # a sparse format conversion (say, a CSR matrix handed to splu) copies
    # the matrix on every Newton step
    config.addinivalue_line("filterwarnings",
                            "error::scipy.sparse.SparseEfficiencyWarning")
