from pathlib import Path

import pytest

_TESTS = Path(__file__).parent


def pytest_collection_modifyitems(items):
    # A RuntimeWarning from numpy (overflow, invalid value, divide by zero)
    # fails a test under tests/ instead of scrolling past; tests that
    # expect one silence it with np.errstate.
    for item in items:
        if _TESTS in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error::RuntimeWarning"))
