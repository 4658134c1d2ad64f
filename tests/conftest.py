from pathlib import Path

import pytest

_TESTS = Path(__file__).parent


def pytest_collection_modifyitems(items):
    # A RuntimeWarning from numpy (overflow, invalid value, divide by zero)
    # or a DeprecationWarning (an API a later Python or numpy removes)
    # fails a test under tests/ instead of scrolling past, as in CI; tests
    # that expect a RuntimeWarning silence it with np.errstate.
    for item in items:
        if _TESTS in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error::RuntimeWarning"))
            item.add_marker(pytest.mark.filterwarnings("error::DeprecationWarning"))
