from pathlib import Path

import pytest

_TESTS = Path(__file__).parent


def pytest_collection_modifyitems(items):
    # A RuntimeWarning from numpy (overflow, invalid value, divide by zero)
    # or a DeprecationWarning (an API a later Python or numpy removes)
    # fails a test under tests/ instead of scrolling past, as in CI; tests
    # that expect a RuntimeWarning silence it with np.errstate.  The one
    # exception: to report a failing @given test, hypothesis imports
    # libcst, whose use of mypy_extensions.TypedDict warns; as an error
    # that would turn the report into a pytest INTERNALERROR.  The last
    # marker wins, also over the command line's -W.
    for item in items:
        if _TESTS in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error::RuntimeWarning"))
            item.add_marker(pytest.mark.filterwarnings("error::DeprecationWarning"))
            item.add_marker(pytest.mark.filterwarnings(
                "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"
            ))
