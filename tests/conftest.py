import faulthandler

import pytest


@pytest.fixture
def hang_guard():
    """A hung pipe or process ends the session after 120 s instead of hanging it."""
    faulthandler.dump_traceback_later(120, exit=True)
    yield
    faulthandler.cancel_dump_traceback_later()
