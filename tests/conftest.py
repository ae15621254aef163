"""Session set-up shared by the test modules."""

import os

import pytest


@pytest.fixture(scope="session", autouse=True)
def kernel_cache(tmp_path_factory):
    """Keeps the compiled FD level kernel of this session, and of the
    processes it starts, in a cache of its own rather than the user's."""
    saved = os.environ.get("XDG_CACHE_HOME")
    os.environ["XDG_CACHE_HOME"] = str(tmp_path_factory.mktemp("cache"))
    yield
    if saved is None:
        del os.environ["XDG_CACHE_HOME"]
    else:
        os.environ["XDG_CACHE_HOME"] = saved
