"""Fixtures for every test directory: ``tests`` and ``perfbench``."""

import pytest


@pytest.fixture(scope="session", autouse=True)
def library_cache(tmp_path_factory):
    """The compiled library's per-user cache, in a directory of this
    session's own: no test reads or writes the real one. The variable is
    set in ``os.environ``, so the fresh processes of the tests inherit it."""
    with pytest.MonkeyPatch.context() as patch:
        path = tmp_path_factory.mktemp("xdg-cache")
        patch.setenv("XDG_CACHE_HOME", str(path))
        yield path
