import pytest

from pga.groups import _leaf


@pytest.fixture(autouse=True)
def _fresh_leaves():
    """Each test starts with no leaf group cached, so that a group built
    while a test patched its class never reaches a later test."""
    _leaf.cache_clear()
