import fedcl


def test_every_exported_name_resolves_once():
    """A stale entry in ``__all__`` breaks ``from fedcl import *``."""
    missing = [name for name in fedcl.__all__ if not hasattr(fedcl, name)]
    assert missing == []
    assert len(fedcl.__all__) == len(set(fedcl.__all__))
