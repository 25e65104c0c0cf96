import fedcl


def test_every_exported_name_resolves_once():
    """A stale entry in ``__all__`` breaks ``from fedcl import *``."""
    missing = [name for name in fedcl.__all__ if not hasattr(fedcl, name)]
    assert missing == []
    assert len(fedcl.__all__) == len(set(fedcl.__all__))


def test_every_error_type_is_exported():
    """Each error that ``run_training`` or ``fedcl run`` raises by name."""
    from fedcl import errors

    defined = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and issubclass(obj, Exception)}
    assert defined - set(fedcl.__all__) == set()
