import ast
from pathlib import Path

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


def _imported_modules(module) -> set[str]:
    """Every module ``module``'s source imports, relative ones as absolute
    names: ``from . import nn`` is ``fedcl.nn``, ``from .errors import X``
    is ``fedcl.errors``."""
    tree = ast.parse(Path(module.__file__).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = "fedcl." * (node.level > 0) + (node.module or "")
            if node.module:
                names.add(base)
            else:
                names |= {base + alias.name for alias in node.names}
    return names


def test_nn_makes_no_system_calls_and_helper_needs_no_encoder():
    """``nn`` is the encoder's math: the CPU count and the OpenBLAS thread
    hold live in ``helper``, the process layer, which needs no other fedcl
    module than ``errors``."""
    from fedcl import helper, nn

    system = {"os", "ctypes", "contextlib", "pathlib"}
    assert {name.split(".")[0] for name in _imported_modules(nn)} & system == set()
    assert {name for name in _imported_modules(helper)
            if name.split(".")[0] == "fedcl"} == {"fedcl.errors"}
