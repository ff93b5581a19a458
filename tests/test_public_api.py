import importlib

import pytest

MODULES = ("classical", "quantum", "spectral", "phase_space", "walsh", "experiments", "io_utils")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    """Every name in a module's __all__ exists, so `import *` cannot fail on
    a stale entry."""
    module = importlib.import_module(f"openbaker.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from openbaker.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)
