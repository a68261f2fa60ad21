import importlib

import adadenoise

MODULES = ("estimator", "kde", "linalg", "noise", "shrinkage", "sim",
           "theory")


def test_public_names_resolve_to_their_modules():
    """Every name the package exports resolves, and is the object that
    exactly one package module lists in its own ``__all__``."""
    modules = [importlib.import_module(f"adadenoise.{mod}") for mod in MODULES]
    for name in adadenoise.__all__:
        if name == "__version__":
            continue
        owners = [mod for mod in modules if name in mod.__all__]
        assert len(owners) == 1, f"{name} is listed in {owners}"
        assert getattr(adadenoise, name) is getattr(owners[0], name)
