import importlib

import pytest

import gausshaar


def test_public_names_are_their_home_modules_objects():
    names = dir(gausshaar)
    for name in gausshaar.__all__:
        assert name in names
        if name == "__version__":
            continue
        obj = getattr(gausshaar, name)
        home = importlib.import_module(obj.__module__)
        assert home.__name__.startswith("gausshaar."), name
        assert getattr(home, name) is obj, name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        gausshaar.no_such_name
    with pytest.raises(ImportError):
        from gausshaar import no_such_name  # noqa: F401
