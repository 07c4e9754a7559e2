"""Guards on the public surface: removing a name from graphmem, or adding
a helper without exporting it, has to be a deliberate edit of __all__."""
import inspect

import graphmem


def test_every_exported_name_resolves():
    missing = [name for name in graphmem.__all__ if not hasattr(graphmem, name)]
    assert missing == []


def test_exports_have_no_duplicates():
    assert len(graphmem.__all__) == len(set(graphmem.__all__))


def test_exports_match_the_imported_functions_and_classes():
    imported = {name for name, obj in vars(graphmem).items()
                if not name.startswith("_")
                and (inspect.isfunction(obj) or inspect.isclass(obj))}
    assert set(graphmem.__all__) == imported
