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


def test_defaulted_parameter_count_is_pinned():
    # every defaulted parameter of a public function or class is a knob;
    # adding or dropping one has to be a deliberate edit of this count
    count = 0
    for name in graphmem.__all__:
        obj = getattr(graphmem, name)
        try:
            params = inspect.signature(obj).parameters.values()
        except (TypeError, ValueError):     # exception classes have none
            continue
        count += sum(p.default is not inspect.Parameter.empty for p in params)
    assert count == 25
