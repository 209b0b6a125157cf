"""The library functions the benchmark's tracer wraps still exist where it expects them.

`perfbench/tracer.py` patches these names to time a traced pass; a rename
or deletion in the library would break that pass. Nothing under
`perfbench/` is modified here.
"""

import importlib
import pathlib

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def tracer():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        yield importlib.import_module("tracer")


def test_spans_and_counters_name_functions_of_their_modules(tracer):
    hooks = tracer.SPANS + tracer.COUNTERS
    assert hooks
    for name, module, attr in hooks:
        fn = getattr(module, attr, None)
        assert callable(fn), f"{name}: {module.__name__}.{attr} is gone"
        assert fn.__module__ == module.__name__, f"{name}: {attr} is defined in {fn.__module__}"


def test_povm_validate_is_defined_on_povm(tracer):
    import phasecomm.discrimination as discrimination

    assert "validate" in vars(discrimination.Povm)
    assert discrimination.Povm.validate.__module__ == discrimination.__name__
