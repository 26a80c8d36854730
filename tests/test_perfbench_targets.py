"""The benchmark's per-layer tracer patches rigline functions by name; a
refactor that renames or removes one must fail here, not only in a traced
benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_traced_function_resolves():
    targets = _tracer_targets()
    assert targets
    for layer, qualname, mode in targets:
        assert mode in ("span", "count"), (layer, qualname, mode)
        owner = importlib.import_module(f"rigline.{layer}")
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        # The tracer reads the function from the owner's own namespace.
        assert callable(vars(owner).get(attr)), f"rigline.{layer}.{qualname}"
