"""The benchmark's per-layer tracer patches rigline functions by name; a
refactor that renames or removes one must fail here, not only in a traced
benchmark run."""

import collections
import importlib
import importlib.util
from pathlib import Path

from rigline.baseline_learners import train_cart, train_random_forest
from rigline.dataset import SyntheticGenConfig, generate_synthetic

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    targets = _tracer().TARGETS
    assert targets
    for layer, qualname, mode in targets:
        assert mode in ("span", "count"), (layer, qualname, mode)
        owner = importlib.import_module(f"rigline.{layer}")
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        # The tracer reads the function from the owner's own namespace.
        assert callable(vars(owner).get(attr)), f"rigline.{layer}.{qualname}"


def test_tree_hooks_count_every_node():
    # The hooks walk m.root (m.trees[t].root in a forest) through is_leaf,
    # left and right.
    hooks = _tracer().HOOKS
    d = generate_synthetic(SyntheticGenConfig(row_count=120, seed=3))
    for name, m in (("train_cart", train_cart(d)),
                    ("train_random_forest", train_random_forest(d, n_trees=5, seed=1))):
        counts = collections.Counter()
        hooks[name](counts, (d,), {}, m)
        assert counts["baseline_learners.tree_nodes"] == len(m.nodes.feature) > 1, name
