import dataclasses
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigline.baseline_learners import MlpConfig, train_cart, train_random_forest, train_rule_list
from rigline.dataset import Dataset, SyntheticGenConfig, split_train_test, stratified_folds
from rigline.errors import ConfigError
from rigline.imbalance import SmoteConfig, undersample
from rigline.labeling_em import em_fit
from rigline.stacking import LearnerSpec, StackSpec
from rigline.svm_smo import KernelSpec, SmoConfig, calibrate_probability, smo_train
from rigline.util import check_number, diag_gaussian_posterior, parse_fields, sum_columns

CASTS = {"rows": int, "k": int, "frac": float, "shift": float}
FINITE = st.floats(allow_nan=False, allow_infinity=False)
SPACE = st.text(alphabet=" \t", max_size=2)


@settings(max_examples=200, deadline=None)
@given(
    fields=st.fixed_dictionaries({}, optional={
        "rows": st.integers(), "k": st.integers(), "frac": FINITE, "shift": FINITE,
    }),
    sep=st.sampled_from([",", ";"]),
    data=st.data(),
)
def test_parse_fields_reads_back_what_was_written(fields, sep, data):
    draw = data.draw
    parts = [f"{draw(SPACE)}{key}{draw(SPACE)}={draw(SPACE)}{value!r}{draw(SPACE)}"
             for key, value in fields.items()]
    parts += [draw(SPACE) for _ in range(draw(st.integers(0, 3)))]
    text = sep.join(draw(st.permutations(parts)))
    assert parse_fields(text, sep, CASTS, "--thing") == fields


@settings(max_examples=100, deadline=None)
@given(key=st.text(alphabet="abcdefghij", min_size=1, max_size=6).filter(
    lambda k: k not in CASTS))
def test_parse_fields_rejects_unknown_key(key):
    with pytest.raises(ConfigError, match=r"^--thing: unknown key .*; choices: rows, k, frac, shift$"):
        parse_fields(f"rows=3,{key}=1", ",", CASTS, "--thing")


@settings(max_examples=100, deadline=None)
@given(key=st.sampled_from(sorted(CASTS)),
       value=st.text(alphabet="qwxyz_", min_size=1, max_size=6))
def test_parse_fields_rejects_uncastable_value(key, value):
    with pytest.raises(ConfigError, match=f"^--thing: bad value for {key}: "):
        parse_fields(f"{key}={value}", ",", CASTS, "--thing")


def test_parse_fields_needs_an_equals_sign():
    with pytest.raises(ConfigError, match="^--thing: expected key=value, got 'rows'$"):
        parse_fields("k=1, rows", ",", CASTS, "--thing")


def test_parse_fields_untyped_keeps_any_key_as_text():
    assert parse_fields(" a = 1 ,, b=x=y ", ",", None, "--params") == {"a": "1", "b": "x=y"}


# ---------------------------------------------------------------------------
# check_number, the one rule for numeric settings, and every place that
# builds a setting calls it: configs (each dataclass field) and trainers
# (each keyword parameter).

def test_check_number_returns_the_value_unconverted():
    for value, kind in ((3, int), (np.int64(3), int), (3, float), (0.5, float),
                        (np.float64(0.5), float)):
        assert check_number("x", value, kind, lambda v: v > 0, "> 0") is value
    with pytest.raises(ConfigError, match=r"^x must be an integer >= 1, got True$"):
        check_number("x", True, int, lambda v: v >= 1, ">= 1")
    with pytest.raises(ConfigError, match=r"^x must be a finite number, got nan$"):
        check_number("x", math.nan, float)
    with pytest.raises(ConfigError, match=r"^x must be a finite number, got 10{400}$"):
        check_number("x", 10**400, float)
    with pytest.raises(ConfigError, match=r"^x must be a finite number in \(0,1\), got '0.5'$"):
        check_number("x", "0.5", float, lambda v: 0 < v < 1, "in (0,1)")


def integer(minimum=None):
    """Values an integer setting of at least minimum (None: any) rejects."""
    bad = [st.booleans(), st.floats(), st.sampled_from([2.5, math.nan, math.inf, -math.inf])]
    if minimum is not None:
        bad.append(st.integers(max_value=minimum - 1))
    return st.one_of(bad)


def real(*out_of_range):
    """Values a finite real setting rejects, beside the out-of-range ones."""
    return st.one_of(st.booleans(), st.sampled_from([math.nan, math.inf, -math.inf, 10**400]),
                     *out_of_range)


BELOW_ZERO = st.floats(max_value=-1e-9)
UP_TO_ZERO = st.one_of(st.floats(max_value=0.0), st.integers(max_value=0))
POSITIVE = real(UP_TO_ZERO)
NON_NEGATIVE = real(BELOW_ZERO)
OPEN_UNIT = real(UP_TO_ZERO, st.floats(min_value=1.0))  # in (0,1)

# Each config's numeric fields, with the values each rejects, and the
# fields that are not numeric. A numeric field added without an entry here
# fails test_every_numeric_setting_is_listed.
CONFIGS = {
    MlpConfig: ({}, {"hidden_units": integer(1), "learning_rate": POSITIVE,
                     "momentum": real(BELOW_ZERO, st.floats(min_value=1.0)),
                     "epochs": integer(1), "batch_size": integer(1), "seed": integer(0)}, ()),
    SmoConfig: ({}, {"C": POSITIVE, "kkt_tol": POSITIVE, "max_steps": integer(1)},
                ("kernel",)),
    KernelSpec: ({"kind": "polynomial"}, {"gamma": POSITIVE, "degree": integer(1),
                                          "coef0": real()}, ("kind",)),
    SmoteConfig: ({}, {"k_neighbors": integer(1),
                       "target_ratio": real(UP_TO_ZERO, st.floats(min_value=1.0000001)),
                       "seed": integer(0)}, ()),
    SyntheticGenConfig: ({"row_count": 10}, {"row_count": integer(2),
                                             "failure_fraction": OPEN_UNIT, "seed": integer(0),
                                             "failure_shift_sigma": real()}, ()),
    StackSpec: ({"base": (LearnerSpec("nb"),)}, {"folds": integer(2)}, ("base", "meta")),
}

TINY = Dataset([("f0", ""), ("f1", "")], np.arange(24.0).reshape(12, 2) % 7,
               ["a", "b"] * 6)
TINY_SVM = smo_train(TINY, SmoConfig())
# undersample returns a balanced table before it draws; this one is not.
UNBALANCED = TINY.subset([0, 1, 2, 3, 4, 6, 8, 10])

# Each trainer with its leading positional arguments, its numeric
# parameters and the parameters that are neither numeric nor data.
DATA_ARGS = ("d", "labels", "m", "cfg")
TRAINERS = {
    train_cart: ((TINY,), {"max_depth": integer(0), "min_leaf": integer(1)}, ()),
    train_rule_list: ((TINY,), {"max_rule_depth": integer(0), "min_leaf": integer(1)}, ()),
    train_random_forest: ((TINY,), {"n_trees": integer(1), "features_per_split": integer(1),
                                    "seed": integer(), "max_depth": integer(0),
                                    "min_leaf": integer(1)}, ("bootstrap",)),
    em_fit: ((TINY, 2), {"n_components": integer(1), "seed": integer(0),
                         "tol": NON_NEGATIVE, "max_iter": integer(1)}, ()),
    stratified_folds: ((TINY, 2), {"n_folds": integer(2), "seed": integer(0)}, ()),
    split_train_test: ((TINY, 0.5), {"train_fraction": OPEN_UNIT, "seed": integer(0)}, ()),
    calibrate_probability: ((TINY_SVM, TINY, SmoConfig()), {"folds": integer(2)}, ()),
    undersample: ((UNBALANCED,), {"seed": integer(0)}, ()),
}


@pytest.mark.parametrize("builder", [*CONFIGS, *TRAINERS], ids=lambda b: b.__name__)
def test_every_numeric_setting_is_listed(builder):
    _, numeric, other = (CONFIGS | TRAINERS)[builder]
    if builder in CONFIGS:
        names = [f.name for f in dataclasses.fields(builder)]
    else:
        names = [p for p in inspect.signature(builder).parameters if p not in DATA_ARGS]
    assert sorted(names) == sorted([*numeric, *other])


CASES = [(b, name) for b, (_, numeric, _) in (CONFIGS | TRAINERS).items() for name in numeric]


@settings(max_examples=400, deadline=None)
@given(case=st.sampled_from(CASES), data=st.data())
def test_hostile_numeric_settings_are_named_config_errors(case, data):
    builder, name = case
    base, numeric, _ = (CONFIGS | TRAINERS)[builder]
    value = data.draw(numeric[name], label=name)
    with pytest.raises(ConfigError) as err:
        if builder in CONFIGS:
            builder(**{**base, name: value})
        else:  # a setting among the positional arguments is passed by keyword
            args = [a for a, p in zip(base, inspect.signature(builder).parameters)
                    if p != name]
            builder(*args, **{name: value})
    assert str(err.value).startswith(f"{name} must be "), str(err.value)


# ---------------------------------------------------------------------------
# The column-wise posterior against the (n, d) broadcast form it replaced.

def _broadcast_posterior(X, weights, means, variances):
    """The posterior as one broadcast per component and axis=1 reductions."""
    n, d = X.shape
    K = means.shape[0]
    log_w = np.empty((n, K))
    for k in range(K):
        diff = X - means[k]
        log_w[:, k] = -0.5 * (
            d * np.log(2.0 * np.pi)
            + np.sum(np.log(variances[k]))
            + np.sum(diff * diff / variances[k], axis=1)
        )
    log_w += np.log(weights)
    m = log_w.max(axis=1, keepdims=True)
    p = np.exp(log_w - m)
    s = p.sum(axis=1, keepdims=True)
    return m[:, 0] + np.log(s[:, 0]), p / s


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    n=st.integers(1, 300),
    d=st.one_of(st.integers(1, 20), st.integers(127, 130)),
    K=st.integers(1, 10),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
    spread=st.sampled_from([1e-2, 1.0, 1e2]),
    seed=st.integers(0, 2**32 - 1),
)
def test_posterior_is_the_broadcast_form_bit_for_bit(n, d, K, scale, spread, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(0.0, scale, size=(n, d)) * rng.choice([1e-3, 1.0, 1e3], size=d)
    means = rng.normal(0.0, scale * spread, size=(K, d))
    variances = (scale * spread) ** 2 * rng.uniform(1e-3, 1e1, size=(K, d))
    weights = rng.dirichlet(np.ones(K))
    lse, resp = diag_gaussian_posterior(X, weights, means, variances)
    ref_lse, ref_resp = _broadcast_posterior(X, weights, means, variances)
    assert np.array_equal(lse, ref_lse)
    assert np.array_equal(resp, ref_resp)
    assert resp.flags.c_contiguous


def test_sum_columns_adds_in_numpys_row_order():
    rng = np.random.default_rng(4)
    for count in range(1, 301):
        A = rng.normal(size=(40, count)) * rng.choice([1e-8, 1.0, 1e8], size=(40, count))
        total = sum_columns((A[:, j].copy() for j in range(count)), count)
        assert total.tobytes() == np.sum(A, axis=1).tobytes(), count
    zeros = np.full((1, 9), -0.0)
    assert sum_columns((c.copy() for c in zeros.T), 9).tobytes() == zeros.sum(axis=1).tobytes()
