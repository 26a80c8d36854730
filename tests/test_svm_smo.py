import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigline.dataset import Dataset, class_order
from rigline.errors import ConfigError, ShapeError, SingleClassError
from rigline.modeldoc import model_to_text
from rigline.svm_smo import (
    CalibratedSvm,
    KernelSpec,
    SmoConfig,
    SolverState,
    calibrate_probability,
    decision_values,
    dual_objective_value,
    examine_example,
    fit_sigmoid,
    kernel_matrix,
    kkt_report,
    sigmoid_nll,
    smo_train,
    take_step,
)

LINEAR = KernelSpec(kind="linear")


def sign_rule(m, X):
    """Margin >= 0 predicts the +1 (first) class."""
    return np.where(decision_values(m, X) >= 0, m.classes[0], m.classes[1])


def tiny_two_point():
    return Dataset([("x", "")], [[1.0], [-1.0]], ["pos", "neg"])


def blobs(n_per=20, gap=3.0, seed=0, dim=2):
    rng = np.random.default_rng(seed)
    a = rng.normal(gap, 1.0, size=(n_per, dim))
    b = rng.normal(-gap, 1.0, size=(n_per, dim))
    X = np.vstack([a, b])
    labels = ["up"] * n_per + ["down"] * n_per
    perm = rng.permutation(2 * n_per)
    return Dataset([(f"f{i}", "") for i in range(dim)], X[perm], np.array(labels)[perm])


def grid_qp_oracle(X, y, C, kernel, steps=51):
    """Brute-force the dual on a grid: free multipliers on a lattice, the
    last one pinned by the equality constraint."""
    n = len(y)
    K = kernel_matrix(kernel, X, X)
    axes = [np.linspace(0.0, C, steps)] * (n - 1)
    combos = np.array(list(itertools.product(*axes))) if n > 1 else np.zeros((1, 0))
    a_last = -y[-1] * (combos @ y[:-1]) if n > 1 else np.zeros(1)
    ok = (a_last >= -1e-12) & (a_last <= C + 1e-12)
    A = np.column_stack([combos[ok], np.clip(a_last[ok], 0.0, C)])
    U = A * y
    W = A.sum(axis=1) - 0.5 * np.sum((U @ K) * U, axis=1)
    return float(W.max(initial=0.0))


def random_tiny_dataset(rng):
    n = int(rng.integers(2, 5))
    dim = int(rng.integers(1, 4))
    X = rng.normal(size=(n, dim))
    labels = np.array(["p", "m"] * n)[:n]
    if n > 2:
        extra = rng.choice(["p", "m"], size=n - 2)
        labels = np.concatenate([["p", "m"], extra])
    return Dataset([(f"f{i}", "") for i in range(dim)], X, labels)


def test_two_point_analytic_solution():
    d = tiny_two_point()
    m = smo_train(d, SmoConfig(C=1.0, kernel=LINEAR))
    assert m.converged
    assert m.classes == ["neg", "pos"]  # generic labels sort ascending
    # Both points are support vectors with alpha 0.5; bias 0; W = 0.5.
    assert len(m.alpha) == 2
    assert np.allclose(np.sort(m.alpha), [0.5, 0.5], atol=1e-9)
    assert m.b == pytest.approx(0.0, abs=1e-9)
    assert m.dual_objective == pytest.approx(0.5, abs=1e-9)
    # classes[0] = "neg" maps to +1 and sits at x = -1, so f(x) = -x.
    assert decision_values(m, np.array([[2.0]]))[0] == pytest.approx(-2.0, abs=1e-9)
    assert sign_rule(m, np.array([[2.0]]))[0] == "pos"


def test_two_point_examine_reaches_optimum_in_one_pass():
    d = tiny_two_point()
    y = np.where(d.labels == class_order(d.labels)[0], 1.0, -1.0)
    state = SolverState(d.X, y, SmoConfig(C=1.0, kernel=LINEAR))
    changed = sum(examine_example(state, i) for i in range(2))
    assert changed >= 1
    assert np.allclose(state.alpha, [0.5, 0.5], atol=1e-9)
    assert sum(examine_example(state, i) for i in range(2)) == 0


def test_dual_objective_matches_grid_oracle_small():
    rng = np.random.default_rng(7)
    for trial in range(25):
        d = random_tiny_dataset(rng)
        C = [0.1, 1.0, 10.0][trial % 3]
        kernel = LINEAR if trial % 2 == 0 else KernelSpec(kind="rbf")
        m = smo_train(d, SmoConfig(C=C, kernel=kernel))
        if not m.converged:
            continue
        oracle = grid_qp_oracle(
            d.X, np.where(d.labels == m.classes[0], 1.0, -1.0), C, m.kernel
        )
        assert m.dual_objective >= oracle - 1e-4


def test_step_invariants_box_equality_monotone_dual():
    d = blobs(n_per=15, gap=1.0, seed=3)
    w_seen = []

    def monitor(state):
        assert np.all(state.alpha >= 0.0)
        assert np.all(state.alpha <= state.cfg.C)
        assert abs(np.dot(state.alpha, state.y)) < 1e-8
        w_seen.append(
            dual_objective_value(state.X, state.y, state.alpha, state.kernel)
        )

    m = smo_train(d, SmoConfig(C=1.0, kernel=KernelSpec(kind="rbf")), step_monitor=monitor)
    assert m.converged
    assert len(w_seen) > 0
    for a, b in zip(w_seen, w_seen[1:]):
        assert b >= a - 1e-10


def test_error_cache_consistency():
    d = blobs(n_per=25, gap=1.5, seed=4)
    holder = {}

    def monitor(state):
        holder["state"] = state

    smo_train(d, SmoConfig(C=2.0, kernel=KernelSpec(kind="rbf")), step_monitor=monitor)
    state = holder["state"]
    assert state.cache_drift() < 1e-10
    # Every training point, bound or not, against a full-matrix recompute.
    K = kernel_matrix(state.kernel, state.X, state.X)
    fresh = (state.alpha * state.y) @ K + state.b - state.y
    assert np.max(np.abs(state.e_cache - fresh)) < 1e-10


@st.composite
def small_problems(draw):
    n = draw(st.integers(2, 30))
    dim = draw(st.integers(1, 3))
    values = draw(st.lists(st.floats(-3.0, 3.0), min_size=n * dim, max_size=n * dim))
    signs = draw(st.lists(st.booleans(), min_size=n - 2, max_size=n - 2))
    labels = ["p", "m"] + ["p" if s else "m" for s in signs]
    kernel = draw(st.sampled_from([LINEAR, KernelSpec(kind="rbf")]))
    C = draw(st.sampled_from([0.1, 1.0, 10.0]))
    X = np.array(values).reshape(n, dim)
    return Dataset([(f"f{i}", "") for i in range(dim)], X, labels), kernel, C


@settings(derandomize=True, deadline=None, max_examples=100)
@given(small_problems())
def test_every_step_keeps_errors_box_and_equality(problem):
    d, kernel, C = problem

    def monitor(state):
        assert state.cache_drift() <= 1e-9
        assert np.all(state.alpha >= 0.0) and np.all(state.alpha <= C)
        assert abs(np.dot(state.y, state.alpha)) <= 1e-9

    smo_train(d, SmoConfig(C=C, kernel=kernel), step_monitor=monitor)


# Feature values from a small set, so that points repeat (a pair with zero
# kernel distance takes the curvature floor) and multipliers reach C.
REPEATING = st.sampled_from([-3.0, -1.0, 0.0, 0.5, 1.0, 3.0])


@st.composite
def repeating_problems(draw):
    n = draw(st.integers(2, 12))
    dim = draw(st.integers(1, 3))
    X = np.array(draw(st.lists(REPEATING, min_size=n * dim, max_size=n * dim))).reshape(n, dim)
    signs = draw(st.lists(st.booleans(), min_size=n - 2, max_size=n - 2))
    labels = ["p", "m"] + ["p" if s else "m" for s in signs]
    kernel = draw(st.sampled_from([LINEAR, KernelSpec(kind="rbf")]))
    C = draw(st.sampled_from([0.1, 1.0, 10.0]))
    return Dataset([(f"f{i}", "") for i in range(dim)], X, labels), SmoConfig(C=C, kernel=kernel)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(repeating_problems())
def test_stopping_rule_gives_a_kkt_clean_converged_model(problem):
    # Stopping when max E over I_low minus min E over I_up is below kkt_tol
    # must leave no optimality case violated at that tolerance, also when a
    # step rounds a multiplier to just off a bound.
    d, cfg = problem
    m = smo_train(d, cfg)
    assert m.converged
    assert kkt_report(m, d, cfg.kkt_tol) == {"alpha_zero": 0, "alpha_interior": 0,
                                             "alpha_at_c": 0}


def test_take_step_degenerate_segment_returns_false():
    # Same point twice with equal labels: the diagonal segment collapses.
    d = Dataset([("x", "")], [[1.0], [1.0]], ["a", "b"])
    y = np.array([1.0, 1.0])
    state = SolverState(d.X, y, SmoConfig(C=1.0, kernel=LINEAR))
    state.alpha[:] = [0.0, 0.0]
    # Equal labels: L = max(0, a1+a2-C) = 0, H = min(C, a1+a2) = 0.
    before = state.alpha.copy()
    assert take_step(state, 0, 1) is False
    assert np.array_equal(state.alpha, before)
    assert take_step(state, 1, 1) is False


def test_examine_satisfied_point_no_mutation():
    d = blobs(n_per=10, gap=4.0, seed=5)
    m = smo_train(d, SmoConfig(C=1.0, kernel=LINEAR))
    assert m.converged
    y = np.where(d.labels == m.classes[0], 1.0, -1.0)
    state = SolverState(d.X, y, SmoConfig(C=1.0, kernel=LINEAR))
    alpha = np.zeros(d.n_rows)
    alpha[m.sv_indices] = m.alpha
    state.alpha = alpha
    state.b = m.b
    state.sync_errors()
    before = state.alpha.copy()
    for i in range(d.n_rows):
        examine_example(state, i)
    assert np.allclose(state.alpha, before, atol=1e-12)


def test_separable_margins_where_alpha_zero():
    d = blobs(n_per=30, gap=3.0, seed=6)
    cfg = SmoConfig(C=1.0, kernel=LINEAR)
    m = smo_train(d, cfg)
    assert m.converged
    y = np.where(d.labels == m.classes[0], 1.0, -1.0)
    f = decision_values(m, d.X)
    alpha = np.zeros(d.n_rows)
    alpha[m.sv_indices] = m.alpha
    zero = alpha <= 1e-8
    assert np.all(y[zero] * f[zero] >= 1.0 - cfg.kkt_tol)


def test_kkt_report_converged_perturbed_and_inf_tol():
    d = blobs(n_per=25, gap=2.0, seed=8)
    cfg = SmoConfig(C=1.0, kernel=KernelSpec(kind="rbf"), kkt_tol=1e-4)
    m = smo_train(d, cfg)
    assert m.converged
    report = kkt_report(m, d, 1e-3)
    assert report == {"alpha_zero": 0, "alpha_interior": 0, "alpha_at_c": 0}
    assert kkt_report(m, d, math.inf) == {
        "alpha_zero": 0,
        "alpha_interior": 0,
        "alpha_at_c": 0,
    }
    # Corrupting the multipliers must surface violations.
    m.alpha = np.minimum(m.alpha + 0.4, m.C)
    m.b += 0.7
    perturbed = kkt_report(m, d, cfg.kkt_tol)
    assert sum(perturbed.values()) > 0


def test_kkt_report_needs_training_set():
    d = blobs(n_per=10, gap=3.0, seed=9)
    m = smo_train(d, SmoConfig(C=1.0, kernel=LINEAR))
    with pytest.raises(ShapeError):
        kkt_report(m, d.subset(range(5)), 1e-3)


def test_decision_matches_linear_expansion():
    d = blobs(n_per=10, gap=2.0, seed=10)
    m = smo_train(d, SmoConfig(C=1.0, kernel=LINEAR))
    w = (m.alpha * m.sv_y) @ m.sv_X
    for i in range(5):
        direct = float(np.dot(w, d.X[i]) + m.b)
        assert decision_values(m, d.X[i])[0] == pytest.approx(direct, abs=1e-12)


def test_rbf_decision_far_away_tends_to_bias():
    d = blobs(n_per=10, gap=2.0, seed=11)
    m = smo_train(d, SmoConfig(C=1.0, kernel=KernelSpec(kind="rbf", gamma=0.5)))
    far = np.full((1, 2), 1e3)
    assert decision_values(m, far)[0] == pytest.approx(m.b, abs=1e-9)


def test_polynomial_kernel_value():
    spec = KernelSpec(kind="polynomial", degree=2, coef0=1.0)
    K = kernel_matrix(spec, np.array([[1.0, 2.0]]), np.array([[3.0, 0.5]]))
    assert K[0, 0] == pytest.approx((1 * 3 + 2 * 0.5 + 1.0) ** 2)


def test_kernel_and_config_validation():
    with pytest.raises(ConfigError):
        KernelSpec(kind="sigmoid")
    with pytest.raises(ConfigError):
        KernelSpec(kind="rbf", gamma=-1.0)
    with pytest.raises(ConfigError):
        SmoConfig(C=0.0)
    with pytest.raises(ConfigError):
        SmoConfig(kkt_tol=-1.0)
    nan = float("nan")
    for bad in ({"C": nan}, {"kkt_tol": nan}, {"max_steps": nan}):
        with pytest.raises(ConfigError):
            SmoConfig(**bad)
    with pytest.raises(ConfigError):
        KernelSpec(kind="rbf", gamma=nan)


@pytest.mark.parametrize("make", [
    lambda: SmoConfig(C=math.inf),
    lambda: SmoConfig(kkt_tol=math.inf),
    lambda: SmoConfig(max_steps=1.5),
    lambda: SmoConfig(max_steps=0),
    lambda: KernelSpec(kind="polynomial", degree=2.5),
    lambda: KernelSpec(degree=2.0),
    lambda: KernelSpec(kind="rbf", gamma=math.inf),
    lambda: KernelSpec(kind="polynomial", coef0=-math.inf),
    lambda: KernelSpec(coef0=float("nan")),
], ids=["C-inf", "kkt_tol-inf", "max_steps-fraction", "max_steps-0",
        "degree-fraction", "degree-float", "gamma-inf", "coef0-inf", "coef0-nan"])
def test_non_finite_and_non_integer_settings_rejected(make):
    with pytest.raises(ConfigError):
        make()


def test_single_class_and_multiclass_rejected():
    X = np.array([[1.0], [2.0]])
    with pytest.raises(SingleClassError):
        smo_train(Dataset([("x", "")], X, ["a", "a"]))
    X3 = np.array([[1.0], [2.0], [3.0]])
    with pytest.raises(ConfigError):
        smo_train(Dataset([("x", "")], X3, ["a", "b", "c"]))
    with pytest.raises(SingleClassError):
        smo_train(Dataset([("x", "")], X).without_labels())


def test_non_convergence_flag_and_model_still_usable():
    d = blobs(n_per=40, gap=0.1, seed=12)
    with pytest.warns(UserWarning, match=r"after 2 pair updates \(max_steps=2\)"):
        m = smo_train(d, SmoConfig(C=10.0, kernel=LINEAR, max_steps=2))
    assert not m.converged
    assert m.n_support() > 0
    preds = sign_rule(m, d.X)
    assert set(preds) <= {"up", "down"}


@pytest.mark.parametrize("cfg", [
    SmoConfig(C=1e-9),
    SmoConfig(kkt_tol=1e300),
    SmoConfig(C=1e-9, kernel=KernelSpec(kind="rbf")),
], ids=["tiny-C", "huge-kkt_tol", "tiny-C-rbf"])
def test_a_model_without_support_vectors_keeps_its_arity(cfg):
    # No multiplier leaves 0, so the margin is the bias on every row.
    d = blobs(n_per=20, gap=3.0, seed=5, dim=3)
    m = smo_train(d, cfg)
    assert m.n_support() == 0 and m.sv_X.shape == (0, 3) and m.arity == 3
    assert m.dual_objective == 0.0
    assert decision_values(m, d.X).tolist() == [m.b] * d.n_rows
    with pytest.raises(ShapeError, match="model expects 3 features, got 2"):
        decision_values(m, d.X[:, :2])


def test_pair_that_cannot_move_stops_the_solve_unconverged():
    # The optimum a = 2 / (2e6)^2 lies inside the snap zone, so the only
    # pair's step rounds back to 0 and every further step would repeat it.
    d = Dataset([("x", "")], [[1e6], [-1e6]], ["a", "b"])
    with pytest.warns(UserWarning, match="after 0 pair updates"):
        m = smo_train(d, SmoConfig(C=1.0, kernel=LINEAR))
    assert not m.converged


def test_every_solve_stopped_by_max_steps_warns():
    d = blobs(n_per=40, gap=0.1, seed=12)
    cfg = SmoConfig(C=10.0, kernel=LINEAR, max_steps=1)
    with pytest.warns(UserWarning, match="max_steps=1") as record:
        m = smo_train(d, cfg)
    assert len(record) == 1 and not m.converged
    # Each calibration fold is a solve of its own under the same cap.
    with pytest.warns(UserWarning, match="max_steps=1") as record:
        cal = calibrate_probability(m, d, cfg, folds=3)
    assert len(record) == 3 and not cal.fallback


def test_determinism_same_seed_same_model():
    # The solver draws nothing at random: the same input twice gives the
    # same model document, calibration folds included.
    d = blobs(n_per=30, gap=0.8, seed=13)
    cfg = SmoConfig(C=1.0, kernel=KernelSpec(kind="rbf"))
    texts = [model_to_text(calibrate_probability(smo_train(d, cfg), d, cfg)) for _ in range(2)]
    assert texts[0] == texts[1]


def test_gamma_resolution_default():
    d = blobs(n_per=5, gap=3.0, seed=14, dim=4)
    m = smo_train(d, SmoConfig(kernel=KernelSpec(kind="rbf")))
    assert m.kernel.gamma == pytest.approx(0.25)


# ---------------------------------------------------------------------------
# Calibration

def test_calibration_monotone_and_perfect_separation():
    d = blobs(n_per=25, gap=4.0, seed=15)
    cfg = SmoConfig(C=1.0, kernel=LINEAR)
    m = smo_train(d, cfg)
    cal = calibrate_probability(m, d, cfg)
    assert not cal.fallback
    f = decision_values(m, d.X)
    p = cal.predict_proba(d.X)[:, 0]
    order = np.argsort(f)
    assert np.all(np.diff(p[order]) >= -1e-12)
    # Separable data: every positive-class margin outranks every negative.
    y = np.where(d.labels == m.classes[0], 1, -1)
    assert p[y == 1].min() > p[y == -1].max()
    # predict keeps the margin sign rule
    assert list(cal.predict(d.X)) == list(sign_rule(m, d.X))


def test_sigmoid_fit_beats_grid_oracle():
    rng = np.random.default_rng(16)
    f = np.concatenate([rng.normal(1.2, 1.0, 25), rng.normal(-1.0, 1.0, 25)])
    t = np.concatenate([np.full(25, 26 / 27), np.full(25, 1 / 27)])
    A, B = fit_sigmoid(f, t)
    nll_fit = sigmoid_nll(A, B, f, t)
    grid_a = np.linspace(-20.0, 5.0, 251)
    grid_b = np.linspace(-10.0, 10.0, 201)
    best = min(
        sigmoid_nll(a, b, f, t) for a in grid_a for b in grid_b
    )
    assert nll_fit <= best + 1e-3


def test_calibration_fallback_tiny_minority():
    X = np.vstack([np.random.default_rng(17).normal(size=(9, 2)), [[9.0, 9.0]]])
    d = Dataset([("a", ""), ("b", "")], X, ["n"] * 9 + ["p"])
    cfg = SmoConfig(C=1.0, kernel=LINEAR)
    m = smo_train(d, cfg)
    with pytest.warns(UserWarning, match="hard 0/1 probabilities: rarest class has 1 rows"):
        cal = calibrate_probability(m, d, cfg)
    assert cal.fallback
    p = cal.predict_proba(d.X)
    assert set(np.unique(p)) <= {0.0, 1.0}


@pytest.mark.parametrize("folds", [1, 0])
def test_calibration_rejects_fewer_than_two_folds(folds):
    d = blobs(n_per=10, gap=3.0, seed=17)
    cfg = SmoConfig(C=1.0, kernel=LINEAR)
    m = smo_train(d, cfg)
    with pytest.raises(ConfigError, match="folds must be an integer >= 2"):
        calibrate_probability(m, d, cfg, folds=folds)


@pytest.mark.parametrize("folds", [2.5, 3.0, "3"])
def test_calibration_rejects_non_integer_folds(folds):
    d = blobs(n_per=10, gap=3.0, seed=17)
    cfg = SmoConfig(C=1.0, kernel=LINEAR)
    m = smo_train(d, cfg)
    with pytest.raises(ConfigError, match="folds must be an integer"):
        calibrate_probability(m, d, cfg, folds=folds)


def test_calibrated_probabilities_shape_and_sum():
    d = blobs(n_per=15, gap=1.0, seed=18)
    cfg = SmoConfig(C=1.0, kernel=KernelSpec(kind="rbf"))
    m = smo_train(d, cfg)
    cal = calibrate_probability(m, d, cfg)
    P = cal.predict_proba(d.X)
    assert P.shape == (d.n_rows, 2)
    assert np.allclose(P.sum(axis=1), 1.0)
    single = cal.predict_proba(d.X[0])
    assert single.shape == (2,)
