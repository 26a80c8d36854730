import hashlib

import numpy as np
import pytest

from rigline.dataset import (
    CLASS_FAILURE,
    CLASS_NORMAL,
    Dataset,
    SyntheticGenConfig,
    generate_synthetic,
)
from rigline.errors import ConfigError, ParseError, ShapeError
from rigline.labeling_em import (
    GaussianMixtureModel,
    em_assign_labels,
    em_fit,
    em_loglik,
    em_responsibilities,
)
from rigline.modeldoc import load_model, model_to_text, save_model


def two_blob_dataset(seed=0, n_a=300, n_b=60, sep=6.0):
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 1.0, size=(n_a, 2))
    b = rng.normal(sep, 1.0, size=(n_b, 2))
    X = np.vstack([a, b])[rng.permutation(n_a + n_b)]
    return Dataset([("x", ""), ("y", "")], X)


def test_loglik_matches_direct_sum():
    # Oracle: evaluate the mixture density pointwise with plain float math.
    d = two_blob_dataset(seed=1, n_a=20, n_b=10)
    gmm = em_fit(d, 2, seed=0, max_iter=5)
    direct = 0.0
    for x in d.X:
        p = 0.0
        for k in range(2):
            q = gmm.weights[k]
            for j in range(2):
                var = gmm.variances[k][j]
                q *= np.exp(-0.5 * (x[j] - gmm.means[k][j]) ** 2 / var) / np.sqrt(
                    2 * np.pi * var
                )
            p += q
        direct += np.log(p)
    assert em_loglik(gmm, d) == pytest.approx(direct, rel=1e-12)


def test_loglik_trace_monotone():
    for seed in range(10):
        d = two_blob_dataset(seed=seed)
        gmm = em_fit(d, 2, seed=seed)
        t = gmm.loglik_trace
        assert len(t) >= 2
        for a, b in zip(t, t[1:]):
            assert b >= a - 1e-9
        assert gmm.loglik_trace[-1] == pytest.approx(em_loglik(gmm, d), rel=1e-12)


def test_single_component_recovers_moments():
    rng = np.random.default_rng(7)
    X = rng.normal([3.0, -1.0, 10.0], [2.0, 0.5, 4.0], size=(500, 3))
    d = Dataset([("a", ""), ("b", ""), ("c", "")], X)
    gmm = em_fit(d, 1, seed=0)
    assert np.allclose(gmm.means[0], X.mean(axis=0), atol=1e-10)
    assert np.allclose(gmm.variances[0], X.var(axis=0), atol=1e-10)
    assert gmm.weights[0] == pytest.approx(1.0)


def test_two_cluster_labeling_majority_is_normal():
    d = two_blob_dataset(seed=3, n_a=400, n_b=80)
    gmm = em_fit(d, 2, seed=0)
    labeled = em_assign_labels(d, gmm)
    counts = {c: int(np.sum(labeled.labels == c)) for c in set(labeled.labels)}
    assert counts[CLASS_NORMAL] > counts[CLASS_FAILURE]
    # Blobs are far apart, so the split matches the true generator closely.
    assert abs(counts[CLASS_FAILURE] - 80) <= 4


def test_labeling_is_idempotent_and_replaces_labels():
    d = two_blob_dataset(seed=4)
    gmm = em_fit(d, 2, seed=0)
    once = em_assign_labels(d, gmm)
    twice = em_assign_labels(once, gmm)
    assert np.array_equal(once.labels, twice.labels)


def test_labeling_requires_two_components():
    d = two_blob_dataset(seed=5, n_a=30, n_b=10)
    gmm = em_fit(d, 3, seed=0, max_iter=20)
    with pytest.raises(ConfigError):
        em_assign_labels(d, gmm)


def test_arity_mismatch_raises():
    d = two_blob_dataset(seed=6, n_a=20, n_b=10)
    gmm = em_fit(d, 2, seed=0, max_iter=5)
    other = Dataset([("x", "")], np.zeros((4, 1)))
    with pytest.raises(ShapeError):
        em_loglik(gmm, other)
    with pytest.raises(ShapeError):
        em_assign_labels(other, gmm)


def test_more_components_than_rows_rejected():
    d = Dataset([("x", "")], [[1.0], [2.0]])
    with pytest.raises(ConfigError):
        em_fit(d, 3)


@pytest.mark.parametrize("kwargs", [{"max_iter": 0}, {"max_iter": -3}, {"tol": -1.0},
                                    {"tol": float("nan")}])
def test_iteration_settings_out_of_range_rejected(kwargs):
    with pytest.raises(ConfigError):
        em_fit(two_blob_dataset(seed=8), 2, **kwargs)


def test_fit_determinism():
    d = two_blob_dataset(seed=8)
    g1 = em_fit(d, 2, seed=11)
    g2 = em_fit(d, 2, seed=11)
    assert np.array_equal(g1.means, g2.means)
    assert np.array_equal(g1.variances, g2.variances)
    assert g1.loglik_trace == g2.loglik_trace


def test_a_collapsed_component_is_reseeded_once_and_the_fit_converges():
    # One far row takes a component of its own, another starves and is
    # restarted at a random row; the fit then converges.
    X = np.array([[333.8, -0.5, 0.1], [-414.9, -0.7, 0.4], [633.9, 0.9, 0.5],
                  [3339.9, 1.4, -0.1], [619.0, 100.1, 100.4], [-1799.6, 1.0, -0.1],
                  [341.7, 0.0, -1.2], [835.0, 0.8, 0.6]])
    d = Dataset([("a", ""), ("b", ""), ("c", "")], X)
    with pytest.warns(UserWarning, match="reseeded") as record:
        gmm = em_fit(d, 4, seed=2, max_iter=50)
    note = "iter 5: reseeded collapsed component 3"
    assert [str(w.message) for w in record] == [note]
    assert gmm.notes == [note]
    assert gmm.converged and gmm.n_iter == 12 and len(gmm.loglik_trace) == gmm.n_iter
    # The fitted mixture's document, pinned byte for byte.
    assert hashlib.sha256(model_to_text(gmm).encode()).hexdigest() == (
        "e395b60d6cbcc6fe10029fc54897bedc1ef655738a27f2fd22cc123d33288950")


def test_duplicate_rows_hit_variance_floor_not_nan():
    X = np.array([[1.0, 2.0]] * 40 + [[5.0, 6.0]] * 10)
    d = Dataset([("x", ""), ("y", "")], X)
    gmm = em_fit(d, 2, seed=0)
    assert np.all(np.isfinite(gmm.means))
    assert np.all(gmm.variances > 0)
    labeled = em_assign_labels(d, gmm)
    assert int(np.sum(labeled.labels == CLASS_NORMAL)) == 40


def test_synthetic_pipeline_recovers_minority_fraction():
    cfg = SyntheticGenConfig(row_count=2000, seed=9, failure_shift_sigma=3.0)
    truth = generate_synthetic(cfg)
    unlabeled = truth.without_labels()
    gmm = em_fit(unlabeled, 2, seed=1)
    labeled = em_assign_labels(unlabeled, gmm)
    frac = np.mean(labeled.labels == CLASS_FAILURE)
    assert 0.08 <= frac <= 0.18
    agreement = np.mean(labeled.labels == truth.labels)
    assert agreement >= 0.95


def test_gmm_save_load_round_trip(tmp_path):
    d = two_blob_dataset(seed=10)
    gmm = em_fit(d, 2, seed=2)
    p = tmp_path / "gmm.txt"
    save_model(gmm, str(p))
    back = load_model(str(p))
    assert np.array_equal(back.weights, gmm.weights)
    assert np.array_equal(back.means, gmm.means)
    assert np.array_equal(back.variances, gmm.variances)
    assert back.converged == gmm.converged
    assert back.loglik_trace == gmm.loglik_trace
    assert em_loglik(back, d) == em_loglik(gmm, d)


def test_load_gmm_rejects_other_files(tmp_path):
    p = tmp_path / "junk.txt"
    p.write_text("model tree\n")
    with pytest.raises(ParseError):
        load_model(str(p))


def test_well_separated_components_recovered():
    rng = np.random.default_rng(21)
    a = rng.normal(0.0, 0.5, size=(250, 1))
    b = rng.normal(10.0, 0.5, size=(250, 1))
    X = np.vstack([a, b])[rng.permutation(500)]
    d = Dataset([("x", "")], X)
    gmm = em_fit(d, 2, seed=0)
    centers = sorted(float(m[0]) for m in gmm.means)
    assert abs(centers[0] - 0.0) < 0.2
    assert abs(centers[1] - 10.0) < 0.2
    # At this separation every point belongs to one component almost surely.
    r = em_responsibilities(gmm, d)
    assert np.all(r.max(axis=1) > 0.99)


def test_single_point_loglik_closed_form():
    # Unit-variance component centered on the lone observation: the density
    # at the mean is (2*pi)^(-dim/2), so the log-likelihood is -dim/2*log(2*pi).
    for dim in (1, 2, 3):
        gmm = GaussianMixtureModel(
            weights=np.array([1.0]),
            means=np.zeros((1, dim)),
            variances=np.ones((1, dim)),
        )
        d = Dataset([(f"c{j}", "") for j in range(dim)], np.zeros((1, dim)))
        expect = -0.5 * dim * np.log(2 * np.pi)
        assert em_loglik(gmm, d) == pytest.approx(expect, abs=1e-12)


def test_responsibilities_are_a_proper_posterior():
    d = two_blob_dataset(seed=22, n_a=80, n_b=40)
    gmm = em_fit(d, 2, seed=3)
    r = em_responsibilities(gmm, d)
    assert r.shape == (120, 2)
    assert np.all(r >= 0.0)
    assert np.all(r <= 1.0)
    assert np.allclose(r.sum(axis=1), 1.0, atol=1e-9)
    other = Dataset([("x", "")], np.zeros((3, 1)))
    with pytest.raises(ShapeError):
        em_responsibilities(gmm, other)


def test_labels_invariant_under_component_swap():
    d = two_blob_dataset(seed=23)
    gmm = em_fit(d, 2, seed=0)
    swapped = GaussianMixtureModel(
        weights=gmm.weights[::-1].copy(),
        means=gmm.means[::-1].copy(),
        variances=gmm.variances[::-1].copy(),
    )
    a = em_assign_labels(d, gmm)
    b = em_assign_labels(d, swapped)
    assert np.array_equal(a.labels, b.labels)
