"""Acceptance suite: eleven end-to-end checks over the whole package.

Each test prints a single "criterion N: PASS/FAIL (...)" verdict line with
the measured numbers (visible under pytest -s, or on failure). Tolerances
are pinned in the assertions, not computed.
"""

import itertools
import time

import numpy as np
import pytest

from rigline.baseline_learners import best_split, mlp_loss_grad
from rigline.cli import MASTER_SEED_DEFAULT, main as cli_main
from rigline.dataset import (
    Dataset,
    Standardizer,
    SyntheticGenConfig,
    generate_synthetic,
    split_train_test,
)
from rigline.evaluation import evaluate, roc_auc
from rigline.imbalance import SmoteConfig, smote, undersample
from rigline.labeling_em import em_fit
from rigline.stacking import StackMemo, train_learner
from rigline.svm_smo import (
    KernelSpec,
    SmoConfig,
    dual_objective_value,
    kernel_matrix,
    kkt_report,
    resolve_kernel,
    smo_train,
)
from rigline.util import derive_seed


def verdict(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


# ---------------------------------------------------------------------------
# Shared small-problem solver runs (criteria 1 and 2)

def grid_qp_oracle(X, y, C, kernel, steps=51):
    """Brute-force the dual on a lattice: free multipliers on a grid, the
    last one pinned by the equality constraint, infeasible rows dropped."""
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


def random_small_dataset(rng):
    n = int(rng.integers(2, 5))
    dim = int(rng.integers(1, 4))
    X = rng.normal(size=(n, dim))
    labels = np.array(["p", "m"] * n)[:n].copy()
    if n > 2:
        labels[2:] = rng.choice(["p", "m"], size=n - 2)
    return Dataset([(f"f{i}", "") for i in range(dim)], X, labels)


@pytest.fixture(scope="module")
def solved_small_cases():
    """200 tiny problems solved to tight KKT, with per-step constraint audits
    and the lattice-oracle objective for each."""
    rng = np.random.default_rng(101)
    cases = []
    t0 = time.time()
    for trial in range(200):
        d = random_small_dataset(rng)
        C = [0.1, 1.0, 10.0][trial % 3]
        kernel = KernelSpec(kind="linear") if trial % 2 else KernelSpec(kind="rbf")
        cfg = SmoConfig(C=C, kkt_tol=1e-5, kernel=kernel)
        steps = []

        def watch(state):
            box = float(np.max(np.maximum(-state.alpha, state.alpha - C)))
            eq = abs(float(np.dot(state.alpha, state.y)))
            steps.append((box, eq))

        m = smo_train(d, cfg, step_monitor=watch)
        w_oracle = grid_qp_oracle(
            d.X,
            np.where(d.labels == m.classes[0], 1.0, -1.0),
            C,
            resolve_kernel(kernel, d.arity),
        )
        cases.append((d, m, w_oracle, steps))
    return cases, time.time() - t0


def test_criterion_1_smo_beats_lattice_oracle(solved_small_cases):
    cases, elapsed = solved_small_cases
    worst_gap = min(m.dual_objective - w for _, m, w, _ in cases)
    box = max(max((b for b, _ in steps), default=0.0) for *_, steps in cases)
    eq = max(max((e for _, e in steps), default=0.0) for *_, steps in cases)
    n_steps = sum(len(steps) for *_, steps in cases)
    ok = (
        all(m.converged for _, m, _, _ in cases)
        and worst_gap >= -1e-4
        and box <= 1e-12
        and eq <= 1e-9
        and n_steps > 0
        and elapsed < 30.0
    )
    verdict(
        1,
        ok,
        f"200 cases, worst objective gap {worst_gap:+.2e}, "
        f"box excess {box:.1e}, |sum(y*alpha)| {eq:.1e}, {elapsed:.1f}s",
    )


def test_criterion_2_kkt_clean_at_convergence(solved_small_cases):
    cases, _ = solved_small_cases
    small = sum(sum(kkt_report(m, d, tol=1e-3).values()) for d, m, _, _ in cases)

    d = generate_synthetic(SyntheticGenConfig(row_count=500, seed=3))
    scaler = Standardizer()
    ds = Dataset(d.schema, scaler.fit_transform(d.X), d.labels)
    m = smo_train(ds, SmoConfig(kkt_tol=1e-4))
    big = sum(kkt_report(m, ds, tol=1e-3).values())
    ok = small == 0 and big == 0 and m.converged
    verdict(2, ok, f"violations at tol 1e-3: {small} over 200 small, {big} on 500 rows")


def test_criterion_3_two_point_closed_form():
    d = Dataset([("x", "")], [[1.0], [-1.0]], ["pos", "neg"])
    m = smo_train(d, SmoConfig(C=1.0, kernel=KernelSpec(kind="linear")))
    da = float(np.max(np.abs(np.asarray(m.alpha) - 0.5)))
    ok = (
        len(m.alpha) == 2
        and da <= 1e-9
        and abs(m.b) <= 1e-9
        and abs(m.dual_objective - 0.5) <= 1e-9
    )
    verdict(3, ok, f"alpha off by {da:.1e}, b {m.b:+.1e}, W {m.dual_objective:.12f}")


def test_criterion_4_em_monotone_and_single_component_moments():
    worst = np.inf
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(30, 81))
        dim = int(rng.integers(1, 5))
        X = rng.normal(size=(n, dim)) * rng.uniform(0.5, 3.0) + rng.normal(size=dim)
        d = Dataset([(f"f{i}", "") for i in range(dim)], X, None)
        gmm = em_fit(d, 1 + seed % 3, seed=seed)
        diffs = np.diff(gmm.loglik_trace)
        if len(diffs):
            worst = min(worst, float(diffs.min()))

    moment_err = 0.0
    for seed in range(10):
        rng = np.random.default_rng(7000 + seed)
        X = rng.normal(size=(40, 2)) * 2.0 + 5.0
        d = Dataset([("a", ""), ("b", "")], X, None)
        gmm = em_fit(d, 1, seed=seed)
        moment_err = max(
            moment_err,
            float(np.max(np.abs(gmm.means[0] - X.mean(axis=0)))),
            float(np.max(np.abs(gmm.variances[0] - X.var(axis=0)))),
            abs(float(gmm.weights[0]) - 1.0),
        )
    ok = worst >= -1e-9 and moment_err <= 1e-10
    verdict(4, ok, f"worst loglik step {worst:+.2e}, K=1 moment error {moment_err:.2e}")


def test_criterion_5_smote_segments_and_count_contracts():
    rng = np.random.default_rng(42)
    n_min, n_maj = 50, 10050
    X = np.vstack(
        [rng.normal(3.0, 1.0, size=(n_min, 3)), rng.normal(0.0, 1.0, size=(n_maj, 3))]
    )
    labels = np.array(["fail"] * n_min + ["norm"] * n_maj)
    d = Dataset([("a", ""), ("b", ""), ("c", "")], X, labels)

    out = smote(d, SmoteConfig(k_neighbors=5, target_ratio=1.0, seed=11))
    synth = out.X[d.n_rows :]
    n_synth = len(synth)
    assert np.all(out.labels[d.n_rows :] == "fail")

    # Distance from each synthetic point to the nearest original minority
    # segment; SMOTE interpolates, so this should be pure float noise.
    P = X[:n_min]
    ii, jj = np.triu_indices(n_min, k=1)
    seg_p, seg_d = P[ii], P[jj] - P[ii]
    seg_len2 = np.maximum(np.sum(seg_d * seg_d, axis=1), 1e-300)
    worst = 0.0
    for lo in range(0, n_synth, 256):
        S = synth[lo : lo + 256]
        diff = S[:, None, :] - seg_p[None, :, :]
        t = np.clip(np.einsum("spk,pk->sp", diff, seg_d) / seg_len2, 0.0, 1.0)
        resid = diff - t[:, :, None] * seg_d[None, :, :]
        dist = np.sqrt(np.sum(resid * resid, axis=2)).min(axis=1)
        worst = max(worst, float(dist.max()))

    def counts(ds):
        return {c: int(np.sum(ds.labels == c)) for c in ("fail", "norm")}

    c1 = counts(out)
    half = counts(smote(d, SmoteConfig(k_neighbors=5, target_ratio=0.6, seed=11)))
    under = counts(undersample(d, seed=9))
    ok = (
        n_synth >= 10000
        and worst <= 1e-9
        and abs(c1["fail"] - c1["norm"]) <= 1
        and abs(half["fail"] - round(0.6 * n_maj)) <= 1
        and under["fail"] == under["norm"] == n_min
    )
    verdict(
        5,
        ok,
        f"{n_synth} synthetic points, max segment distance {worst:.1e}, "
        f"balanced {c1['fail']}/{c1['norm']}, undersampled {under['fail']}/{under['norm']}",
    )


def test_criterion_6_auc_matches_pairwise_definition():
    worst = 0.0
    for trial in range(1000):
        rng = np.random.default_rng(trial)
        n = int(rng.integers(2, 101))
        labels = rng.choice([-1, 1], size=n)
        if len(set(labels)) < 2:
            labels[0], labels[1] = 1, -1
        if trial % 3 == 0:
            scores = rng.integers(0, 5, size=n) / 4.0  # force ties
        else:
            scores = rng.normal(size=n)
        pos, neg = scores[labels > 0], scores[labels < 0]
        cmp = np.subtract.outer(pos, neg)
        brute = float(((cmp > 0).sum() + 0.5 * (cmp == 0).sum()) / cmp.size)
        worst = max(worst, abs(roc_auc(zip(scores, labels)) - brute))

    perfect = roc_auc([(0.9, 1), (0.8, 1), (0.2, -1), (0.1, -1)])
    three_q = roc_auc([(0.8, 1), (0.6, -1), (0.4, 1), (0.2, -1)])
    coin = roc_auc([(0.5, 1), (0.5, -1), (0.5, 1), (0.5, -1)])
    ok = worst <= 1e-12 and perfect == 1.0 and three_q == 0.75 and coin == 0.5
    verdict(
        6,
        ok,
        f"max |rank - pairwise| {worst:.1e} over 1000 sets, "
        f"hand cases {perfect}/{three_q}/{coin}",
    )


def test_criterion_7_mlp_gradients_match_finite_differences():
    worst = 0.0
    h = 1e-5
    for trial in range(100):
        rng = np.random.default_rng(500 + trial)
        dim = 2 + trial % 2
        hidden = 3 + trial % 2
        K = 2 + trial % 2
        n = 8
        X = rng.normal(size=(n, dim))
        Y = np.zeros((n, K))
        Y[np.arange(n), rng.integers(0, K, size=n)] = 1.0
        size = dim * hidden + hidden + hidden * K + K
        params = rng.normal(size=size) * 0.5
        _, grad = mlp_loss_grad(params, X, Y, hidden)
        fd = np.empty_like(grad)
        for i in range(size):
            step = np.zeros(size)
            step[i] = h
            up, _ = mlp_loss_grad(params + step, X, Y, hidden)
            dn, _ = mlp_loss_grad(params - step, X, Y, hidden)
            fd[i] = (up - dn) / (2 * h)
        rel = float(
            np.linalg.norm(grad - fd)
            / (np.linalg.norm(grad) + np.linalg.norm(fd) + 1e-12)
        )
        worst = max(worst, rel)
    ok = worst < 1e-4
    verdict(7, ok, f"max relative gradient error {worst:.2e} over 100 points")


def exhaustive_root_split(X, y, K):
    """Independent enumeration of every (feature, midpoint) Gini split."""

    def gini(counts):
        t = counts.sum()
        if t == 0:
            return 0.0
        p = counts / t
        return 1.0 - float(np.sum(p * p))

    n, dim = X.shape
    total = np.bincount(y, minlength=K).astype(float)
    parent = gini(total)
    best = None
    for f in range(dim):
        vals = np.unique(X[:, f])
        for a, b in zip(vals[:-1], vals[1:]):
            thr = float(0.5 * (a + b))
            mask = X[:, f] <= thr
            lc = np.bincount(y[mask], minlength=K).astype(float)
            rc = total - lc
            n_left = int(mask.sum())
            w = (n_left * gini(lc) + (n - n_left) * gini(rc)) / n
            gain = float(parent - w)
            if gain > 1e-12 and (best is None or gain > best[2] + 1e-12):
                best = (f, thr, gain)
    return best


def test_criterion_8_cart_root_split_matches_enumeration():
    agree = 0
    for trial in range(50):
        rng = np.random.default_rng(300 + trial)
        n = int(rng.integers(4, 21))
        dim = int(rng.integers(1, 5))
        if trial % 2:
            X = rng.integers(0, 4, size=(n, dim)).astype(float)  # tied values
        else:
            X = rng.normal(size=(n, dim))
        y = rng.integers(0, 2, size=n)
        y[:2] = [0, 1]
        mine = best_split(X, y, 2, list(range(dim)), min_leaf=1)
        oracle = exhaustive_root_split(X, y, 2)
        if mine is None or oracle is None:
            assert mine is None and oracle is None
        else:
            assert mine[0] == oracle[0] and mine[1] == oracle[1]
            assert mine[2] == pytest.approx(oracle[2], abs=1e-9)
        agree += 1
    verdict(8, agree == 50, f"{agree}/50 root splits match the enumeration")


# ---------------------------------------------------------------------------
# Pipeline-scale checks (criteria 9 and 10) share one 5,000-row build.

@pytest.fixture(scope="module")
def pipeline_reports():
    master = MASTER_SEED_DEFAULT
    d = generate_synthetic(SyntheticGenConfig(row_count=5000, seed=master + 1))
    train, test = split_train_test(d, 0.66, seed=master + 3)

    t0 = time.time()
    memo = StackMemo(train, master)  # as run and grid train every model
    rep_smo = evaluate(memo.model("smo"), test)
    rep_stack = evaluate(memo.model("model3"), test)
    elapsed = time.time() - t0

    balanced = undersample(train, seed=master + 4)
    smo_under = train_learner("smo", balanced, seed=derive_seed(master, "train", "smo"))
    rep_under = evaluate(smo_under, test)
    return rep_smo, rep_stack, rep_under, elapsed


def test_criterion_9_stack_tops_calibrated_svm(pipeline_reports):
    rep_smo, rep_stack, _, elapsed = pipeline_reports
    gap = rep_stack.roc_auc - rep_smo.roc_auc
    ok = gap >= -0.005 and gap > 0.0 and elapsed < 300.0
    verdict(
        9,
        ok,
        f"stack AUC {rep_stack.roc_auc:.6f} vs svm {rep_smo.roc_auc:.6f} "
        f"(gap {gap:+.6f}), {elapsed:.0f}s",
    )


def test_criterion_10_undersampling_cuts_false_positives(pipeline_reports):
    rep_smo, _, rep_under, _ = pipeline_reports
    ok = rep_under.fp_rate < rep_smo.fp_rate
    verdict(
        10,
        ok,
        f"weighted FP rate {rep_under.fp_rate:.4f} undersampled "
        f"vs {rep_smo.fp_rate:.4f} plain",
    )


def test_criterion_11_grid_rerun_is_byte_identical(tmp_path):
    dirs = []
    for tag in ("a", "b"):
        out = tmp_path / f"grid_{tag}"
        rc = cli_main(
            ["grid", "--synthetic", "rows=400", "--seed", "5", "--out", str(out)]
        )
        assert rc == 0
        dirs.append(out)
    names = sorted(p.name for p in dirs[0].glob("*.csv"))
    assert names == sorted(p.name for p in dirs[1].glob("*.csv"))
    assert len(names) >= 5
    same = all(
        (dirs[0] / n).read_bytes() == (dirs[1] / n).read_bytes() for n in names
    )
    verdict(11, same, f"{len(names)} CSVs byte-identical across reruns")
