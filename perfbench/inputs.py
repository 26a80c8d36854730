"""Workload inputs, written from the workload seed by the benchmark itself.

The columns follow the rig sensor statistics (per-column mean and sample
standard deviation of real readings); the failure class drifts upward by two
standard deviations on the pressure and gas columns. The generator lives
here rather than in the program so that a change to the program's own
synthetic generator cannot change what the benchmark measures.
"""

import csv
import datetime
import statistics

import numpy as np

# (header, mean, stddev) per feature column.
RIG_COLUMNS = (
    ("Operating Temperature (in Deg.)", 95.60526315789475, 3.1535647702614127),
    ("Operating Pressure (in psi)", 77.23736842105262, 1.8394136810566781),
    ("Working Pressure (in psi)", 77.95157894736842, 1.677512255818434),
    ("Gas Detector (in PPM)", 9.98421052631579, 0.26721434986154824),
    ("Flow Rate (in cc/min)", 362.89473684210526, 20.335777822574745),
)
SHIFTED = (1, 2, 3)
SHIFT_SIGMA = 2.0
FIRST_SERIAL = 1048576
EXPORT_START = datetime.datetime(2014, 2, 8)


def stratified_normal(rng, n: int, mu: float, sd: float):
    """n normal draws, one from each of n equal-probability strata, in random
    order (a Latin hypercube sample of one column). The seed moves each value
    within its stratum and decides how columns pair up, but not how much of
    the sample lies in the tails."""
    inv_cdf = statistics.NormalDist(mu, sd).inv_cdf
    u = (rng.permutation(n) + rng.random(n)) / n
    return np.array([inv_cdf(p) for p in u.tolist()])


def draw_rows(rows: int, failure_fraction: float, seed: int):
    """(X, labels): exact class counts, rows shuffled, deterministic in seed.
    Each class's columns are stratified draws, so how far the classes
    overlap, and with it how deep a tree grows, varies little from seed to
    seed."""
    rng = np.random.default_rng(seed)
    n_fail = int(round(rows * failure_fraction))
    n_norm = rows - n_fail
    X = np.empty((rows, len(RIG_COLUMNS)))
    for j, (_, mu, sd) in enumerate(RIG_COLUMNS):
        shift = SHIFT_SIGMA * sd if j in SHIFTED else 0.0
        X[:n_norm, j] = stratified_normal(rng, n_norm, mu, sd)
        X[n_norm:, j] = stratified_normal(rng, n_fail, mu + shift, sd)
    labels = np.array(["normal"] * n_norm + ["failure"] * n_fail)
    perm = rng.permutation(rows)
    return X[perm], labels[perm]


def _timestamp(minute: int) -> str:
    """'M/D/YYYY H:MM', the given number of minutes after 2/8/2014 0:00."""
    t = EXPORT_START + datetime.timedelta(minutes=minute)
    return f"{t.month}/{t.day}/{t.year} {t.hour}:{t.minute:02d}"


def write_labeled(path: str, rows: int, failure_fraction: float, seed: int) -> None:
    X, labels = draw_rows(rows, failure_fraction, seed)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow([c[0] for c in RIG_COLUMNS] + ["class"])
        for x, label in zip(X.tolist(), labels.tolist()):
            w.writerow([repr(v) for v in x] + [label])


def write_export(path: str, rows: int, failure_fraction: float, seed: int) -> None:
    """Unlabeled sensor export with leading serial-number and timestamp columns."""
    X, _ = draw_rows(rows, failure_fraction, seed)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["S No.", "Time Stamp"] + [c[0] for c in RIG_COLUMNS])
        for i, x in enumerate(X.tolist()):
            w.writerow([FIRST_SERIAL + i, _timestamp(i // 4)] + [repr(v) for v in x])
