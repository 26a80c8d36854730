"""rigline benchmark: one command per workload run, checked outputs, one
JSON result line.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 45 --trace 0

Run from the root of a rigline checkout. The workload's input tables are
written from the workload seed before timing starts. A repetition runs the
workload's CLI commands on one table, in a fresh single-threaded
interpreter; repetitions cycle through the tables until every table has run
once and --seconds have passed. Every repetition's outputs are checked and
must be byte-identical to the first repetition's on the same table.

--trace 0 reports the end-to-end metrics (medians over repetitions);
--trace 1 runs the first table untraced and twice traced and every other
table once traced, and reports the per-layer metrics. The last line of
standard output is the result object; the lines before it are a readable
summary and the environment record. A failed check makes the exit status 1.
"""

import argparse
import collections
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import tracer  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

# setup_s interpreters: SETUP_FIRST before the first repetition (after one
# untimed warm-up that leaves compiled bytecode behind), SETUP_EACH after
# every repetition, so that its median spans the same minute as wall_s.
SETUP_FIRST = 5
SETUP_EACH = 2
REP_TIMEOUT_S = 120
MEASURES = ("TP Rate", "FP Rate", "Precision", "Recall", "F-Measure", "ROC")
LEARNERS = ("nb", "tree", "rf", "part", "mlp", "smo")

# Workload processes get one BLAS and OpenMP thread, so a run measures the
# program rather than how many cores a thread pool finds.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
SETUP_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import rigline.cli\n"
    "rigline.cli.build_parser()\n"
    "print(repr(time.perf_counter() - t))\n"
)


def table_commands(name: str, data: str, out: str, seed: str):
    """CLI argument lists for one input table, with paths relative to the
    repetition's output directory."""
    if name == "grid":
        return [["grid", "--data", data, "--seed", seed, "--out", f"{out}/grid"]]
    if name == "paper":
        return [
            ["run", "--data", data, "--learner", "smo", "--seed", seed, "--out", f"{out}/smo"],
            ["run", "--data", data, "--stack", "model3", "--seed", seed,
             "--out", f"{out}/model3"],
        ]
    return [
        ["label", "--data", data, "--out", f"{out}/labeled.csv", "--seed", seed],
        ["sample", "--data", f"{out}/labeled.csv", "--sample", "smote",
         "--out", f"{out}/sampled.csv", "--seed", seed],
        ["train", "--data", f"{out}/sampled.csv", "--learner", "nb",
         "--out", f"{out}/model.txt", "--seed", seed],
        ["evaluate", "--model", f"{out}/model.txt", "--data", f"{out}/labeled.csv",
         "--out", f"{out}/report.csv", "--detail", f"{out}/detail.txt"],
    ]


@dataclass(frozen=True)
class Workload:
    rows: int  # per input table
    failure_fraction: float
    labeled: bool  # False: an unlabeled export with serial/timestamp columns
    tables: int  # independent input tables; a repetition runs one of them
    models: int  # models trained and scored per table

    def commands(self, name: str, seed: int, k: int):
        """Argument lists for a repetition on table k; each table gets its
        own program seed, derived from the workload seed."""
        return table_commands(name, f"../input{k}.csv", f"t{k}", str(program_seed(seed, k)))


# Sizes are scaled down from the 400-row grid and the 5,000-row pipeline so
# that one repetition takes seconds; see README.md for why each was chosen.
WORKLOADS = {
    # 29 models per table: 6 learners x 4 regimes plus model1..model5. Tree
    # growth still varies by about a third between tables of stratified
    # draws, so a run covers six tables and reports the median table. 30% of
    # the rows are failures so that the SMOTE regime's training split keeps
    # more minority rows than its k=5 neighbours (at least 6 in 4,000 tables
    # checked; at the rig's 13% some tables keep 5 or fewer and that cell
    # fails).
    "grid": Workload(rows=60, failure_fraction=0.3, labeled=True, tables=6, models=29),
    # A per-layer diagnostic, not in BENCHMARK.json (see README.md): SMO
    # dominates, but its work is heavy-tailed, since a solve that runs into
    # its pass cap costs several times the median table. Twelve small tables
    # keep SMO the largest layer.
    "paper": Workload(rows=200, failure_fraction=0.13, labeled=True, tables=12, models=2),
    "stages": Workload(rows=40000, failure_fraction=0.13, labeled=False, tables=1, models=1),
}


def derived_seed(seed: int, tag: int) -> int:
    return int(np.random.SeedSequence([seed, tag]).generate_state(1)[0] % 2**31)


def input_seed(seed: int, k: int) -> int:
    return derived_seed(seed, 100 + k)


def program_seed(seed: int, k: int) -> int:
    return derived_seed(seed, 200 + k)


class CheckFailed(Exception):
    pass


# ---------------------------------------------------------------------------
# output checks


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def report_tables(out_dir):
    """Paths of the measure-by-model report CSVs under out_dir, sorted."""
    found = []
    for dirpath, _, files in os.walk(out_dir):
        for f in files:
            if f.endswith(".csv"):
                path = os.path.join(dirpath, f)
                with open(path) as fh:
                    if fh.readline().startswith("Measure,"):
                        found.append(path)
    return sorted(found)


def check_table(path):
    """(columns, err_columns, roc_values) of one report CSV; raises
    CheckFailed unless it has the six measure rows and every cell is in
    [0,1] or ERR."""
    rows = _read_csv(path)
    if tuple(r[0] for r in rows[1:]) != MEASURES:
        raise CheckFailed(f"{path}: measure rows {[r[0] for r in rows[1:]]}")
    columns = rows[0][1:]
    err, roc = set(), []
    for r in rows[1:]:
        if len(r) != len(columns) + 1:
            raise CheckFailed(f"{path}: ragged row {r[0]}")
        for name, cell in zip(columns, r[1:]):
            if cell == "ERR":
                err.add(name)
                continue
            v = float(cell)
            if not 0.0 <= v <= 1.0:
                raise CheckFailed(f"{path}: {r[0]}/{name} = {cell} outside [0,1]")
            if r[0] == "ROC":
                roc.append(v)
    return columns, err, roc


def check_manifests(out_dir):
    for dirpath, _, files in os.walk(out_dir):
        if "manifest.txt" not in files:
            continue
        with open(os.path.join(dirpath, "manifest.txt")) as fh:
            for line in fh:
                key, _, value = line.partition(" = ")
                if key == "artifact" and not os.path.exists(
                    os.path.join(dirpath, value.strip())
                ):
                    raise CheckFailed(f"manifest artifact {value.strip()} missing")


def _grid_table_regimes(grid_dir):
    """table file -> regime for the per-regime tables (others map to None)."""
    regimes = {}
    best = False
    with open(os.path.join(grid_dir, "summary.txt")) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("best model: "):
                best = True
            name, _, what = line.partition(": ")
            if name.endswith(".csv"):
                regimes[name] = what[len("regime "):] if what.startswith("regime ") else None
    if not best:
        raise CheckFailed("grid summary names no best model")
    return regimes


def check_table_dir(name, table_dir, models):
    """(failed models, ROC values) of one input table's outputs; raises
    CheckFailed."""
    check_manifests(table_dir)
    regimes = _grid_table_regimes(os.path.join(table_dir, "grid")) if name == "grid" else {}
    keys, failed, rocs = set(), set(), []
    for path in report_tables(table_dir):
        columns, err, roc = check_table(path)
        rocs.extend(roc)
        # A grid model appears in its regime's table and again in the
        # best-model table; key each column by the model it names so that it
        # counts once.
        regime = regimes.get(os.path.basename(path))
        for col in columns:
            if name != "grid":
                key = (path, col)
            elif regime is not None:
                key = (regime, col)
            else:
                key = ("none" if col in LEARNERS else "models", col)
            keys.add(key)
            if col in err:
                failed.add(key)
    if len(keys) != models:
        raise CheckFailed(f"{table_dir}: report CSVs hold {len(keys)} models, expected {models}")
    return len(failed), rocs


def digest_tree(out_dir):
    digests = {}
    for dirpath, _, files in os.walk(out_dir):
        for f in sorted(files):
            path = os.path.join(dirpath, f)
            with open(path, "rb") as fh:
                digests[os.path.relpath(path, out_dir)] = hashlib.sha256(fh.read()).hexdigest()
    return digests


# ---------------------------------------------------------------------------
# processes


def child_env():
    env = {k: v for k, v in os.environ.items() if k != "RIGLINE_SEED"}
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join([SRC, HERE])
    return env


def measure_setup(count):
    """Seconds for each of count fresh interpreters to import rigline.cli
    and build its parser."""
    times = []
    for _ in range(count):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=child_env(), cwd=WORK,
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(out.stdout.strip()))
    return times


def run_rep(wdir, commands, k, trace):
    """One repetition on table k in a fresh interpreter; returns the
    worker's result. The table's outputs go to out/t<k>."""
    out_dir = os.path.join(wdir, "out")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(os.path.join(out_dir, f"t{k}"))
    spec = {
        "commands": commands,
        "trace": trace,
        "log": os.path.join(wdir, "rep.log"),
        "result": os.path.join(wdir, "rep.json"),
    }
    spec_path = os.path.join(wdir, "spec.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), spec_path],
        env=child_env(), cwd=out_dir, timeout=REP_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise CheckFailed(f"worker exited {proc.returncode}")
    with open(spec["result"]) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# environment record


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(name, seed, wl, input_bytes):
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": int(THREAD_ENV["OPENBLAS_NUM_THREADS"]),
        "git_sha": _git_sha(),
        "workload": name,
        "workload_seed": seed,
        "program_seeds": [program_seed(seed, k) for k in range(wl.tables)],
        "rows": wl.rows,
        "tables": wl.tables,
        "failure_fraction": wl.failure_fraction,
        "input_bytes": input_bytes,
    }


# ---------------------------------------------------------------------------
# one run


def schedule(tables, trace):
    """(table, traced) for each repetition of a traced run, or an endless
    cycle over the tables for an untraced one."""
    if trace:
        # Untraced output and a second traced run only for the first table:
        # a traced repetition costs about as much as an untraced one, and
        # one table exercises every wrapper.
        yield from [(0, False), (0, True), (0, True)] + [(k, True) for k in range(1, tables)]
        return
    while True:
        yield from ((k, False) for k in range(tables))


def measure(name, seed, seconds, trace):
    """Returns (result object, environment record, summary lines)."""
    wl = WORKLOADS[name]
    wdir = os.path.join(WORK, name)
    shutil.rmtree(wdir, ignore_errors=True)
    os.makedirs(wdir)
    write = inputs.write_labeled if wl.labeled else inputs.write_export
    input_bytes = 0
    for k in range(wl.tables):
        path = os.path.join(wdir, f"input{k}.csv")
        write(path, wl.rows, wl.failure_fraction, input_seed(seed, k))
        input_bytes += os.path.getsize(path)
    env = environment(name, seed, wl, input_bytes)
    out_dir = os.path.join(wdir, "out")

    setup_times = []
    if not trace:
        measure_setup(1)  # warm-up
        setup_times += measure_setup(SETUP_FIRST)

    reps, problems = [], []  # reps: (table, traced, worker result)
    attempted = failed = 0
    first_digest, first_counts = {}, {}
    deadline = perf_counter() + seconds
    for k, traced in schedule(wl.tables, trace):
        attempted += wl.models
        try:
            commands = wl.commands(name, seed, k)
            rep = run_rep(wdir, commands, k, traced)
            codes = rep["exit_codes"]
            if len(codes) != len(commands) or any(c != 0 for c in codes):
                raise CheckFailed(f"table {k}: exit codes {codes}")
            rep["failed"], rep["rocs"] = check_table_dir(name, os.path.join(out_dir, f"t{k}"),
                                                         wl.models)
            digest = digest_tree(out_dir)
            if first_digest.setdefault(k, digest) != digest:
                raise CheckFailed(f"table {k}: outputs of repetition {len(reps) + 1} "
                                  "differ from the table's first")
            if traced and first_counts.setdefault(k, rep["counts"]) != rep["counts"]:
                raise CheckFailed(f"table {k}: traced counts differ between repetitions")
            failed += rep["failed"]
            if not trace:
                setup_times += measure_setup(SETUP_EACH)
        except (CheckFailed, subprocess.SubprocessError, OSError, ValueError) as e:
            problems.append(f"repetition {len(reps) + 1}: {e}")
            failed += wl.models
            break
        reps.append((k, traced, rep))
        if not trace and len(reps) >= wl.tables and perf_counter() >= deadline:
            break

    correct = not problems
    summary = [f"workload {name}, seed {seed}: {len(reps)} repetitions over "
               f"{wl.tables} tables, {failed}/{attempted} models failed"]
    summary += [f"  CHECK FAILED {p}" for p in problems]
    if not correct:
        metrics = {}
    elif trace:
        metrics, self_time = _layer_metrics(reps, wl.models)
        top = sorted(self_time.items(), key=lambda kv: -kv[1])[:4]
        summary.append("  largest self time: " + ", ".join(f"{k} {v:.3f} s" for k, v in top))
    else:
        walls = collections.defaultdict(list)
        for k, _, rep in reps:
            walls[k].append(rep["wall_s"])
        rocs = [v for k, _, rep in reps[:wl.tables] for v in rep["rocs"]]
        metrics = {
            "wall_s": {"value": statistics.median(statistics.median(w) for w in walls.values()),
                       "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rep["peak_rss_mb"] for _, _, rep in reps),
                            "unit": "MB"},
            "roc_auc_mean": {"value": sum(rocs) / len(rocs) if rocs else 0.0,
                             "unit": "auc"},
        }
        for k in sorted(walls):
            summary.append(f"  table {k} wall_s: {' '.join(f'{w:.3f}' for w in walls[k])}")
    width = max([len(k) for k in metrics] + [len("fail_ratio")])
    for key, m in metrics.items():
        summary.append(f"  {key:<{width}} {m['value']:.6g} {m['unit']}")
    summary.append(f"  {'fail_ratio':<{width}} {failed / attempted:.6g} ratio")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, env, summary


def _layer_metrics(reps, models):
    """Per-layer metrics: the mean over tables of each table's first traced
    repetition, plus the tracing overhead on the first table (its traced
    wall time against its untraced one). Also returns the summed self time
    per traced function."""
    firsts = {}
    for k, traced, rep in reps:
        if traced:
            firsts.setdefault(k, rep)
    summaries = [tracer.summarize(r["spans"], r["counts"], models) for r in firsts.values()]
    out = {}
    for key in summaries[0][0]:
        out[key] = {"value": statistics.fmean(m[key] for m, _ in summaries),
                    "unit": tracer.unit_of(key)}
    untraced = [rep["wall_s"] for k, traced, rep in reps if k == 0 and not traced]
    traced = [rep["wall_s"] for k, traced, rep in reps if k == 0 and traced]
    out["trace.overhead_s"] = {"value": statistics.median(traced) - statistics.median(untraced),
                               "unit": "s"}
    self_time = collections.Counter()
    for _, st in summaries:
        self_time.update(st)
    return out, self_time


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--confirm-seed", type=int, default=None,
                        help="also measure on this second workload seed first, "
                             "to check a claim on a seed not used while writing it")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "rigline", "cli.py")):
        print(f"error: no rigline sources under {SRC}; run from a rigline checkout",
              file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    seeds = [args.seed] if args.confirm_seed is None else [args.confirm_seed, args.seed]
    ok = True
    for seed in seeds:
        result, env, summary = measure(args.workload, seed, args.seconds, bool(args.trace))
        ok = ok and result["correct"]
        with open(os.path.join(WORK, args.workload, "result.json"), "w") as fh:
            json.dump({"environment": env, "result": result}, fh, indent=1)
        print("\n".join(summary))
        print("environment " + json.dumps(env))
    print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
