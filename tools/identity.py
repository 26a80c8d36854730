"""Byte-identity check: run one fixed set of rigline commands in this
checkout and in a clone of another revision, and compare what they write.

    python3 tools/identity.py [--against REV]     (REV defaults to HEAD)

Run from the root of a rigline checkout. REV is cloned from this repository
with a local `git clone` into a temporary directory; nothing is fetched.
The input tables are written once, by perfbench/inputs.py and the
benchmark's own seed derivation (both imported, not changed), and both
trees read the same files. Each tree runs the whole set in one fresh
single-threaded interpreter, with its own `src/` on PYTHONPATH, in a work
directory of its own, under the same relative --out paths.

Every file the commands write is compared byte for byte, together with
each command's exit status and its standard output and warnings (as
`Category: message`, without the source path and line that differ between
the trees). `manifest.txt` files are compared without their `config.out`
line. Each differing file is printed; the exit status is 1 on any
difference, else 0.

The set: the benchmark's four `stages` commands on 40,000-row exports
(workload seeds 1, 2, 3 and 7); `grid --data` on the six seed-1 `grid`
tables; `grid --synthetic rows=400` under seeds 1 and 5; `run --synthetic
rows=400 --seed 5` with each learner, each preset stack, `--label em`,
`--sample smote` and `--cost default`; a `generate` -> `label --save-gmm`
-> `train` -> `evaluate --detail` chain (rf, model2, smo, smo with an rbf
kernel); `label`, `train` and `evaluate` on a 12-feature, 3-class table;
an smo model with no support vectors (C=1e-9) trained and evaluated; and
the quoting paths of the CSV writer: `label` -> `sample --sample smote` on
a 200-row export whose Time Stamp cells hold a comma, and a `grid` on the
first `grid` table whose stack's name, and so its report column, holds a
comma.
"""

import argparse
import filecmp
import json
import os
import subprocess
import sys
import tempfile
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.dont_write_bytecode = True  # leave perfbench/ as it is

import inputs  # noqa: E402
import run as bench  # noqa: E402
from revision import clone_rev  # noqa: E402

LEARNERS = ("nb", "tree", "rf", "part", "mlp", "smo")
STAGES_SEEDS = (1, 2, 3, 7)

# Runs a JSON list of argument lists through rigline.cli.main, in order,
# and writes each command's exit status, output and warnings to logs/.
RUNNER = r"""
import contextlib, io, json, os, sys, warnings
import rigline.cli
warnings.simplefilter("always")
warnings.formatwarning = lambda message, category, *rest, **kw: f"{category.__name__}: {message}\n"
os.makedirs("logs")
for n, argv in enumerate(json.load(sys.stdin)):
    for flag in ("--out", "--detail", "--save-gmm"):
        if flag in argv:
            os.makedirs(os.path.dirname(argv[argv.index(flag) + 1]) or ".", exist_ok=True)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = rigline.cli.main(argv)
    with open(f"logs/{n:03d}.txt", "w") as fh:
        fh.write(" ".join(argv) + f"\nexit {code}\n" + buf.getvalue())
"""


def write_inputs(directory):
    """Write the input tables into directory."""
    stages = bench.WORKLOADS["stages"]
    for seed in STAGES_SEEDS:
        inputs.write_export(os.path.join(directory, f"export{seed}.csv"), stages.rows,
                            stages.failure_fraction, bench.input_seed(seed, 0))
    grid = bench.WORKLOADS["grid"]
    for k in range(grid.tables):
        inputs.write_labeled(os.path.join(directory, f"grid{k}.csv"), grid.rows,
                             grid.failure_fraction, bench.input_seed(1, k))
    # 12 features and 3 classes: every row sum of the diagonal-Gaussian
    # posterior has 8 or more terms.
    rng = np.random.default_rng(12)
    X = rng.normal(size=(300, 12)) * rng.uniform(0.5, 20.0, size=12) + rng.uniform(-50, 50, 12)
    X[100:200, :4] += 3.0
    X[200:, 6:] -= 4.0
    header = [f"sensor {j} (in u{j})" for j in range(12)]
    with open(os.path.join(directory, "wide.csv"), "w") as fh:
        fh.write(",".join(header + ["class"]) + "\n")
        for i, x in enumerate(X.tolist()):
            fh.write(",".join(map(repr, x)) + "," + "abc"[i // 100] + "\n")
    with open(os.path.join(directory, "wide_raw.csv"), "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(repr, x)) + "\n" for x in X.tolist())
    # 200 rows whose Time Stamp cells hold a comma, so every saved table
    # quotes its meta cells; the last 40 rows drift up on the shifted columns.
    rng = np.random.default_rng(3)
    mu, sd = (np.array([c[k] for c in inputs.RIG_COLUMNS]) for k in (1, 2))
    X = rng.normal(mu, sd, size=(200, len(mu)))
    X[160:, list(inputs.SHIFTED)] += inputs.SHIFT_SIGMA * sd[list(inputs.SHIFTED)]
    with open(os.path.join(directory, "comma_export.csv"), "w") as fh:
        fh.write(",".join(["S No.", "Time Stamp", *(c[0] for c in inputs.RIG_COLUMNS)]) + "\n")
        fh.writelines(f'{i + 1},"2/8/2014, {i // 60}:{i % 60:02d}",' + ",".join(map(repr, x))
                      + "\n" for i, x in enumerate(X.tolist()))


def command_set():
    """The argument lists, relative to a work directory beside ../in."""
    cmds = []
    for seed in STAGES_SEEDS:
        cmds += bench.table_commands("stages", f"../in/export{seed}.csv", f"stages{seed}",
                                     str(bench.program_seed(seed, 0)))
    for k in range(bench.WORKLOADS["grid"].tables):
        cmds += bench.table_commands("grid", f"../in/grid{k}.csv", f"grid{k}",
                                     str(bench.program_seed(1, k)))
    for seed in ("1", "5"):
        cmds.append(["grid", "--synthetic", "rows=400", "--seed", seed, "--out", f"gridsyn{seed}"])
    synthetic = ["run", "--synthetic", "rows=400", "--seed", "5"]
    for learner in LEARNERS:
        cmds.append(synthetic + ["--learner", learner, "--out", f"run/{learner}"])
    for k in range(1, 6):
        cmds.append(synthetic + ["--stack", f"model{k}", "--out", f"run/model{k}"])
    cmds.append(synthetic + ["--label", "em", "--out", "run/label_em"])
    cmds.append(synthetic + ["--sample", "smote", "--out", "run/smote"])
    cmds.append(synthetic + ["--cost", "default", "--out", "run/cost"])
    cmds += [
        ["generate", "--rows", "400", "--unlabeled", "--seed", "9", "--out", "chain/raw.csv"],
        ["label", "--data", "chain/raw.csv", "--out", "chain/labeled.csv",
         "--save-gmm", "chain/gmm.txt", "--seed", "9"],
    ]
    models = {"rf": ["--learner", "rf"], "model2": ["--stack", "model2"],
              "smo": ["--learner", "smo"],
              "smo_rbf": ["--learner", "smo", "--params", "kernel=rbf"],
              "smo_no_sv": ["--learner", "smo", "--params", "C=1e-9"]}
    for name, choice in models.items():
        cmds += [
            ["train", "--data", "chain/labeled.csv", *choice, "--seed", "9",
             "--out", f"chain/{name}.txt"],
            ["evaluate", "--model", f"chain/{name}.txt", "--data", "chain/labeled.csv",
             "--out", f"chain/{name}_report.csv", "--detail", f"chain/{name}_detail.txt"],
        ]
    cmds.append(["label", "--data", "../in/wide_raw.csv", "--out", "wide/labeled.csv",
                 "--save-gmm", "wide/gmm.txt", "--seed", "4"])
    for learner in ("nb", "tree"):
        cmds += [
            ["train", "--data", "../in/wide.csv", "--learner", learner, "--out",
             f"wide/{learner}.txt"],
            ["evaluate", "--model", f"wide/{learner}.txt", "--data", "../in/wide.csv",
             "--out", f"wide/{learner}_report.csv", "--detail", f"wide/{learner}_detail.txt"],
        ]
    cmds += [
        ["label", "--data", "../in/comma_export.csv", "--out", "comma/labeled.csv", "--seed", "3"],
        ["sample", "--data", "comma/labeled.csv", "--sample", "smote", "--out",
         "comma/sampled.csv", "--seed", "3"],
        ["grid", "--data", "../in/grid0.csv", "--regimes", "none", "--learners", "nb",
         "--models", "nb,stack:base=nb,tree;folds=3", "--out", "quoted_grid"],
    ]
    return cmds


def run_tree(tree, work, cmds):
    """Run cmds with tree's src/ in the fresh directory work."""
    os.makedirs(work)
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), **bench.THREAD_ENV)
    subprocess.run([sys.executable, "-c", RUNNER], input=json.dumps(cmds), text=True,
                   cwd=work, env=env, check=True)


def files_under(top):
    return sorted(os.path.relpath(os.path.join(d, f), top)
                  for d, _, names in os.walk(top) for f in names)


def same(a, b):
    if os.path.basename(a) != "manifest.txt":
        return filecmp.cmp(a, b, shallow=False)
    with open(a) as fa, open(b) as fb:
        return ([ln for ln in fa if not ln.startswith("config.out =")]
                == [ln for ln in fb if not ln.startswith("config.out =")])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", default="HEAD", help="revision to compare with")
    args = parser.parse_args(argv)
    cmds = command_set()
    with tempfile.TemporaryDirectory(prefix="rigline_identity_") as tmp:
        start = time.perf_counter()
        other = os.path.join(tmp, "other")
        rev = clone_rev(args.against, other)
        os.makedirs(os.path.join(tmp, "in"))
        write_inputs(os.path.join(tmp, "in"))
        run_tree(ROOT, os.path.join(tmp, "this"), cmds)
        run_tree(other, os.path.join(tmp, "rev"), cmds)
        mine, theirs = (files_under(os.path.join(tmp, w)) for w in ("this", "rev"))
        differ = sorted(set(mine) ^ set(theirs))
        differ += [f for f in sorted(set(mine) & set(theirs))
                   if not same(os.path.join(tmp, "this", f), os.path.join(tmp, "rev", f))]
        print(f"{len(cmds)} commands, {len(set(mine) | set(theirs))} files (manifest.txt "
              f"compared without its config.out line), working tree against {rev}, "
              f"{time.perf_counter() - start:.0f} s")
    for f in sorted(differ):
        print(f"differs: {f}")
    print("identical" if not differ else f"{len(differ)} files differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
