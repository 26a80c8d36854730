"""Command-line pipeline runner.

Commands
--------
generate   draw a labeled synthetic sensor table and write it as CSV
label      cluster an unlabeled CSV with a two-component mixture and label it
sample     rebalance a labeled CSV (smote / under)
train      fit a learner or a stacked model on a labeled CSV
evaluate   score a saved model against a labeled CSV
run        full pipeline: data -> label -> split -> sample -> train -> evaluate
grid       run-per-cell sweep over sampling regimes and learners, with tables

One master seed, an integer >= 0 (flag `--seed`, overridden by the
RIGLINE_SEED environment variable), drives everything: fixed offsets give
the generate/label/split/sample stage seeds, a learner's training seed is
derived from the master plus the learner name, and a stack's one seed is the
master seed of its StackMemo, so one grid cell reproduces the matching `run`.

Every option is declared once, in its `add_argument` call, with its type
and default; the type is the only place its value is checked. Every command
accepts `--config FILE` holding `key = value` lines (`#` starts a comment
line). A key is a long flag name with `-` turned into `_` (`em_tol` for
`--em-tol`); its value is converted by that option's own type, and a switch
such as `em_raw` takes 1/0, true/false, yes/no or on/off. File values
replace the defaults and explicit flags win over the file: flags > file >
defaults, with RIGLINE_SEED over `--seed` and `seed`. `--data`, `--model`
and `sample --sample` are required on the command line even when the file
names them. An unknown key exits 2; a bad value exits 2 with the same reason
as the flag, after `config key '<key>':` instead of `argument --<flag>:`.

`run`/`grid --synthetic`, `--sample smote:` and stack specs are `key=value`
fields read by `util.parse_fields`: `,`-separated for the first two and
`;`-separated in `stack:meta=smo;base=part,mlp,nb;folds=5`. A field without
`=`, an unknown key, a bad value or (in a stack) an unregistered learner is a
usage error. `generate` takes the same source as `--rows/--frac/--shift`.
Every numeric setting is checked by `util.check_number`, whose ConfigError
names it: the source and `smote:` option types build the library configs,
and `--em-tol`, `--em-max-iter` and `--split` call the checker under
`em_fit`'s and `split_train_test`'s names, so a flag and a library call
reject a value alike; learner `--params` are checked in stage train.
Costs come from `--cost a,b` (or `default`), on the command line or as a
`cost = a,b` line.
`grid --models` is a comma list of learners and stack specs; a comma starts
a new model only before `model<N>`, `stack:` or a learner name that does not
continue the `base=` field of the stack before it, so
`nb,stack:base=nb,tree;folds=3,model1` is three models.

Usage and config errors, argparse's own (a bad value, a missing or unknown
option) included, print one `error:` line and exit with status 2 before any
artifact is written; only `--help` exits through SystemExit (status 0).
Failures inside a pipeline stage exit with status 1 and name the stage:

generate   generate
label      load, label
sample     load, sample
train      load, train
evaluate   load, evaluate
run        generate or load, label, split, sample, train, evaluate
grid       generate or load, label, split (failed cells and regimes: ERR)
"""

import argparse
import os
import re
import sys
from contextlib import contextmanager
from dataclasses import replace
from functools import partial

from .dataset import (
    Dataset,
    Standardizer,
    SyntheticGenConfig,
    class_distribution,
    generate_synthetic,
    load_csv,
    save_csv,
    split_train_test,
)
from .errors import ConfigError, RiglineError
from .evaluation import compare_table, evaluate, render_detail
from .imbalance import (
    CostMatrix,
    CostSensitiveModel,
    SmoteConfig,
    default_cost_matrix,
    smote,
    undersample,
)
from .labeling_em import em_assign_labels, em_fit
from .modeldoc import load_model, save_model
from .stacking import LEARNERS, StackMemo, parse_stack_spec, train_seed
from .util import atomic_write_text, check_number, parse_fields

MASTER_SEED_DEFAULT = 7

# Stage seeds are the master seed plus a fixed offset. Every model on one
# set of rows is trained through one stacking.StackMemo of those rows and the
# master seed: a learner's seed folds in its name (stacking.train_seed), and a
# stack's folds, fold fits, meta-learner and base models (the learners' own
# fits) derive from the memo's seed. So a grid cell and a run train alike.
STAGE_OFFSETS = {"generate": 1, "label": 2, "split": 3, "sample": 4}

DEFAULT_SYNTHETIC = SyntheticGenConfig(row_count=5000)
DEFAULT_REGIMES = ("none", "smote", "under", "cost")
DEFAULT_GRID_LEARNERS = ("tree", "part", "mlp", "nb", "rf", "smo")
DEFAULT_GRID_MODELS = ("model1", "model2", "model3", "model4", "model5")


def _stage_seed(master: int, stage: str) -> int:
    return master + STAGE_OFFSETS[stage]


class StageError(RuntimeError):
    """Failure inside a named pipeline stage (exit 1)."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage {stage}: {cause}")


@contextmanager
def _stage(name: str):
    """Run the block as pipeline stage name: any exception becomes StageError."""
    try:
        yield
    except Exception as e:
        raise StageError(name, e) from e


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors (a bad value, a missing or unknown
    option) raise ConfigError, so main returns 2 for them as for any other
    usage error. Subparsers are made of the same class."""

    def error(self, message):
        raise ConfigError(message)


# ---------------------------------------------------------------------------
# option plumbing: flags > config file > defaults, RIGLINE_SEED on top


def _read_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as e:
        raise ConfigError(f"cannot read config file: {e}")
    out = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        out[key] = value
    return out


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _config_defaults(command: argparse.ArgumentParser, path: str) -> dict:
    """The config file's values for command, each converted by its option's
    own type (_parse_bool for a switch)."""
    actions = {
        a.dest: a for a in command._actions
        if a.option_strings and a.dest not in ("help", "config")
    }
    out = {}
    for key, text in _read_config_file(path).items():
        action = actions.get(key)
        if action is None:
            raise ConfigError(f"unknown config key {key!r}")
        convert = _parse_bool if action.nargs == 0 else (action.type or str)
        try:
            out[key] = convert(text)
        except (ValueError, argparse.ArgumentTypeError) as e:
            raise ConfigError(f"config key {key!r}: {e}")
    return out


def _master_seed(text: str, name: str = "seed") -> int:
    """A master seed, from `--seed`, a `seed` line or RIGLINE_SEED (name):
    an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        value = text
    return check_number(name, value, int, lambda v: v >= 0, ">= 0")


def _resolve_master_seed(args: argparse.Namespace) -> int:
    env = os.environ.get("RIGLINE_SEED")
    return args.seed if env is None else _master_seed(env, "RIGLINE_SEED")


# ---------------------------------------------------------------------------
# option types: each option's value is checked only here, when it is parsed


def _checked(convert):
    """Option type from convert(text): a ValueError it raises (ConfigError
    included) becomes argparse's ArgumentTypeError with the same reason, so
    a flag and a config line with the same bad value report it alike."""
    def option_type(text):
        try:
            return convert(text)
        except ValueError as e:
            raise argparse.ArgumentTypeError(str(e)) from e

    return option_type


def _config_field(config, field: str, cast):
    """Option type of one field of a library config: the cast text, range
    checked by the config itself with its other fields as in config."""
    return _checked(lambda text: getattr(replace(config, **{field: cast(text)}), field))


def _one_of(choices, text: str) -> str:
    """text, if it is one of choices; read when the option is parsed, so a
    learner registered before then counts."""
    if text not in choices:
        raise ConfigError(f"{text!r} is not one of {', '.join(sorted(choices))}")
    return text


def _list_of(choices=None):
    """Option type: a comma list without duplicates; given choices, a
    non-empty list of them."""
    def convert(text):
        items = tuple(t.strip() for t in text.split(",") if t.strip())
        if len(set(items)) != len(items):
            raise ConfigError(f"duplicate entries in {text!r}")
        if choices is not None:
            if not items:
                raise ConfigError("name at least one entry")
            for item in items:
                _one_of(choices, item)
        return items

    return _checked(convert)


@_checked
def _synthetic(text: str) -> SyntheticGenConfig:
    """run/grid --synthetic: the fields `rows=5000,frac=0.13,shift=2.0`, each
    optional (`default` gives the defaults); the stage seed is set later."""
    names = {"rows": "row_count", "frac": "failure_fraction", "shift": "failure_shift_sigma"}
    fields = {} if text == "default" else parse_fields(
        text, ",", {"rows": int, "frac": float, "shift": float}
    )
    return replace(DEFAULT_SYNTHETIC, **{names[k]: v for k, v in fields.items()})


@_checked
def _sample(text: str):
    """none | under | smote[:k=5,ratio=1.0] -> (kind, SmoteConfig or None)."""
    if text in ("", "none", "under"):
        return text or "none", None
    if text == "smote" or text.startswith("smote:"):
        params = parse_fields(text.partition(":")[2], ",", {"k": int, "ratio": float}, "smote")
        return "smote", SmoteConfig(k_neighbors=params.get("k", 5),
                                    target_ratio=params.get("ratio", 1.0))
    raise ConfigError(
        f"invalid sampling token {text!r}; expected none, under, or smote:k=K,ratio=R"
    )


@_checked
def _cost(text: str):
    """'a,b' | 'default' -> a CostMatrix, or 'default' for the class-ratio
    matrix of the training split (resolved later)."""
    if text == "default":
        return text
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"expected 'a,b' or 'default', got {text!r}")
    return CostMatrix.from_off_diagonal(float(parts[0]), float(parts[1]))


def _coerce_value(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    if text in ("True", "true"):
        return True
    if text in ("False", "false"):
        return False
    return text


@_checked
def _params(text: str) -> dict:
    """Learner keyword arguments; any key, each value int, float, bool or str."""
    return {k: _coerce_value(v) for k, v in parse_fields(text, ",", None).items()}


def _model_token(text: str) -> str:
    """A learner name, or a stack spec that parse_stack_spec accepts."""
    if text not in LEARNERS:
        parse_stack_spec(text)
    return text


@_checked
def _models(text: str) -> tuple:
    """grid --models: learners and stack specs, split at a comma only where
    a new model starts: `model<N>`, `stack:`, or a learner name that does
    not continue the `base=` field the model before it ends in."""
    models = []
    for piece in filter(None, (p.strip() for p in text.split(","))):
        last_field = models[-1].removeprefix("stack:").split(";")[-1] if models else ""
        learner = piece.partition(";")[0].strip() in LEARNERS
        if (not models or re.fullmatch(r"model\d+", piece) or piece.startswith("stack:")
                or (learner and not last_field.strip().startswith("base="))):
            models.append(piece)
        else:
            models[-1] += "," + piece
    if len(set(models)) != len(models):
        raise ConfigError(f"duplicate entries in {text!r}")
    return tuple(_model_token(m) for m in models)


# ---------------------------------------------------------------------------
# shared pipeline pieces


def _load_input(path: str, meta: bool = True) -> Dataset:
    """The load stage: read a CSV (labeled when its header ends in the label
    column), with its meta cells unless meta is False."""
    with _stage("load"):
        return load_csv(path, meta=meta)


def _synthetic_data(cfg: SyntheticGenConfig) -> Dataset:
    """The generate stage: draw the synthetic source."""
    with _stage("generate"):
        return generate_synthetic(cfg)


def _em_feature_view(d: Dataset, em_columns, em_raw: bool) -> Dataset:
    """The dataset the mixture model actually sees: optional column subset,
    standardized unless raw clustering was requested."""
    view = d.without_labels() if d.label_presence else d
    if em_columns:
        names = [n for n, _ in view.schema]
        missing = [c for c in em_columns if c not in names]
        if missing:
            raise ConfigError(
                f"unknown feature column(s) {missing}; available: {names}"
            )
        keep = [names.index(c) for c in em_columns]
        view = Dataset([view.schema[j] for j in keep], view.X[:, keep])
    if not em_raw:
        view = Dataset(view.schema, Standardizer().fit_transform(view.X))
    return view


def _em_label(d: Dataset, args, seed: int):
    """Fit the mixture on the configured view and label the full dataset."""
    view = _em_feature_view(d, args.em_columns, args.em_raw)
    gmm = em_fit(
        view,
        n_components=2,
        seed=seed,
        tol=args.em_tol,
        max_iter=args.em_max_iter,
    )
    labeled_view = em_assign_labels(view, gmm)
    return d.with_codes(labeled_view.classes, labeled_view.codes), gmm


def _apply_sampling(train: Dataset, kind: str, smote_cfg, seed: int) -> Dataset:
    if kind == "none":
        return train
    if kind == "under":
        return undersample(train, seed=seed)
    return smote(train, replace(smote_cfg, seed=seed))


def _resolve_cost(cost_spec, train: Dataset):
    if cost_spec is None:
        return None
    if cost_spec == "default":
        return default_cost_matrix(train)
    return cost_spec


def _cost_wrapped(model, cost_matrix):
    """model, cost-sensitive under cost_matrix when a matrix is given."""
    return model if cost_matrix is None else CostSensitiveModel(model, cost_matrix)


def _train_stage(token: str, train: Dataset, master: int, params: dict, cost_spec,
                 path: str):
    """The train stage: fit the model token names (a learner with params, or
    a stack spec) on train, cost-wrapped under cost_spec (a CostMatrix,
    'default' or None), and write it to path."""
    with _stage("train"):
        model = _cost_wrapped(StackMemo(train, master).model(token, params.items()),
                              _resolve_cost(cost_spec, train))
        save_model(model, path)
    return model


def _evaluate_stage(model, test: Dataset, name: str, path: str, detail_path=None):
    """The evaluate stage: score model on test once, write its report column
    under name to path and, when detail_path is given, the detail block."""
    with _stage("evaluate"):
        report = evaluate(model, test)
        atomic_write_text(path, compare_table([(name, report)]))
        if detail_path:
            atomic_write_text(detail_path, render_detail(name, report))


# ---------------------------------------------------------------------------
# command implementations (argv already resolved; raise ConfigError / StageError)


def _cmd_generate(args) -> int:
    master = _resolve_master_seed(args)
    d = _synthetic_data(SyntheticGenConfig(
        row_count=args.rows,
        failure_fraction=args.frac,
        seed=_stage_seed(master, "generate"),
        failure_shift_sigma=args.shift,
    ))
    if args.unlabeled:
        d = d.without_labels()
    with _stage("generate"):
        save_csv(d, args.out)
    dist = class_distribution(d) if d.label_presence else {}
    print(f"wrote {args.out}: {d.n_rows} rows" + (f", {dist}" if dist else ""))
    return 0


def _cmd_label(args) -> int:
    master = _resolve_master_seed(args)
    d = _load_input(args.data)
    with _stage("label"):
        labeled, gmm = _em_label(d, args, _stage_seed(master, "label"))
        save_csv(labeled, args.out)
        if args.save_gmm:
            save_model(gmm, args.save_gmm)
    print(f"wrote {args.out}: {class_distribution(labeled)}")
    return 0


def _cmd_sample(args) -> int:
    master = _resolve_master_seed(args)
    kind, params = args.sample
    d = _load_input(args.data)
    with _stage("sample"):
        out = _apply_sampling(d, kind, params, _stage_seed(master, "sample"))
        del d  # the input table is not written; free it before the output is
        save_csv(out, args.out)
    print(f"wrote {args.out}: {class_distribution(out)}")
    return 0


def _cmd_train(args) -> int:
    master = _resolve_master_seed(args)
    token = _model_choice(args)
    if args.stack is not None and args.params:
        raise ConfigError("--params applies to --learner; put stack "
                          "parameters inside the stack spec string")
    d = _load_input(args.data, meta=False)
    model = _train_stage(token, d, master, args.params or {}, args.cost, args.out)
    print(f"wrote {args.out}: {model.learner} model")
    return 0


def _cmd_evaluate(args) -> int:
    with _stage("load"):
        model = load_model(args.model)
    test = _load_input(args.data, meta=False)
    _evaluate_stage(model, test, args.name or model.learner, args.out, args.detail)
    print(f"wrote {args.out}")
    return 0


def _model_choice(args, default=None) -> str:
    """The model that --learner or --stack names: exactly one of them, or at
    most one when there is a default."""
    given = [t for t in (args.learner, args.stack) if t is not None]
    if len(given) > 1 or not (given or default):
        raise ConfigError(
            f"give {'at most' if default else 'exactly'} one of --learner or --stack"
        )
    return given[0] if given else default


class _Run:
    """One `run` or `grid` into args.out: its master seed, synthetic source
    (None with --data) and seeds, one per stage and one per model token
    trained; the artifacts it writes, in write order; and grid's failed
    cells. finish() writes them all to manifest.txt."""

    def __init__(self, command: str, args, tokens):
        self.command, self.args = command, args
        self.master = _resolve_master_seed(args)
        if args.data is not None and args.synthetic is not None:
            raise ConfigError("give either --data or --synthetic, not both")
        self.synthetic = None if args.data is not None else replace(
            args.synthetic or DEFAULT_SYNTHETIC, seed=_stage_seed(self.master, "generate")
        )
        self.seeds = {name: _stage_seed(self.master, name) for name in STAGE_OFFSETS}
        self.seeds.update((f"train.{token}", train_seed(self.master, token)) for token in tokens)
        self.artifacts = []
        self.errors = []

    def path(self, name: str) -> str:
        """The path of name in args.out, recorded as an artifact in call order."""
        self.artifacts.append(name)
        return os.path.join(self.args.out, name)

    def finish(self, **config) -> None:
        """Write manifest.txt: the seeds, the command's config keys with the
        options run and grid share, and the artifacts, itself last."""
        args, cfg, cost = self.args, self.synthetic, self.args.cost
        config.update(
            data=args.data or "-", label=args.label, em_tol=args.em_tol,
            em_max_iter=args.em_max_iter, em_columns=",".join(args.em_columns or ()) or "-",
            em_raw=args.em_raw, split=args.split, out=args.out,
            synthetic="-" if cfg is None else
            f"rows={cfg.row_count},frac={cfg.failure_fraction},shift={cfg.failure_shift_sigma}",
            cost=f"{cost.m[0][1]},{cost.m[1][0]}" if isinstance(cost, CostMatrix) else cost or "-",
        )
        path = self.path("manifest.txt")
        lines = [f"command = {self.command}", f"master_seed = {self.master}"]
        lines += [f"seed.{name} = {self.seeds[name]}" for name in sorted(self.seeds)]
        lines += [f"config.{key} = {config[key]}" for key in sorted(config)]
        lines += [f"artifact = {name}" for name in self.artifacts]
        atomic_write_text(path, "\n".join(lines) + "\n")


def _prepare_data(run: _Run):
    """Stages load or generate -> label (writing em_model.txt and labeled.csv)
    -> split into args.out, created only once the labels are in; returns
    (train, test)."""
    args = run.args
    d = _synthetic_data(run.synthetic) if args.data is None else _load_input(args.data)
    with _stage("label"):
        # --label auto labels only an unlabeled table, em always re-labels,
        # none needs the table's own labels.
        if args.label == "none" and not d.label_presence:
            raise RiglineError("--label none needs a labeled dataset")
        gmm = None
        if args.label == "em" or not d.label_presence:
            d, gmm = _em_label(d, args, run.seeds["label"])
        os.makedirs(args.out, exist_ok=True)
        if gmm is not None:
            save_model(gmm, run.path("em_model.txt"))
        save_csv(d, run.path("labeled.csv"))
    with _stage("split"):
        return split_train_test(d, args.split, seed=run.seeds["split"])


def _cmd_run(args) -> int:
    kind, smote_cfg = args.sample
    if args.cost is not None and kind != "none":
        raise ConfigError("cost-sensitive training replaces sampling; drop --sample")
    token = _model_choice(args, default="smo")
    run = _Run("run", args, [token])
    train, test = _prepare_data(run)
    with _stage("sample"):
        sampled = _apply_sampling(train, kind, smote_cfg, run.seeds["sample"])
    model = _train_stage(token, sampled, run.master, {}, args.cost, run.path("model.txt"))
    _evaluate_stage(model, test, token, run.path("report.csv"), run.path("detail.txt"))
    run.finish(
        sample=(f"smote:k={smote_cfg.k_neighbors},ratio={smote_cfg.target_ratio}"
                if kind == "smote" else kind),
        model=token,
    )
    print(f"run complete: {args.out}/report.csv")
    return 0


def _grid_cell(run: _Run, cell_name: str, memo, token, cost_matrix, test):
    """Train (memo.model(token)) and score one grid cell, cost-wrapped when a
    matrix is given: its EvalReport, or None (an ERR column, the failure in
    run.errors) when either fails."""
    try:
        return evaluate(_cost_wrapped(memo.model(token), cost_matrix), test)
    except Exception as e:
        run.errors.append(f"{cell_name}: {e}")
        return None


def _cmd_grid(args) -> int:
    run = _Run("grid", args, args.learners + args.models)
    smote_cfg = SmoteConfig(k_neighbors=args.smote_k, target_ratio=args.smote_ratio)
    train, test = _prepare_data(run)
    tables = []  # the summary's line for each table written

    def write_table(columns, what):
        fname = f"table{len(tables) + 1}.csv"
        atomic_write_text(run.path(fname), compare_table(columns))
        tables.append(f"  {fname}: {what}")

    # The unsampled rows' fits serve the none and cost regimes, the model
    # tables and, as their base models, the stacks; each sampled regime has
    # its own memo.
    unsampled = StackMemo(train, run.master)

    none_reports = {}
    for regime in args.regimes:
        try:
            kind = regime if regime in ("smote", "under") else "none"
            regime_train = _apply_sampling(train, kind, smote_cfg, run.seeds["sample"])
            cost_matrix = _resolve_cost(args.cost, train) if regime == "cost" else None
            memo = unsampled if regime_train is train else StackMemo(regime_train, run.master)
        except Exception as e:
            # A regime that cannot be built fails all of its cells.
            run.errors.append(f"{regime}: {e}")
            columns = [(learner, None) for learner in args.learners]
        else:
            columns = [
                (learner, _grid_cell(run, f"{regime}/{learner}", memo, learner,
                                     cost_matrix, test))
                for learner in args.learners
            ]
        if regime == "none":
            none_reports = dict(columns)
        write_table(columns, f"regime {regime}")

    ranking = []  # the summary's best-model lines
    if args.models:
        columns = [
            (token, _grid_cell(run, f"models/{token}", unsampled, token, None, test))
            for token in args.models
        ]
        write_table(columns, "stacked models, no sampling")
        scored = [
            (r.roc_auc, r.tp_rate, -args.models.index(t), t, r)
            for t, r in columns if r is not None
        ]
        if scored:
            roc, tp, _, best_name, best = max(scored)
            versus = [(best_name, best)] + [
                (learner, none_reports[learner] if learner in none_reports else _grid_cell(
                    run, f"none/{learner}", unsampled, learner, None, test))
                for learner in args.learners
            ]
            write_table(versus, f"best model ({best_name}) vs single learners")
            ranking = [f"best model: {best_name} (ROC {roc:.3f}, TP rate {tp:.3f})",
                       "rank rule: highest ROC, then highest TP rate, then earliest column"]

    summary = ["tables:", *tables, *ranking]
    if run.errors:
        summary += ["failed cells (ERR columns):", *(f"  {e}" for e in run.errors)]
    atomic_write_text(run.path("summary.txt"), "\n".join(summary) + "\n")

    run.finish(
        regimes=",".join(args.regimes),
        learners=",".join(args.learners),
        models=",".join(args.models) if args.models else "-",
        smote_k=args.smote_k,
        smote_ratio=args.smote_ratio,
    )
    print(f"grid complete: {len(tables)} tables in {args.out}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_em_options(p) -> None:
    """The options of the two-component mixture fit that labels the data."""
    p.add_argument("--em-tol", type=_checked(lambda text: check_number(
                       "tol", float(text), float, lambda v: v >= 0, ">= 0")),
                   default=1e-6, help="relative log-likelihood convergence tolerance (>= 0)")
    p.add_argument("--em-max-iter", type=_checked(lambda text: check_number(
                       "max_iter", int(text), int, lambda v: v >= 1, ">= 1")),
                   default=200, help="iteration cap for the mixture fit (>= 1)")
    p.add_argument("--em-columns", type=_list_of(),
                   help="comma-separated feature names the clustering sees (default all)")
    p.add_argument("--em-raw", action="store_true",
                   help="cluster raw features instead of standardized ones")


def _add_pipeline_options(p) -> None:
    """The source, labeling and split options that run and grid share."""
    p.add_argument("--data", help="input CSV (a trailing 'class' column is used as labels)")
    p.add_argument("--synthetic", type=_synthetic,
                   help="synthetic source, e.g. rows=5000,frac=0.13,shift=2.0")
    p.add_argument("--label", type=_checked(partial(_one_of, ("auto", "em", "none"))),
                   default="auto",
                   help="auto (label only if unlabeled) | em (always) | none (require labels)")
    _add_em_options(p)
    p.add_argument("--split", type=_checked(lambda text: check_number(
                       "train_fraction", float(text), float, lambda v: 0 < v < 1, "in (0,1)")),
                   default=0.66, help="training fraction of the labeled data")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rigline",
        description="failure-analysis pipeline: label, rebalance, train, compare",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler, command_parser=p)
        return p

    p = command("generate", _cmd_generate, "write a synthetic labeled sensor CSV")
    p.add_argument("--rows", type=_config_field(DEFAULT_SYNTHETIC, "row_count", int),
                   default=DEFAULT_SYNTHETIC.row_count, help="row count (>= 2)")
    p.add_argument("--frac", type=_config_field(DEFAULT_SYNTHETIC, "failure_fraction", float),
                   default=DEFAULT_SYNTHETIC.failure_fraction, help="failure fraction, in (0,1)")
    p.add_argument("--shift", type=_config_field(DEFAULT_SYNTHETIC, "failure_shift_sigma", float),
                   default=DEFAULT_SYNTHETIC.failure_shift_sigma,
                   help="failure-class drift of the shifted columns, in stddevs")
    p.add_argument("--unlabeled", action="store_true", help="drop the class column")
    p.add_argument("--out", default="synthetic.csv")

    p = command("label", _cmd_label, "cluster an unlabeled CSV and write labels")
    p.add_argument("--data", required=True)
    p.add_argument("--out", default="labeled.csv")
    p.add_argument("--save-gmm",
                   help="also write the fitted mixture as a model document (model gmm)")
    _add_em_options(p)

    p = command("sample", _cmd_sample, "rebalance a labeled CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--sample", type=_sample, required=True,
                   help="none | under | smote:k=5,ratio=1.0")
    p.add_argument("--out", default="sampled.csv")

    p = command("train", _cmd_train, "fit a model on a labeled CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--learner", type=_checked(partial(_one_of, LEARNERS)),
                   help=f"one of {sorted(LEARNERS)}")
    p.add_argument("--stack", type=_checked(_model_token),
                   help="preset model1..model5 or stack:meta=smo;base=part,mlp,nb;folds=5")
    p.add_argument("--params", type=_params,
                   help="learner keyword arguments, e.g. n_trees=50,max_depth=8")
    p.add_argument("--cost", type=_cost,
                   help="off-diagonal costs 'a,b', or 'default' for the class-ratio matrix")
    p.add_argument("--out", default="model.txt")

    p = command("evaluate", _cmd_evaluate, "score a saved model on a labeled CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", default="report.csv")
    p.add_argument("--detail", help="also write a confusion-matrix detail report here")
    p.add_argument("--name", help="column name in the report")

    p = command("run", _cmd_run, "full pipeline into an output directory")
    _add_pipeline_options(p)
    p.add_argument("--sample", type=_sample, default="none",
                   help="none | under | smote:k=5,ratio=1.0 (training split only)")
    p.add_argument("--cost", type=_cost, help="train cost-sensitively: 'a,b' or 'default'")
    p.add_argument("--learner", type=_checked(partial(_one_of, LEARNERS)),
                   help="learner name (default smo)")
    p.add_argument("--stack", type=_checked(_model_token),
                   help="preset model1..model5 or stack:... spec")
    p.add_argument("--out", default="rigline_out", help="output directory")

    p = command("grid", _cmd_grid, "regimes-by-learners sweep with result tables")
    _add_pipeline_options(p)
    p.add_argument("--regimes", type=_list_of(DEFAULT_REGIMES),
                   default=",".join(DEFAULT_REGIMES),
                   help=f"comma list from {list(DEFAULT_REGIMES)}")
    p.add_argument("--learners", type=_list_of(LEARNERS),
                   default=",".join(DEFAULT_GRID_LEARNERS),
                   help=f"comma list from {sorted(LEARNERS)}")
    p.add_argument("--models", type=_models, default=",".join(DEFAULT_GRID_MODELS),
                   help="comma list of learners, presets model1..model5 and "
                        "stack:... specs; empty string skips the model tables")
    p.add_argument("--smote-k", type=_config_field(SmoteConfig(), "k_neighbors", int),
                   default=5)
    p.add_argument("--smote-ratio", type=_config_field(SmoteConfig(), "target_ratio", float),
                   default=1.0)
    p.add_argument("--cost", type=_cost, default="default",
                   help="cost regime matrix: 'a,b' or 'default' (the class-ratio matrix)")
    p.add_argument("--out", default="rigline_grid", help="output directory")

    for p in sub.choices.values():
        p.add_argument("--seed", type=_checked(_master_seed), default=MASTER_SEED_DEFAULT,
                       help="master seed, an integer >= 0 (RIGLINE_SEED env var overrides)")
        p.add_argument("--config", help="key = value file; explicit flags override it")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # File values become the command's defaults; a second parse lets
            # the flags win over them.
            command = args.command_parser
            command.set_defaults(**_config_defaults(command, args.config))
            args = parser.parse_args(argv)
        return args.handler(args)
    except ConfigError as e:  # usage errors, found before any work starts
        print(f"error: {e}", file=sys.stderr)
        return 2
    except StageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
