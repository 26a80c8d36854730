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

One master seed (flag `--seed`, overridden by the RIGLINE_SEED environment
variable) drives everything: fixed offsets give the generate/label/split/
sample stage seeds, and each training cell's seed is derived from the master
plus the learner token, so a single grid cell reproduces the matching `run`.

Every command accepts `--config FILE` holding `key = value` lines (keys are
the long flag names); explicit flags override file entries. Usage and config
errors exit with status 2 before any artifact is written; failures inside a
pipeline stage exit with status 1 and name the stage.
"""

import argparse
import os
import sys
from dataclasses import replace

from .dataset import (
    LABEL_COLUMN,
    Dataset,
    Standardizer,
    class_distribution,
    default_synthetic_config,
    generate_synthetic,
    load_csv,
    save_csv,
    split_train_test,
)
from .errors import ConfigError, RiglineError
from .evaluation import compare_table, evaluate, render_detail
from .imbalance import (
    CostMatrix,
    SmoteConfig,
    cost_sensitive_wrap,
    default_cost_matrix,
    smote,
    undersample,
)
from .labeling_em import em_assign_labels, em_fit, save_gmm
from .modeldoc import load_model, save_model
from .stacking import LEARNERS, parse_stack_spec, train_learner, train_stack
from .util import atomic_write_text, derive_seed

MASTER_SEED_DEFAULT = 7

# Stage seeds are the master seed plus a fixed offset; training seeds also
# fold in the learner/stack token (see _train_seed) so that a grid cell and a
# single run with the same master seed train the identical model.
STAGE_OFFSETS = {"generate": 1, "label": 2, "split": 3, "sample": 4}

DEFAULT_SYNTHETIC = {"rows": 5000, "frac": 0.13, "shift": 2.0}
DEFAULT_REGIMES = ("none", "smote", "under", "cost")
DEFAULT_GRID_LEARNERS = ("tree", "part", "mlp", "nb", "rf", "smo")
DEFAULT_GRID_MODELS = ("model1", "model2", "model3", "model4", "model5")


def _stage_seed(master: int, stage: str) -> int:
    return master + STAGE_OFFSETS[stage]


def _train_seed(master: int, token: str) -> int:
    return derive_seed(master, "train", token)


class UsageError(ConfigError):
    """Configuration problem detected before any work starts (exit 2)."""


class StageError(RuntimeError):
    """Failure inside a named pipeline stage (exit 1)."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage {stage}: {cause}")
        self.stage = stage


# ---------------------------------------------------------------------------
# option plumbing: flags > config file > defaults, RIGLINE_SEED on top


def _read_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as e:
        raise UsageError(f"cannot read config file: {e}")
    out = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" in line:
            key, _, value = line.partition("=")
        else:
            key, _, value = line.partition(" ")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if not key or not value:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        out[key] = value
    return out


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise UsageError(f"expected a boolean, got {text!r}")


def _fill_from_config(args: argparse.Namespace, casters: dict, defaults: dict) -> None:
    """Resolve option values in place: flag, else config file, else default."""
    file_values = _read_config_file(args.config) if getattr(args, "config", None) else {}
    for key in file_values:
        if key not in casters:
            raise UsageError(f"unknown config key {key!r}")
    for dest, caster in casters.items():
        if getattr(args, dest) is not None:
            continue
        if dest in file_values:
            try:
                setattr(args, dest, caster(file_values[dest]))
            except (ValueError, TypeError) as e:
                raise UsageError(f"config key {dest!r}: {e}")
        else:
            setattr(args, dest, defaults.get(dest))


def _resolve_master_seed(args: argparse.Namespace) -> int:
    env = os.environ.get("RIGLINE_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise UsageError(f"RIGLINE_SEED must be an integer, got {env!r}")
    if args.seed is not None:
        return int(args.seed)
    return MASTER_SEED_DEFAULT


# ---------------------------------------------------------------------------
# small token parsers


def _parse_kv_tokens(text: str, what: str) -> dict:
    out = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        key, eq, value = part.partition("=")
        if not eq:
            raise UsageError(f"{what}: expected key=value, got {part!r}")
        out[key.strip()] = value.strip()
    return out


def _parse_synthetic_token(text: str) -> dict:
    """`rows=5000,frac=0.13,shift=2.0` with all keys optional."""
    spec = dict(DEFAULT_SYNTHETIC)
    if text and text != "default":
        kv = _parse_kv_tokens(text, "--synthetic")
        for key, value in kv.items():
            if key not in spec:
                raise UsageError(
                    f"--synthetic: unknown key {key!r}; choices: rows, frac, shift"
                )
            try:
                spec[key] = int(value) if key == "rows" else float(value)
            except ValueError:
                raise UsageError(f"--synthetic: bad value for {key}: {value!r}")
    if spec["rows"] < 2:
        raise UsageError("--synthetic: rows must be >= 2")
    if not 0.0 < spec["frac"] < 1.0:
        raise UsageError("--synthetic: frac must be in (0,1)")
    return spec


def _smote_config(k, ratio, what: str) -> SmoteConfig:
    """SmoteConfig for the given options; its range check is a usage error."""
    try:
        return SmoteConfig(k_neighbors=k, target_ratio=ratio)
    except ConfigError as e:
        raise UsageError(f"{what}: {e}")


def _parse_sample_token(text: str):
    """none | under | smote[:k=5,ratio=1.0] -> (kind, SmoteConfig or None)."""
    if text is None or text in ("", "none"):
        return "none", None
    if text == "under":
        return "under", None
    if text == "smote" or text.startswith("smote:"):
        params = {"k": 5, "ratio": 1.0}
        if ":" in text:
            kv = _parse_kv_tokens(text.split(":", 1)[1], "--sample smote")
            for key, value in kv.items():
                if key not in params:
                    raise UsageError(
                        f"--sample smote: unknown key {key!r}; choices: k, ratio"
                    )
                try:
                    params[key] = int(value) if key == "k" else float(value)
                except ValueError:
                    raise UsageError(f"--sample smote: bad value for {key}: {value!r}")
        return "smote", _smote_config(params["k"], params["ratio"], "--sample smote")
    raise UsageError(
        f"invalid sampling token {text!r}; expected none, under, or smote:k=K,ratio=R"
    )


def _parse_cost_options(cost: str, cost_file: str):
    """--cost 'a,b' | 'default', or --cost-file PATH. Returns a CostMatrix,
    the string 'default' (resolved against the training split later), or None.
    """
    if cost is not None and cost_file is not None:
        raise UsageError("give either --cost or --cost-file, not both")
    if cost_file is not None:
        try:
            return CostMatrix.from_file(cost_file)
        except (OSError, ValueError, ConfigError) as e:
            raise UsageError(f"--cost-file: {e}")
    if cost is None:
        return None
    if cost == "default":
        return "default"
    parts = cost.split(",")
    if len(parts) != 2:
        raise UsageError(f"--cost: expected 'a,b' or 'default', got {cost!r}")
    try:
        a, b = float(parts[0]), float(parts[1])
        return CostMatrix.from_off_diagonal(a, b)
    except (ValueError, ConfigError) as e:
        raise UsageError(f"--cost: {e}")


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


def _parse_params(text: str) -> dict:
    if not text:
        return {}
    return {k: _coerce_value(v) for k, v in _parse_kv_tokens(text, "--params").items()}


def _parse_list(text: str, what: str, choices=None):
    items = tuple(t.strip() for t in text.split(",") if t.strip())
    if len(set(items)) != len(items):
        raise UsageError(f"{what}: duplicate entries in {text!r}")
    if choices is not None:
        for item in items:
            if item not in choices:
                raise UsageError(f"{what}: unknown entry {item!r}; choices: {sorted(choices)}")
    return items


# ---------------------------------------------------------------------------
# shared pipeline pieces


def _sniff_labels(path: str) -> bool:
    """True when the CSV's last header cell is the label column."""
    try:
        with open(path) as fh:
            header = fh.readline()
    except OSError as e:
        raise RiglineError(str(e))
    cells = [c.strip().strip('"') for c in header.rstrip("\n").split(",")]
    return bool(cells) and cells[-1].lower() == LABEL_COLUMN


def _load_input(path: str) -> Dataset:
    return load_csv(path, has_labels=_sniff_labels(path))


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
    view = _em_feature_view(d, args.em_columns, bool(args.em_raw))
    gmm = em_fit(
        view,
        n_components=args.components,
        seed=seed,
        tol=args.em_tol,
        max_iter=args.em_max_iter,
    )
    labeled_view = em_assign_labels(view, gmm)
    return d.with_labels(labeled_view.labels), gmm


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


def _train_token_model(token: str, train: Dataset, master: int, params: dict,
                       cost_matrix):
    """Train the learner or stack named by token; cost-wrap it when a matrix
    is given. params are learner keyword arguments; a stack spec carries its
    own inside the token."""
    seed = _train_seed(master, token)
    if token in LEARNERS:
        model = train_learner(token, train, seed=seed, params=params)
    else:
        spec = parse_stack_spec(token, seed=seed)
        model = train_stack(train, spec)
    if cost_matrix is not None:
        model = cost_sensitive_wrap(model, cost_matrix)
    return model


def _validate_model_token(token: str) -> None:
    if token in LEARNERS:
        return
    parse_stack_spec(token)  # raises ConfigError on anything malformed


def _manifest_text(command: str, master: int, seeds: dict, config: dict, artifacts) -> str:
    lines = [f"command = {command}", f"master_seed = {master}"]
    for name in sorted(seeds):
        lines.append(f"seed.{name} = {seeds[name]}")
    for key in sorted(config):
        lines.append(f"config.{key} = {config[key]}")
    for name in artifacts:
        lines.append(f"artifact = {name}")
    return "\n".join(lines) + "\n"


def _out_path(out_dir: str, name: str) -> str:
    return os.path.join(out_dir, name)


# ---------------------------------------------------------------------------
# command implementations (argv already resolved; raise UsageError / StageError)


def _cmd_generate(args) -> int:
    master = _resolve_master_seed(args)
    spec = _parse_synthetic_token(args.synthetic or "default")
    if args.rows is not None:
        spec["rows"] = int(args.rows)
    if args.frac is not None:
        spec["frac"] = float(args.frac)
    if args.shift is not None:
        spec["shift"] = float(args.shift)
    try:
        cfg = default_synthetic_config(
            row_count=spec["rows"],
            failure_fraction=spec["frac"],
            seed=_stage_seed(master, "generate"),
            failure_shift_sigma=spec["shift"],
        )
    except ConfigError as e:
        raise UsageError(str(e))
    try:
        d = generate_synthetic(cfg)
        if args.unlabeled:
            d = d.without_labels()
        save_csv(d, args.out)
    except Exception as e:
        raise StageError("generate", e)
    dist = class_distribution(d) if d.label_presence else {}
    print(f"wrote {args.out}: {d.n_rows} rows" + (f", {dist}" if dist else ""))
    return 0


def _cmd_label(args) -> int:
    master = _resolve_master_seed(args)
    if args.components != 2:
        raise UsageError("labeling requires exactly 2 mixture components")
    try:
        d = _load_input(args.data)
    except Exception as e:
        raise StageError("load", e)
    try:
        labeled, gmm = _em_label(d, args, _stage_seed(master, "label"))
        save_csv(labeled, args.out)
        if args.save_gmm:
            save_gmm(gmm, args.save_gmm)
    except Exception as e:
        raise StageError("label", e)
    print(f"wrote {args.out}: {class_distribution(labeled)}")
    return 0


def _cmd_sample(args) -> int:
    master = _resolve_master_seed(args)
    kind, params = _parse_sample_token(args.sample)
    try:
        d = _load_input(args.data)
    except Exception as e:
        raise StageError("load", e)
    try:
        out = _apply_sampling(d, kind, params, _stage_seed(master, "sample"))
        save_csv(out, args.out)
    except Exception as e:
        raise StageError("sample", e)
    print(f"wrote {args.out}: {class_distribution(out)}")
    return 0


def _cmd_train(args) -> int:
    master = _resolve_master_seed(args)
    if (args.learner is None) == (args.stack is None):
        raise UsageError("give exactly one of --learner or --stack")
    cost_spec = _parse_cost_options(args.cost, args.cost_file)
    params = _parse_params(args.params)
    if args.learner is not None and args.learner not in LEARNERS:
        raise UsageError(
            f"unknown learner {args.learner!r}; choices: {sorted(LEARNERS)}"
        )
    if args.stack is not None:
        if params:
            raise UsageError("--params applies to --learner; put stack "
                             "parameters inside the stack spec string")
        try:
            _validate_model_token(args.stack)
        except ConfigError as e:
            raise UsageError(str(e))
    try:
        d = _load_input(args.data)
    except Exception as e:
        raise StageError("load", e)
    try:
        token = args.learner if args.learner is not None else args.stack
        model = _train_token_model(token, d, master, params, _resolve_cost(cost_spec, d))
        save_model(model, args.out)
    except Exception as e:
        raise StageError("train", e)
    print(f"wrote {args.out}: {model.learner} model")
    return 0


def _cmd_evaluate(args) -> int:
    try:
        model = load_model(args.model)
    except Exception as e:
        raise StageError("load", e)
    try:
        test = _load_input(args.data)
    except Exception as e:
        raise StageError("load", e)
    try:
        name = args.name or model.learner
        report = evaluate(model, test)
        atomic_write_text(args.out, compare_table([(name, report)]))
        if args.detail:
            atomic_write_text(args.detail, render_detail(name, report))
    except Exception as e:
        raise StageError("evaluate", e)
    print(f"wrote {args.out}")
    return 0


def _pipeline_plan(args) -> dict:
    """Validate the options run and grid share: source, labeling, split."""
    master = _resolve_master_seed(args)
    if args.data is not None and args.synthetic is not None:
        raise UsageError("give either --data or --synthetic, not both")
    synthetic = None if args.data is not None else _parse_synthetic_token(
        args.synthetic or "default"
    )
    if args.label not in ("auto", "em", "none"):
        raise UsageError(f"--label must be auto, em, or none, got {args.label!r}")
    if args.components != 2:
        raise UsageError("labeling requires exactly 2 mixture components")
    if not 0.0 < args.split < 1.0:
        raise UsageError(f"--split must be in (0,1), got {args.split}")
    return {
        "master": master,
        "synthetic": synthetic,
        "seeds": {name: _stage_seed(master, name) for name in STAGE_OFFSETS},
    }


def _run_plan(args) -> dict:
    """Validate the whole run config before any artifact is written."""
    plan = _pipeline_plan(args)
    sample = _parse_sample_token(args.sample)
    cost_spec = _parse_cost_options(args.cost, args.cost_file)
    if cost_spec is not None and sample[0] != "none":
        raise UsageError("cost-sensitive training replaces sampling; drop --sample")
    if (args.learner is not None) and (args.stack is not None):
        raise UsageError("give at most one of --learner or --stack")
    token = args.stack if args.stack is not None else (args.learner or "smo")
    try:
        _validate_model_token(token)
    except ConfigError as e:
        raise UsageError(str(e))
    plan.update(sample=sample, cost=cost_spec, token=token)
    plan["seeds"][f"train.{token}"] = _train_seed(plan["master"], token)
    return plan


def _acquire_data(args, plan) -> Dataset:
    if args.data is not None:
        return _load_input(args.data)
    spec = plan["synthetic"]
    cfg = default_synthetic_config(
        row_count=spec["rows"],
        failure_fraction=spec["frac"],
        seed=plan["seeds"]["generate"],
        failure_shift_sigma=spec["shift"],
    )
    return generate_synthetic(cfg)


def _label_data(d: Dataset, args, seeds, artifacts):
    """auto: label only when unlabeled; em: always re-label; none: require labels."""
    if args.label == "none":
        if not d.label_presence:
            raise RiglineError("--label none needs a labeled dataset")
        return d
    if args.label == "auto" and d.label_presence:
        return d
    labeled, gmm = _em_label(d, args, seeds["label"])
    save_gmm(gmm, _out_path(args.out, "em_model.txt"))
    artifacts.append("em_model.txt")
    return labeled


def _prepare_data(args, plan, artifacts):
    """Stages acquire -> label (writing labeled.csv) -> split into args.out;
    returns (train, test)."""
    os.makedirs(args.out, exist_ok=True)
    try:
        d = _acquire_data(args, plan)
    except Exception as e:
        raise StageError("load" if args.data is not None else "generate", e)
    try:
        labeled = _label_data(d, args, plan["seeds"], artifacts)
        save_csv(labeled, _out_path(args.out, "labeled.csv"))
        artifacts.append("labeled.csv")
    except Exception as e:
        raise StageError("label", e)
    try:
        return split_train_test(labeled, args.split, seed=plan["seeds"]["split"])
    except Exception as e:
        raise StageError("split", e)


def _write_manifest(command: str, args, plan, config: dict, artifacts) -> None:
    atomic_write_text(
        _out_path(args.out, "manifest.txt"),
        _manifest_text(command, plan["master"], plan["seeds"], config,
                       artifacts + ["manifest.txt"]),
    )


def _cmd_run(args) -> int:
    plan = _run_plan(args)
    artifacts = []
    train, test = _prepare_data(args, plan, artifacts)

    try:
        kind, smote_cfg = plan["sample"]
        sampled = _apply_sampling(train, kind, smote_cfg, plan["seeds"]["sample"])
    except Exception as e:
        raise StageError("sample", e)

    try:
        cm = _resolve_cost(plan["cost"], sampled)
        model = _train_token_model(plan["token"], sampled, plan["master"], {}, cm)
        save_model(model, _out_path(args.out, "model.txt"))
        artifacts.append("model.txt")
    except Exception as e:
        raise StageError("train", e)

    try:
        name = plan["token"]
        report = evaluate(model, test)
        atomic_write_text(_out_path(args.out, "report.csv"), compare_table([(name, report)]))
        artifacts.append("report.csv")
        atomic_write_text(_out_path(args.out, "detail.txt"), render_detail(name, report))
        artifacts.append("detail.txt")
    except Exception as e:
        raise StageError("evaluate", e)

    config = _echo_common_config(args, plan)
    config["sample"] = (
        f"smote:k={smote_cfg.k_neighbors},ratio={smote_cfg.target_ratio}"
        if kind == "smote" else kind
    )
    config["model"] = plan["token"]
    _write_manifest("run", args, plan, config, artifacts)
    print(f"run complete: {args.out}/report.csv")
    return 0


def _echo_common_config(args, plan) -> dict:
    config = {
        "data": args.data or "-",
        "label": args.label,
        "components": args.components,
        "em_tol": args.em_tol,
        "em_max_iter": args.em_max_iter,
        "em_columns": ",".join(args.em_columns) if args.em_columns else "-",
        "em_raw": bool(args.em_raw),
        "split": args.split,
        "out": args.out,
    }
    if plan["synthetic"] is not None:
        spec = plan["synthetic"]
        config["synthetic"] = f"rows={spec['rows']},frac={spec['frac']},shift={spec['shift']}"
    else:
        config["synthetic"] = "-"
    cost = plan["cost"]
    if cost is None:
        config["cost"] = "-"
    elif cost == "default":
        config["cost"] = "default"
    else:
        config["cost"] = f"{cost.m[0][1]},{cost.m[1][0]}"
    return config


def _grid_plan(args) -> dict:
    plan = _pipeline_plan(args)
    regimes = _parse_list(args.regimes, "--regimes", choices=set(DEFAULT_REGIMES))
    if not regimes:
        raise UsageError("--regimes must name at least one regime")
    learners = _parse_list(args.learners, "--learners", choices=set(LEARNERS))
    if not learners:
        raise UsageError("--learners must name at least one learner")
    models = _parse_list(args.models, "--models") if args.models else ()
    for token in models:
        try:
            _validate_model_token(token)
        except ConfigError as e:
            raise UsageError(str(e))
    plan.update(
        regimes=regimes,
        learners=learners,
        models=models,
        cost=_parse_cost_options(args.cost, args.cost_file) or "default",
        smote=_smote_config(args.smote_k, args.smote_ratio, "--smote-k/--smote-ratio"),
    )
    for token in learners + models:
        plan["seeds"][f"train.{token}"] = _train_seed(plan["master"], token)
    return plan


def _grid_cell(token, train_set, master, cost_matrix, test, errors, cell_name):
    """Train and score one grid cell: its EvalReport, or None (an ERR column)
    when training or scoring fails."""
    try:
        return evaluate(_train_token_model(token, train_set, master, {}, cost_matrix), test)
    except Exception as e:
        errors.append(f"{cell_name}: {e}")
        return None


def _cmd_grid(args) -> int:
    plan = _grid_plan(args)
    master = plan["master"]
    artifacts = []
    errors = []
    table_names = []
    train, test = _prepare_data(args, plan, artifacts)

    def write_table(columns, what):
        fname = f"table{len(table_names) + 1}.csv"
        atomic_write_text(_out_path(args.out, fname), compare_table(columns))
        artifacts.append(fname)
        table_names.append((fname, what))

    none_reports = {}
    for regime in plan["regimes"]:
        try:
            kind = regime if regime in ("smote", "under") else "none"
            regime_train = _apply_sampling(train, kind, plan["smote"], plan["seeds"]["sample"])
            cost_matrix = _resolve_cost(plan["cost"], train) if regime == "cost" else None
        except Exception as e:
            raise StageError("sample", e)
        columns = [
            (learner, _grid_cell(learner, regime_train, master, cost_matrix, test,
                                 errors, f"{regime}/{learner}"))
            for learner in plan["learners"]
        ]
        if regime == "none":
            none_reports = dict(columns)
        write_table(columns, f"regime {regime}")

    best_name = None
    model_reports = {}
    if plan["models"]:
        columns = [
            (token, _grid_cell(token, train, master, None, test, errors, f"models/{token}"))
            for token in plan["models"]
        ]
        write_table(columns, "stacked models, no sampling")
        model_reports = {t: r for t, r in columns if r is not None}
        scored = [
            (r.roc_auc, r.tp_rate, -plan["models"].index(t), t)
            for t, r in model_reports.items()
        ]
        if scored:
            best_name = max(scored)[3]
            versus = [(best_name, model_reports[best_name])]
            for learner in plan["learners"]:
                if learner in none_reports:
                    versus.append((learner, none_reports[learner]))
                else:
                    versus.append((learner, _grid_cell(
                        learner, train, master, None, test, errors, f"none/{learner}"
                    )))
            write_table(versus, f"best model ({best_name}) vs single learners")

    summary = _grid_summary(table_names, best_name, model_reports, errors)
    atomic_write_text(_out_path(args.out, "summary.txt"), summary)
    artifacts.append("summary.txt")

    config = _echo_common_config(args, plan)
    config["regimes"] = ",".join(plan["regimes"])
    config["learners"] = ",".join(plan["learners"])
    config["models"] = ",".join(plan["models"]) if plan["models"] else "-"
    config["smote_k"] = plan["smote"].k_neighbors
    config["smote_ratio"] = plan["smote"].target_ratio
    _write_manifest("grid", args, plan, config, artifacts)
    print(f"grid complete: {len(table_names)} tables in {args.out}")
    return 0


def _grid_summary(table_names, best_name, model_reports, errors) -> str:
    lines = ["tables:"]
    for fname, what in table_names:
        lines.append(f"  {fname}: {what}")
    if best_name is not None:
        r = model_reports[best_name]
        lines.append(
            f"best model: {best_name} (ROC {r.roc_auc:.3f}, TP rate {r.tp_rate:.3f})"
        )
        lines.append("rank rule: highest ROC, then highest TP rate, then earliest column")
    if errors:
        lines.append("failed cells (ERR columns):")
        for e in errors:
            lines.append(f"  {e}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# argument parsing


def _add(parser, casters, *names, caster=str, **kwargs):
    parser.add_argument(*names, **kwargs)
    dest = names[-1].lstrip("-").replace("-", "_")
    casters[dest] = caster


def _add_flag(parser, casters, *names, help=None):
    parser.add_argument(*names, action="store_const", const=True, default=None, help=help)
    dest = names[-1].lstrip("-").replace("-", "_")
    casters[dest] = _parse_bool


def _add_seed_and_config(parser, casters):
    _add(parser, casters, "--seed", caster=int, type=int, default=None,
         help="master seed (RIGLINE_SEED env var overrides)")
    parser.add_argument("--config", default=None,
                        help="key=value file; explicit flags override it")


def _add_em_options(parser, casters, defaults):
    _add(parser, casters, "--components", caster=int, type=int, default=None,
         help="mixture components (labeling needs 2)")
    _add(parser, casters, "--em-tol", caster=float, type=float, default=None,
         help="relative log-likelihood convergence tolerance")
    _add(parser, casters, "--em-max-iter", caster=int, type=int, default=None,
         help="iteration cap for the mixture fit")
    _add(parser, casters, "--em-columns",
         caster=lambda s: _parse_list(s, "--em-columns"),
         type=lambda s: _parse_list(s, "--em-columns"), default=None,
         help="comma-separated feature names the clustering sees (default all)")
    _add_flag(parser, casters, "--em-raw",
              help="cluster raw features instead of standardized ones")
    defaults.update(
        components=2, em_tol=1e-6, em_max_iter=200, em_columns=None, em_raw=False
    )


def _add_source_options(parser, casters, defaults):
    _add(parser, casters, "--data", default=None,
         help="input CSV (a trailing 'class' column is used as labels)")
    _add(parser, casters, "--synthetic", default=None,
         help="synthetic source, e.g. rows=5000,frac=0.13,shift=2.0")
    defaults.update(data=None, synthetic=None)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rigline",
        description="failure-analysis pipeline: label, rebalance, train, compare",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {}

    p = sub.add_parser("generate", help="write a synthetic labeled sensor CSV")
    casters, defaults = {}, {}
    _add(p, casters, "--rows", caster=int, type=int, default=None)
    _add(p, casters, "--frac", caster=float, type=float, default=None)
    _add(p, casters, "--shift", caster=float, type=float, default=None)
    _add(p, casters, "--synthetic", default=None,
         help="alternative to --rows/--frac/--shift: rows=...,frac=...,shift=...")
    _add_flag(p, casters, "--unlabeled", help="drop the class column")
    _add(p, casters, "--out", default=None)
    _add_seed_and_config(p, casters)
    defaults.update(rows=None, frac=None, shift=None, synthetic=None,
                    unlabeled=False, out="synthetic.csv", seed=None)
    specs["generate"] = (casters, defaults, _cmd_generate)

    p = sub.add_parser("label", help="cluster an unlabeled CSV and write labels")
    casters, defaults = {}, {}
    _add(p, casters, "--data", required=True)
    _add(p, casters, "--out", default=None)
    _add(p, casters, "--save-gmm", default=None,
         help="also write the fitted mixture parameters")
    _add_em_options(p, casters, defaults)
    _add_seed_and_config(p, casters)
    defaults.update(out="labeled.csv", save_gmm=None, seed=None)
    specs["label"] = (casters, defaults, _cmd_label)

    p = sub.add_parser("sample", help="rebalance a labeled CSV")
    casters, defaults = {}, {}
    _add(p, casters, "--data", required=True)
    _add(p, casters, "--sample", required=True,
         help="none | under | smote:k=5,ratio=1.0")
    _add(p, casters, "--out", default=None)
    _add_seed_and_config(p, casters)
    defaults.update(out="sampled.csv", seed=None)
    specs["sample"] = (casters, defaults, _cmd_sample)

    p = sub.add_parser("train", help="fit a model on a labeled CSV")
    casters, defaults = {}, {}
    _add(p, casters, "--data", required=True)
    _add(p, casters, "--learner", default=None,
         help=f"one of {sorted(LEARNERS)}")
    _add(p, casters, "--stack", default=None,
         help="preset model1..model5 or stack:meta=smo;base=part,mlp,nb;folds=5")
    _add(p, casters, "--params", default=None,
         help="learner keyword arguments, e.g. n_trees=50,max_depth=8")
    _add(p, casters, "--cost", default=None,
         help="off-diagonal costs 'a,b', or 'default' for the class-ratio matrix")
    _add(p, casters, "--cost-file", default=None,
         help="two-line cost matrix file")
    _add(p, casters, "--out", default=None)
    _add_seed_and_config(p, casters)
    defaults.update(learner=None, stack=None, params=None, cost=None,
                    cost_file=None, out="model.txt", seed=None)
    specs["train"] = (casters, defaults, _cmd_train)

    p = sub.add_parser("evaluate", help="score a saved model on a labeled CSV")
    casters, defaults = {}, {}
    _add(p, casters, "--model", required=True)
    _add(p, casters, "--data", required=True)
    _add(p, casters, "--out", default=None)
    _add(p, casters, "--detail", default=None,
         help="also write a confusion-matrix detail report here")
    _add(p, casters, "--name", default=None, help="column name in the report")
    _add_seed_and_config(p, casters)
    defaults.update(out="report.csv", detail=None, name=None, seed=None)
    specs["evaluate"] = (casters, defaults, _cmd_evaluate)

    p = sub.add_parser("run", help="full pipeline into an output directory")
    casters, defaults = {}, {}
    _add_source_options(p, casters, defaults)
    _add(p, casters, "--label", default=None,
         help="auto (label only if unlabeled) | em (always) | none (require labels)")
    _add_em_options(p, casters, defaults)
    _add(p, casters, "--split", caster=float, type=float, default=None,
         help="training fraction of the labeled data")
    _add(p, casters, "--sample", default=None,
         help="none | under | smote:k=5,ratio=1.0 (training split only)")
    _add(p, casters, "--cost", default=None,
         help="train cost-sensitively: 'a,b' or 'default'")
    _add(p, casters, "--cost-file", default=None)
    _add(p, casters, "--learner", default=None)
    _add(p, casters, "--stack", default=None)
    _add(p, casters, "--out", default=None, help="output directory")
    _add_seed_and_config(p, casters)
    defaults.update(label="auto", split=0.66, sample=None, cost=None,
                    cost_file=None, learner=None, stack=None,
                    out="rigline_out", seed=None)
    specs["run"] = (casters, defaults, _cmd_run)

    p = sub.add_parser("grid", help="regimes-by-learners sweep with result tables")
    casters, defaults = {}, {}
    _add_source_options(p, casters, defaults)
    _add(p, casters, "--label", default=None)
    _add_em_options(p, casters, defaults)
    _add(p, casters, "--split", caster=float, type=float, default=None)
    _add(p, casters, "--regimes", default=None,
         help=f"comma list from {list(DEFAULT_REGIMES)}")
    _add(p, casters, "--learners", default=None,
         help=f"comma list from {sorted(LEARNERS)}")
    _add(p, casters, "--models", default=None,
         help="comma list of stack tokens; empty string skips the model tables")
    _add(p, casters, "--smote-k", caster=int, type=int, default=None)
    _add(p, casters, "--smote-ratio", caster=float, type=float, default=None)
    _add(p, casters, "--cost", default=None,
         help="cost regime matrix: 'a,b' (default: class-ratio matrix)")
    _add(p, casters, "--cost-file", default=None)
    _add(p, casters, "--out", default=None, help="output directory")
    _add_seed_and_config(p, casters)
    defaults.update(label="auto", split=0.66,
                    regimes=",".join(DEFAULT_REGIMES),
                    learners=",".join(DEFAULT_GRID_LEARNERS),
                    models=",".join(DEFAULT_GRID_MODELS),
                    smote_k=5, smote_ratio=1.0, cost=None, cost_file=None,
                    out="rigline_grid", seed=None)
    specs["grid"] = (casters, defaults, _cmd_grid)

    return parser, specs


def main(argv=None) -> int:
    parser, specs = build_parser()
    args = parser.parse_args(argv)
    casters, defaults, handler = specs[args.command]
    try:
        _fill_from_config(args, casters, defaults)
        return handler(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except StageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
