"""Command-line entry point.

Subcommands: eda, train, ablate, importance, roc, fixture. Every command
computes all its outputs before it makes the --out directory, so a
rejected run leaves no directory and no file behind. Exit codes: 0
success, 1 runtime error (one diagnostic line on stderr), 2 usage error.
No environment variables are consulted; everything is a flag.
``--threads`` is the number of forked cell workers, at most the CPUs
this process may use. Its default is those CPUs when dropcast runs as
the program (``main()``), and 1 when another program calls
``main(argv)``: a fork copies the whole calling process, with any
threads and memory of its own, so dropcast forks a host only when asked.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import eda as eda_ops
from . import report as report_ops
from .errors import DropcastError, InvalidArgumentError
from .experiments import DEFAULT_SEEDS, RunConfig, evaluate_cells, load_binary, run_ablation
from .fixture import generate_fixture
from .ingest import FeatureGroup, default_manifest_path, load_dataset, load_manifest, to_binary
from .metrics import forest_importance
from .models import GRID_MODEL_ORDER, HyperParams, ModelKind
from .models.serialize import save_model
from .preprocess import exclude_group
from .rng import check_seeds
from .svg import emit_roc_svg

# Unused here; bound only because the trace in perfbench/spans.py patches these names.
from .experiments import evaluate_single, run_baseline, split  # noqa: F401

_MODEL_CODES = {kind.value: kind for kind in ModelKind}

# Features whose per-category rates the eda command tabulates, matching
# the charted socio-demographic breakdowns.
EDA_RATE_FEATURES = (
    "Marital status",
    "Daytime/evening attendance",
    "Displaced",
    "Educational special needs",
    "Debtor",
    "Tuition fees up to date",
    "Scholarship holder",
    "International",
)


def _slug(name: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in name.lower())


def _add_data_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data", required=True, help="records CSV path")
    parser.add_argument(
        "--manifest",
        default=None,
        help="feature-group manifest path (default: shipped default-34 manifest)",
    )
    parser.add_argument("--delimiter", type=_one_char, default=";",
                        help="CSV delimiter, one character (default ';')")


def _one_char(text: str) -> str:
    if len(text) != 1:
        raise argparse.ArgumentTypeError(f"must be exactly one character, got {text!r}")
    return text


def _seed_list(text: str) -> tuple[int, ...]:
    """Comma-separated integer seeds, checked as ``RunConfig`` checks them."""
    try:
        seeds = tuple(int(s) for s in text.split(",") if s.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of integers: {text!r}") from None
    try:
        check_seeds(seeds)
    except InvalidArgumentError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return seeds


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--seeds",
        type=_seed_list,
        default=",".join(str(s) for s in DEFAULT_SEEDS),
        help="comma-separated split seeds (default 42,43,44,45,46)",
    )
    parser.add_argument("--test-fraction", type=float, default=0.2)
    parser.add_argument("--threads", type=_positive_int,
                        help="worker processes for the cells, at least 1, capped at the cells "
                             "and at the usable CPUs (default: the usable CPUs); outputs do not "
                             "depend on it")
    _add_hyper_flags(parser)


def _add_model_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--model",
        choices=[*sorted(_MODEL_CODES), "all"],
        default="all",
        help="classifier to run (default all four)",
    )


def _add_exclude_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--exclude",
        choices=[g.value for g in FeatureGroup],
        default=None,
        help="drop all columns of one feature group before training",
    )


def _add_hyper_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tree-max-depth", type=int, default=5)
    parser.add_argument("--forest-trees", type=int, default=100)
    parser.add_argument("--svm-c", type=float, default=1.0)
    parser.add_argument("--svm-epochs", type=int, default=200)
    parser.add_argument("--knn-k", type=int, default=20)
    parser.add_argument("--train-seed", type=int, default=42, help="model-internal seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dropcast",
        description="Student dropout prediction: training, evaluation, feature-group ablation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eda = sub.add_parser("eda", help="emit exploratory statistics as CSV files")
    _add_data_flags(p_eda)
    p_eda.add_argument("--out", default=".", help="output directory")

    p_train = sub.add_parser("train", help="train models, write ROC CSVs and a JSON report")
    _add_data_flags(p_train)
    _add_run_flags(p_train)
    _add_model_flag(p_train)
    _add_exclude_flag(p_train)
    p_train.add_argument("--out", default=".", help="output directory")
    p_train.add_argument("--save-models", action="store_true",
                         help="also write each trained model in the text format")

    p_roc = sub.add_parser("roc", help="train and plot all ROC curves into one SVG")
    _add_data_flags(p_roc)
    _add_run_flags(p_roc)
    _add_model_flag(p_roc)
    _add_exclude_flag(p_roc)
    p_roc.add_argument("--out", default=".", help="output directory")

    # The grid excludes every group in turn, so ablate takes no --exclude.
    p_ablate = sub.add_parser("ablate", help="run the feature-group exclusion grid")
    _add_data_flags(p_ablate)
    _add_run_flags(p_ablate)
    _add_model_flag(p_ablate)
    p_ablate.add_argument("--out", default=".", help="output directory")
    p_ablate.set_defaults(exclude=None)

    # Importance is read off the random forest, so it takes no --model.
    p_imp = sub.add_parser("importance", help="random-forest feature importance")
    _add_data_flags(p_imp)
    _add_run_flags(p_imp)
    _add_exclude_flag(p_imp)
    p_imp.add_argument("--out", default=".", help="output directory")
    p_imp.set_defaults(model=ModelKind.RANDOM_FOREST.value)

    p_fix = sub.add_parser("fixture", help="generate a synthetic records file")
    p_fix.add_argument("--rows", type=int, required=True)
    p_fix.add_argument("--seed", type=int, default=42)
    p_fix.add_argument("--planted-group", choices=[g.value for g in FeatureGroup], default=None)
    p_fix.add_argument("--strength", type=float, default=0.0)
    p_fix.add_argument("--out", default=".", help="output directory")
    return parser


def _config_from_args(args) -> RunConfig:
    models = GRID_MODEL_ORDER if args.model == "all" else (_MODEL_CODES[args.model],)
    hp = HyperParams(
        tree_max_depth=args.tree_max_depth,
        forest_n_trees=args.forest_trees,
        svm_regularization_c=args.svm_c,
        svm_epochs=args.svm_epochs,
        knn_k=args.knn_k,
        seed=args.train_seed,
    )
    return RunConfig(
        data_path=args.data,
        manifest_path=args.manifest or default_manifest_path(),
        delimiter=args.delimiter,
        excluded_group=FeatureGroup(args.exclude) if args.exclude else None,
        models=models,
        seeds=args.seeds,
        test_fraction=args.test_fraction,
        hyperparams=hp,
    )


def _workers(args) -> int:
    return min(args.threads, usable_cpus())


def _out_dir(args) -> Path:
    """The --out directory, made if missing; called only once a command
    has computed everything it writes."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_eda(args) -> int:
    manifest = load_manifest(args.manifest or default_manifest_path())
    dataset = load_dataset(args.data, manifest, delimiter=args.delimiter)
    classes = eda_ops.class_distribution(dataset)
    binary = to_binary(dataset)
    del dataset  # free the three-outcome matrix before the correlation's copies
    gender = (eda_ops.gender_distribution(binary)
              if eda_ops.GENDER_COLUMN in binary.column_names else None)
    rates = {feature: eda_ops.rate_by_category(binary, feature)
             for feature in EDA_RATE_FEATURES if feature in binary.column_names}
    correlation = eda_ops.correlation_matrix(binary)
    out = _out_dir(args)

    report_ops.write_class_distribution_csv(classes, out / "eda_class_distribution.csv")
    if gender is not None:
        report_ops.write_gender_csv(gender, out / "eda_gender_distribution.csv")
    for feature, table in rates.items():
        report_ops.write_category_rates_csv(table, out / f"eda_rates_{_slug(feature)}.csv")
    report_ops.write_correlation_csv(correlation, out / "eda_correlation.csv")
    return 0


def _cmd_train(args, command: str = "train") -> int:
    config = _config_from_args(args)
    binary, manifest_version = load_binary(config)
    keep = (lambda model: model) if getattr(args, "save_models", False) else (lambda model: None)
    cells = list(evaluate_cells(binary, (config.excluded_group,), config, _workers(args), keep))
    out = _out_dir(args)
    for model, rep in cells:
        report_ops.write_roc_csv(rep.curve, out / report_ops.roc_csv_name(rep.model_kind.label, rep.seed))
        if model is not None:
            save_model(model, out / f"model_{rep.model_kind.value}_seed{rep.seed}.txt")
    reports = [rep for _, rep in cells]
    doc = report_ops.build_run_document(command, config, manifest_version, reports)
    report_ops.write_json(doc, out / "report.json")
    if command == "roc":
        emit_roc_svg(reports, out / "roc.svg")
    return 0


def _cmd_ablate(args) -> int:
    config = _config_from_args(args)
    ablation = run_ablation(config, _workers(args))
    out = _out_dir(args)
    doc = report_ops.build_ablation_document(config, ablation)
    report_ops.write_json(doc, out / "report.json")
    report_ops.write_json(doc["ablation"], out / "ablation.json")
    report_ops.write_ablation_csv(ablation, out / "ablation.csv")

    # Baseline-column curves for the first seed, one per model.
    first_baseline = [
        r for r in ablation.runs if r.excluded_group is None and r.seed == config.seeds[0]
    ]
    emit_roc_svg(first_baseline, out / "roc.svg")
    return 0


def _cmd_importance(args) -> int:
    config = _config_from_args(args)
    binary, manifest_version = load_binary(config)
    if config.excluded_group is not None:
        binary = exclude_group(binary, config.excluded_group)
    # The exclusion is applied above, so the cells use every column left.
    cells = evaluate_cells(binary, (None,), config, _workers(args), keep=forest_importance)
    per_seed = [vector for vector, _ in cells]
    # Average the per-seed vectors in seed order, then rank by value, then name.
    combined = sum(vector / len(per_seed) for vector in per_seed)
    ranked = sorted(zip(binary.column_names, combined.tolist()),
                    key=lambda item: (-item[1], item[0]))
    out = _out_dir(args)
    report_ops.write_importance_csv(ranked, out / "importance.csv")

    doc = report_ops.build_run_document("importance", config, manifest_version, [])
    group = config.excluded_group
    doc["excluded_group"] = None if group is None else group.value
    doc["importance"] = [{"feature": name, "importance": v} for name, v in ranked]
    report_ops.write_json(doc, out / "report.json")
    return 0


def _cmd_fixture(args) -> int:
    out = Path(args.out)  # generate_fixture makes it once the arguments pass
    planted = FeatureGroup(args.planted_group) if args.planted_group else None
    generate_fixture(
        out / "fixture.csv",
        out / "fixture_manifest.tsv",
        n_rows=args.rows,
        seed=args.seed,
        planted_group=planted,
        signal_strength=args.strength,
    )
    return 0


_COMMANDS = {
    "eda": _cmd_eda,
    "train": _cmd_train,
    "roc": lambda args: _cmd_train(args, command="roc"),
    "ablate": _cmd_ablate,
    "importance": _cmd_importance,
    "fixture": _cmd_fixture,
}


def main(argv=None) -> int:
    """Run the command in ``argv``, or in ``sys.argv`` when it is None."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "threads", 1) is None:
        # The program forks by default; a calling program only when it asks.
        args.threads = usable_cpus() if argv is None else 1
    try:
        return _COMMANDS[args.command](args)
    except (DropcastError, OSError) as exc:
        print(f"dropcast: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
