"""Command-line interface: ``python -m repro <command>``.

Wires the library's offline/online workflow into eight commands:

``generate``
    Sample a synthetic dataset (or build a real-world-shaped preset) and
    write it to a ``.npz`` file.
``label``
    Run the CE testbed on a dataset file and print the per-model Q-error /
    latency / score table — Stage 1 for a single dataset.
``train``
    Build (or load from cache) a labeled corpus, train the advisor, and
    save it — Stages 1–3.
``recommend``
    Load a trained advisor and a dataset, print the recommended CE model
    and the full ranking — Stage 4.
``serve``
    Batch-serve recommendations for many datasets from one advisor, in
    process: parallel featurization, an in-memory embedding cache, int8
    candidate search from the configured RCS size threshold up, and
    optionally a coalescing stdin daemon.
``experiment``
    Re-run one of the paper's evaluation-section experiments and print its
    table.
``models``
    List the candidate CE models by family (query- or data-driven), then
    any other registered model.
``check``
    Run the repo's static-analysis rules (determinism and dtype-tier
    contracts) over the source tree — see ``docs/static_analysis.md``.

Every command is importable and unit-testable (:func:`main` takes argv).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .core.advisor import AutoCE, AutoCEConfig
from .core.persistence import AdvisorLoadError, load_advisor, save_advisor
from .datagen.multi_table import generate_dataset
from .datagen.presets import (ceb_like, imdb_light_like, power_like,
                              stats_light_like)
from .datagen.spec import random_spec
from .db.io import DatasetLoadError, load_dataset, save_dataset
from .testbed.runner import TestbedConfig, run_testbed
from .testbed.scores import ACCURACY_METRICS

PRESETS = {
    "imdb-light": imdb_light_like,
    "stats-light": stats_light_like,
    "power": power_like,
    "ceb": ceb_like,
}

#: Experiment name → (module name, description); resolved lazily because
#: the experiment drivers import the full stack.
EXPERIMENTS = {
    "fig1": ("fig1_motivation", "CE models across datasets (motivation)"),
    "fig7": ("fig7_loss_ablation", "weighted vs basic contrastive loss"),
    "fig8": ("fig8_selection_baselines", "AutoCE vs selection strategies"),
    "fig9": ("fig9_ce_baselines", "AutoCE vs fixed CE models"),
    "fig10": ("fig10_realworld", "efficacy on IMDB-20 / STATS-20"),
    "fig11": ("fig11_ablations", "DML and incremental-learning ablations"),
    "fig12": ("fig12_online_learning", "AutoCE vs online learning"),
    "fig13": ("fig13_online_adapting", "online adapting ablation"),
    "table1": ("table1_datasets", "dataset statistics"),
    "table2": ("table2_accuracy", "recommendation accuracy"),
    "table3": ("table3_ceb", "CEB benchmark (query-driven)"),
    "table4": ("table4_knn_k", "D-error under different k"),
    "table5": ("table5_e2e", "end-to-end latency in the engine"),
    "ablation-dml": ("ablation_dml_design",
                     "tau policy / similarity target ablation"),
    "ext-flat": ("ext_flat", "FLAT as an eighth candidate model"),
}


def fast_testbed_config(seed: int = 0) -> TestbedConfig:
    """A reduced-budget testbed for interactive use (seconds, not minutes)."""
    return TestbedConfig(
        num_train_queries=60, num_test_queries=12, sample_size=400,
        mscn_epochs=10, lwnn_epochs=15, made_epochs=2, latency_reps=1,
        seed=seed)


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------
def cmd_generate(args: argparse.Namespace) -> int:
    if args.preset:
        # Presets carry their own canonical seeds; only override when the
        # user asked for a specific one.
        kwargs = {} if args.seed is None else {"seed": args.seed}
        dataset = PRESETS[args.preset](**kwargs)
    else:
        dataset = generate_dataset(random_spec(args.seed or 0))
    save_dataset(dataset, args.out)
    rows = sum(t.num_rows for t in dataset.tables.values())
    cols = sum(t.num_columns for t in dataset.tables.values())
    print(f"wrote {args.out}: dataset {dataset.name!r} with "
          f"{len(dataset.tables)} tables, {rows} rows, {cols} columns, "
          f"{len(dataset.foreign_keys)} foreign keys")
    return 0


def cmd_label(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset)
    config = fast_testbed_config(args.seed) if args.fast else TestbedConfig(seed=args.seed)
    label = run_testbed(dataset, config=config)
    scored = label.with_accuracy_metric(args.metric)
    scores = scored.score_vector(args.weight)
    stats = label.accuracy_stat(args.metric)

    print(f"dataset {dataset.name!r}  (accuracy metric: {args.metric}, "
          f"w_a = {args.weight})")
    header = f"{'model':<12} {'Q-error':>10} {'latency ms':>11} {'score':>7}"
    print(header)
    print("-" * len(header))
    order = np.argsort(-scores)
    for i in order:
        print(f"{label.model_names[i]:<12} {stats[i]:>10.3f} "
              f"{label.latency_means[i] * 1000:>11.4f} {scores[i]:>7.3f}")
    print(f"best model: {scored.best_model(args.weight)}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    from .experiments.corpus import CorpusConfig, build_corpus

    testbed = fast_testbed_config(args.seed) if args.fast else TestbedConfig(seed=args.seed)
    config = CorpusConfig(num_datasets=args.corpus, base_seed=args.seed,
                          testbed=testbed)
    print(f"labeling corpus of {args.corpus} datasets "
          f"(cached under {args.cache or 'the default cache dir'}) ...")
    entries = build_corpus(config, cache_dir=args.cache)
    print(f"training AutoCE on {len(entries)} labeled datasets "
          f"({args.dtype} precision tier) ...")
    advisor = AutoCE(AutoCEConfig(seed=args.seed, dtype=args.dtype))
    advisor.fit([e.graph for e in entries], [e.label for e in entries])
    save_advisor(advisor, args.out)
    print(f"wrote {args.out}: advisor over {len(entries)} labeled datasets, "
          f"final DML loss {advisor.loss_history[-1]:.4f}")
    return 0


def cmd_recommend(args: argparse.Namespace) -> int:
    advisor = load_advisor(args.advisor)
    dataset = load_dataset(args.dataset)
    graph = advisor.featurize(dataset)
    if advisor.is_drifted(graph):
        print("warning: dataset looks out-of-distribution for this advisor "
              "(drift detected); consider online adaptation", file=sys.stderr)
    rec = advisor.recommend(graph, accuracy_weight=args.weight, k=args.k)
    print(f"dataset {dataset.name!r}  (w_a = {args.weight})")
    print(f"recommended model: {rec.model}")
    print("ranking:")
    for name, score in rec.ranking():
        marker = " <--" if name == rec.model else ""
        print(f"  {name:<12} {score:.3f}{marker}")
    return 0


def _error(message: str) -> int:
    """Readable operator-facing failure: one stderr line, exit code 2."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def cmd_serve(args: argparse.Namespace) -> int:
    if not args.datasets and not args.daemon:
        return _error("no datasets given (pass dataset files, or "
                      "--daemon to read paths from stdin)")
    advisor = load_advisor(args.advisor)
    if args.dtype:
        # Destructive full-tier cast (weights included); raises on an
        # upcast attempt against the persisted tier.
        advisor.set_dtype(args.dtype)

    served = _serve_requests(args, advisor)
    print(f"served {served} recommendations (w_a = {args.weight})")
    cache = advisor.embedding_cache
    if cache is not None:
        print(f"embedding cache (in-memory): {cache.hits} hits / "
              f"{cache.misses} misses")
    index = advisor.rcs.index
    kind = f"{index.kind} candidates" if index is not None else "exact"
    print(f"neighbor search: {kind} over {len(advisor.rcs)} RCS members "
          f"({advisor.config.dtype} tier)")
    return 0


def _serve_requests(args: argparse.Namespace, advisor: AutoCE) -> int:
    """Serve the batch (or the stdin stream under ``--daemon``).

    Returns the number of recommendations served.  Under ``--daemon`` the
    stdin stream is coalesced into micro-batches of the lines already
    available, up to ``--max-batch``, so concurrent callers amortize the
    GIN forward and the KNN scan, and a malformed or unreadable dataset
    costs one stderr line, never the daemon.
    """
    from .serving import BatchingConfig, iter_batches

    def serve(paths: list[str], *, lenient: bool = False) -> int:
        datasets = []
        for path in paths:
            if not lenient:
                datasets.append(load_dataset(path))
                continue
            try:
                datasets.append(load_dataset(path))
            except DatasetLoadError as error:
                # A missing, truncated or malformed dataset file must not
                # kill the stream — report it and serve the rest.
                print(f"  {path} -> ERROR: {error}", file=sys.stderr)
        if not datasets:
            return 0
        recs = advisor.recommend_batch(datasets, accuracy_weight=args.weight,
                                       k=args.k)
        for dataset, rec in zip(datasets, recs):
            print(f"  {dataset.name:<24} -> {rec.model}")
        return len(recs)

    if not args.daemon:
        return serve(list(args.datasets))
    print("daemon: reading dataset paths from stdin (one per line, "
          "EOF stops)", flush=True)
    batching = BatchingConfig(max_batch=args.max_batch)
    served = 0
    for batch in iter_batches(sys.stdin, batching):
        try:
            served += serve(batch, lenient=True)
        except (OSError, ValueError) as error:
            for path in batch:
                print(f"  {path} -> ERROR: {error}", file=sys.stderr)
        sys.stdout.flush()
    return served


def cmd_experiment(args: argparse.Namespace) -> int:
    import importlib

    names = list(EXPERIMENTS) if args.name == "all" else [args.name]
    for name in names:
        module_name, _ = EXPERIMENTS[name]
        module = importlib.import_module(f".experiments.{module_name}",
                                         package=__package__)
        result = module.run()
        print(result.text)
        print()
    return 0


def cmd_models(args: argparse.Namespace) -> int:
    from .ce.registry import (CANDIDATE_MODELS, DATA_DRIVEN_MODELS,
                              QUERY_DRIVEN_MODELS, available_models)

    print("candidate models:", ", ".join(CANDIDATE_MODELS))
    print("  query-driven:  ", ", ".join(QUERY_DRIVEN_MODELS))
    print("  data-driven:   ", ", ".join(DATA_DRIVEN_MODELS))
    extras = [m for m in available_models() if m not in CANDIDATE_MODELS]
    if extras:
        print("also registered: ", ", ".join(extras))
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def accuracy_weight(text: str) -> float:
    """argparse type of ``--weight``: a float in [0, 1] (Eq. 2's w_a)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid accuracy weight {text!r}: expected a number in [0, 1]"
        ) from None
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(
            f"accuracy weight {text} is outside [0, 1]")
    return value


def positive_int(text: str) -> int:
    """argparse type of ``--k``, ``--max-batch`` and ``train --corpus``."""
    try:
        value = int(text)
        if value >= 1:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"invalid value {text!r}: expected a positive integer")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="AutoCE reproduction: a model advisor for learned "
                    "cardinality estimation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic dataset")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--preset", choices=sorted(PRESETS),
                   help="use a real-world-shaped preset schema")
    p.add_argument("--out", default="dataset.npz", help="output .npz path")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("label", help="run the CE testbed on a dataset")
    p.add_argument("dataset", help="dataset .npz produced by 'generate'")
    p.add_argument("--weight", type=accuracy_weight, default=1.0,
                   help="accuracy weight w_a in [0, 1]")
    p.add_argument("--metric", choices=ACCURACY_METRICS, default="mean",
                   help="Q-error statistic used as the accuracy score")
    p.add_argument("--fast", action="store_true",
                   help="reduced-budget testbed (seconds instead of minutes)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("train", help="label a corpus and train the advisor")
    p.add_argument("--corpus", type=positive_int, default=60,
                   help="number of synthetic training datasets")
    p.add_argument("--out", default="advisor.npz", help="output advisor path")
    p.add_argument("--cache", default=None, help="label cache directory")
    p.add_argument("--fast", action="store_true",
                   help="reduced-budget testbed for labeling")
    p.add_argument("--dtype", choices=("float64", "float32"),
                   default="float64",
                   help="precision tier of the encoder and embeddings "
                        "(float32 = fast tier)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("recommend", help="recommend a CE model for a dataset")
    p.add_argument("dataset", help="dataset .npz produced by 'generate'")
    p.add_argument("--advisor", required=True, help="advisor .npz from 'train'")
    p.add_argument("--weight", type=accuracy_weight, default=1.0,
                   help="accuracy weight w_a in [0, 1]")
    p.add_argument("--k", type=positive_int, default=None,
                   help="KNN neighbours (default: the advisor's k)")
    p.set_defaults(func=cmd_recommend)

    p = sub.add_parser("serve",
                       help="batch-serve recommendations for many datasets "
                            "in process")
    p.add_argument("datasets", nargs="*",
                   help="dataset .npz files produced by 'generate' "
                        "(optional with --daemon)")
    p.add_argument("--daemon", action="store_true",
                   help="read dataset paths from stdin (one per line) and "
                        "serve each until EOF; the lines already "
                        "available are coalesced into micro-batches (see "
                        "--max-batch)")
    p.add_argument("--max-batch", type=positive_int, default=16,
                   help="largest number of daemon requests coalesced into "
                        "one batched recommend call (default 16)")
    p.add_argument("--advisor", required=True, help="advisor .npz from 'train'")
    p.add_argument("--weight", type=accuracy_weight, default=1.0,
                   help="accuracy weight w_a in [0, 1]")
    p.add_argument("--k", type=positive_int, default=None,
                   help="KNN neighbours (default: the advisor's k)")
    p.add_argument("--dtype", choices=("float64", "float32"), default=None,
                   help="destructively cast the whole advisor (weights "
                        "included) to this tier; upcasting a float32-saved "
                        "advisor is refused")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("experiment",
                       help="re-run a paper experiment and print its table")
    p.add_argument("name", choices=sorted(EXPERIMENTS) + ["all"],
                   help="figure/table id, or 'all'")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("models", help="list the registered CE models")
    p.set_defaults(func=cmd_models)

    from .analysis.cli import add_check_parser
    add_check_parser(sub)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (AdvisorLoadError, DatasetLoadError) as error:
        # An unusable advisor or dataset file named on the command line
        # fails like a bad flag value: one line, exit 2.  The daemon
        # reports bad stdin paths itself and keeps serving.
        return _error(str(error))


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
