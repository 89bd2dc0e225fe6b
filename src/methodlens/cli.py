"""Command-line entry point.

Subcommands: extract, metrics, trace, label, pareto, bugs, correlate, rank,
train, report, pipeline.  Exit codes: 0 success, 2 configuration error,
3 repository error, 4 stage failure.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace
from pathlib import Path

from .gitrepo import RepoAccessError, UnknownCommit
from .labeling import EmptyProject
from .metrics import METRIC_NAMES, compute_metric_vector
from .ml import CLASSIFIER_NAMES
from .pipeline import (
    ConfigError,
    INDICATOR_ALIASES,
    STAGES,
    MissingStage,
    PipelineConfig,
    StageError,
    _parsing,
    decl_from_record,
    digest_file,
    emit_plot_data,
    open_snapshot,
    read_ndjson,
    run_pipeline,
    run_stage,
    ugly_points,
    validate_config,
    write_csv,
    write_ndjson,
)

log = logging.getLogger("methodlens")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_REPO = 3
EXIT_STAGE = 4


def _common_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--repo", help="path to a local git clone")
    common.add_argument("--commit", help="snapshot commit sha")
    common.add_argument("--config", help="key = value configuration file")
    common.add_argument("--out", help="output directory (default: artifacts)")
    common.add_argument("--seed", type=int, help="root random seed")
    common.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _common_parser()
    parser = argparse.ArgumentParser(
        prog="methodlens",
        description="Mine per-method change histories from Java git repositories, "
                    "compute inception-time code metrics, and rank/predict "
                    "change-prone methods.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", parents=[common], help="extract methods at a snapshot")
    p.add_argument("--files", default=None, help="glob filter over repository paths")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("metrics", parents=[common],
                       help="write the methods with their metric vectors to metrics.ndjson in --out")
    p.add_argument("--methods", required=True, help="methods.ndjson from `extract`")
    p.add_argument("--csv", help="also write a 17-column metrics CSV")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("trace", parents=[common], help="trace per-method change histories")
    p.add_argument("--methods", required=True)
    p.add_argument("--theta", type=float, default=None)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("label", parents=[common], help="label methods good/bad/ugly")
    p.add_argument("--histories", required=True)
    p.add_argument("--indicator", choices=sorted(INDICATOR_ALIASES), default=None)
    p.add_argument("--ugly-fraction", type=float, default=None)
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("pareto", parents=[common], help="change-concentration curves")
    p.add_argument("--labeled", required=True, help="dataset.ndjson from `label`")
    p.add_argument("--indicator", choices=sorted(INDICATOR_ALIASES), default=None)
    p.set_defaults(func=cmd_pareto)

    p = sub.add_parser("bugs", parents=[common], help="bug-capture curves")
    p.add_argument("--labeled", required=True, help="dataset.ndjson from `label`")
    p.add_argument("--dataset", choices=["high-recall", "high-precision"], required=True)
    p.add_argument("--indicator", choices=sorted(INDICATOR_ALIASES), default=None)
    p.set_defaults(func=cmd_bugs)

    p = sub.add_parser("correlate", parents=[common], help="metric/indicator correlation table")
    p.add_argument("--labeled", required=True)
    p.add_argument("--indicator", choices=sorted(INDICATOR_ALIASES), default=None)
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("rank", parents=[common], help="surprisingly good/ugly candidates")
    p.add_argument("--labeled", required=True)
    p.add_argument("--histories", required=True)
    p.add_argument("--top", type=int, default=None)
    p.add_argument("--per-project", type=int, default=None)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("train", parents=[common], help="train and evaluate classifiers")
    p.add_argument("--approach", type=int, choices=[1, 2], default=None)
    p.add_argument("--classifier", choices=list(CLASSIFIER_NAMES), action="append",
                   help="restrict to one classifier (repeatable; default: all)")
    p.add_argument("--dataset", required=True, help="dataset.ndjson from `label`")
    p.add_argument("--cdf-csv", help="also write (project, classifier, precision, recall) points of the "
                                     "ugly class; project is empty for approach 1's pooled test projects")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("report", parents=[common], help="emit plot-ready CDF CSV files")
    p.add_argument("--artifacts", required=True, help="pipeline output directory")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("pipeline", parents=[common], help="run every stage end to end")
    p.add_argument("--files", default=None)
    p.add_argument("--indicator", choices=sorted(INDICATOR_ALIASES), default=None)
    p.add_argument("--ugly-fraction", type=float, default=None)
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--window-years", type=float, default=None)
    p.add_argument("--approach", type=int, choices=[1, 2], default=None)
    p.set_defaults(func=cmd_pipeline)

    return parser


def load_config(args) -> PipelineConfig:
    """The config file's values with the flags' on top, range-checked by
    `PipelineConfig` as the file's values are."""
    config = validate_config(args.config) if args.config else PipelineConfig()
    indicator = getattr(args, "indicator", None)
    overrides = {
        "repo": getattr(args, "repo", None),
        "commit": getattr(args, "commit", None),
        "out": getattr(args, "out", None),
        "seed": getattr(args, "seed", None),
        "files": getattr(args, "files", None),
        "ugly_fraction": getattr(args, "ugly_fraction", None),
        "theta": getattr(args, "theta", None),
        "window_years": getattr(args, "window_years", None),
        "approach": getattr(args, "approach", None),
        "top_n": getattr(args, "top", None),
        "per_project_cap": getattr(args, "per_project", None),
        "indicator": INDICATOR_ALIASES[indicator] if indicator is not None else None,
    }
    return replace(config, **{key: value for key, value in overrides.items() if value is not None})


def _require(config: PipelineConfig, *fields) -> None:
    for name in fields:
        if not getattr(config, name):
            raise ConfigError(f"--{name} is required (flag or config file)")


def _run_stage(args, stage: str, inputs: dict[str, str], **extra) -> list[Path]:
    """Run one stage on the input files named by the flags, with the
    snapshot of --repo/--commit, and print the paths it wrote.  A stage that
    reads the repository must read it at the snapshot its inputs were
    written at."""
    config = load_config(args)
    reads_repo = STAGES[stage].reads_repo
    if reads_repo:
        _require(config, "repo", "commit")
    repo, snapshot = open_snapshot(config)
    for path in inputs.values() if reads_repo else ():
        written_at = read_ndjson(Path(path))[0].get("snapshot")
        if written_at != snapshot:
            raise ConfigError(f"--commit resolves to {snapshot}, but {path} was written at {written_at}; "
                              f"run {stage} at the snapshot its input was written at")
    Path(config.out).mkdir(parents=True, exist_ok=True)
    written = run_stage(stage, config, {name: Path(path) for name, path in inputs.items()},
                        repo, snapshot, **extra)
    print("wrote " + " and ".join(str(path) for path in written))
    return written


def cmd_extract(args) -> int:
    _run_stage(args, "extract", {})
    return EXIT_OK


def cmd_metrics(args) -> int:
    config = load_config(args)
    methods_path = Path(args.methods)
    header, records = read_ndjson(methods_path)
    with _parsing(methods_path):
        decls = [decl_from_record(record) for record in records]
    vectors = [compute_metric_vector(decl) for decl in decls]
    annotated = [{**record, "metrics": vector.as_dict()} for record, vector in zip(records, vectors)]
    # a file of its own: rewriting methods.ndjson under extract's header would
    # make a later pipeline run skip extract and trace the annotated records
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    metrics_path = out / "metrics.ndjson"
    write_ndjson(metrics_path, "metrics", {"methods.ndjson": digest_file(methods_path)}, annotated,
                 extra_header={k: v for k, v in header.items()
                               if k not in ("schemaVersion", "stage", "toolVersion", "inputDigests")})
    print(f"wrote {len(annotated)} annotated records to {metrics_path}")
    if args.csv:
        rows = [[repr(float(getattr(v, name))) if isinstance(getattr(v, name), float)
                 else getattr(v, name) for name in METRIC_NAMES] for v in vectors]
        write_csv(Path(args.csv), list(METRIC_NAMES), rows)
        print(f"wrote {args.csv}")
    return EXIT_OK


def cmd_trace(args) -> int:
    _run_stage(args, "trace", {"methods.ndjson": args.methods})
    return EXIT_OK


def cmd_label(args) -> int:
    _run_stage(args, "label", {"histories.ndjson": args.histories})
    return EXIT_OK


def cmd_pareto(args) -> int:
    _run_stage(args, "pareto", {"dataset.ndjson": args.labeled})
    return EXIT_OK


def cmd_bugs(args) -> int:
    dataset = "highRecall" if args.dataset == "high-recall" else "highPrecision"
    _run_stage(args, "bugs", {"dataset.ndjson": args.labeled}, datasets=(dataset,))
    return EXIT_OK


def cmd_correlate(args) -> int:
    _run_stage(args, "correlate", {"dataset.ndjson": args.labeled})
    return EXIT_OK


def cmd_rank(args) -> int:
    _run_stage(args, "rank", {"dataset.ndjson": args.labeled, "histories.ndjson": args.histories})
    return EXIT_OK


def cmd_train(args) -> int:
    [report_path] = _run_stage(args, "train", {"dataset.ndjson": args.dataset}, classifiers=args.classifier)
    if args.cdf_csv:
        rows = [(project or "", name, precision, recall)
                for project, name, precision, recall in ugly_points(report_path)]
        write_csv(Path(args.cdf_csv), ["project", "classifier", "precision", "recall"], rows)
        print(f"wrote {args.cdf_csv}")
    return EXIT_OK


def cmd_report(args) -> int:
    load_config(args)  # validates --config
    written = emit_plot_data(args.artifacts)
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def cmd_pipeline(args) -> int:
    config = load_config(args)
    _require(config, "repo", "commit")
    status = run_pipeline(config)
    for stage, state in status.items():
        print(f"{stage}: {state}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (RepoAccessError, UnknownCommit) as err:
        print(f"repository error: {err}", file=sys.stderr)
        return EXIT_REPO
    except (StageError, MissingStage, EmptyProject) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_STAGE
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_STAGE


if __name__ == "__main__":
    sys.exit(main())
