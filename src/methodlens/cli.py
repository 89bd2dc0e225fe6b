"""Command-line entry point.

Subcommands: extract, metrics, trace, label, pareto, bugs, correlate, rank,
train, report, pipeline.  Exit codes: 0 success, 2 configuration error,
3 repository error, 4 stage failure.
"""

from __future__ import annotations

import argparse
import logging
import sys
from contextlib import nullcontext
from dataclasses import fields, replace
from pathlib import Path

from .gitrepo import RepoAccessError, UnknownCommit
from .labeling import CLASSIFIER_NAMES
from .metrics import METRIC_NAMES, compute_metric_vector
from .pipeline import (
    ConfigError,
    INDICATOR_ALIASES,
    STAGES,
    MalformedInput,
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
    stage_header,
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
    p.set_defaults(func=cmd_stage)

    p = sub.add_parser("metrics", parents=[common],
                       help="write the methods with their metric vectors to metrics.ndjson in --out")
    p.add_argument("--methods", required=True, help="methods.ndjson from `extract`")
    p.add_argument("--csv", help="also write a 17-column metrics CSV")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("trace", parents=[common], help="trace per-method change histories")
    p.add_argument("--methods", required=True)
    p.add_argument("--theta", type=float, default=None)
    p.set_defaults(func=cmd_stage, inputs=("methods",))

    p = sub.add_parser("label", parents=[common], help="label methods good/bad/ugly")
    p.add_argument("--histories", required=True)
    p.add_argument("--indicator", choices=sorted(INDICATOR_ALIASES), default=None)
    p.add_argument("--ugly-fraction", type=float, default=None)
    p.set_defaults(func=cmd_stage, inputs=("histories",))

    p = sub.add_parser("pareto", parents=[common], help="change-concentration curves")
    p.add_argument("--labeled", required=True, help="dataset.ndjson from `label`")
    p.add_argument("--indicator", choices=sorted(INDICATOR_ALIASES), default=None)
    p.set_defaults(func=cmd_stage, inputs=("labeled",))

    p = sub.add_parser("bugs", parents=[common], help="bug-capture curves")
    p.add_argument("--labeled", required=True, help="dataset.ndjson from `label`")
    p.add_argument("--dataset", choices=["high-recall", "high-precision"], required=True)
    p.add_argument("--indicator", choices=sorted(INDICATOR_ALIASES), default=None)
    p.set_defaults(func=cmd_bugs, inputs=("labeled",))

    p = sub.add_parser("correlate", parents=[common], help="metric/indicator correlation table")
    p.add_argument("--labeled", required=True)
    p.add_argument("--indicator", choices=sorted(INDICATOR_ALIASES), default=None)
    p.set_defaults(func=cmd_stage, inputs=("labeled",))

    p = sub.add_parser("rank", parents=[common], help="surprisingly good/ugly candidates")
    p.add_argument("--labeled", required=True)
    p.add_argument("--histories", required=True)
    p.add_argument("--top", type=int, default=None, dest="top_n", metavar="TOP")
    p.add_argument("--per-project", type=int, default=None, dest="per_project_cap", metavar="PER_PROJECT")
    p.set_defaults(func=cmd_stage, inputs=("labeled", "histories"))

    p = sub.add_parser("train", parents=[common], help="train and evaluate classifiers")
    p.add_argument("--approach", type=int, choices=[1, 2], default=None)
    p.add_argument("--classifier", choices=list(CLASSIFIER_NAMES), action="append",
                   help="restrict to one classifier (repeatable; default: all)")
    p.add_argument("--dataset", required=True, help="dataset.ndjson from `label`")
    p.add_argument("--cdf-csv", help="also write (project, classifier, precision, recall) points of the "
                                     "ugly class; project is empty for approach 1's pooled test projects")
    p.set_defaults(func=cmd_train, inputs=("dataset",))

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
    """The config file's values with the flags' on top, checked by
    `PipelineConfig` as the file's values are.  A flag sets the field its
    destination names."""
    config = validate_config(args.config) if args.config else PipelineConfig()
    overrides = {f.name: getattr(args, f.name, None) for f in fields(PipelineConfig)}
    return replace(config, **{key: value for key, value in overrides.items() if value is not None})


def _run_stage(args, **extra) -> list[Path]:
    """Run the stage the subcommand names on the input files its flags name
    (`args.inputs` holds their flags' destinations in the order of the
    stage's inputs; a stage without inputs sets none), and print the paths
    it wrote.  Only a stage that reads the repository opens --repo and
    resolves --commit; the others ignore both."""
    stage = args.command
    inputs = {artifact: getattr(args, dest)
              for artifact, dest in zip(STAGES[stage].inputs, vars(args).get("inputs", ()), strict=True)}
    config = load_config(args)
    repo, snapshot = open_snapshot(config) if STAGES[stage].reads_repo else (None, "")
    with repo or nullcontext():
        Path(config.out).mkdir(parents=True, exist_ok=True)
        written = run_stage(stage, config, {name: Path(path) for name, path in inputs.items()},
                            repo, snapshot, **extra)
    print("wrote " + " and ".join(str(path) for path in written))
    return written


def cmd_stage(args) -> int:
    _run_stage(args)
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
    own_keys = stage_header("metrics", {})  # extract's extra fields are the rest of its header
    write_ndjson(metrics_path, "metrics", {"methods.ndjson": digest_file(methods_path)}, annotated,
                 extra_header={k: v for k, v in header.items() if k not in own_keys})
    print(f"wrote {len(annotated)} annotated records to {metrics_path}")
    if args.csv:
        rows = [[repr(float(getattr(v, name))) if isinstance(getattr(v, name), float)
                 else getattr(v, name) for name in METRIC_NAMES] for v in vectors]
        write_csv(Path(args.csv), list(METRIC_NAMES), rows)
        print(f"wrote {args.csv}")
    return EXIT_OK


def cmd_bugs(args) -> int:
    dataset = "highRecall" if args.dataset == "high-recall" else "highPrecision"
    _run_stage(args, datasets=(dataset,))
    return EXIT_OK


def cmd_train(args) -> int:
    [report_path] = _run_stage(args, classifiers=args.classifier)
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
    status = run_pipeline(load_config(args))
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
    except (StageError, MissingStage, MalformedInput) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_STAGE
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_STAGE


if __name__ == "__main__":
    sys.exit(main())
