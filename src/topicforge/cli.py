"""Command-line entry point: one subcommand per pipeline stage.

Exit codes: 0 success, 1 fatal runtime error, 2 configuration error.
Progress goes to standard error; result tables go to standard output.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from . import pipeline
from .pipeline import ConfigError, PipelineError, STAGES

logger = logging.getLogger("topicforge")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topicforge",
        description="Topic-page creation pipeline: mine co-click data, train "
                    "intention embeddings, cluster and dedup topic keywords, "
                    "emit pages, evaluate with date-split experiments.")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="debug logging on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_stage(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="pipeline config YAML")
        p.add_argument("--workdir", default=None,
                       help="artifact directory (default from config)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config master seed")
        return p

    stage_help = {
        "ingest": "parse click log, catalog and blocklist; build candidates",
        "metric": "aggregate co-clicks and build the pair training set",
        "train": "pretrain the intention encoder",
        "finetune": "fine-tune the category classification head",
        "cluster": "classify product types, agglomerate topics and score "
                   "each representative's best page match",
        "dedup": "drop candidates covered by existing shelf/facet pages",
        "select": "pick topic keywords under the page quota",
        "emit": "emit topic page specs from the mock item retriever",
        "experiment": "plan, simulate and analyze the date-split experiment",
        "all": "run every stage in order",
    }
    for name, text in stage_help.items():
        add_stage(name, text)

    fx = sub.add_parser("fixture", help="write the bundled reference fixture")
    fx.add_argument("--out", required=True, help="output directory")

    pw = sub.add_parser("power", help="power curve over injected lifts")
    pw.add_argument("--lifts", default="0.0,0.02,0.04,0.08,0.11",
                    help="comma-separated lift fractions")
    design = pipeline.SECTIONS["experiment"][0]  # the config's defaults
    pw.add_argument("--base-mean", type=float, default=design["base_mean"])
    pw.add_argument("--noise-sd", type=float, default=design["noise_sd"])
    pw.add_argument("--days", type=int, default=design["n_days"])
    pw.add_argument("--seeds", type=int, default=200)
    pw.add_argument("--alpha", type=float, default=0.05)
    return parser


def _run_stages(args: argparse.Namespace) -> int:
    ctx = pipeline.load_context(args.config, args.workdir, args.seed)
    stages = STAGES if args.command == "all" else (args.command,)
    for stage in stages:
        # only ``all`` skips; a stage named on its own always runs
        if (args.command == "all"
                and pipeline.skip_report(ctx, stage) is not None):
            print(f"{stage}: skipped", file=sys.stderr)
            continue
        report = pipeline.run_stage(ctx, stage)
        print(f"{stage}: ok {report.counts}", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        if args.command == "fixture":
            from . import fixture as fixture_mod

            paths = fixture_mod.write_fixture(args.out)
            print(f"fixture written to {Path(args.out).resolve()}",
                  file=sys.stderr)
            print(str(paths["config"]))
            return 0
        if args.command == "power":
            # numpy is imported only here and by the stages that run
            from . import experiment as exp_mod

            design, check = pipeline.SECTIONS["experiment"]
            try:
                lifts = [float(x) for x in args.lifts.split(",") if x.strip()]
                if not 0.0 < args.alpha < 1.0:
                    raise ValueError(
                        f"alpha must be in (0, 1), got {args.alpha}")
                # the pipeline's own window and traffic checks, before any
                # simulation allocates the window
                for lift in lifts:
                    check(design["start_date"], args.days, args.base_mean,
                          args.noise_sd, lift)
                rows = [(lift, exp_mod.power_estimate(
                            lift, args.base_mean, args.noise_sd, args.days,
                            args.seeds, args.alpha))
                        for lift in lifts]
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
            print(f"{'lift':>8}  {'power':>7}")
            for lift, power in rows:
                print(f"{lift:>8.3f}  {power:>7.3f}")
            return 0
        return _run_stages(args)
    except ConfigError as exc:
        logger.error("config error: %s", exc)
        return 2
    except PipelineError as exc:
        logger.error("%s", exc)
        return 1
    except Exception as exc:  # fatal but typed exit, not a traceback
        logger.error("fatal: %s", exc, exc_info=True)
        return 1


if __name__ == "__main__":
    sys.exit(main())
