"""Command-line interface.

Usage::

    epicurve <subcommand> --config pipeline.yaml [--out DIR]
    epicurve report --config pipeline.yaml [--out DIR] [--top N] [--bottom N]

Subcommands run one stage each (``features``, ``associate``, ``select``,
``fuse``, ``cluster``, ``report``) or the whole pipeline (``all``).
``report`` recomputes the order-1/2 scans from the inputs ``select`` reads
and rewrites the ranked reports, so with no ``--top``/``--bottom`` its
bytes are those ``select`` wrote.
Exit codes: 0 success, 2 config/validation error, 3 data error,
4 computation error.
"""

from __future__ import annotations

import dataclasses
import sys
from typing import Optional

import click

from . import pipeline
from .errors import ComputationError, ConfigError, DataError

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_COMPUTE = 4


def _run(fn, config_path: str, out: Optional[str], *args):
    """``fn(cfg, *args)`` on the config, its output overridden by ``out``; each
    package error ends in its exit code."""
    try:
        cfg = pipeline.load_config(config_path)
        fn(dataclasses.replace(cfg, output=out) if out else cfg, *args)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    except DataError as exc:
        click.echo(f"data error: {exc}", err=True)
        sys.exit(EXIT_DATA)
    except ComputationError as exc:
        click.echo(f"computation error: {exc}", err=True)
        sys.exit(EXIT_COMPUTE)


config_opt = click.option(
    "--config", "config_path", required=True, type=click.Path(exists=False),
    help="Path to the YAML pipeline config.",
)
out_opt = click.option("--out", default=None, help="Override the output directory.")


@click.group()
def main():
    """Infection-curve feature extraction and entropy-based analysis."""


for _name, _stage in pipeline.STAGES.items():
    @main.command(name=_name, help=_stage.__doc__.splitlines()[0])
    @config_opt
    @out_opt
    def _command(config_path, out, stage=_stage):  # bound now, not at the loop's end
        _run(stage, config_path, out)


@main.command(help="Rewrite the ranked reports, recomputing the order-1/2 scans "
                   "from the inputs `select` reads (categorical.csv, fused.csv, metadata).")
@config_opt
@out_opt
@click.option("--top", type=click.IntRange(min=0), default=None,
              help="Top-ranked rows to show.")
@click.option("--bottom", type=click.IntRange(min=0), default=None,
              help="Bottom-ranked rows to show.")
def report(config_path, out, top, bottom):
    _run(pipeline.stage_report, config_path, out, top, bottom)


@main.command(name="all", help="Run every stage and write the manifest.")
@config_opt
@out_opt
def run_all(config_path, out):
    _run(pipeline.run_pipeline, config_path, out)


if __name__ == "__main__":
    main()
