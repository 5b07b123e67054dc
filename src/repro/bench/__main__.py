"""CLI: ``python -m repro.bench [experiment ...]``.

With no arguments, lists the registered experiments.  With ids (or
``all``), runs each and prints the regenerated table/figure data;
``--output-dir DIR`` additionally archives each experiment's output as
``DIR/<id>.txt``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.bench.registry import get_experiment, list_experiments


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Regenerate the paper's tables and figures.")
    parser.add_argument("experiments", nargs="*",
                        help="experiment ids (fig1 fig2 fig3 table1 "
                             "table2 ablations sensitivity throughput), "
                             "or 'all'")
    parser.add_argument("-o", "--output-dir", default=None,
                        help="also write each experiment's output to "
                             "<dir>/<id>.txt")
    arguments = parser.parse_args(argv)

    if not arguments.experiments:
        print("Registered experiments:\n")
        for experiment in list_experiments():
            print(f"  {experiment.id:12s} {experiment.paper_artifact:12s} "
                  f"{experiment.title}")
        print("\nRun with: python -m repro.bench <id> [...] | all")
        return 0

    output_dir: Path | None = None
    if arguments.output_dir is not None:
        output_dir = Path(arguments.output_dir)
        output_dir.mkdir(parents=True, exist_ok=True)

    requested = arguments.experiments
    if requested == ["all"]:
        requested = [e.id for e in list_experiments()]
    for experiment_id in requested:
        experiment = get_experiment(experiment_id)
        banner = f"=== {experiment.paper_artifact}: {experiment.title} ==="
        output = experiment.main()
        print(banner)
        print(output)
        print()
        if output_dir is not None:
            (output_dir / f"{experiment.id}.txt").write_text(
                f"{banner}\n{output}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
