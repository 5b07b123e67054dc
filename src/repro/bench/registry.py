"""Experiment registry: id -> driver."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import ExperimentError
from repro.bench.experiments import ablations, fig1, fig2, fig3, \
    modelfit, readmix, sensitivity, table1, table2, throughput, \
    workload_census


@dataclass(frozen=True)
class Experiment:
    """One registered experiment: ``main()`` regenerates the artifact
    and returns its text."""

    id: str
    title: str
    paper_artifact: str
    main: Callable[[], str]


EXPERIMENTS: dict[str, Experiment] = {
    exp.id: exp for exp in (
        Experiment("fig1", "Analytic average execution time",
                   "Figure 1", fig1.main),
        Experiment("fig2", "Analytic abort percentage of sleeping "
                           "transactions", "Figure 2", fig2.main),
        Experiment("fig3", "Emulated GTM performance vs 2PL",
                   "Figure 3", fig3.main),
        Experiment("table1", "Operation-class compatibility matrix",
                   "Table I", table1.main),
        Experiment("table2", "Reconciliation example trace",
                   "Table II", table2.main),
        Experiment("ablations", "Section VII extensions (starvation, "
                                "constraints, deadlock, SST recovery)",
                   "Section VII", ablations.main),
        Experiment("sensitivity", "Paper claims across the unstated "
                                  "parameters (service time, load, "
                                  "outage vs timeout)",
                   "robustness", sensitivity.main),
        Experiment("throughput", "Committed throughput vs offered load "
                                 "(saturation ordering of the schemes)",
                   "extension", throughput.main),
        Experiment("modelfit", "Cross-validation: the Eq. 5 model vs "
                               "the emulation (rank agreement)",
                   "validation", modelfit.main),
        Experiment("census", "The 15 generated transaction classes "
                             "C = <T, op, X, eta>",
                   "Section VI-B", workload_census.main),
        Experiment("readmix", "Read/write mixing: Table I read "
                              "compatibility vs 2PL S/X blocking",
                   "extension", readmix.main),
    )
}


def get_experiment(experiment_id: str) -> Experiment:
    try:
        return EXPERIMENTS[experiment_id]
    except KeyError:
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; known: "
            f"{sorted(EXPERIMENTS)}") from None


def list_experiments() -> list[Experiment]:
    return list(EXPERIMENTS.values())
