"""The Section II motivating scenario: a web travel agency.

"Let us consider an hypothetical agency which sells, via web,
personalized package tours for visiting museums: a user buys flight
tickets, makes hotel reservation, rents a car and reserves tickets for
museums."

:class:`TravelAgency` builds the full stack for that scenario:

- the LDBS schema (``flight``, ``hotel``, ``museum``, ``car``) with the
  paper's ``FreeTickets >= 0``-style constraints;
- one GTM managed object per reservable cell, bound to the LDBS so
  commits flow through real SSTs;
- multi-step *package tour* transactions (one subtraction per leg) for
  mobile customers, and price-setting *admin* transactions (assignments)
  for wired staff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.gtm import GlobalTransactionManager
from repro.core.objects import ObjectBinding
from repro.core.opclass import assign, subtract
from repro.ldbs.constraints import NonNegative
from repro.ldbs.backend import MemoryBackend
from repro.ldbs.schema import Column, ColumnType, TableSchema
from repro.mobile.client import ThinkTimeModel
from repro.mobile.network import BernoulliDisconnection
from repro.mobile.session import build_plan
from repro.sim.rng import RandomStreams
from repro.workload.spec import (
    TransactionProfile,
    TransactionStep,
    Workload,
)

#: (table, stock column, extra columns) per reservable resource type.
_RESOURCES: tuple[tuple[str, str, tuple[tuple[str, ColumnType], ...]], ...] = (
    ("flight", "free_tickets", (("company", ColumnType.TEXT),
                                ("price", ColumnType.FLOAT))),
    ("hotel", "free_rooms", (("town", ColumnType.TEXT),
                             ("price", ColumnType.FLOAT))),
    ("museum", "free_tickets", (("town", ColumnType.TEXT),
                                ("price", ColumnType.FLOAT))),
    ("car", "free_cars", (("town", ColumnType.TEXT),
                          ("price", ColumnType.FLOAT))),
)


@dataclass(frozen=True)
class TravelWorkloadConfig:
    """Knobs of the travel-agency workload."""

    n_customers: int = 200
    #: Fraction of transactions that are admin price updates.
    admin_fraction: float = 0.05
    #: Resources of each type (flights, hotels, museums, cars).
    n_per_type: int = 3
    initial_stock: int = 500
    #: Mean inter-arrival (exponential).
    interarrival_mean: float = 0.5
    #: P(disconnection) for mobile customers.
    beta: float = 0.1
    disconnect_duration_mean: float = 8.0
    work_time_mean: float = 4.0
    work_time_jitter: float = 0.4
    seed: int = 42


class TravelAgency:
    """Builds the travel-agency database, GTM objects and workloads."""

    def __init__(self, config: TravelWorkloadConfig | None = None) -> None:
        self.config = config or TravelWorkloadConfig()
        self.backend = MemoryBackend()
        self._build_schema()
        #: object name -> (table, key, stock column)
        self.stock_objects: dict[str, tuple[str, int, str]] = {}
        self.price_objects: dict[str, tuple[str, int, str]] = {}
        self._seed_rows()

    # -- substrate construction ------------------------------------------------

    def _build_schema(self) -> None:
        for table, stock_column, extras in _RESOURCES:
            columns = [Column("id", ColumnType.INT)]
            columns.extend(Column(name, ctype, nullable=True)
                           for name, ctype in extras)
            columns.append(Column(stock_column, ColumnType.INT))
            schema = TableSchema(name=table, columns=tuple(columns),
                                 primary_key="id")
            self.backend.create_table(
                schema, constraints=[NonNegative(table, stock_column)])

    def _seed_rows(self) -> None:
        towns = ("Naples", "Avellino", "Rome")
        for table, stock_column, extras in _RESOURCES:
            rows = []
            for index in range(self.config.n_per_type):
                row: dict[str, object] = {
                    "id": index + 1,
                    stock_column: self.config.initial_stock,
                    "price": 100.0,
                }
                if any(name == "company" for name, _t in extras):
                    row["company"] = f"AZ{index + 1:03d}"
                if any(name == "town" for name, _t in extras):
                    row["town"] = towns[index % len(towns)]
                rows.append(row)
                stock_name = f"{table}:{index + 1}.{stock_column}"
                self.stock_objects[stock_name] = (table, index + 1,
                                                  stock_column)
                price_name = f"{table}:{index + 1}.price"
                self.price_objects[price_name] = (table, index + 1, "price")
            self.backend.seed(table, rows)

    def register_objects(self, gtm: GlobalTransactionManager) -> None:
        """Create one bound GTM object per reservable/priceable cell."""
        values = self.initial_values()
        for name, (table, key, column) in {**self.stock_objects,
                                           **self.price_objects}.items():
            gtm.create_object(name, value=values[name],
                              binding=ObjectBinding.cell(table, key, column))

    def register_structured_objects(self,
                                    gtm: GlobalTransactionManager) -> None:
        """Alternative modeling: one structured object per resource row.

        Each row becomes a single managed object with ``stock`` and
        ``price`` members (bound to its two columns), exercising the
        per-data-member invocation granularity: a customer's stock
        subtraction and an admin's price assignment share the object
        concurrently because the members are not logically dependent.
        Object names are ``<table>:<key>``.
        """
        state = self.backend.dump()
        for table, stock_column, _extras in _RESOURCES:
            for key in range(1, self.config.n_per_type + 1):
                row = state[table][key]
                gtm.create_object(
                    f"{table}:{key}",
                    members={"stock": row[stock_column],
                             "price": row["price"]},
                    binding=ObjectBinding(
                        table=table, key=key,
                        member_columns={"stock": stock_column,
                                        "price": "price"}))

    def initial_values(self) -> dict[str, float]:
        """Every stock and price cell's committed value, by object name."""
        state = self.backend.dump()
        return {name: state[table][key][column]
                for name, (table, key, column) in {**self.stock_objects,
                                                   **self.price_objects
                                                   }.items()}

    # -- workload construction ----------------------------------------------------

    def _package_steps(self, rng: np.random.Generator
                       ) -> tuple[TransactionStep, ...]:
        """One leg per resource type, equal work shares."""
        steps: list[TransactionStep] = []
        n_types = len(_RESOURCES)
        for table, stock_column, _extras in _RESOURCES:
            key = int(rng.integers(1, self.config.n_per_type + 1))
            object_name = f"{table}:{key}.{stock_column}"
            steps.append(TransactionStep(
                object_name=object_name,
                invocation=subtract(1),
                work_fraction=1.0 / n_types,
            ))
        return tuple(steps)

    def _admin_steps(self, rng: np.random.Generator
                     ) -> tuple[TransactionStep, ...]:
        """An admin re-prices one random resource (assignment)."""
        table, _stock, _extras = _RESOURCES[
            int(rng.integers(0, len(_RESOURCES)))]
        key = int(rng.integers(1, self.config.n_per_type + 1))
        new_price = float(rng.integers(50, 200))
        return (TransactionStep(
            object_name=f"{table}:{key}.price",
            invocation=assign(new_price),
            work_fraction=1.0,
        ),)

    def build_workload(self) -> Workload:
        """Generate the mixed customer/admin workload."""
        config = self.config
        streams = RandomStreams(config.seed)
        rng_arrival = streams.stream("travel.arrival")
        rng_mix = streams.stream("travel.mix")
        rng_steps = streams.stream("travel.steps")
        rng_session = streams.stream("travel.session")

        think = ThinkTimeModel(base_mean=config.work_time_mean,
                               jitter=config.work_time_jitter)
        network = BernoulliDisconnection(
            beta=config.beta,
            duration_mean=config.disconnect_duration_mean)
        no_network = BernoulliDisconnection(beta=0.0)

        profiles: list[TransactionProfile] = []
        arrival = 0.0
        for index in range(config.n_customers):
            arrival += float(rng_arrival.exponential(
                config.interarrival_mean))
            is_admin = bool(rng_mix.random() < config.admin_fraction)
            if is_admin:
                steps = self._admin_steps(rng_steps)
                plan = build_plan(rng_session, think, no_network)
                kind = "admin-reprice"
            else:
                steps = self._package_steps(rng_steps)
                plan = build_plan(rng_session, think, network)
                kind = "package-tour"
            profiles.append(TransactionProfile(
                txn_id=f"U{index + 1:04d}",
                arrival_time=arrival,
                steps=steps,
                plan=plan,
                kind=kind,
            ))
        return Workload(profiles=profiles,
                        initial_values=self.initial_values(),
                        description="travel agency package tours")
