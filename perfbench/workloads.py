"""The three benchmark workloads: inputs, one measured pass, output checks.

Every workload is a closed loop driven from one process (no worker
fan-out): each call into the program starts only after the previous one
returned.  ``setup`` builds the inputs from the seed (fleet simulation,
input-series selection, targets, fan, zones, warm-up); ``run_pass`` runs
the loop once and returns what it measured.  Outside every timed region,
``check_pass`` verifies each pass against the first one and ``check``
runs the once-per-run oracles on the first pass.
"""

from __future__ import annotations

import json
import shutil
import tempfile
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from datetime import timedelta
from pathlib import Path
from typing import Any, Iterator

import numpy as np

from tracing import HouseholdClock, Tracer, installed, timed_extractor

from repro.aggregation.grouping import GroupingParams
from repro.appliances.database import default_database
from repro.api.registry import create_extractor
from repro.evaluation.comparison import SEED_STRIDE
from repro.flexoffer.io import any_schedule_from_dict, any_schedule_to_dict
from repro.flexoffer.model import offer_id_scope
from repro.flexoffer.validate import check_all
from repro.market.clearing import clear_zones
from repro.market.model import MarketConfig
from repro.pipeline.fleet import (
    FleetPipeline,
    fleet_schedule_target,
    fleet_zoned_target,
    offers_equivalent,
    results_identical,
    run_sequential,
    stamp_household,
)
from repro.scheduling.greedy import ScheduleConfig
from repro.scheduling.robust import RobustConfig, synthetic_fan
from repro.scheduling.zones import MarketZone, ZonedTarget
from repro.session import FlexibilitySession
from repro.session.persistence import SessionJournal, restore_session
from repro.simulation.dataset import random_household_config
from repro.simulation.household import simulate_household
from repro.workloads.scenarios import SCENARIO_START

#: Slack of the energy-bound checks (the scheduler's own tolerance).
ENERGY_TOLERANCE = 1e-9

#: Relative tolerance of the reference-matcher comparison.
MATCHER_RTOL = 1e-9

#: Seed of the fleet mix (appliances owned, occupants, usage scales).
MIX_SEED = 2013

#: Plan reloads timed per batch pass: one is too short a sample to be steady.
RESUME_REPEATS = 5

#: Session restores timed per pass.  A pass takes seconds, so a run holds
#: only a few passes; a restore is a fraction of one.
SESSION_RESUME_REPEATS = 8


@dataclass
class PassOutput:
    """What one pass of a workload measured and produced."""

    wall_s: float
    households: int
    readings: int
    replan_s: list[float]
    ingest_s: list[float]
    resume_s: list[float]
    improvement: float
    welfare_eur: float
    operations: int
    outputs: dict[str, Any] = field(default_factory=dict)


class PreparedTrace:
    """A household as a meter-data store holds it: both grids precomputed.

    Duck-types the parts of ``HouseholdTrace`` the pipeline and the session
    read (``config``, ``total``, ``metered()``), so input-series selection
    happens once, in set-up, rather than on every pass.
    """

    def __init__(self, trace: Any) -> None:
        self.config = trace.config
        self.total = trace.total
        self._metered = trace.metered()

    def metered(self) -> Any:
        return self._metered


def one_zone_market(target: Any) -> ZonedTarget:
    """A single priced zone over a plain target, to value a plan."""
    zone = MarketZone("zone-a", target.with_name("zone-a-target"), 0.02, 0.12)
    return ZonedTarget(zones=(zone,))


def span(tracer: Tracer | None, name: str, layer: str) -> Any:
    return nullcontext({}) if tracer is None else tracer.span(name, layer)


@contextmanager
def traced(tracer: Tracer | None, clock: HouseholdClock) -> Iterator[None]:
    """Install the layer wrappers and the extractor's tracer for one pass."""
    if tracer is None:
        yield
        return
    clock.tracer = tracer
    try:
        with installed(tracer):
            yield
    finally:
        clock.tracer = None


def clear(tracer: Tracer | None, aggregates: Any, market: ZonedTarget) -> Any:
    with span(tracer, "clear_zones", "market") as counts:
        clearing = clear_zones(aggregates, market)
        if tracer is not None:
            outcomes = clearing.outcomes
            counts["bids"] = len(outcomes)
            counts["cleared"] = sum(1 for outcome in outcomes if outcome.cleared)
    return clearing


# ---------------------------------------------------------------------- #
# Output checks (each returns a list of problems; empty means passed)
# ---------------------------------------------------------------------- #


class Checks:
    """Counts output checks and keeps the first problem of each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, name: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            more = f" (+{len(problems) - 1} more)" if len(problems) > 1 else ""
            self.failures.append(f"{name}: {problems[0]}{more}")


def placement_problems(schedules: Any) -> list[str]:
    """Placements outside their offer's start window or energy bounds."""
    problems = []
    for placement in schedules:
        offer = placement.offer
        if not offer.earliest_start <= placement.start <= offer.latest_start:
            problems.append(f"{offer.offer_id}: start {placement.start} outside window")
        if len(placement.slice_energies) != len(offer.slices):
            problems.append(f"{offer.offer_id}: slice count mismatch")
            continue
        for energy, piece in zip(placement.slice_energies, offer.slices):
            if not (
                piece.energy_min - ENERGY_TOLERANCE
                <= energy
                <= piece.energy_max + ENERGY_TOLERANCE
            ):
                problems.append(f"{offer.offer_id}: slice energy {energy} out of bounds")
        low, high = offer.effective_total_bounds()
        total = sum(placement.slice_energies)
        if not low - ENERGY_TOLERANCE <= total <= high + ENERGY_TOLERANCE:
            problems.append(f"{offer.offer_id}: total energy {total} out of bounds")
    return problems


def clearing_problems(aggregates: Any, market: ZonedTarget) -> list[str]:
    """Reference and vectorized clearing must take identical decisions."""

    def decisions(engine: str) -> list[tuple]:
        result = clear_zones(aggregates, market, MarketConfig(engine=engine))
        return sorted(
            (o.offer_id, o.home_zone, o.zone, o.slice_index, o.status, o.reason,
             o.price, o.quantity_kwh, o.payment_eur)
            for o in result.outcomes
        )

    if decisions("reference") != decisions("vectorized"):
        return ["clear_zones decisions differ between reference and vectorized"]
    return []


def committed_problems(snapshots: list[Any]) -> list[str]:
    """Every committed placement reappears unchanged in later snapshots."""
    problems = []
    for earlier, later in zip(snapshots, snapshots[1:]):
        if later.committed[: len(earlier.committed)] != earlier.committed:
            problems.append(
                f"committed placements moved between versions "
                f"{earlier.version} and {later.version}"
            )
    return problems


# ---------------------------------------------------------------------- #
# Batch workloads: FleetPipeline.run on a whole fleet
# ---------------------------------------------------------------------- #


@dataclass
class BatchContext:
    seed: int
    workdir: Path
    traces: list[PreparedTrace]
    clock: HouseholdClock
    pipeline: FleetPipeline
    target: Any
    market: ZonedTarget
    fan: list | None
    simulation_s: float
    readings: int


def simulate_fleet(households: int, days: int, seed: int) -> list[PreparedTrace]:
    """A fleet whose mix is fixed and whose usage is drawn from ``seed``.

    ``generate_fleet`` draws both from one seed, so two seeds give fleets
    of different make-up and the work per pass moves with the seed.  Here
    household ``i`` always has the configuration ``generate_fleet(...,
    seed=MIX_SEED)`` gives it, and ``seed`` draws only its day-to-day usage.
    Each household keeps only its input series; the per-appliance ground
    truth is dropped as soon as it is simulated.
    """
    mix = np.random.default_rng(MIX_SEED).integers(0, 2**63 - 1, size=households)
    usage = np.random.default_rng(seed).integers(0, 2**63 - 1, size=households)
    database = default_database()
    return [
        PreparedTrace(
            simulate_household(
                random_household_config(f"hh-{i:04d}", np.random.default_rng(int(m))),
                SCENARIO_START,
                days,
                np.random.default_rng(int(u)),
                database,
            )
        )
        for i, (m, u) in enumerate(zip(mix, usage))
    ]


def _simulate(households: int, days: int, seed: int) -> tuple[list[PreparedTrace], float]:
    t0 = time.perf_counter()
    traces = simulate_fleet(households, days, seed)
    return traces, time.perf_counter() - t0


def fixed_fleet(
    households: int, days: int, seed: int
) -> tuple[list[PreparedTrace], list[PreparedTrace], float]:
    """Fixed meter data, in an order drawn from ``seed``.

    Returns the fleet as simulated (mix and usage both from ``MIX_SEED``),
    the same households shuffled by ``seed``, and the simulation time.  The
    order sets which index a household sits at: its extraction seed
    stream, its offer ids and, in the session, its upload phase.
    """
    fleet, simulation_s = _simulate(households, days, MIX_SEED)
    order = np.random.default_rng(seed).permutation(len(fleet))
    return fleet, [fleet[i] for i in order], simulation_s


def _batch_pass(ctx: BatchContext, tracer: Tracer | None) -> PassOutput:
    """One whole-fleet plan: pipeline run, clearing, then plan reload."""
    ctx.clock.latencies = []
    with traced(tracer, ctx.clock):
        t0 = time.perf_counter()
        with span(tracer, "pass", "pipeline"):
            result = ctx.pipeline.run(ctx.traces, ctx.target, scenarios=ctx.fan)
            clearing = clear(tracer, result.aggregates, ctx.market)
        wall = time.perf_counter() - t0
        plan = ctx.workdir / "plan.json"
        plan.write_text(json.dumps(any_schedule_to_dict(result.schedule)))
        resume = []
        for _ in range(RESUME_REPEATS):
            t0 = time.perf_counter()
            with span(tracer, "resume", "persistence"):
                restored = any_schedule_from_dict(json.loads(plan.read_text()))
            resume.append(time.perf_counter() - t0)
    return PassOutput(
        wall_s=wall,
        households=len(ctx.traces),
        readings=ctx.readings,
        replan_s=[wall],
        ingest_s=list(ctx.clock.latencies),
        resume_s=resume,
        improvement=result.schedule.improvement,
        welfare_eur=clearing.welfare_eur,
        operations=2 + RESUME_REPEATS,
        outputs={"result": result, "restored": restored},
    )


def _batch_check_pass(
    ctx: BatchContext, first: PassOutput, output: PassOutput, checks: Checks
) -> None:
    """Checks of every batch pass: same result as the first pass, a plan
    that reloads unchanged, placements inside their offers' bounds."""
    result = output.outputs["result"]
    checks.expect(
        "deterministic",
        [] if results_identical(result, first.outputs["result"]) else ["passes disagree"],
    )
    checks.expect(
        "plan reload",
        [] if output.outputs["restored"] == result.schedule
        else ["reloaded plan differs from the published plan"],
    )
    checks.expect("placements", placement_problems(result.schedule.schedules))


class FleetWeek:
    """The paper's full loop on a 1-minute fleet, robust CVaR placement."""

    name = "fleet_week"
    households = 64
    days = 7
    #: Households re-extracted with the reference matcher in the checks.
    reference_sample = (0, 37)

    def setup(self, seed: int, workdir: Path) -> BatchContext:
        # Matching-pursuit work depends on the usage drawn: over fourteen
        # seeds of seeded usage the time of a pass spread by 11.5%
        # (quartile distance over median).  The meter data is fixed, and
        # the seed shuffles the households, so the work stays the same.
        fleet, traces, simulation_s = fixed_fleet(self.households, self.days, seed)
        clock = HouseholdClock()
        extractor = timed_extractor(create_extractor("frequency-based"), clock)
        target = fleet_schedule_target(fleet)
        robust = RobustConfig(quantiles=(0.1, 0.5, 0.9), risk="cvar")
        pipeline = FleetPipeline(
            extractor, seed=seed, schedule=ScheduleConfig(robust=robust)
        )
        fan = list(synthetic_fan(target, robust))
        # Warm-up: template and FFT caches, every code path of a pass.  It
        # runs on the same households whatever the seed, so set-up does the
        # same work.
        pipeline.run(fleet[:2], target, scenarios=fan)
        return BatchContext(
            seed=seed,
            workdir=workdir,
            traces=traces,
            clock=clock,
            pipeline=pipeline,
            target=target,
            market=one_zone_market(target),
            fan=fan,
            simulation_s=simulation_s,
            readings=sum(trace.total.axis.length for trace in traces),
        )

    run_pass = staticmethod(_batch_pass)

    check_pass = staticmethod(_batch_check_pass)

    def check(self, ctx: BatchContext, first: PassOutput, checks: Checks) -> None:
        batched = first.outputs["result"]
        checks.expect("clearing engines", clearing_problems(batched.aggregates, ctx.market))
        sequential = run_sequential(
            ctx.traces,
            extractor=create_extractor("frequency-based"),
            seed=ctx.seed,
            target=ctx.target,
            schedule_config=ctx.pipeline.schedule,
            scenarios=ctx.fan,
        )
        checks.expect(
            "batched == run_sequential",
            [] if results_identical(batched, sequential) else ["results differ"],
        )
        checks.expect("offers valid", check_all(batched.offers))
        reference = create_extractor("frequency-based", engine="reference")
        for index in (i for i in self.reference_sample if i < len(batched.households)):
            household = batched.households[index]
            rng = np.random.default_rng(ctx.seed + SEED_STRIDE * index)
            with offer_id_scope(f"h{index}"):
                offers = reference.extract(ctx.traces[index].total, rng).offers
            stamped = list(stamp_household(offers, household.household_id))
            same = offers_equivalent(stamped, list(household.offers), rtol=MATCHER_RTOL)
            checks.expect(
                f"reference matcher h{index}", [] if same else ["offers differ"]
            )


class MarketZoned:
    """Household-level extraction on 1000 households, 4 priced zones."""

    name = "market_zoned"
    households = 1000
    days = 7
    zones = 4

    def setup(self, seed: int, workdir: Path) -> BatchContext:
        traces, simulation_s = _simulate(self.households, self.days, seed)
        clock = HouseholdClock()
        extractor = timed_extractor(create_extractor("peak-based"), clock)
        zoned = fleet_zoned_target(traces, zones=self.zones)
        pipeline = FleetPipeline(
            extractor,
            grouping=GroupingParams(max_group_size=4),
            seed=seed,
            schedule=ScheduleConfig(engine="auto", improve_iterations=3000),
        )
        warm = pipeline.run(traces[:16], zoned)
        clear_zones(warm.aggregates, zoned)
        return BatchContext(
            seed=seed,
            workdir=workdir,
            traces=traces,
            clock=clock,
            pipeline=pipeline,
            target=zoned,
            market=zoned,
            fan=None,
            simulation_s=simulation_s,
            readings=sum(trace.metered().axis.length for trace in traces),
        )

    run_pass = staticmethod(_batch_pass)

    check_pass = staticmethod(_batch_check_pass)

    def check(self, ctx: BatchContext, first: PassOutput, checks: Checks) -> None:
        aggregates = first.outputs["result"].aggregates
        checks.expect("clearing engines", clearing_problems(aggregates, ctx.market))


# ---------------------------------------------------------------------- #
# Rolling session: ingest, replan, commit, journal, restore
# ---------------------------------------------------------------------- #


@dataclass
class SessionContext:
    seed: int
    workdir: Path
    traces: list[PreparedTrace]
    series: list[np.ndarray]
    clock: HouseholdClock
    extractor: Any
    target: Any
    market: ZonedTarget
    simulation_s: float

    def new_session(self) -> FlexibilitySession:
        return FlexibilitySession.for_fleet(
            self.traces,
            extractor=self.extractor,
            seed=self.seed,
            target=self.target,
            commit_horizon=SessionRolling.commit_horizon,
        )


class SessionRolling:
    """Hourly ticks of a journaled rolling session, then a restore."""

    name = "session_rolling"
    households = 12
    days = 5
    commit_horizon = timedelta(hours=6)
    #: Household ``h`` uploads its backlog when ``(tick + h) % upload_every == 0``.
    upload_every = 6
    readings_per_tick = 60

    def setup(self, seed: int, workdir: Path) -> SessionContext:
        # Twelve households are too few for seeded usage to leave the
        # work and the plan comparable across seeds: the meter data is
        # fixed, and the seed shuffles the households.
        fleet, traces, simulation_s = fixed_fleet(self.households, self.days, seed)
        clock = HouseholdClock()
        extractor = timed_extractor(create_extractor("frequency-based"), clock)
        target = fleet_schedule_target(fleet)
        ctx = SessionContext(
            seed=seed,
            workdir=workdir,
            traces=traces,
            series=[trace.total.values for trace in traces],
            clock=clock,
            extractor=extractor,
            target=target,
            market=one_zone_market(target),
            simulation_s=simulation_s,
        )
        # Warm-up: one household's full-series extraction, the same
        # household whatever the seed, so set-up does the same work.
        extractor.extract(fleet[0].total, np.random.default_rng(seed))
        return ctx

    def run_pass(self, ctx: SessionContext, tracer: Tracer | None) -> PassOutput:
        directory = Path(tempfile.mkdtemp(dir=ctx.workdir))
        try:
            return self._run(ctx, tracer, directory)
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    def _run(self, ctx: SessionContext, tracer: Tracer | None, directory: Path) -> PassOutput:
        session = ctx.new_session()
        journal = SessionJournal.create(directory)
        session.attach_journal(journal)
        if tracer is not None:
            # Replans auto-commit through the commit horizon; time that too.
            session._commit_through = tracer.wrap(
                session._commit_through, "commit", "session"
            )
        length = len(ctx.series[0])
        ticks = length // self.readings_per_tick
        uploaded = [0] * len(ctx.series)
        ingest_s: list[float] = []
        replan_s: list[float] = []
        snapshots = []
        with traced(tracer, ctx.clock):
            t0 = time.perf_counter()
            with span(tracer, "pass", "pipeline"):
                for tick in range(ticks):
                    end = (tick + 1) * self.readings_per_tick
                    for household, values in enumerate(ctx.series):
                        due = (tick + household) % self.upload_every == 0
                        if (due or tick == ticks - 1) and end > uploaded[household]:
                            first = uploaded[household]
                            t1 = time.perf_counter()
                            with span(tracer, "ingest", "session"):
                                session.ingest(household, first, values[first:end])
                            ingest_s.append(time.perf_counter() - t1)
                            uploaded[household] = end
                    t1 = time.perf_counter()
                    with span(tracer, "replan", "session"):
                        snapshots.append(session.replan())
                    replan_s.append(time.perf_counter() - t1)
                clearing = clear(tracer, snapshots[-1].aggregates, ctx.market)
            wall = time.perf_counter() - t0
            journal.close()
            resume = []
            for _ in range(SESSION_RESUME_REPEATS):
                fresh = ctx.new_session()
                t0 = time.perf_counter()
                with span(tracer, "resume", "persistence"):
                    restored = restore_session(fresh, directory)
                resume.append(time.perf_counter() - t0)
                restored.journal.close()
        return PassOutput(
            wall_s=wall,
            households=len(ctx.series),
            readings=len(ctx.series) * length,
            replan_s=replan_s,
            ingest_s=ingest_s,
            resume_s=resume,
            improvement=snapshots[-1].schedule.improvement,
            welfare_eur=clearing.welfare_eur,
            operations=len(ingest_s) + len(replan_s) + 1 + SESSION_RESUME_REPEATS,
            outputs={
                "snapshots": snapshots,
                "live": json.dumps(session.snapshot().to_dict(), sort_keys=True),
                "restored": json.dumps(restored.snapshot().to_dict(), sort_keys=True),
            },
        )

    def check_pass(
        self, ctx: SessionContext, first: PassOutput, output: PassOutput, checks: Checks
    ) -> None:
        checks.expect("committed stable", committed_problems(output.outputs["snapshots"]))
        checks.expect(
            "restore bitwise",
            [] if output.outputs["restored"] == output.outputs["live"]
            else ["restored session differs from the live one"],
        )
        checks.expect(
            "deterministic",
            [] if output.outputs["live"] == first.outputs["live"] else ["passes disagree"],
        )

    def check(self, ctx: SessionContext, first: PassOutput, checks: Checks) -> None:
        aggregates = first.outputs["snapshots"][-1].aggregates
        checks.expect("clearing engines", clearing_problems(aggregates, ctx.market))


WORKLOADS = {w.name: w for w in (FleetWeek(), MarketZoned(), SessionRolling())}
