"""Benchmark fixtures: shared campaign data and artefact persistence.

Each bench regenerates one of the paper's tables/figures.  The simulated
campaigns are session-scoped fixtures so the (timed) analysis kernels and
the artefact rendering reuse one data set per session.

Scale knobs (environment variables):

``REPRO_BENCH_S2_REPS``
    Repetitions per client for the §2 campaign (default 30; paper: 100).
``REPRO_BENCH_S4_REPS``
    Repetitions per configuration for the §4 sweep (default 20; paper: 720).
``REPRO_BENCH_SEED``
    Root seed (default 2007).
``REPRO_BENCH_JOBS``
    Worker processes for campaign generation (default 1).  Campaign output
    is byte-identical for every value (see :mod:`repro.runner`), so this is
    purely a wall-clock knob for multi-core runners.

Rendered artefacts are written to ``results/`` at the repository root.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.workloads.experiment import Section2Study, Section4Study
from repro.workloads.scenario import Scenario, ScenarioSpec

#: The §4 sweep's set sizes (paper Fig. 6 sweeps 1..35).
SET_SIZES = (1, 2, 4, 6, 10, 16, 24, 35)


def _env_int(name: str, default: int) -> int:
    return int(os.environ.get(name, default))


@pytest.fixture(scope="session")
def bench_seed() -> int:
    return _env_int("REPRO_BENCH_SEED", 2007)


@pytest.fixture(scope="session")
def bench_jobs() -> int:
    return max(_env_int("REPRO_BENCH_JOBS", 1), 1)


@pytest.fixture(scope="session")
def s2_scenario(bench_seed):
    """The §2 deployment (eBay only; the paper's detailed data set)."""
    return Scenario.build(ScenarioSpec.section2(sites=("eBay",)), seed=bench_seed)


@pytest.fixture(scope="session")
def s2_store(s2_scenario, bench_jobs):
    """The §2 campaign: all 22 clients, rotating relays."""
    reps = _env_int("REPRO_BENCH_S2_REPS", 30)
    return Section2Study(s2_scenario, repetitions=reps).run(
        sites=["eBay"], jobs=bench_jobs
    )


@pytest.fixture(scope="session")
def s4_scenario(bench_seed):
    """The §4 deployment: Duke/Italy/Sweden, 35 relays."""
    return Scenario.build(ScenarioSpec.section4(), seed=bench_seed)


@pytest.fixture(scope="session")
def s4_study(s4_scenario):
    reps = _env_int("REPRO_BENCH_S4_REPS", 20)
    return Section4Study(s4_scenario, repetitions=reps)


@pytest.fixture(scope="session")
def s4_store(s4_study, bench_jobs):
    """The §4 random-set sweep over all set sizes."""
    return s4_study.run_random_set_sweep(SET_SIZES, jobs=bench_jobs)


@pytest.fixture(scope="session")
def multisite_store(bench_seed, bench_jobs):
    """A four-site §2 campaign (reduced client count for bench runtime)."""
    scenario = Scenario.build(ScenarioSpec.section2(), seed=bench_seed)
    reps = max(_env_int("REPRO_BENCH_S2_REPS", 30) // 3, 4)
    study = Section2Study(scenario, repetitions=reps)
    return study.run(clients=scenario.client_names[:12], jobs=bench_jobs)


@pytest.fixture(scope="session")
def results_dir() -> Path:
    path = Path(__file__).resolve().parent.parent / "results"
    path.mkdir(exist_ok=True)
    return path


@pytest.fixture(scope="session")
def save_artifact(results_dir):
    """Persist a rendered table/figure and echo it to the terminal."""

    def _save(name: str, text: str) -> None:
        (results_dir / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
        print(f"\n{text}\n[saved to results/{name}.txt]")

    return _save


@pytest.fixture(scope="session")
def save_svg(results_dir):
    """Persist an SVG figure next to its text artefact."""

    def _save(name: str, svg: str) -> None:
        (results_dir / f"{name}.svg").write_text(svg, encoding="utf-8")
        print(f"[figure saved to results/{name}.svg]")

    return _save
