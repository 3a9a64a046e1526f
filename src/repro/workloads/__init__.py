"""Workloads: PlanetLab catalogues, calibration, scenarios, study drivers."""

from repro.workloads.calibration import (
    Calibrator,
    CalibrationParams,
    DEFAULT_SITE_PROFILES,
    SiteProfile,
)
from repro.workloads.counterfactual import (
    CounterfactualRecord,
    run_counterfactual_study,
    run_counterfactual_transfer,
)
from repro.workloads.failures import (
    FAILURE_MODES,
    FAILURES_RESILIENCE,
    FAILURES_SESSION_CONFIG,
    FailureStudyParams,
    failure_outage_plan,
    plan_failures,
    run_failure_unit,
)
from repro.workloads.monitored import MonitoredStudy
from repro.workloads.contention import ContentionSpec, run_contended_pair
from repro.workloads.experiment import (
    SECTION4_SESSION_CONFIG,
    STUDY_SESSION_CONFIG,
    Section2Study,
    Section4Study,
    run_interfering_pair,
    run_paired_transfer,
)
from repro.workloads.planetlab import (
    CLIENT_CATALOG,
    CatalogEntry,
    DEFAULT_SITE,
    EXTRA_RELAY_CATALOG,
    RELAY_CATALOG,
    SECTION4_CLIENTS,
    SECTION4_RELAY_CATALOG,
    SITES,
)
from repro.workloads.profiles import ClientProfile, ThroughputClass, Variability
from repro.workloads.scenario import Scenario, ScenarioSpec, Universe
from repro.workloads.sweeps import (
    SensitivityPoint,
    calibration_sensitivity,
    default_variants,
)

__all__ = [
    "CatalogEntry",
    "CLIENT_CATALOG",
    "RELAY_CATALOG",
    "EXTRA_RELAY_CATALOG",
    "SECTION4_RELAY_CATALOG",
    "SECTION4_CLIENTS",
    "SITES",
    "DEFAULT_SITE",
    "ThroughputClass",
    "Variability",
    "ClientProfile",
    "CalibrationParams",
    "Calibrator",
    "SiteProfile",
    "DEFAULT_SITE_PROFILES",
    "ScenarioSpec",
    "Scenario",
    "Universe",
    "Section2Study",
    "Section4Study",
    "run_paired_transfer",
    "run_interfering_pair",
    "STUDY_SESSION_CONFIG",
    "SECTION4_SESSION_CONFIG",
    "CounterfactualRecord",
    "run_counterfactual_transfer",
    "run_counterfactual_study",
    "FAILURE_MODES",
    "FAILURES_RESILIENCE",
    "FAILURES_SESSION_CONFIG",
    "FailureStudyParams",
    "failure_outage_plan",
    "plan_failures",
    "run_failure_unit",
    "MonitoredStudy",
    "SensitivityPoint",
    "calibration_sensitivity",
    "default_variants",
    "ContentionSpec",
    "run_contended_pair",
]
