"""Workloads: PlanetLab catalogues, calibration, scenarios, study drivers."""
