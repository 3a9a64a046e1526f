"""The paper's contribution: probe-based indirect path selection."""
