"""Overlay layer: relay registry and path construction."""
