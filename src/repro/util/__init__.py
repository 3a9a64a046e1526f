"""Shared utilities: units, seeded RNG streams, statistics, rendering."""
