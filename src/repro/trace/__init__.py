"""Measurement records and their storage."""
