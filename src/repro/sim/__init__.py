"""Discrete-event simulation kernel: event queue, clock, run loop."""
