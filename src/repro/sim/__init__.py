"""Discrete-event simulation engine substrate.

This package replaces the paper's ns-2 substrate with a small, deterministic
discrete-event simulator: an event heap with a simulation clock
(:class:`~repro.sim.engine.Simulator`), restartable timers
(:class:`~repro.sim.process.Timer`), named reproducible random streams
(:class:`~repro.sim.rng.RandomStreams`) and a structured trace recorder
(:class:`~repro.sim.trace.TraceRecorder`).
"""
