"""Radio hardware and energy model substrate.

Provides the radio state machine with power-state transition latencies
(:class:`~repro.radio.radio.Radio`), power profiles and break-even-time
computation (:mod:`repro.radio.energy`), and duty-cycle / sleep-interval
accounting (:mod:`repro.radio.duty_cycle`).
"""
