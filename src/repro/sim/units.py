"""Unit helpers for simulation quantities.

All simulation code uses SI base units internally:

* time in **seconds** (float),
* distance in **meters** (float),
* bandwidth in **bits per second** (float),
* power in **watts** (float),
* energy in **joules** (float).

The helpers in this module exist so that scenario code can state parameters
in the units the paper uses (milliseconds, Hz, kbps, ...) without sprinkling
magic conversion factors around.
"""

from __future__ import annotations

#: Number of bits in one byte; packet sizes in the paper are given in bytes.
BITS_PER_BYTE = 8


def ms(value: float) -> float:
    """Convert milliseconds to seconds."""
    return value * 1e-3


def us(value: float) -> float:
    """Convert microseconds to seconds."""
    return value * 1e-6


def seconds(value: float) -> float:
    """Identity helper, used for symmetry in scenario definitions."""
    return float(value)


def minutes(value: float) -> float:
    """Convert minutes to seconds."""
    return value * 60.0


def mbps(value: float) -> float:
    """Convert megabits per second to bits per second."""
    return value * 1e6


def kbps(value: float) -> float:
    """Convert kilobits per second to bits per second."""
    return value * 1e3


def bytes_to_bits(num_bytes: float) -> float:
    """Convert a byte count to a bit count."""
    return num_bytes * BITS_PER_BYTE
