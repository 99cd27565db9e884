"""Unit constants and conversion helpers.

All internal quantities are SI: seconds, metres, volts, amperes, watts,
farads, ohms. The constants below make literals in technology files and
tests readable (``45 * units.NM``, ``220 * units.MV``) and the helpers
render values back into the units the paper reports.
"""

from __future__ import annotations

# --- scale prefixes -------------------------------------------------------
PICO = 1e-12
NANO = 1e-9
MICRO = 1e-6
MILLI = 1e-3
KILO = 1e3
MEGA = 1e6
GIGA = 1e9

# --- lengths --------------------------------------------------------------
NM = NANO
UM = MICRO
MM = MILLI

# --- time -----------------------------------------------------------------
PS = PICO
NS = NANO
US = MICRO

# --- electrical -----------------------------------------------------------
MV = MILLI  # volts
UA = MICRO  # amperes
NA = NANO
MA = MILLI
UW = MICRO  # watts
MW = MILLI
FF = 1e-15  # farads
PF = PICO
KOHM = KILO

# --- data sizes -----------------------------------------------------------
KB = 1024
MB = 1024 * 1024


def to_ps(seconds: float) -> float:
    """Express a time in picoseconds."""
    return seconds / PS


def to_ns(seconds: float) -> float:
    """Express a time in nanoseconds."""
    return seconds / NS


def to_mw(watts: float) -> float:
    """Express a power in milliwatts."""
    return watts / MW
