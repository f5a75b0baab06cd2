"""CPU model catalog.

Cloud Run conceals detailed CPU information, but ``cpuid`` still exposes a
generic model string such as ``"Intel Xeon CPU @ 2.00GHz"`` whose labeled
base frequency doubles as the *reported* TSC frequency (paper §4.2, method 1).
This module defines the model descriptor and a catalog mirroring the handful
of generic models one observes on Cloud Run hosts.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

from repro import units

_FREQ_IN_NAME = re.compile(r"@\s*([0-9]+(?:\.[0-9]+)?)\s*GHz", re.IGNORECASE)


@dataclass(frozen=True)
class CPUModel:
    """An x86 CPU model as visible through ``cpuid``.

    Attributes
    ----------
    name:
        The model string, e.g. ``"Intel Xeon CPU @ 2.00GHz"``.
    base_frequency_hz:
        The labeled base frequency.  Empirically this equals the nominal TSC
        frequency the clock is supposed to run at, so fingerprinting code
        uses it as the reported TSC frequency.
    vendor:
        CPU vendor string (``"GenuineIntel"`` or ``"AuthenticAMD"``).
    llc_size_bytes:
        Last-level cache size, exposed because cache-based extraction attacks
        need it; unused by the co-location pipeline itself.
    """

    name: str
    base_frequency_hz: float
    vendor: str = "GenuineIntel"
    llc_size_bytes: int = 32 * 1024 * 1024

    @property
    def reported_tsc_frequency_hz(self) -> float:
        """The TSC frequency an attacker infers from the model name."""
        return self.base_frequency_hz

    @staticmethod
    @functools.lru_cache(maxsize=256)
    def parse_frequency_from_name(name: str) -> float | None:
        """Extract the labeled frequency (Hz) from a model string.

        Returns ``None`` when the name carries no ``@ X.XXGHz`` suffix, which
        is how an attacker discovers that the reported-frequency method is
        unavailable for a given host.  Memoized: a pure function of the
        string, called once per fingerprinted instance, over a fleet with a
        handful of distinct model names.

        >>> CPUModel.parse_frequency_from_name("Intel Xeon CPU @ 2.20GHz")
        2200000000.0
        """
        match = _FREQ_IN_NAME.search(name)
        if match is None:
            return None
        return float(match.group(1)) * units.GHZ


#: Generic CPU models observed on Cloud Run hosts, with a rough frequency
#: mix.  Weights control how common each model is when building a simulated
#: fleet.  The diversity of nominal frequencies matters: it is what spreads
#: the Gen 2 refined-frequency fingerprint across enough 1 kHz buckets that
#: only ~2 hosts collide per value (paper §4.5) even though each host's own
#: frequency error is small (a fingerprint drifts only ~1 s of boot time
#: per day, Fig. 5).
DEFAULT_CPU_CATALOG: tuple[tuple[CPUModel, float], ...] = (
    (CPUModel("Intel Xeon CPU @ 2.00GHz", 2.00 * units.GHZ), 0.16),
    (CPUModel("Intel Xeon CPU @ 2.20GHz", 2.20 * units.GHZ), 0.14),
    (CPUModel("Intel Xeon CPU @ 2.25GHz", 2.25 * units.GHZ), 0.10),
    (CPUModel("Intel Xeon CPU @ 2.30GHz", 2.30 * units.GHZ), 0.10),
    (CPUModel("Intel Xeon CPU @ 2.50GHz", 2.50 * units.GHZ), 0.08),
    (CPUModel("Intel Xeon CPU @ 2.60GHz", 2.60 * units.GHZ), 0.08),
    (CPUModel("Intel Xeon CPU @ 2.70GHz", 2.70 * units.GHZ), 0.07),
    (CPUModel("Intel Xeon CPU @ 2.80GHz", 2.80 * units.GHZ), 0.07),
    (CPUModel("Intel Xeon CPU @ 3.10GHz", 3.10 * units.GHZ), 0.05),
    (
        CPUModel("AMD EPYC 7B12 @ 2.25GHz", 2.25 * units.GHZ, vendor="AuthenticAMD"),
        0.06,
    ),
    (
        CPUModel("AMD EPYC 7B13 @ 2.45GHz", 2.45 * units.GHZ, vendor="AuthenticAMD"),
        0.05,
    ),
    (
        CPUModel("AMD EPYC 9B14 @ 2.60GHz", 2.60 * units.GHZ, vendor="AuthenticAMD"),
        0.04,
    ),
)


def cpu_catalog() -> list[CPUModel]:
    """Return the catalog models without their fleet weights."""
    return [model for model, _weight in DEFAULT_CPU_CATALOG]
