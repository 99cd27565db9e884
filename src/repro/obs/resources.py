"""Process memory and CPU time, read at the moment they are reported.

:func:`read_resources` reads this process's ``/proc/self/status``
(``VmRSS``/``VmHWM``) and ``os.times()`` once per call:

* ``rss_bytes`` — resident set size now;
* ``rss_peak_bytes`` — the kernel's high-water mark of RSS (``VmHWM``),
  so no caller has to watch for the peak itself;
* ``cpu_user_seconds`` / ``cpu_system_seconds`` — cumulative CPU time
  (children included, so pool workers count).

``repro run --stats`` prints the peak, every ``repro bench run`` record
stores a reading, and ``repro serve`` writes one into its engine
registry as ``proc.*`` gauges on each ``/metrics`` scrape and
``/dashboard`` render. On platforms without ``/proc`` the RSS readings
are zero; CPU times work everywhere.
"""

from __future__ import annotations

import os
from typing import Dict

__all__ = ["read_resources"]

#: /proc/self/status fields (values in kB) and the readings they fill.
_STATUS_FIELDS = {"VmRSS:": "rss_bytes", "VmHWM:": "rss_peak_bytes"}


def read_resources() -> Dict[str, float]:
    """This process's RSS, peak RSS and CPU seconds, read now."""
    readings = {"rss_bytes": 0.0, "rss_peak_bytes": 0.0}
    try:
        with open(
            "/proc/self/status", "r", encoding="ascii", errors="replace"
        ) as fh:
            for line in fh:
                parts = line.split()
                key = _STATUS_FIELDS.get(parts[0]) if parts else None
                if key is not None and len(parts) > 1 and parts[1].isdigit():
                    readings[key] = float(int(parts[1]) * 1024)
    except OSError:
        pass
    times = os.times()
    readings["cpu_user_seconds"] = times.user + times.children_user
    readings["cpu_system_seconds"] = times.system + times.children_system
    return readings
