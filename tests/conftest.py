"""Shared test helpers.

The acceptance tests record one human-readable pass/fail line each;
those lines are replayed in a terminal section after the run so the
verdict survives pytest's output capturing.
"""

import numpy as np

from netsmith.lti_core import realize

_ACCEPTANCE_LINES = []


def prefiltered(design, reference):
    """The reference after the design's prefilter V, stepped from rest:
    the r_V that simulate_sample_delay expects."""
    V = realize(design.prefilter)
    x = np.zeros(V.order)
    out = np.empty(len(reference))
    for k, r in enumerate(reference):
        out[k] = V.c @ x + V.d * r
        x = V.A @ x + V.b * r
    return out


def record_acceptance(name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    line = f"{status}  {name}"
    if detail:
        line += f"  [{detail}]"
    _ACCEPTANCE_LINES.append(line)
    return ok


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
