"""Smoke tests running every example script end to end (small arguments).

Examples are part of the public deliverable; these tests keep them runnable
as the library evolves.
"""

import subprocess
import sys
from pathlib import Path


EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, *args: str, timeout: float = 240.0) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert proc.returncode == 0, f"{name} failed:\n{proc.stderr[-2000:]}"
    return proc.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py", "7")
        assert "probe decision" in out
        assert "improvement" in out

    def test_planetlab_study(self):
        out = run_example("planetlab_study.py", "3", "7")
        assert "Figure 1" in out
        assert "Table I" in out
        assert "Table II" in out
        assert "Figure 4" in out
        assert "Figure 5" in out
        assert "Headline rates" in out

    def test_relay_selection(self):
        out = run_example("relay_selection.py", "4", "7")
        assert "Figure 6" in out
        assert "Table III" in out
        assert "correlation" in out

    def test_adaptive_weighted(self):
        out = run_example("adaptive_weighted.py", "6", "3", "7")
        assert "uniform random set" in out
        assert "utilization weighted" in out
        assert "oracle best relay" in out
        assert "learned top relays" in out

    def test_custom_network(self):
        out = run_example("custom_network.py")
        assert "probe race winner" in out
        assert "session selected" in out
        assert "shares a link" in out

    def test_resilience(self):
        out = run_example("resilience.py", "7")
        assert "failure masking" in out
        assert "masked" in out
        assert "failover session" in out
