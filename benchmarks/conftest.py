"""Shared fixtures for the benchmark suite.

Each benchmark reproduces one figure/claim of the paper and reports its
rows through the ``report`` fixture; the collected tables are printed in
the terminal summary (so they survive pytest's output capture and land in
``bench_output.txt``) and also written under ``benchmarks/reports/``.

Benchmarks that pass their simulation's metrics registry to
:meth:`Reporter.metrics` additionally get a telemetry snapshot written
next to their table — ``<name>.metrics.prom`` (Prometheus text) and
``<name>.metrics.json`` — so every report row can be cross-checked against
the full ``repro.obs`` registry of the run that produced it.

Benchmarks that pin seeded figures exactly carry the ``fresh_process``
mark.  A seeded run is exact per *process*, not per simulation: message,
lease and operation ids come from module-level counters, their width
feeds frame sizes and so latencies, so the same seed gives different
figures after another simulation has run.  In a session of more than one
test the mark therefore re-runs the test alone in a new interpreter.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

_REPORTS: list[str] = []
_REPORT_DIR = pathlib.Path(__file__).parent / "reports"


class Reporter:
    """Collects rendered tables/series for one benchmark."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.chunks: list[str] = []
        self._metrics_prom: str | None = None
        self._metrics_json: str | None = None

    def add(self, text: str) -> None:
        """Record one rendered table or series line."""
        self.chunks.append(text)

    def table(self, table) -> None:
        """Record a :class:`repro.bench.Table`."""
        self.add(table.render())

    def metrics(self, registry) -> None:
        """Snapshot a :class:`repro.obs.MetricsRegistry` alongside the report.

        The snapshot is rendered immediately (registries read live
        component state, which may be torn down after the test returns)
        and written at flush time as ``<name>.metrics.prom`` /
        ``<name>.metrics.json``.
        """
        self._metrics_prom = registry.render_prometheus()
        self._metrics_json = json.dumps(registry.snapshot(), indent=2,
                                        sort_keys=True)

    def flush(self) -> None:
        body = "\n\n".join(self.chunks)
        banner = f"\n{'#' * 72}\n# {self.name}\n{'#' * 72}\n{body}"
        _REPORTS.append(banner)
        _REPORT_DIR.mkdir(exist_ok=True)
        (_REPORT_DIR / f"{self.name}.txt").write_text(body + "\n")
        if self._metrics_prom is not None:
            (_REPORT_DIR / f"{self.name}.metrics.prom").write_text(
                self._metrics_prom)
        if self._metrics_json is not None:
            (_REPORT_DIR / f"{self.name}.metrics.json").write_text(
                self._metrics_json + "\n")


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "fresh_process: run alone in a new interpreter, so the "
                   "seeded figures the test pins do not depend on what ran "
                   "before it")


@pytest.hookimpl(tryfirst=True)
def pytest_pyfunc_call(pyfuncitem):
    if (pyfuncitem.get_closest_marker("fresh_process") is None
            or len(pyfuncitem.session.items) == 1):
        return None  # already alone in its process: run it here
    child = pyfuncitem.funcargs["benchmark"].pedantic(
        subprocess.run,
        ([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
          pyfuncitem.nodeid],),
        dict(cwd=pyfuncitem.config.rootpath, capture_output=True, text=True),
        rounds=1, iterations=1)
    _REPORTS.append(child.stdout)  # its tables, for the terminal summary
    assert child.returncode == 0, (
        f"{pyfuncitem.nodeid} failed in a fresh interpreter:\n"
        f"{child.stdout[-4000:]}\n{child.stderr[-2000:]}")
    return True


@pytest.fixture()
def report(request):
    """Per-benchmark reporter; flushed (printed + saved) at teardown."""
    reporter = Reporter(request.node.name)
    yield reporter
    if reporter.chunks:
        reporter.flush()


def pytest_terminal_summary(terminalreporter):
    for banner in _REPORTS:
        terminalreporter.write_line(banner)
