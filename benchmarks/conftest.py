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
"""

from __future__ import annotations

import json
import pathlib

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
