"""Shared test set-up.

cli.main reports an unexpected exception as exit 3 with one stderr line
(cli._report_crash).  A test that expects exit 3 from a refusal would then
pass on a crash too, so here a crash escapes cli.main and fails the test,
except in tests marked ``crash_report``, which check that report itself.
"""

import pytest


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "crash_report: let cli.main turn an unexpected exception into exit 3")


def _reraise(exc):
    raise exc


@pytest.fixture(autouse=True)
def _crashes_escape_the_cli(request, monkeypatch):
    if request.node.get_closest_marker("crash_report") is None:
        from regseq import cli
        monkeypatch.setattr(cli, "_report_crash", _reraise)
