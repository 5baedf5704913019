import os

import acceptance_report
from hypothesis import settings

# `ci` draws the same examples on every run, so a property failure in CI
# replays with HYPOTHESIS_PROFILE=ci on any machine. No example database:
# examples saved by earlier local runs would be tried first. Each test keeps
# its own example count.
settings.register_profile("ci", derandomize=True, database=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def pytest_terminal_summary(terminalreporter):
    lines = acceptance_report.lines()
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
