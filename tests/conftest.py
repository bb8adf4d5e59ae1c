import contextlib
import io
from typing import NamedTuple

import pytest

from divconv.cli import main
from divconv.modforms import build_basis, registered_cusp_quotients


@pytest.fixture(scope="session")
def paper_bases():
    """Weight-4 bases at the Sturm bound for the three paper levels."""
    return {level: build_basis(level, registered_cusp_quotients(level)) for level in (14, 22, 26)}


class CliResult(NamedTuple):
    """What one CLI run exited with and wrote."""

    exit_code: int
    stdout: str
    stderr: str

    @property
    def output(self) -> str:
        """stdout followed by stderr."""
        return self.stdout + self.stderr


def run_cli(*args: str) -> CliResult:
    """Run one divconv command in this process, as the console script would,
    and capture what it writes, with the CSV writer's "\\r\\n" line ends read
    as "\\n" (the sha256 pins were taken so); an exception it does not
    handle propagates."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(args, standalone_mode=False)
        except SystemExit as exc:  # usage errors and --help
            code = exc.code
    return CliResult(code, *(stream.getvalue().replace("\r\n", "\n") for stream in (out, err)))
