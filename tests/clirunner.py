"""In-process ``relbox`` runs for the tests: stdout, stderr and exit code."""

import contextlib
import io
from dataclasses import dataclass

from relbox.cli import main


@dataclass(frozen=True)
class Result:
    exit_code: int
    stdout: str
    stderr: str

    @property
    def stdout_bytes(self) -> bytes:
        return self.stdout.encode()


def invoke(*args) -> Result:
    """Run ``relbox *args`` in this process, as the console script would."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(list(args))
        except SystemExit as exc:
            code = exc.code or 0
    return Result(code, out.getvalue(), err.getvalue())
