"""Run the CLI's ``main`` in this process with its standard streams captured.

``CliRunner().invoke(main, argv, input=..., env=...)`` returns the exit
code, standard output, standard error, both (``output``: stdout then
stderr) and the exception that ended ``main``, if any.  ``env`` sets
variables for the run and unsets those mapped to None.  Standard input
decodes with surrogateescape, as under a C locale, so a command that
reads it as text cannot pass for one that decodes its bytes strictly.
"""

from __future__ import annotations

import io
import os
import sys
from typing import NamedTuple
from unittest import mock


class Result(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str
    exception: BaseException | None

    @property
    def output(self) -> str:
        return self.stdout + self.stderr


class CliRunner:
    def invoke(self, main, argv, input: str | bytes | None = None, env=None) -> Result:
        if isinstance(input, str):
            input = input.encode("utf-8")
        stdin = io.TextIOWrapper(
            io.BytesIO(input or b""), encoding="utf-8", errors="surrogateescape"
        )
        stdout, stderr = io.StringIO(), io.StringIO()
        with mock.patch.dict(os.environ), mock.patch.multiple(
            sys, stdin=stdin, stdout=stdout, stderr=stderr
        ):
            for name, value in (env or {}).items():
                if value is None:
                    os.environ.pop(name, None)
                else:
                    os.environ[name] = value
            exception = None
            try:
                exit_code = main(argv)
            except SystemExit as exc:
                exception = exc
                exit_code = 0 if exc.code is None else exc.code
            except Exception as exc:
                exception = exc
                exit_code = 1
        return Result(exit_code, stdout.getvalue(), stderr.getvalue(), exception)
