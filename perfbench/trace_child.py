"""Run one qshield CLI command with spans around the package's public functions.

Usage: python3 perfbench/trace_child.py SPANS_JSON RUN_ID CLI_ARG...

The package is imported from PYTHONPATH, as for an untraced run. The spans,
the targets not found and any binding not put back afterwards are written to
SPANS_JSON once the command returns. The exit code is the command's.
"""
from __future__ import annotations

import sys

import qshield
import qshield.cli

from spans import Tracer


def main(argv: list[str]) -> int:
    spans_path, run_id, *cli_args = argv
    tracer = Tracer(run_id)
    missing = tracer.install()
    try:
        code = qshield.cli.main(cli_args)
    finally:
        not_restored = tracer.restore()
    tracer.write(spans_path, missing=missing, not_restored=not_restored, package=qshield.__file__)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
