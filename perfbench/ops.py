"""The timed operations. This module imports only the standard library and
curvgraph, so a fresh process that runs one op pays for nothing else."""
from __future__ import annotations

import io
import json

from curvgraph import cli, petrov


def classify_doc(text: str) -> str:
    """Document text -> ingest -> classification report -> JSON text."""
    return json.dumps(petrov.classification_report(cli.ingest(text)))


def run_cli(argvs) -> tuple[tuple[int, str], ...]:
    """In-process ``cli.run`` of each command line: (exit code, stdout)."""
    results = []
    for argv in argvs:
        out = io.StringIO()
        code = cli.run(argv, out=out, err=io.StringIO())
        results.append((code, out.getvalue()))
    return tuple(results)
