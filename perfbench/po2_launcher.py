"""Run ``po2`` with spans installed, appending them to a file when it ends.

Usage: ``python3 po2_launcher.py SPANS_FILE ARGS...`` with ``src`` on
``PYTHONPATH``; behaves like ``python -m po2buchi.cli ARGS...``.
"""

import json
import sys

import tracing

tracer = tracing.Tracer()
tracing.install(tracer)

from po2buchi import cli  # noqa: E402  (imported after the spans are installed)

try:
    code = cli.main(sys.argv[2:])
finally:
    with open(sys.argv[1], "a", encoding="utf-8") as fh:
        fh.write(json.dumps(tracer.snapshot()) + "\n")
sys.exit(code)
