"""A traced ``serve`` process: ``python -m bench.serve_child OUT [serve flags]``.

Wraps every traced layer (:data:`bench.layers.SPANS`), then runs the real
``repro.cli serve`` with the given flags.  When the server stops
(SIGTERM drains it and ``main`` returns), the span aggregates, the raw
span sample and the names of missing wrap sites are written to ``OUT``
as one JSON document.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from bench.layers import SPANS
from bench.spans import Tracer, install


def main(argv: list) -> int:
    out = Path(argv[0])
    tracer = Tracer()
    missing = install(tracer, SPANS)
    from repro.cli import main as cli_main

    try:
        return cli_main(["serve", *argv[1:]])
    finally:
        out.write_text(
            json.dumps({"spans": tracer.export(), "missing": missing}, default=str),
            encoding="utf-8",
        )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
