"""``fullview serve`` with the layer wrappers installed, for the traced run.

Imports the program, installs the service wrappers, then
hands the arguments to ``repro.cli.main(["serve", ...])`` unchanged.
When the server has drained after SIGTERM, the busy seconds per
wrapped name and the handler spans go to ``--layers-out``, and every
kept span to ``--spans``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--layers-out", required=True)
    parser.add_argument("--spans", default="")
    args, serve_args = parser.parse_known_args(argv)

    import layers
    from tracer import Tracer

    import repro.cli

    tracer = Tracer()
    layers.install_service(tracer)
    code = repro.cli.main(["serve", *serve_args])
    handler = [
        {"seconds": end - start, **attrs}
        for name, start, end, _, attrs in tracer.spans
        if name == "service.handler"
    ]
    Path(args.layers_out).write_text(json.dumps({"seconds": tracer.seconds, "handler": handler}))
    if args.spans:
        tracer.write_spans(Path(args.spans))
    return code


if __name__ == "__main__":
    sys.exit(main())
