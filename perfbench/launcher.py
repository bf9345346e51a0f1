"""Start the solver daemon with the benchmark's layer wrappers installed.

Usage: ``python3 perfbench/launcher.py --trace-out SPANS.json --dir STATE
--port 0`` (``--dir`` and ``--port`` mean what they mean to ``repro
serve``).  The wrappers go in before :func:`repro.service.run_service`
starts the same service ``repro serve`` runs; the spans stay in memory and
are written to ``--trace-out`` when the daemon shuts down.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--port", type=int, default=0)
    args = parser.parse_args()

    from repro.service import ServiceConfig, run_service

    recorder = tracing.Recorder()
    with tracing.install(recorder, service=True):
        # No fsync, like the untraced daemon the benchmark runs (see
        # METRICS.md): the traced run must take the same request path.
        code = run_service(ServiceConfig(
            state_dir=args.dir, port=args.port, fsync=False
        ))
    partial = args.trace_out + ".tmp"
    with open(partial, "w") as handle:
        json.dump(recorder.spans, handle)
    os.replace(partial, args.trace_out)
    return code


if __name__ == "__main__":
    sys.exit(main())
