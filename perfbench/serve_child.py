"""Launch ``repro.serving`` as the benchmark's server process.

Usage: ``python perfbench/serve_child.py [--trace-out FILE] -- <serving args>``

Without ``--trace-out`` this is exactly ``python -m repro.serving <args>``.
With it, the per-layer wrappers of :mod:`layers` are installed before the
server is built, and when the server stops (the ``shutdown`` op) the recorded
events are appended to FILE as one JSON line.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]

    import repro.evaluation.cli  # noqa: F401  (load every module before patching)
    import repro.serving.server as server

    if trace_out is None:
        return server.main(argv)

    import layers

    recorder = layers.Recorder()
    layers.install_serving(recorder)
    code = server.main(argv)
    layers.dump(recorder, trace_out)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
