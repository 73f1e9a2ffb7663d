"""Serving process of the ``serve-online-r6`` workload.

Usage: ``python3 perfbench/server.py REGISTRY_DIR`` with ``src`` on
``PYTHONPATH``.  Starts ``repro.serve.ServeServer`` over the registry on
an ephemeral loopback port and answers one command per stdin line, each
reply a stdout line starting with ``PERFBENCH`` (the program's own log
lines also go to stdout):

* start-up: ``{"url": ...}`` once the server accepts connections;
* ``trace on`` / ``trace off``: install or remove the layer wrappers;
* ``stats``: the span totals gathered while tracing was on.

End of stdin stops the server gracefully and exits, so the server
cannot outlive the benchmark process that holds the pipe.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer, add_server_layers  # noqa: E402


def reply(payload: dict) -> None:
    print("PERFBENCH " + json.dumps(payload), flush=True)


def main(argv) -> int:
    from repro.serve import ModelRegistry, ServeServer

    tracer = Tracer()
    add_server_layers(tracer)
    server = ServeServer(ModelRegistry(argv[1])).start()
    try:
        reply({"url": server.url})
        for line in sys.stdin:
            command = line.strip()
            if command == "trace on":
                tracer.install()
            elif command == "trace off":
                tracer.uninstall()
            elif command == "stats":
                reply(tracer.totals())
                continue
            else:
                reply({"error": f"unknown command {command!r}"})
                continue
            reply({"ok": command})
    finally:
        tracer.uninstall()
        server.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
