"""The server child: one ``ReproServer`` in its own process.

Started by the benchmark with the CPU affinity it inherits, it serves
the prepared database and answers JSON commands, one per line, on
stdin/stdout::

    {"cmd": "trace_on"}   install the layer wrappers
    {"cmd": "trace_off"}  remove them; reply with the recorded spans
    {"cmd": "stop"}       drain, stop, reply with peak RSS, exit

Usage: ``python3 server_child.py DB_PATH (hot|plain)``.
"""

from __future__ import annotations

import json
import os
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from layers import Tracer, install_program_layers  # noqa: E402


def _reply(body: dict) -> None:
    sys.stdout.write(json.dumps(body) + "\n")
    sys.stdout.flush()


def _counters(server) -> dict:
    counters = {"cache_invalidations": 0, "replica_builds": 0}
    if server.result_cache is not None:
        counters["cache_invalidations"] = server.result_cache.invalidations
    if server.replica is not None:
        counters["replica_builds"] = server.replica.counter("builds")
    return counters


def main(argv: list[str]) -> int:
    path, config = argv
    from repro.server.app import ReproServer, ServerConfig, _Handler

    hot = config == "hot"
    server = ReproServer(ServerConfig(
        path=path, result_cache=hot, replica=hot)).start()
    tracer = Tracer(first_id=10 ** 12)
    _reply({"port": server.address[1]})
    for line in sys.stdin:
        command = json.loads(line)["cmd"]
        if command == "trace_on":
            install_program_layers(tracer)
            tracer.wrap_method(
                _Handler, "do_POST", "server.handler",
                tag=lambda args, kwargs: args[0].headers.get(
                    "X-Request-Id"))
            tracer.take()
            _reply({"counters": _counters(server)})
        elif command == "trace_off":
            tracer.restore()
            _reply({"spans": tracer.take(), "counters": _counters(server)})
        elif command == "stop":
            break
    server.stop()
    _reply({"peak_rss_kb": resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
