"""The system under test, as a child process of ``run.py``.

``PubSubService`` + ``PubSubServer`` with library defaults
(``max_batch=64``, ``flush_linger=0.01``, ``queue_capacity=256``,
``policy="block"``, unsharded).  The process is handed only generated
inputs (``--inputs``: broker count, background subscriptions, adaptive
settings); the table's background share is registered through in-process
sessions with ``CountingSink``.

Protocol with the parent: one ``READY <port>`` line on stdout once the
socket accepts; ``SIGTERM`` or EOF on stdin ends the run.  There is no
control channel in between — the parent reads CPU and memory from
``/proc``.  On the way out the process writes what only it can know
(``--report``: dead letters, queue high water, table sizes, the
adaptive controller's counters; ``--trace``: the recorded spans).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys
import threading
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))


def _exit_report(
    service: Any, published_before: int, bytes_before: int
) -> Dict[str, Any]:
    """Counters only this process can read, taken while sessions are open."""
    network = service.network
    queues = [s.queue for s in service.sessions if s.queue is not None]
    adaptive: Optional[Dict[str, Any]] = None
    if service.adaptive is not None:
        report = service.adaptive.report()
        adaptive = {
            key: report[key]
            for key in (
                "cycles", "restores", "prunings_applied", "prunings_reverted",
                "bytes_reclaimed",
            )
        }
    return {
        "dead_letters": sum(queue.dropped for queue in queues),
        "queue_high_water": max((queue.high_water for queue in queues), default=0),
        "published": service.publish_count - published_before,
        "event_bytes": network.report().event_bytes - bytes_before,
        "table_size_bytes": network.table_size_bytes,
        "slots": sum(len(b.matcher.subscriptions()) for b in network.brokers.values()),
        "entries": sum(b.matcher.entry_count for b in network.brokers.values()),
        "adaptive": adaptive,
    }


async def _serve(service: Any, tracer: Any, args: argparse.Namespace) -> None:
    from repro.transport import PubSubServer

    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    loop.add_signal_handler(signal.SIGTERM, stop.set)

    def watch_stdin() -> None:
        # A parent that dies closes our stdin: never outlive it.
        sys.stdin.buffer.read()
        loop.call_soon_threadsafe(stop.set)

    threading.Thread(target=watch_stdin, daemon=True).start()

    server = PubSubServer(service, "b0")
    await server.start()
    published_before = service.publish_count
    bytes_before = service.network.report().event_bytes
    if tracer is not None:
        tracer.enabled = True
    sys.stdout.write("READY %d\n" % server.port)
    sys.stdout.flush()

    await stop.wait()
    if tracer is not None:
        tracer.enabled = False
    report = _exit_report(service, published_before, bytes_before)
    await server.close()
    Path(args.report).write_text(json.dumps(report), encoding="utf-8")
    if tracer is not None:
        tracer.dump(args.trace)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", default=None)
    parser.add_argument("--cpu", type=int, default=None)
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    from repro.adaptive import AdaptiveConfig
    from repro.routing.network import BrokerNetwork
    from repro.routing.topology import line_topology
    from repro.service import CountingSink, PubSubService
    from repro.subscriptions.serialize import node_from_dict

    inputs = json.loads(Path(args.inputs).read_text(encoding="utf-8"))
    tracer = None
    network = BrokerNetwork(line_topology(inputs["brokers"]))
    if args.trace is not None:
        import tracing

        tracer = tracing.Tracer()
        tracing.install_server(tracer)
        tracing.trace_delivery_hook(tracer, network)
    adaptive = (
        AdaptiveConfig(**inputs["adaptive"]) if inputs["adaptive"] is not None else None
    )
    service = PubSubService(network, adaptive=adaptive)
    sessions: Dict[str, Any] = {}
    for item in inputs["background"]:
        session = sessions.get(item["broker"])
        if session is None:
            session = sessions[item["broker"]] = service.connect(
                item["broker"], "background", CountingSink()
            )
        session.subscribe(node_from_dict(item["tree"]))
    asyncio.run(_serve(service, tracer, args))
    # The background tables die with the process; withdrawing 10 000
    # subscriptions one flood at a time would only lengthen the run.
    return 0


if __name__ == "__main__":
    sys.exit(main())
