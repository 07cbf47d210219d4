"""The load generator: one asyncio loop, two connections, four phases.

The generator is the parent of the server process.  It owns a
``PubSubClient`` publisher at ``b0`` and a ``PubSubClient`` subscriber
at the far broker (``nproc`` = 2 on a loopback link), and drives

* **setup** — server launch to the last wire ``subscribe`` reply;
* **warm-up** — paced, unmeasured;
* **paced** — *open loop*: publishes leave as un-awaited tasks on a
  fixed schedule, each stamped with its due time; latency is due time
  to the subscriber's ``on_event``;
* **saturated** — *closed loop*: windows of 128 outstanding publishes
  on the one publisher connection; throughput counts events whose
  expected notifications all arrived;
* **churn** — serial ``subscribe``/``replace``/``unsubscribe`` round
  trips on an otherwise idle server, half before the paced phase and
  half after the saturated one (``churn_prune`` instead issues
  ``replace`` beside the paced phase).

The loop never blocks on the server: every request is awaited by a
task of its own, and server CPU and memory are read from ``/proc``.
"""

from __future__ import annotations

import asyncio
import math
import os
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import ReproError
from repro.events import Event
from repro.transport import PubSubClient

from tracing import EVENT_ID, now_ns
from workloads import Inputs

HERE = Path(__file__).resolve().parent
SATURATED_OUTSTANDING = 128
#: Generator honesty gate: a paced phase that the generator itself (or a
#: stall of the host under it) disturbed — or one that ended overloaded —
#: is measured again on the same server, not reported.
MAX_LATE_P99_MS = 5.0
MAX_GENERATOR_CPU_SHARE = 0.5
MAX_PACED_ATTEMPTS = 2
#: The saturated phase is read in samples of at least this length (cut
#: where a window of publishes ends); the reported rate and CPU cost are
#: medians over the samples, so a stall of the host hits one of them.
SATURATED_SAMPLE_NS = 500_000_000
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


@dataclass(frozen=True)
class Phases:
    """Phase lengths in seconds; identical on every commit."""

    warmup: float
    paced: float
    saturated: float
    churn: float

    @classmethod
    def for_seconds(cls, seconds: float) -> "Phases":
        """Split ``--seconds`` of measurement: half paced, the rest
        warm-up, saturation and churn."""
        return cls(0.1 * seconds, 0.5 * seconds, 0.3 * seconds, 0.1 * seconds)

    @classmethod
    def smoke(cls) -> "Phases":
        return cls(0.5, 1.0, 1.0, 1.0)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (need not be sorted)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def server_cpu_seconds(pid: int) -> float:
    """utime + stime of the whole server process, from ``/proc``."""
    stat = Path("/proc/%d/stat" % pid).read_text()
    # The command name may contain spaces; fields resume after ")".
    fields = stat.rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def server_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` — not ``ru_maxrss``, which survives fork/exec from the
    (larger) generator process."""
    for line in Path("/proc/%d/status" % pid).read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/%d/status" % pid)


class LoadRun:
    """One server process and everything the generator observed of it."""

    def __init__(
        self,
        inputs: Inputs,
        work_dir: Path,
        traced: bool,
        server_cpu: Optional[int] = None,
    ) -> None:
        self.inputs = inputs
        self.server_cpu = server_cpu
        self.spec = inputs.spec
        self.work_dir = work_dir
        self.report_path = work_dir / "server-report.json"
        self.trace_path = work_dir / "server-trace.json" if traced else None
        self.process: Optional[asyncio.subprocess.Process] = None
        self.port = 0
        self.publisher: Optional[PubSubClient] = None
        self.subscriber: Optional[PubSubClient] = None
        self.wire_handles: List[Any] = []
        self.churn_handles: List[Any] = []
        #: server-assigned subscription id -> churn-set index
        self.churn_index: Dict[int, int] = {}
        # Per event, indexed by eid.
        self.due_ns: List[int] = []
        self.sent_ns: List[int] = []
        self.reply_ns: List[int] = []
        self.required: List[int] = []
        self.arrived: List[int] = []
        self.complete_ns: List[int] = []
        #: (delivery_seq, eid, subscription id, arrival ns), arrival order
        self.received: List[Tuple[int, int, int, int]] = []
        self._seen: Set[Tuple[int, int]] = set()
        self.ranges: Dict[str, Tuple[int, int]] = {}
        self.windows: Dict[str, Tuple[int, int]] = {}
        self.publish_errors = 0
        self.inflight = 0
        self.missing = 0
        self.last_activity_ns = 0
        #: (operation, start ns, end ns) per churn round trip
        self.churn_ops: List[Tuple[str, int, int]] = []
        self.churn_errors = 0
        self.setup_s = 0.0
        #: (monotonic ns, server CPU seconds) at each saturated sample's edge
        self.saturated_marks: List[Tuple[int, float]] = []
        self.paced_generator_cpu_s = 0.0
        #: Paced phases discarded by the honesty gate.
        self.invalid_paced = 0
        self.rss_mb = 0.0
        self._tasks: Set["asyncio.Task[None]"] = set()
        self._pool = inputs.pool
        self._pool_size = len(inputs.pool)

    # -- setup / teardown ----------------------------------------------------

    async def setup(self) -> float:
        """Launch the server, connect, subscribe the wire share."""
        started = time.perf_counter()
        command = [
            sys.executable,
            str(HERE / "server_proc.py"),
            "--inputs", str(self.work_dir / "server-inputs.json"),
            "--report", str(self.report_path),
        ]
        if self.trace_path is not None:
            command += ["--trace", str(self.trace_path)]
        if self.server_cpu is not None:
            command += ["--cpu", str(self.server_cpu)]
        self.process = await asyncio.create_subprocess_exec(
            *command, stdin=asyncio.subprocess.PIPE, stdout=asyncio.subprocess.PIPE
        )
        assert self.process.stdout is not None
        line = await asyncio.wait_for(self.process.stdout.readline(), timeout=120)
        if not line.startswith(b"READY "):
            raise RuntimeError("server did not come up: %r" % line)
        self.port = int(line.split()[1])
        self.publisher = PubSubClient(
            "127.0.0.1", self.port, "publisher", broker=self.spec.publisher_broker
        )
        await self.publisher.connect()
        self.subscriber = PubSubClient(
            "127.0.0.1",
            self.port,
            "subscriber",
            broker=self.spec.subscriber_broker,
            on_event=self._on_event,
        )
        await self.subscriber.connect()
        for pair in self.inputs.churn_pairs:
            handle = await self.subscriber.subscribe(pair[0])
            self.churn_index[handle.id] = len(self.churn_handles)
            self.churn_handles.append(handle)
        for tree in self.inputs.wire_trees:
            self.wire_handles.append(await self.subscriber.subscribe(tree))
        self.setup_s = time.perf_counter() - started
        return self.setup_s

    async def stop(self) -> None:
        """End the server (it writes its report first), then the clients."""
        process = self.process
        if process is not None and process.returncode is None:
            assert process.stdin is not None
            process.stdin.close()
            try:
                process.send_signal(signal.SIGTERM)
            except ProcessLookupError:
                pass
            try:
                await asyncio.wait_for(process.wait(), timeout=60)
            except asyncio.TimeoutError:
                process.kill()
                await process.wait()
        for client in (self.publisher, self.subscriber):
            if client is not None:
                await client.close()

    # -- bookkeeping ---------------------------------------------------------

    def _on_event(self, notification: Any) -> None:
        arrived = now_ns()
        eid = notification.event[EVENT_ID]
        subscription_id = notification.subscription_id
        self.received.append(
            (notification.delivery_seq, eid, subscription_id, arrived)
        )
        key = (eid, subscription_id)
        if key in self._seen:
            return
        self._seen.add(key)
        churn = self.churn_index.get(subscription_id)
        if churn is not None:
            holds = self.inputs.churn_oracle[eid % self._pool_size][churn]
            if holds < 2:
                return  # justified by one of its trees, but not required
        self.arrived[eid] += 1
        self.missing -= 1
        self.last_activity_ns = arrived
        if self.arrived[eid] == self.required[eid]:
            self.complete_ns[eid] = arrived

    def _next_event(self, due: int) -> Tuple[int, Event]:
        eid = len(self.due_ns)
        index = eid % self._pool_size
        attributes = dict(self._pool[index])
        attributes[EVENT_ID] = eid
        required = len(self.inputs.oracle[index]) + sum(
            1 for count in self.inputs.churn_oracle[index] if count == 2
        )
        self.due_ns.append(due)
        self.sent_ns.append(0)
        self.reply_ns.append(0)
        self.required.append(required)
        self.arrived.append(0)
        self.complete_ns.append(0)
        self.missing += required
        self.inflight += 1
        return eid, Event(attributes)

    async def _publish(self, eid: int, event: Event) -> None:
        assert self.publisher is not None
        self.sent_ns[eid] = now_ns()
        try:
            await self.publisher.publish(event)
        except (ReproError, ConnectionError, OSError):
            self.publish_errors += 1
        else:
            replied = now_ns()
            self.reply_ns[eid] = replied
            self.last_activity_ns = replied
            if self.required[eid] == 0:
                self.complete_ns[eid] = replied
        finally:
            self.inflight -= 1

    async def quiesce(self, timeout: float = 15.0) -> bool:
        """Wait until every reply and every required notification is in."""
        deadline = time.perf_counter() + timeout
        while self.inflight or self.missing > 0:
            if time.perf_counter() > deadline:
                return False
            await asyncio.sleep(0.002)
        return True

    def generator_load(self) -> Tuple[float, float]:
        """How late the generator ran in the paced phase (p99 of send
        time minus due time, ms) and the share of a CPU it used."""
        first, last = self.ranges["paced"]
        late = [
            (self.sent_ns[eid] - self.due_ns[eid]) / 1e6 for eid in range(first, last)
        ]
        window = self.windows["paced"]
        return (
            percentile(late, 0.99),
            self.paced_generator_cpu_s / ((window[1] - window[0]) / 1e9),
        )

    @property
    def generator_honest(self) -> bool:
        late_p99_ms, cpu_share = self.generator_load()
        return late_p99_ms <= MAX_LATE_P99_MS and cpu_share <= MAX_GENERATOR_CPU_SHARE

    def paced_latencies(self) -> List[Tuple[int, float]]:
        """``(event id, ms from due time to on_event)`` per notification of
        the paced phase, in schedule order.  A delivery that never came
        counts against every latency metric, censored at the phase's end."""
        first, last = self.ranges["paced"]
        ended = self.windows["paced"][1]
        latencies = [
            (eid, (arrived - self.due_ns[eid]) / 1e6)
            for _seq, eid, _sub, arrived in self.received
            if first <= eid < last
        ]
        for eid in range(first, last):
            for _ in range(max(0, self.required[eid] - self.arrived[eid])):
                latencies.append((eid, (ended - self.due_ns[eid]) / 1e6))
        latencies.sort()
        return latencies

    @property
    def overloaded(self) -> bool:
        """The paced phase built a backlog: its last third's median
        latency is more than 1.5 times its first third's."""
        values = [latency for _eid, latency in self.paced_latencies()]
        third = max(1, len(values) // 3)
        return statistics.median(values[-third:]) > 1.5 * statistics.median(
            values[:third]
        )

    # -- phases --------------------------------------------------------------

    async def paced(self, name: str, seconds: float, churn_rate: float = 0.0) -> None:
        """Open loop at the workload's rate; each event is timed from
        when it was *due*, so a stall counts against later events too."""
        rate = self.spec.paced_rate
        count = max(1, int(seconds * rate))
        interval = 1e9 / rate
        loop = asyncio.get_running_loop()
        churner = None
        first = len(self.due_ns)
        cpu_before = time.process_time()
        start = now_ns() + 1_000_000
        if churn_rate > 0:
            churner = loop.create_task(self._paced_churn(start, seconds, churn_rate))
        for index in range(count):
            due = start + int(index * interval)
            while True:
                wait = due - now_ns()
                if wait <= 0:
                    break
                await asyncio.sleep(wait / 1e9)
            eid, event = self._next_event(due)
            task = loop.create_task(self._publish(eid, event))
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)
            if index % 16 == 15:
                await asyncio.sleep(0)  # running behind must not starve I/O
        await self.quiesce()
        if churner is not None:
            await churner
        self.windows[name] = (start, now_ns())
        self.ranges[name] = (first, len(self.due_ns))
        if name == "paced":
            self.paced_generator_cpu_s = time.process_time() - cpu_before
        await asyncio.sleep(0.05)

    async def _paced_churn(self, start: int, seconds: float, rate: float) -> None:
        """``replace`` round trips at a fixed rate on the churn set."""
        count = int(seconds * rate)
        for index in range(count):
            wait = start + int(index * 1e9 / rate) - now_ns()
            if wait > 0:
                await asyncio.sleep(wait / 1e9)
            slot = index % len(self.churn_handles)
            pair = self.inputs.churn_pairs[slot]
            tree = pair[(index // len(self.churn_handles) + 1) % 2]
            await self._churn_op("replace", self.churn_handles[slot].replace(tree))

    async def _churn_op(self, operation: str, awaitable: Any) -> Any:
        started = now_ns()
        try:
            result = await awaitable
        except (ReproError, ConnectionError, OSError):
            self.churn_errors += 1
            result = None
        self.churn_ops.append((operation, started, now_ns()))
        return result

    async def saturated(self, seconds: float) -> None:
        """Closed loop: windows of ``SATURATED_OUTSTANDING`` publishes.

        A window goes out at once and the next one follows the last
        reply.  (Refilling slot by slot instead lets generator and server
        lock into phases of larger or smaller socket reads, and the same
        server then swings by a fifth from one second to the next.)
        """
        assert self.process is not None
        pid = self.process.pid
        first = len(self.due_ns)
        start = now_ns()
        deadline = start + int(seconds * 1e9)
        marks = [(start, server_cpu_seconds(pid))]
        while True:
            now = now_ns()
            if now >= deadline:
                break
            window = [self._next_event(now) for _ in range(SATURATED_OUTSTANDING)]
            await asyncio.gather(*(self._publish(eid, event) for eid, event in window))
            now = now_ns()
            if now - marks[-1][0] >= SATURATED_SAMPLE_NS:
                marks.append((now, server_cpu_seconds(pid)))
        await self.quiesce()
        self.saturated_marks = marks
        self.windows["saturated"] = (start, max(self.last_activity_ns, deadline))
        self.ranges["saturated"] = (first, len(self.due_ns))
        self.rss_mb = server_peak_rss_mb(pid)
        await asyncio.sleep(0.05)

    async def churn(self, seconds: float) -> None:
        """Serial subscribe / replace / unsubscribe on an idle server.

        While it waits for a reply the generator polls instead of
        sleeping: on a virtual machine waking an idle CPU goes through
        the hypervisor, and that wake-up — the generator's, not the
        server's — was nearly half of a 0.65 ms round trip and the less
        steady half.
        """
        assert self.subscriber is not None
        trees = self.inputs.churn_trees
        deadline = time.perf_counter() + seconds
        start = now_ns()
        polling = True

        async def poll() -> None:
            while polling:
                await asyncio.sleep(0)

        poller = asyncio.get_running_loop().create_task(poll())
        try:
            # Whole passes over the churn trees only: a pass is the unit
            # the metric is taken over, so each must see the same trees.
            while time.perf_counter() < deadline:
                for index, tree in enumerate(trees):
                    handle = await self._churn_op(
                        "subscribe", self.subscriber.subscribe(tree)
                    )
                    if handle is None:
                        continue
                    await self._churn_op(
                        "replace", handle.replace(trees[(index + 1) % len(trees)])
                    )
                    await self._churn_op("unsubscribe", handle.unsubscribe())
        finally:
            polling = False
            await poller
        # The two halves of the phase share one window; nothing else
        # issues churn in between.
        if "churn" in self.windows:
            start = self.windows["churn"][0]
        self.windows["churn"] = (start, now_ns())


async def drive(run: LoadRun, phases: Phases) -> None:
    """Setup through churn on one server; always stops the server."""
    churn_rate = run.spec.paced_churn_rate
    # Where churn rides beside the paced phase, that phase takes its time too.
    paced_seconds = phases.paced + (phases.churn if churn_rate > 0 else 0.0)
    try:
        await run.setup()
        await run.paced("warmup", phases.warmup)
        if churn_rate == 0:
            # Half the churn phase before the measured phases, half after:
            # sub-millisecond round trips follow the host's mood, which
            # two samples half a run apart see more of than one.
            await run.churn(phases.churn / 2)
        for attempt in range(MAX_PACED_ATTEMPTS):
            await run.paced("paced", paced_seconds, churn_rate)
            if run.generator_honest and not run.overloaded:
                break
            late_p99_ms, cpu_share = run.generator_load()
            last = attempt == MAX_PACED_ATTEMPTS - 1
            sys.stderr.write(
                "loadgen: %s paced phase invalid (generator late p99 %.2f ms, "
                "cpu share %.2f, overloaded %s); %s\n"
                % (
                    run.spec.name, late_p99_ms, cpu_share, run.overloaded,
                    "reported as measured, flagged" if last else "measuring it again",
                )
            )
            if not last:
                run.invalid_paced += 1
        await run.saturated(phases.saturated)
        if churn_rate == 0:
            await run.churn(phases.churn / 2)
    finally:
        await run.stop()


async def setup_only(run: LoadRun) -> float:
    """One more sample of set-up time: launch, subscribe, tear down."""
    try:
        return await run.setup()
    finally:
        await run.stop()
