"""The asyncio TCP server: wire sessions over a :class:`PubSubService`.

:class:`PubSubServer` puts a socket in front of the service layer.  One
TCP connection speaks the frame protocol of :mod:`repro.transport.
protocol`; its ``hello`` opens (or resumes) one service
:class:`~repro.service.session.Session` with a bounded delivery queue —
the PR-7 backpressure queues literally *are* the per-connection send
buffers.  Dataflow per connection::

    flush (any thread) ──▶ BoundedDeliveryQueue (policy, dead letters)
        ──▶ pump thread ──▶ AsyncDeliverySink ──▶ drain task (loop)
        ──▶ unacked buffer + frame write ──▶ socket

* **Dispatch** stages matched notifications in the session's bounded
  queue; its ``block``/``drop_oldest``/``disconnect`` policy is the
  slow-consumer policy of the connection.
* A per-connection **pump thread** consumes the queue and hands each
  notification to an :class:`~repro.service.sinks.AsyncDeliverySink`,
  which bridges it onto the event loop.  The pump throttles itself on
  the sink's ``pending`` lag (a small bridge window), so socket
  backpressure propagates: a slow socket stalls the drain task, the
  window fills, the pump stops consuming, the bounded queue fills, and
  the queue's policy decides who pays.
* The loop-side **drain task** appends each notification to the
  connection's *unacked* retransmit buffer, then writes its ``event``
  frame.  Clients acknowledge the highest ``delivery_seq`` they have
  seen; acknowledged entries are trimmed.

**Resume**: an ungraceful disconnect (EOF, reset, abort) *detaches* the
connection but keeps the session — and with it the queue's undelivered
tail, the unacked buffer, and the gapless ``delivery_seq`` counter —
registered under its token (:meth:`repro.service.PubSubService.
resume`).  A client that reconnects presents the token plus its last
seen ``delivery_seq``; the server trims what the client already has,
replays the rest of the unacked buffer in order, and restarts the pump
on the still-queued tail.  Delivered + dead-lettered therefore remains
exactly what was dispatched, across any number of reconnects
(``tests/test_transport_e2e.py``).

Service calls that can flush (publish, subscribe/unsubscribe/replace,
connect) run in worker threads (``asyncio.to_thread``), never on the
event loop: a flush may block in a full ``block``-policy queue, and the
loop must stay free to run the drain tasks that empty those queues.

**Natural batching**: remote publishers cannot call
``service.flush()``, so the server drains the ingress for them.  As
soon as no connection is still handling a read burst that contains a
``publish``, one *ingress drain* task flushes in a worker thread, and
flushes again while events are pending.  Events submitted during a
flush become the next batch, so batch size follows load without a
timer: about one event when paced, and ``max_batch`` under saturation,
where the submitting thread flushes each full batch itself.  Bursts of
acks (or of churn, which flushes on its own) neither start nor hold off
the drain.

All blocking service work is paid per *message*; framing, auth, and
bookkeeping stay on the loop.  See ``docs/ARCHITECTURE.md``
("Transport") for the full picture.
"""

from __future__ import annotations

import asyncio
import secrets
import threading
import time
from collections import deque
from typing import Deque, Dict, List, Mapping, Optional, Tuple

from repro.errors import ProtocolError, ReproError, TransportError
from repro.service.backpressure import POLICIES
from repro.service.service import PubSubService
from repro.service.session import Session, SubscriptionHandle
from repro.service.sinks import AsyncDeliverySink, CountingSink, Notification
from repro.subscriptions.serialize import node_from_dict
from repro.transport.protocol import (
    GOODBYE_ACK_OVERDUE,
    GOODBYE_AUTH,
    GOODBYE_BAD_VERSION,
    GOODBYE_CLIENT_GOODBYE,
    GOODBYE_IDLE_TIMEOUT,
    GOODBYE_PROTOCOL_ERROR,
    GOODBYE_SERVER_SHUTDOWN,
    GOODBYE_SLOW_CONSUMER,
    GOODBYE_UNKNOWN_TOKEN,
    PROTOCOL_VERSION,
    Envelope,
    FrameDecoder,
    encode_frame,
    event_envelope,
    event_from_wire,
)
from repro.transport.streams import (
    StreamWrapper,
    TransportReader,
    TransportWriter,
)

#: How many notifications the pump may stage in the loop bridge ahead
#: of the socket writes; the dominant send buffer is the session's
#: bounded queue, this only smooths the thread→loop hand-off.
DEFAULT_BRIDGE_WINDOW = 64

#: Default capacity of the per-connection bounded delivery queue.
DEFAULT_QUEUE_CAPACITY = 256

_PUMP_POLL_SECONDS = 0.05
_PUMP_THROTTLE_SECONDS = 0.001


class _SessionState:
    """Server-side state of one logical session (survives reconnects)."""

    __slots__ = ("token", "session", "handles", "unacked", "connection")

    def __init__(self, token: str, session: Session) -> None:
        self.token = token
        self.session = session
        #: subscription id → live handle; handles survive reconnects
        #: because the session does.
        self.handles: Dict[int, SubscriptionHandle] = {}
        #: Sent (or popped-from-queue) but not yet acknowledged, in
        #: ``delivery_seq`` order.  Only touched from the event loop.
        self.unacked: Deque[Notification] = deque()
        self.connection: Optional[_Connection] = None


class _Connection:
    """One TCP connection: framing, dispatch, and the delivery pump."""

    def __init__(
        self,
        server: "PubSubServer",
        reader: TransportReader,
        writer: TransportWriter,
    ) -> None:
        self._server = server
        self._reader = reader
        self._writer = writer
        self._state: Optional[_SessionState] = None
        self._sink: Optional[AsyncDeliverySink] = None
        self._pump_thread: Optional[threading.Thread] = None
        self._pump_stop = threading.Event()
        self._detach_task: Optional["asyncio.Task[None]"] = None
        self._heartbeat_task: Optional["asyncio.Task[None]"] = None
        self._retired = False
        self._finished = False
        self._last_inbound = 0.0

    # -- outbound ------------------------------------------------------------

    def _write(self, envelope: Envelope) -> None:
        """Queue one frame on the transport (never raises on dead sockets)."""
        try:
            self._writer.write(encode_frame(envelope))
        except (ConnectionError, OSError, RuntimeError):
            pass

    async def _send(self, envelope: Envelope) -> None:
        self._write(envelope)
        try:
            await self._writer.drain()
        except (ConnectionError, OSError, RuntimeError):
            pass

    async def _send_error(
        self, code: str, message: str, request_id: Optional[int] = None
    ) -> None:
        envelope: Envelope = {"type": "error", "code": code, "message": message}
        if request_id is not None:
            envelope["id"] = request_id
        await self._send(envelope)

    # -- delivery path (loop side) -------------------------------------------

    async def _deliver(self, notification: Notification) -> None:
        """Drain-task handler: record as unacked, then write the frame."""
        state = self._state
        assert state is not None
        state.unacked.append(notification)
        if self._detach_task is None:
            self._write(event_envelope(notification))
            try:
                await self._writer.drain()
            except (ConnectionError, OSError, RuntimeError):
                pass  # connection died mid-write; unacked keeps the frame
        if len(state.unacked) > self._server.max_unacked:
            # The client stopped acknowledging: detach (resumable) so
            # the retransmit buffer stops growing.  goodbye is best
            # effort — the client may be gone already.
            if self._detach_task is None:
                self._write({"type": "goodbye", "reason": GOODBYE_ACK_OVERDUE})
                self.begin_detach()

    def _pump(self) -> None:
        """Thread: move queue → sink, throttled by the bridge window."""
        state = self._state
        sink = self._sink
        assert state is not None and sink is not None
        queue = state.session.queue
        assert queue is not None
        while not self._pump_stop.is_set():
            if sink.pending >= self._server.bridge_window:
                time.sleep(_PUMP_THROTTLE_SECONDS)
                continue
            notification = queue.get(timeout=_PUMP_POLL_SECONDS)
            if notification is not None:
                sink.deliver(notification)
                continue
            if queue.disconnected and queue.depth == 0:
                # The disconnect policy fired and the staged tail has
                # been delivered: drop the consumer, as the policy
                # models.
                loop = self._server.loop
                if loop is not None:
                    loop.call_soon_threadsafe(self._begin_slow_consumer_close)
                return
            if queue.closed and queue.depth == 0:
                return

    def _begin_slow_consumer_close(self) -> None:
        if not self._retired and self._detach_task is None:
            asyncio.ensure_future(self._retire(GOODBYE_SLOW_CONSUMER))

    # -- attach / detach / retire --------------------------------------------

    def _attach(self, state: _SessionState) -> None:
        """Bind this connection to ``state`` and start the delivery path."""
        state.connection = self
        self._state = state
        self._sink = AsyncDeliverySink(self._deliver)
        self._sink.start()
        self._pump_stop.clear()
        self._pump_thread = threading.Thread(
            target=self._pump,
            name="transport-pump-%s" % state.session.client,
            daemon=True,
        )
        self._pump_thread.start()
        if (
            self._server.heartbeat_interval is not None
            or self._server.idle_timeout is not None
        ):
            self._heartbeat_task = asyncio.ensure_future(self._heartbeat())

    async def _heartbeat(self) -> None:
        """Ping idle peers; reap dead ones (detach — the session stays
        resumable, so a client that was merely partitioned comes back
        by token).  Any inbound frame counts as liveness, so a busy
        publisher is never pinged and a responsive client costs one
        pong per quiet interval."""
        server = self._server
        interval = server.heartbeat_interval
        idle_timeout = server.idle_timeout
        candidates = [t for t in (interval, idle_timeout) if t is not None]
        tick = max(min(candidates) / 4.0, 0.005) if candidates else 1.0
        loop = asyncio.get_running_loop()
        while not self._finished:
            await asyncio.sleep(tick)
            idle = loop.time() - self._last_inbound
            if idle_timeout is not None and idle >= idle_timeout:
                # Dead-peer reaping: nothing inbound for the whole
                # timeout (pings included, if enabled).  goodbye is
                # best effort — the peer is presumed gone.
                await self._send(
                    {"type": "goodbye", "reason": GOODBYE_IDLE_TIMEOUT}
                )
                self.begin_detach()
                return
            if interval is not None and idle >= interval:
                server._ping_serial += 1
                await self._send({"type": "ping", "id": server._ping_serial})

    def begin_detach(self) -> "asyncio.Task[None]":
        """Start (or join) the idempotent detach; returns its task."""
        if self._detach_task is None:
            self._detach_task = asyncio.ensure_future(self._do_detach())
        return self._detach_task

    async def _do_detach(self) -> None:
        """Stop the delivery path, recovering every in-flight
        notification into the unacked buffer; the session stays open
        and resumable."""
        self._finished = True
        if self._heartbeat_task is not None:
            if self._heartbeat_task is not asyncio.current_task():
                self._heartbeat_task.cancel()
            self._heartbeat_task = None
        self._pump_stop.set()
        if self._pump_thread is not None:
            await asyncio.to_thread(self._pump_thread.join)
            self._pump_thread = None
        if self._sink is not None:
            # Drains the bridge backlog through _deliver: with the
            # detach task set, entries go to unacked without writes.
            await self._sink.aclose()
            self._sink = None
        state = self._state
        if state is not None and state.connection is self:
            state.connection = None
        try:
            self._writer.close()
        except (ConnectionError, OSError, RuntimeError):
            pass

    async def detach(self) -> None:
        await self.begin_detach()

    async def _retire(self, reason: str) -> None:
        """Close the logical session for good (no resume)."""
        if self._retired:
            return
        self._retired = True
        await self._send({"type": "goodbye", "reason": reason})
        await self.begin_detach()
        state = self._state
        if state is not None:
            self._server._drop_state(state)
            await asyncio.to_thread(state.session.close)

    # -- inbound -------------------------------------------------------------

    async def run(self) -> None:
        decoder = FrameDecoder()
        self._last_inbound = asyncio.get_running_loop().time()
        try:
            while not self._finished:
                data = await self._reader.read(65536)
                if not data:
                    break
                self._last_inbound = asyncio.get_running_loop().time()
                try:
                    messages = decoder.feed(data)
                except ProtocolError as error:
                    # Framing-layer corruption: the stream cannot be
                    # trusted again.  Answer structurally, then drop
                    # the connection (session stays resumable).
                    await self._send_error(error.code, str(error))
                    await self._send(
                        {"type": "goodbye", "reason": GOODBYE_PROTOCOL_ERROR}
                    )
                    break
                publishing = any(
                    not isinstance(message, ProtocolError)
                    and message["type"] == "publish"
                    for message in messages
                )
                if publishing:
                    self._server._publishing_bursts += 1
                try:
                    for message in messages:
                        if isinstance(message, ProtocolError):
                            # Malformed payload in an intact frame:
                            # reject just the message, keep the
                            # connection.
                            await self._send_error(message.code, str(message))
                            continue
                        await self._handle(message)
                        if self._finished:
                            break
                finally:
                    # Released even when the burst dies mid-way, or no
                    # connection's drain would ever start again.
                    if publishing:
                        self._server._publishing_bursts -= 1
                        self._server._kick_ingress_drain()
        except (ConnectionError, OSError):
            pass
        finally:
            await self.begin_detach()

    async def _handle(self, message: Envelope) -> None:
        kind = message["type"]
        if kind == "hello":
            await self._handle_hello(message)
            return
        if kind == "ping":
            await self._send({"type": "pong", "id": message["id"]})
            return
        if kind == "goodbye":
            await self._retire(GOODBYE_CLIENT_GOODBYE)
            return
        if self._state is None:
            await self._send_error(
                "no-session",
                "send hello before %r" % kind,
                message.get("id"),
            )
            return
        if kind == "ack":
            self._handle_ack(message["delivery_seq"])
            return
        if kind == "publish":
            await self._handle_publish(message)
            return
        if kind == "subscribe":
            await self._handle_subscribe(message)
            return
        if kind == "unsubscribe":
            await self._handle_unsubscribe(message)
            return
        if kind == "replace":
            await self._handle_replace(message)
            return
        if kind == "pong":
            return
        await self._send_error(
            "unexpected-envelope",
            "%r is not a client-to-server envelope" % kind,
            message.get("id"),
        )

    async def _handle_hello(self, message: Envelope) -> None:
        if self._state is not None:
            await self._send_error(
                "already-attached", "this connection already has a session"
            )
            return
        if message["version"] != PROTOCOL_VERSION:
            await self._send_error(
                "bad-version",
                "server speaks protocol %d, client sent %r"
                % (PROTOCOL_VERSION, message["version"]),
            )
            await self._send({"type": "goodbye", "reason": GOODBYE_BAD_VERSION})
            self._finished = True
            return
        client = message["client"]
        if not self._server._authenticate(client, message.get("auth")):
            await self._send_error(
                "auth", "invalid auth token for client %r" % client
            )
            await self._send({"type": "goodbye", "reason": GOODBYE_AUTH})
            self._finished = True
            return
        token = message.get("token")
        if token is not None:
            await self._handle_resume(token, message)
            return
        broker_id = message.get("broker", self._server.broker_id)
        capacity = message.get("queue_capacity", self._server.queue_capacity)
        policy = message.get("policy", self._server.policy)
        if policy not in POLICIES:
            await self._send_error(
                "bad-policy",
                "unknown backpressure policy %r (choose from %s)"
                % (policy, ", ".join(POLICIES)),
            )
            return
        new_token = secrets.token_hex(16)
        try:
            session = await asyncio.to_thread(
                self._server.service.connect,
                broker_id,
                client,
                CountingSink(),
                queue_capacity=capacity,
                policy=policy,
                token=new_token,
            )
        except ReproError as error:
            await self._send_error(_service_code(error), str(error))
            return
        state = _SessionState(new_token, session)
        self._server._add_state(state)
        await self._send(
            {
                "type": "welcome",
                "token": new_token,
                "broker": broker_id,
                "client": client,
                "resumed": False,
                "replayed": 0,
            }
        )
        self._attach(state)

    async def _handle_resume(self, token: str, message: Envelope) -> None:
        state = self._server._state_for(token)
        if state is None or state.session.closed:
            await self._send_error(
                "unknown-token",
                "no resumable session for the presented token",
            )
            await self._send(
                {"type": "goodbye", "reason": GOODBYE_UNKNOWN_TOKEN}
            )
            self._finished = True
            return
        if state.session.client != message["client"]:
            await self._send_error(
                "auth", "token does not belong to client %r" % message["client"]
            )
            await self._send({"type": "goodbye", "reason": GOODBYE_AUTH})
            self._finished = True
            return
        superseded = state.connection
        if superseded is not None and superseded is not self:
            # The previous socket may be dead without the server having
            # noticed yet (an aborted client); detach it fully so its
            # bridge backlog lands in unacked before we replay.
            await superseded.begin_detach()
        last_seen = message.get("last_seen", -1)
        while state.unacked and state.unacked[0].delivery_seq <= last_seen:
            state.unacked.popleft()
        replay = list(state.unacked)
        await self._send(
            {
                "type": "welcome",
                "token": token,
                "broker": state.session.broker_id,
                "client": state.session.client,
                "resumed": True,
                "replayed": len(replay),
            }
        )
        for notification in replay:
            await self._send(event_envelope(notification))
        self._attach(state)

    def _handle_ack(self, delivery_seq: int) -> None:
        state = self._state
        assert state is not None
        while state.unacked and state.unacked[0].delivery_seq <= delivery_seq:
            state.unacked.popleft()

    async def _handle_publish(self, message: Envelope) -> None:
        state = self._state
        assert state is not None
        try:
            event = event_from_wire(message["event"])
        except ProtocolError as error:
            await self._send_error(error.code, str(error), message["id"])
            return
        try:
            flushed = await asyncio.to_thread(state.session.publish, event)
        except ReproError as error:
            await self._send_error(_service_code(error), str(error), message["id"])
            return
        await self._send(
            {"type": "published", "id": message["id"], "flushed": flushed}
        )

    async def _handle_subscribe(self, message: Envelope) -> None:
        state = self._state
        assert state is not None
        try:
            tree = node_from_dict(message["tree"])
            handle = await asyncio.to_thread(state.session.subscribe, tree)
        except ReproError as error:
            await self._send_error(_service_code(error), str(error), message["id"])
            return
        state.handles[handle.id] = handle
        await self._send(
            {"type": "subscribed", "id": message["id"], "subscription": handle.id}
        )

    async def _handle_unsubscribe(self, message: Envelope) -> None:
        state = self._state
        assert state is not None
        handle = state.handles.pop(message["subscription"], None)
        if handle is None:
            await self._send_error(
                "unknown-subscription",
                "no subscription %d on this session" % message["subscription"],
                message["id"],
            )
            return
        try:
            await asyncio.to_thread(handle.unsubscribe)
        except ReproError as error:
            await self._send_error(_service_code(error), str(error), message["id"])
            return
        await self._send(
            {
                "type": "unsubscribed",
                "id": message["id"],
                "subscription": message["subscription"],
            }
        )

    async def _handle_replace(self, message: Envelope) -> None:
        state = self._state
        assert state is not None
        handle = state.handles.get(message["subscription"])
        if handle is None:
            await self._send_error(
                "unknown-subscription",
                "no subscription %d on this session" % message["subscription"],
                message["id"],
            )
            return
        try:
            tree = node_from_dict(message["tree"])
            await asyncio.to_thread(handle.replace, tree)
        except ReproError as error:
            await self._send_error(_service_code(error), str(error), message["id"])
            return
        await self._send(
            {
                "type": "replaced",
                "id": message["id"],
                "subscription": message["subscription"],
            }
        )


def _service_code(error: ReproError) -> str:
    """The wire error code for a service-layer exception."""
    if isinstance(error, TransportError):
        return error.code
    return "service"


class PubSubServer:
    """Serve a :class:`~repro.service.service.PubSubService` over TCP.

    The server *borrows* the service: it opens one session per
    connection (closing them as connections retire) but never closes
    the service itself, so in-process sessions, direct substrate use,
    and the socket frontier coexist on one engine.

    ``auth_tokens`` maps client names to required ``hello.auth``
    values; ``None`` disables authentication.  ``queue_capacity`` /
    ``policy`` are the per-connection send-buffer defaults (a client's
    ``hello`` may override them); ``max_unacked`` bounds the retransmit
    buffer of a client that stops acknowledging (the connection is
    detached — resumable — when it overflows).

    ``heartbeat_interval`` pings connections quiet for that many
    seconds; ``idle_timeout`` reaps connections with *no* inbound
    traffic (pongs included) for that many seconds — a resumable
    detach with goodbye reason ``"idle-timeout"``, so a partitioned
    client rejoins by token.  Both default to ``None`` (off).
    ``stream_wrapper`` interposes every accepted connection's byte
    streams (see :mod:`repro.transport.streams`; used by
    :func:`repro.faults.faulty_stream` for chaos testing).

    Remote publishers have no ``service.flush()``: the server drains
    the ingress for them as soon as no connection is still handling a
    read burst that contains a ``publish`` (natural batching, see the
    module docstring), so a burst smaller than ``max_batch`` never
    strands and no timer delays a quiet wire's last event.

    Use as an async context manager, or ``await start()`` /
    ``await close()`` explicitly::

        service = PubSubService(topology=line_topology(1))
        async with PubSubServer(service, "b0", port=0) as server:
            client = PubSubClient("127.0.0.1", server.port, "alice")
            ...

    ``port=0`` binds an ephemeral port, exposed as :attr:`port` after
    :meth:`start`.
    """

    def __init__(
        self,
        service: PubSubService,
        broker_id: str,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        auth_tokens: Optional[Mapping[str, str]] = None,
        queue_capacity: int = DEFAULT_QUEUE_CAPACITY,
        policy: str = "block",
        bridge_window: int = DEFAULT_BRIDGE_WINDOW,
        max_unacked: Optional[int] = None,
        heartbeat_interval: Optional[float] = None,
        idle_timeout: Optional[float] = None,
        stream_wrapper: Optional[StreamWrapper] = None,
    ) -> None:
        if broker_id not in service.network.brokers:
            raise TransportError(
                "unknown broker %r" % broker_id, code="unknown-broker"
            )
        self.service = service
        self.broker_id = broker_id
        self.host = host
        self.queue_capacity = queue_capacity
        self.policy = policy
        self.bridge_window = bridge_window
        self.max_unacked = (
            max_unacked
            if max_unacked is not None
            else max(4 * queue_capacity, 4 * bridge_window)
        )
        if heartbeat_interval is not None and heartbeat_interval <= 0:
            raise TransportError("heartbeat_interval must be > 0")
        if idle_timeout is not None and idle_timeout <= 0:
            raise TransportError("idle_timeout must be > 0")
        self.heartbeat_interval = heartbeat_interval
        self.idle_timeout = idle_timeout
        self.stream_wrapper = stream_wrapper
        self._ping_serial = 0
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self._requested_port = port
        self._auth_tokens = dict(auth_tokens) if auth_tokens is not None else None
        self._server: Optional[asyncio.AbstractServer] = None
        self._states: Dict[str, _SessionState] = {}
        self._connections: List[_Connection] = []
        self._connection_tasks: "set[asyncio.Task[None]]" = set()
        #: Connections now handling a read burst that contains a
        #: ``publish``; the drain waits for this to reach zero.  Both it
        #: and ``_ingress_drain`` are only touched on the loop thread.
        self._publishing_bursts = 0
        self._ingress_drain: Optional["asyncio.Task[None]"] = None
        self._port: Optional[int] = None

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting connections."""
        if self._server is not None:
            raise TransportError("server is already running")
        self.loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self._requested_port
        )
        sockets = self._server.sockets
        self._port = int(sockets[0].getsockname()[1]) if sockets else None

    @property
    def port(self) -> int:
        """The bound TCP port (ephemeral ports resolved by start())."""
        if self._port is None:
            raise TransportError("server has not started")
        return self._port

    async def close(self, drain_timeout: float = 5.0) -> None:
        """Stop accepting, drain attached connections, close sessions.

        The graceful path: pending ingress events are flushed into the
        per-connection queues, each attached connection gets up to
        ``drain_timeout`` seconds to write its tail to the socket, then
        every session is retired with a ``goodbye`` (reason
        ``"server-shutdown"``).  Detached (resumable) sessions are
        closed too — after this, nothing can resume.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._ingress_drain is not None:
            await asyncio.wait({self._ingress_drain}, timeout=2.0)
        await asyncio.to_thread(self.service.flush)
        deadline = time.monotonic() + drain_timeout
        for connection in list(self._connections):
            state = connection._state
            if state is None or connection._finished:
                continue
            queue = state.session.queue
            while time.monotonic() < deadline:
                sink = connection._sink
                if (queue is None or queue.depth == 0) and (
                    sink is None or sink.pending == 0
                ):
                    break
                await asyncio.sleep(0.005)
            await connection._retire(GOODBYE_SERVER_SHUTDOWN)
        for connection in list(self._connections):
            await connection.begin_detach()
        self._connections.clear()
        for state in list(self._states.values()):
            self._drop_state(state)
            await asyncio.to_thread(state.session.close)
        # Let the per-connection handler tasks run to completion, so
        # nothing is left to be cancelled noisily at loop shutdown.
        tasks = {
            task
            for task in self._connection_tasks
            if task is not asyncio.current_task()
        }
        if tasks:
            await asyncio.wait(tasks, timeout=2.0)

    async def __aenter__(self) -> "PubSubServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    # -- connection plumbing -------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connection_tasks.add(task)
        t_reader: TransportReader = reader
        t_writer: TransportWriter = writer
        if self.stream_wrapper is not None:
            t_reader, t_writer = self.stream_wrapper(t_reader, t_writer)
        connection = _Connection(self, t_reader, t_writer)
        self._connections.append(connection)
        try:
            await connection.run()
        finally:
            if connection in self._connections:
                self._connections.remove(connection)
            if task is not None:
                self._connection_tasks.discard(task)

    def _kick_ingress_drain(self) -> None:
        """Start the drain task if events wait and no publishing burst
        is still being handled (a running drain re-checks on its own)."""
        if (
            self._publishing_bursts
            or self._ingress_drain is not None
            or not self.service.ingress.pending_count
        ):
            return
        self._ingress_drain = asyncio.ensure_future(self._drain_ingress())

    async def _drain_ingress(self) -> None:
        """Flush until the ingress is empty or a publishing burst starts
        (that burst's end kicks the next drain)."""
        try:
            while (
                not self._publishing_bursts
                and self.service.ingress.pending_count
            ):
                await asyncio.to_thread(self.service.flush)
        except ReproError:
            # Flush failures surface to publishers on their next round
            # trip (and to sinks via the service's error containment);
            # the drain has no one to report to.  It stops rather than
            # re-flush, and the next publishing burst starts a new one.
            pass
        finally:
            self._ingress_drain = None

    def _authenticate(self, client: str, auth: Optional[str]) -> bool:
        if self._auth_tokens is None:
            return True
        expected = self._auth_tokens.get(client)
        return expected is not None and auth == expected

    def _add_state(self, state: _SessionState) -> None:
        self._states[state.token] = state

    def _state_for(self, token: str) -> Optional[_SessionState]:
        return self._states.get(token)

    def _drop_state(self, state: _SessionState) -> None:
        self._states.pop(state.token, None)

    # -- introspection -------------------------------------------------------

    @property
    def session_count(self) -> int:
        """Open transport sessions (attached or detached-resumable)."""
        return len(self._states)

    @property
    def resumable_tokens(self) -> Tuple[str, ...]:
        """Tokens of sessions currently detached but resumable."""
        return tuple(
            token
            for token, state in self._states.items()
            if state.connection is None
        )

    def __repr__(self) -> str:
        where = (
            "%s:%s" % (self.host, self._port)
            if self._port is not None
            else "unbound"
        )
        return "PubSubServer(%s, broker=%r, sessions=%d)" % (
            where,
            self.broker_id,
            len(self._states),
        )
