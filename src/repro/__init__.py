"""repro — dimension-based subscription pruning for publish/subscribe.

A complete reproduction of Bittner & Hinze, *Dimension-Based Subscription
Pruning for Publish/Subscribe Systems* (ICDCS Workshops 2006): the Boolean
subscription model, the counting-based filtering engine, selectivity
estimation, the three pruning dimensions (network load, memory usage,
system throughput), a broker-network substrate, the auction workload, and
the experiment harness regenerating all six figures of the paper's
evaluation.

Quickstart
----------
The primary surface is the service layer — sessions with server-assigned
subscription handles, delivery sinks, and a micro-batching ingress:

>>> from repro import PubSubService, P, And, Event, line_topology
>>> service = PubSubService(topology=line_topology(2))
>>> alice = service.connect("b1", "alice")
>>> handle = alice.subscribe(And(P("category") == "fiction", P("price") <= 20.0))
>>> service.publish("b0", Event({"category": "fiction", "price": 8.0}))
False
>>> service.flush()
1
>>> [note.event["price"] for note in alice.sink.notifications]
[8.0]

The matching engine is directly usable too:

>>> from repro import Subscription, CountingMatcher
>>> matcher = CountingMatcher()
>>> matcher.register(Subscription(1, And(
...     P("category") == "fiction", P("price") <= 20.0)))
>>> matcher.match(Event({"category": "fiction", "price": 8.0}))
[1]

See README.md for the overview and the layer map, and
docs/ARCHITECTURE.md for how the layers work.
"""

from repro.adaptive import (
    AdaptiveConfig,
    AdaptiveController,
    OnlineEventStatistics,
    StreamingHistogram,
    SystemConditionsProbe,
    TopKCounter,
)
from repro.core.adaptive import AdaptivePruner, SystemConditions
from repro.core.engine import PruningEngine, PruningRecord
from repro.core.heuristics import DIMENSION_ORDERS, Dimension, HeuristicVector
from repro.core.ops import PruningOp, apply_pruning, enumerate_prunings, is_prunable
from repro.core.planner import PruningSchedule
from repro.errors import (
    DeliveryError,
    ExperimentError,
    MatchingError,
    ProtocolError,
    PruningError,
    ReproError,
    RoutingError,
    SelectivityError,
    ServiceError,
    SubscriptionError,
    TopologyError,
    TransportError,
    WorkloadError,
)
from repro.events import Event, EventBatch
from repro.experiments.centralized import CentralizedExperiment
from repro.faults import (
    BackoffSchedule,
    FaultPlan,
    FaultyReader,
    FaultyWriter,
    WorkerFaultInjector,
    faulty_stream,
    worker_injector,
)
from repro.experiments.config import ExperimentConfig, config_for_scale
from repro.experiments.context import ExperimentContext
from repro.experiments.distributed import DistributedExperiment
from repro.matching.counting import CountingMatcher
from repro.matching.naive import NaiveMatcher
from repro.matching.sharded import PoolHealth, ShardedMatcher
from repro.matching.stats import MatchStatistics
from repro.routing.broker import Broker, Interface
from repro.routing.metrics import CostModel
from repro.routing.network import BrokerNetwork
from repro.routing.topology import (
    Topology,
    line_topology,
    star_topology,
    tree_topology,
)
from repro.selectivity.estimator import SelectivityEstimate, SelectivityEstimator
from repro.service import (
    DEAD_LETTER_REASONS,
    POLICIES,
    AsyncDeliverySink,
    BoundedDeliveryQueue,
    CallbackSink,
    CollectingSink,
    CountingSink,
    DeadLetter,
    DeadLetterSink,
    DeliverySink,
    Ingress,
    Notification,
    PubSubService,
    Session,
    SubscriptionHandle,
)
from repro.selectivity.statistics import (
    CategoricalStatistics,
    ContinuousStatistics,
    EmpiricalStatistics,
    EventStatistics,
)
from repro.subscriptions.builder import And, Not, Or, P, attr
from repro.transport import (
    ENVELOPE_TYPES,
    PROTOCOL_VERSION,
    RESUMABLE_GOODBYE_REASONS,
    FrameDecoder,
    PubSubClient,
    PubSubServer,
    RemoteSubscriptionHandle,
    encode_frame,
    resumable_disconnect,
)
from repro.subscriptions.normalize import normalize
from repro.subscriptions.predicates import Operator, Predicate
from repro.subscriptions.subscription import Subscription
from repro.workloads.auction import (
    AuctionWorkload,
    AuctionWorkloadConfig,
    SubscriptionClassMix,
)

__version__ = "1.0.0"

__all__ = [
    "AdaptiveConfig",
    "AdaptiveController",
    "AdaptivePruner",
    "And",
    "apply_pruning",
    "AsyncDeliverySink",
    "attr",
    "AuctionWorkload",
    "AuctionWorkloadConfig",
    "BackoffSchedule",
    "BoundedDeliveryQueue",
    "Broker",
    "BrokerNetwork",
    "CallbackSink",
    "CategoricalStatistics",
    "CentralizedExperiment",
    "CollectingSink",
    "config_for_scale",
    "ContinuousStatistics",
    "CostModel",
    "CountingMatcher",
    "CountingSink",
    "DEAD_LETTER_REASONS",
    "DeadLetter",
    "DeadLetterSink",
    "DeliveryError",
    "DeliverySink",
    "Dimension",
    "DIMENSION_ORDERS",
    "DistributedExperiment",
    "EmpiricalStatistics",
    "encode_frame",
    "enumerate_prunings",
    "ENVELOPE_TYPES",
    "Event",
    "EventBatch",
    "EventStatistics",
    "ExperimentConfig",
    "ExperimentContext",
    "ExperimentError",
    "FaultPlan",
    "faulty_stream",
    "FaultyReader",
    "FaultyWriter",
    "FrameDecoder",
    "HeuristicVector",
    "Ingress",
    "Interface",
    "is_prunable",
    "line_topology",
    "MatchingError",
    "MatchStatistics",
    "NaiveMatcher",
    "normalize",
    "Not",
    "Notification",
    "OnlineEventStatistics",
    "Operator",
    "Or",
    "P",
    "POLICIES",
    "PoolHealth",
    "Predicate",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "PruningEngine",
    "PruningError",
    "PruningOp",
    "PruningRecord",
    "PruningSchedule",
    "PubSubClient",
    "PubSubServer",
    "PubSubService",
    "RemoteSubscriptionHandle",
    "ReproError",
    "resumable_disconnect",
    "RESUMABLE_GOODBYE_REASONS",
    "RoutingError",
    "SelectivityError",
    "SelectivityEstimate",
    "SelectivityEstimator",
    "ServiceError",
    "Session",
    "ShardedMatcher",
    "star_topology",
    "StreamingHistogram",
    "Subscription",
    "SubscriptionClassMix",
    "SubscriptionError",
    "SubscriptionHandle",
    "SystemConditions",
    "SystemConditionsProbe",
    "TopKCounter",
    "Topology",
    "TopologyError",
    "TransportError",
    "tree_topology",
    "worker_injector",
    "WorkerFaultInjector",
    "WorkloadError",
]
