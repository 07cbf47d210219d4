"""Verification of one benchmark run: a run that is wrong is not fast.

``verify`` takes what the generator observed (``Observation``) and
counts every failure against the number of operations attempted:

* wire-share deliveries must equal the ``NaiveMatcher`` oracle computed
  in the generator — the exact multiset of ``(event, subscription)``
  pairs, so a dropped notification is *missing* and a repeated one
  *duplicated* — with a gapless ``delivery_seq``;
* a churned subscription may also receive any event one of the trees
  it held during the run matches (*allowed*); anything else is
  *unexpected*;
* publishes replied == sent, no publish or churn error, no dead letter;
* the paced phase must not have been overloaded;
* after exit: no child process, listening socket or ``/dev/shm``
  segment left behind.

The module is self-contained (stdlib only) so that its unit test can
load it without the rest of the harness.
"""

from __future__ import annotations

import os
import socket
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Set, Tuple

Pair = Tuple[int, int]  # (event id, subscription id)


@dataclass
class Observation:
    """What one run's generator saw, in the terms the checks need."""

    #: Pairs the oracle says must be delivered, each exactly once.
    required: Sequence[Pair]
    #: Pairs justified by a tree a churned subscription held for part
    #: of the run: they may arrive, once, but need not.
    allowed: Set[Pair]
    #: ``(delivery_seq, event id, subscription id)`` in arrival order.
    received: Sequence[Tuple[int, int, int]]
    publishes_sent: int
    publishes_replied: int
    publish_errors: int = 0
    churn_ops: int = 0
    churn_errors: int = 0
    dead_letters: int = 0
    #: Last-third paced p50 above 1.5 × the first third's.
    overloaded: bool = False
    #: Descriptions of anything left behind after exit.
    leaks: List[str] = field(default_factory=list)


def verify(observation: Observation) -> Dict[str, object]:
    """Count failures; returns ``attempted``, ``failed``, ``failed_ratio``
    and the per-kind ``failures``."""
    required = Counter(observation.required)
    got = Counter((eid, sub) for _seq, eid, sub in observation.received)
    missing = sum((required - got).values())
    duplicated = 0
    unexpected = 0
    for pair, count in got.items():
        if pair in required:
            duplicated += max(0, count - required[pair])
        elif pair in observation.allowed:
            duplicated += count - 1
        else:
            unexpected += count
    out_of_order = 0
    previous = -1
    for sequence, _eid, _sub in observation.received:
        if sequence != previous + 1:
            out_of_order += 1
        previous = sequence
    failures = {
        "missing": missing,
        "duplicated": duplicated,
        "unexpected": unexpected,
        "out_of_order": out_of_order,
        "publish_errors": observation.publish_errors,
        "unreplied": max(
            0,
            observation.publishes_sent
            - observation.publishes_replied
            - observation.publish_errors,
        ),
        "churn_errors": observation.churn_errors,
        "dead_letters": observation.dead_letters,
        "overloaded": int(observation.overloaded),
        "leaks": len(observation.leaks),
    }
    attempted = (
        observation.publishes_sent + observation.churn_ops + len(observation.required)
    )
    failed = sum(failures.values())
    return {
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted if attempted else 1.0,
        "failures": failures,
        "leaks": list(observation.leaks),
    }


def shm_segments() -> Set[str]:
    """Names under ``/dev/shm`` (empty where the host has none)."""
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def leaks_after_exit(
    returncode: object, port: int, shm_before: Iterable[str]
) -> List[str]:
    """What a finished server process left behind, as descriptions."""
    leaks: List[str] = []
    if returncode is None:
        leaks.append("server process still running")
    elif returncode != 0:
        leaks.append("server process exited with code %r" % (returncode,))
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.settimeout(0.5)
    try:
        if probe.connect_ex(("127.0.0.1", port)) == 0:
            leaks.append("port %d still accepts connections" % port)
    finally:
        probe.close()
    for name in sorted(shm_segments() - set(shm_before)):
        leaks.append("/dev/shm/%s left behind" % name)
    return leaks
