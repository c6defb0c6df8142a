"""Transport registry: every way two ShadowTutor peers can talk.

One name-keyed table of transports, so runners, examples and benchmarks
select the link with a string instead of importing a specific module:

=========  ==========================================================
name       what
=========  ==========================================================
``shm``    shared-memory slot ring with the pickle-free wire format
           (:mod:`repro.transport.shm`) — a frame costs one
           producer-side copy into the slot
``socket`` length-prefixed wire frames over TCP
           (:mod:`repro.transport.socket`) — cross-host serving
=========  ==========================================================

Each entry provides ``make_pair()`` (a connected endpoint pair in this
process), ``spawn(target)`` (start ``target(endpoint)`` in a child
process and return the parent-side endpoint plus the process handle),
``serve_many(target, n_clients)`` — one server process, N client
connections, what :func:`repro.serving.runtime.start_server` rides —
and ``connect(info)``, which turns a picklable per-client address into
a live endpoint in any process (how standalone client processes reach
the server).
``register_transport`` is public: a deployment can plug in RDMA or a
message bus without touching the runtime, which only ever sees
:class:`~repro.comm.interface.Endpoint`.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Tuple


class StaticListener:
    """Listener over pre-created connections (shm rings).

    The server runtime polls ``poll_accept`` exactly like a socket
    listener; here every connection already exists, so each call hands
    out the next one until the set is exhausted.

    Listener contract (what the runtime's churn-tolerant drain rule
    consumes): ``poll_accept()`` returns a new connection or ``None``,
    and ``expected`` is the provisioned connection population — the
    runtime refuses to quiesce until that many connections have been
    accepted *and* closed, so a late joiner (a client that dials a
    pre-created slot long after spawn) always finds the server alive.
    """

    def __init__(self, endpoints) -> None:
        self._pending = list(endpoints)
        self.expected = len(self._pending)

    def poll_accept(self):
        """Next pre-created connection, or None once all are handed out."""
        return self._pending.pop(0) if self._pending else None

    def close(self) -> None:
        self._pending = []


@dataclasses.dataclass(frozen=True)
class TransportDef:
    """One registered transport."""

    name: str
    description: str
    #: ``make_pair(**options) -> (endpoint_a, endpoint_b)``
    make_pair: Callable[..., Tuple]
    #: ``spawn(target, **options) -> (parent_endpoint, process)`` or
    #: None when the transport cannot cross a process boundary.
    spawn: Optional[Callable[..., Tuple]] = None
    #: ``serve_many(target, n_clients, **options) -> (link, process)``:
    #: start ``target(listener)`` in one server process multiplexing
    #: ``n_clients`` connections.  The link exposes ``connect(slot)``
    #: (a client endpoint in this process) and ``address(slot)`` (a
    #: picklable token for a client process).  None when the transport
    #: cannot multiplex.
    serve_many: Optional[Callable[..., Tuple]] = None
    #: ``connect(info) -> endpoint``: dial the picklable address a
    #: ``serve_many`` link's ``address()`` produced.
    connect: Optional[Callable] = None


_REGISTRY: Dict[str, TransportDef] = {}


def register_transport(definition: TransportDef) -> None:
    """Register (or replace) a transport under its name."""
    _REGISTRY[definition.name] = definition


def available_transports() -> List[str]:
    """Sorted names of every registered transport."""
    return sorted(_REGISTRY)


def get_transport(name: str) -> TransportDef:
    """Look up a transport; raises with the available names on a typo."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown transport {name!r}; available: {available_transports()}"
        ) from None


def make_pair(name: str, **options):
    """Create a connected endpoint pair for transport ``name``."""
    return get_transport(name).make_pair(**options)


def spawn_server(name: str, target: Callable, **options):
    """Start ``target(endpoint)`` in a subprocess over transport ``name``.

    Returns ``(parent_endpoint, process)``; raises for a registered
    transport that cannot cross a process boundary.
    """
    definition = get_transport(name)
    if definition.spawn is None:
        raise ValueError(f"transport {name!r} cannot spawn a server process")
    return definition.spawn(target, **options)


def serve_many(name: str, target: Callable, n_clients: int, **options):
    """Start ``target(listener)`` in one server process multiplexing
    ``n_clients`` connections over transport ``name``.

    Returns ``(link, process)``; raises for a registered transport
    without the multiplexing capability.
    """
    definition = get_transport(name)
    if definition.serve_many is None:
        raise ValueError(
            f"transport {name!r} cannot serve many clients from one process"
        )
    return definition.serve_many(target, n_clients, **options)


def connect(name: str, info):
    """Dial a per-client address produced by a ``serve_many`` link."""
    definition = get_transport(name)
    if definition.connect is None:
        raise ValueError(f"transport {name!r} has no connectable addresses")
    return definition.connect(info)


# ----------------------------------------------------------------------
# Built-in transports
# ----------------------------------------------------------------------
def _register_builtins() -> None:
    from repro.transport import shm
    from repro.transport import socket as socket_transport

    register_transport(TransportDef(
        name="shm",
        description="shared-memory slot ring, pickle-free wire format",
        make_pair=shm.spawn_shm_pair,
        spawn=shm.run_in_subprocess,
        serve_many=shm.serve_many,
        connect=shm.connect_address,
    ))
    register_transport(TransportDef(
        name="socket",
        description="length-prefixed wire frames over TCP (cross-host)",
        make_pair=socket_transport.make_pair,
        spawn=socket_transport.run_in_subprocess,
        serve_many=socket_transport.serve_many,
        connect=socket_transport.connect_address,
    ))


_register_builtins()
