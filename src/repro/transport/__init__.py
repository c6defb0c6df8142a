"""Transport subsystem for the real client/server split.

Four modules behind the :class:`~repro.comm.interface.Endpoint`
abstraction:

* :mod:`repro.transport.wire` — a versioned, pickle-free binary wire
  format for every message of :mod:`repro.network.messages`, with
  measured on-the-wire sizes that reconcile against ``MessageSizes``;
* :mod:`repro.transport.shm` — a shared-memory slot ring
  (sequence-counter handshakes, no locks or threads) that moves frame
  and update payloads between processes with one producer-side copy
  into shared memory and one consumer-side copy out of it;
* :mod:`repro.transport.socket` — the same wire frames over TCP for
  cross-host serving;
* :mod:`repro.transport.link` — trace-driven link shaping: bundled
  LTE/Wi-Fi-style bandwidth traces plus a generator (symmetric, or
  per-direction asymmetric pairs), compiled into simulated
  :class:`~repro.network.dynamic.DynamicNetworkModel` schedules or
  replayed over real transports.

Wire frames carry a session tag and an ADMIT/ACCEPT/BYE handshake, so
one link can serve many sessions — the multiplexed one-server/N-client
deployment lives in :mod:`repro.serving.runtime` on top of the
``serve_many`` capability the shm and socket transports register.

:mod:`repro.transport.registry` names the transports (``shm``,
``socket``) so runners and examples select the link with a string.
"""

from repro.transport.link import (
    BUNDLED_TRACE_PAIRS,
    BUNDLED_TRACES,
    AsymmetricNetworkModel,
    LinkTrace,
    LinkTracePair,
    ShapedEndpoint,
    bundled_trace,
    bundled_trace_pair,
    generate_trace,
    lte_updown_pair,
    shape_endpoint_pair,
)
from repro.transport.registry import (
    StaticListener,
    TransportDef,
    available_transports,
    connect,
    get_transport,
    make_pair,
    register_transport,
    serve_many,
    spawn_server,
)
from repro.transport.shm import ShmManyLink, ShmRing, ShmTransport, spawn_shm_pair
from repro.transport.socket import SocketManyLink, SocketTransport

__all__ = [
    "AsymmetricNetworkModel",
    "BUNDLED_TRACE_PAIRS",
    "BUNDLED_TRACES",
    "LinkTrace",
    "LinkTracePair",
    "ShapedEndpoint",
    "bundled_trace",
    "bundled_trace_pair",
    "generate_trace",
    "lte_updown_pair",
    "shape_endpoint_pair",
    "StaticListener",
    "TransportDef",
    "available_transports",
    "connect",
    "get_transport",
    "make_pair",
    "register_transport",
    "serve_many",
    "spawn_server",
    "ShmManyLink",
    "ShmRing",
    "ShmTransport",
    "spawn_shm_pair",
    "SocketManyLink",
    "SocketTransport",
]
