"""Zero-copy transport subsystem for the real client/server split.

Three layers behind the :class:`~repro.comm.interface.Endpoint`
abstraction the runtime already speaks:

* :mod:`repro.transport.wire` — a versioned, pickle-free binary wire
  format for every message of :mod:`repro.network.messages`, with
  measured on-the-wire sizes that reconcile against ``MessageSizes``;
* :mod:`repro.transport.shm` — a shared-memory slot ring
  (sequence-counter handshakes, no locks or threads) that moves frame
  and update payloads between processes with a single producer-side
  copy into shared memory;
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

:mod:`repro.transport.registry` names the transports (``inproc``,
``pipe``, ``shm``, ``socket``) so runners and examples select the link
with a string; :mod:`repro.transport.remote` adapts any real endpoint
to the server surface :class:`~repro.runtime.client.Client` consumes.
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
from repro.transport.remote import RemoteServer
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
    "RemoteServer",
    "ShmManyLink",
    "ShmRing",
    "ShmTransport",
    "spawn_shm_pair",
    "SocketManyLink",
    "SocketTransport",
]
