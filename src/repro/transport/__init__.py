"""Transport subsystem for the real client/server split.

Three modules behind the :class:`~repro.transport.endpoint.Endpoint`
abstraction (blocking ``send`` / ``recv``):

* :mod:`repro.transport.wire` — a versioned, pickle-free binary wire
  format for every message of :mod:`repro.network.messages`, with
  measured on-the-wire sizes that reconcile against ``MessageSizes``;
* :mod:`repro.transport.shm` — a shared-memory slot ring
  (sequence-counter handshakes, no locks or threads) that moves frame
  and update payloads between processes with one producer-side copy
  into shared memory and one consumer-side copy out of it;
* :mod:`repro.transport.socket` — the same wire frames over TCP for
  cross-host serving.

The simulated link a session's clock is priced by is not here: it moves
no byte, and lives in :mod:`repro.network.model`.

Wire frames carry a session tag and an ADMIT/ACCEPT/BYE handshake, so
one link can serve many sessions — the multiplexed one-server/N-client
deployment lives in :mod:`repro.serving.runtime` on top of the
``serve_many`` entry point of the shm and socket modules.

:mod:`repro.transport.registry` names the two transports (``shm``,
``socket``) so runners and examples select the link with a string.
"""

from repro.transport.endpoint import Endpoint
from repro.transport.registry import (
    available_transports,
    connect,
    make_pair,
    serve_many,
    spawn_server,
)
from repro.transport.shm import ShmManyLink, ShmRing, ShmTransport, StaticListener
from repro.transport.socket import SocketManyLink, SocketTransport

__all__ = [
    "Endpoint",
    "StaticListener",
    "available_transports",
    "connect",
    "make_pair",
    "serve_many",
    "spawn_server",
    "ShmManyLink",
    "ShmRing",
    "ShmTransport",
    "SocketManyLink",
    "SocketTransport",
]
