"""Transport table: the two links ShadowTutor peers can talk over.

=========  ==========================================================
name       what
=========  ==========================================================
``shm``    shared-memory slot ring with the pickle-free wire format
           (:mod:`repro.transport.shm`) — a frame costs one
           producer-side copy into the slot
``socket`` length-prefixed wire frames over TCP
           (:mod:`repro.transport.socket`) — cross-host serving
=========  ==========================================================

Runners, examples and benchmarks select the link with a string; each
function here forwards to the named module's ``make_pair()`` (a
connected endpoint pair in this process), ``run_in_subprocess(target)``
(start ``target(endpoint)`` in a child process and return the
parent-side endpoint plus the process handle), ``serve_many(target,
n_clients)`` — one server process, N client connections, what
:func:`repro.serving.runtime.start_server` rides — and
``connect_address(info)``, which turns a picklable per-client address
into a live endpoint in any process (how standalone client processes
reach the server).
"""

from __future__ import annotations

from typing import Callable, List

from repro.transport import shm
from repro.transport import socket as socket_transport

_TRANSPORTS = {"shm": shm, "socket": socket_transport}


def available_transports() -> List[str]:
    """Sorted names of the transports."""
    return sorted(_TRANSPORTS)


def _module(name: str):
    try:
        return _TRANSPORTS[name]
    except KeyError:
        raise KeyError(
            f"unknown transport {name!r}; available: {available_transports()}"
        ) from None


def make_pair(name: str, **options):
    """Create a connected endpoint pair for transport ``name``."""
    return _module(name).make_pair(**options)


def spawn_server(name: str, target: Callable, **options):
    """Start ``target(endpoint)`` in a subprocess over transport ``name``.

    Returns ``(parent_endpoint, process)``.
    """
    return _module(name).run_in_subprocess(target, **options)


def serve_many(name: str, target: Callable, n_clients: int, **options):
    """Start ``target(listener)`` in one server process multiplexing
    ``n_clients`` connections over transport ``name``.

    Returns ``(link, process)``: the link exposes ``connect(slot)`` (a
    client endpoint in this process) and ``address(slot)`` (a picklable
    token for a client process).
    """
    return _module(name).serve_many(target, n_clients, **options)


def connect(name: str, info):
    """Dial a per-client address produced by a ``serve_many`` link."""
    return _module(name).connect_address(info)
