"""MPI-like communication layer (the paper used OpenMPI).

:class:`~repro.comm.interface.Endpoint` is the blocking ``send`` /
``recv`` pair every link implements — mirroring mpi4py's
lowercase-object-communication idioms.  Algorithm 4 keeps at most one
update in flight, which the client models on the simulated clock
itself (``repro.runtime.client``), so the interface carries no
non-blocking half.

The transports implementing it live in :mod:`repro.transport`
(:class:`~repro.transport.shm.ShmTransport`,
:class:`~repro.transport.socket.SocketTransport`, and the
:class:`~repro.transport.link.ShapedEndpoint` wrapper), name-registered
in :mod:`repro.transport.registry` (``"shm"``, ``"socket"``).
"""

from repro.comm.interface import Endpoint

__all__ = ["Endpoint"]
