"""The link interface every transport implements (mpi4py-flavoured:
the paper used OpenMPI).

Blocking ``send`` / ``recv`` only: Algorithm 4 keeps at most one update
in flight, which the client models on the simulated clock itself
(``repro.runtime.client``), so there is no non-blocking half.
"""

from __future__ import annotations

import abc
from typing import Any


class Endpoint(abc.ABC):
    """One side of a bidirectional channel."""

    @abc.abstractmethod
    def send(self, obj: Any, nbytes: int) -> None:
        """Blocking send of ``obj`` whose wire size is ``nbytes``."""

    @abc.abstractmethod
    def recv(self) -> Any:
        """Blocking receive of the next message."""
