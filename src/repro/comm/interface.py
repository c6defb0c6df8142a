"""Abstract communication interface (mpi4py-flavoured)."""

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
