"""Bandwidth/latency model of the client-server link.

Transfer time of a payload is ``base_latency + bytes * 8 / bandwidth``,
the standard first-order model of a rate-limited link.  The paper's
testbed limits both uplink and downlink to 80 Mbps (section 5.1); at
that setting one key-frame round trip of 3.032 MB takes ~0.303 s plus
propagation — reproducing the paper's measured t_net = 0.303 s.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass
class NetworkModel:
    """A symmetric rate-limited link between client and server."""

    bandwidth_mbps: float = 80.0
    #: One-way propagation + protocol latency (seconds).  The paper's
    #: Wi-Fi testbed is LAN-class, so this is small.
    base_latency_s: float = 0.002

    def __post_init__(self) -> None:
        if self.bandwidth_mbps <= 0:
            raise ValueError("bandwidth must be positive")
        if self.base_latency_s < 0:
            raise ValueError("latency must be non-negative")

    def transfer_time(self, nbytes: int, now: float = 0.0) -> float:
        """Seconds to move ``nbytes`` across the link one way.

        ``now`` is ignored: a static link takes the same time whenever
        the transfer starts.  It is accepted so that this model and
        :class:`~repro.network.dynamic.DynamicNetworkModel` share one
        interface.
        """
        return self.base_latency_s + (nbytes * 8) / (self.bandwidth_mbps * 1e6)

    def round_trip_time(self, up_bytes: int, down_bytes: int) -> float:
        """Seconds for an up transfer followed by a down transfer."""
        return self.transfer_time(up_bytes) + self.transfer_time(down_bytes)

