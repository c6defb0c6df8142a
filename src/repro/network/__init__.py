"""Network modelling: message sizes and the simulated link.

* :mod:`repro.network.messages` — what crosses the link per key frame
  and how big it is, at paper scale (Table 4);
* :mod:`repro.network.model` — the link itself: one
  :class:`~repro.network.model.NetworkModel` with a piecewise-constant
  bandwidth schedule, built steady (:func:`constant_link`), as a
  congestion step (:func:`step_drop`) or from a seeded LTE/Wi-Fi-style
  trace (:data:`BUNDLED_TRACES`).
"""

from repro.network.messages import (
    MessageSizes,
    hd_frame_bytes,
    student_payload_bytes,
)
from repro.network.model import (
    BUNDLED_TRACES,
    NetworkModel,
    constant_link,
    generate_trace,
    lte_trace,
    step_drop,
    wifi_trace,
)

__all__ = [
    "BUNDLED_TRACES",
    "MessageSizes",
    "NetworkModel",
    "constant_link",
    "generate_trace",
    "hd_frame_bytes",
    "lte_trace",
    "step_drop",
    "student_payload_bytes",
    "wifi_trace",
]
