"""ShadowTutor reproduction: distributed partial distillation for mobile
video DNN inference (Chung, Kim & Moon, ICPP 2020).

A small *student* network runs on the mobile client; a large *teacher*
runs on the server.  Only sparse key frames cross the network, where the
student is partially re-trained against the teacher's output and the
updated back-end weights are streamed back while the client keeps
inferring asynchronously.

Quick start::

    from repro import (
        DistillConfig, SessionConfig, make_category_video,
        run_shadowtutor, run_naive, LVS_CATEGORIES,
    )

    video = make_category_video(LVS_CATEGORIES[0])
    stats = run_shadowtutor(video, num_frames=400)
    print(stats.summary())

See docs/ARCHITECTURE.md for the system inventory and
benchmarks/results.txt for the paper-vs-measured results.
"""

from repro.autograd import Tensor, no_grad
from repro.distill import DistillConfig, DistillMode, StudentTrainer, TrainResult
from repro.models import OracleTeacher, StudentNet, TeacherNet, partial_freeze
from repro.network import MessageSizes, NetworkModel
from repro.runtime import (
    Client,
    LatencyModel,
    NaiveOffloadClient,
    RunStats,
    Server,
    SessionConfig,
    SimClock,
    run_naive,
    run_shadowtutor,
)
from repro.runtime.session import run_wild, pretrained_student
from repro.segmentation import mean_iou
from repro.serving import PoolResult, SessionPool, SessionSpec
from repro.striding import AdaptiveStride, ExponentialBackoffStride, FixedStride
from repro.transport import LinkTrace, available_transports, bundled_trace
from repro.video import (
    LVS_CATEGORIES,
    NAMED_VIDEOS,
    SyntheticVideo,
    VideoConfig,
    make_category_video,
    make_named_video,
    resample_fps,
)

__version__ = "1.0.0"

__all__ = [
    "Tensor",
    "no_grad",
    "DistillConfig",
    "DistillMode",
    "StudentTrainer",
    "TrainResult",
    "OracleTeacher",
    "StudentNet",
    "TeacherNet",
    "partial_freeze",
    "MessageSizes",
    "NetworkModel",
    "Client",
    "LatencyModel",
    "NaiveOffloadClient",
    "RunStats",
    "Server",
    "SessionConfig",
    "SimClock",
    "run_naive",
    "run_shadowtutor",
    "run_wild",
    "pretrained_student",
    "mean_iou",
    "PoolResult",
    "SessionPool",
    "SessionSpec",
    "AdaptiveStride",
    "ExponentialBackoffStride",
    "FixedStride",
    "LinkTrace",
    "available_transports",
    "bundled_trace",
    "LVS_CATEGORIES",
    "NAMED_VIDEOS",
    "SyntheticVideo",
    "VideoConfig",
    "make_category_video",
    "make_named_video",
    "resample_fps",
    "__version__",
]
