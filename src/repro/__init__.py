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

Importing the package sizes OpenBLAS's thread pool to one thread,
unless ``OPENBLAS_NUM_THREADS`` is set (see :func:`_one_blas_thread`).
"""

import os


def _openblas(verb: str) -> list:
    """OpenBLAS's ``openblas_<verb>_num_threads`` (``verb`` is ``set``
    or ``get``) of every OpenBLAS library this process maps; empty
    where there is none.

    The libraries are found among this process's mappings
    (``/proc/self/maps``), each function under the name its build gives
    it: the reference one, its 64-bit-integer suffix, or the prefixed
    names of NumPy's bundled scipy-openblas.
    """
    import ctypes

    import numpy  # noqa: F401  (maps the BLAS library NumPy links)

    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line}
    except OSError:
        return []
    names = (f"openblas_{verb}_num_threads", f"openblas_{verb}_num_threads64_",
             f"scipy_openblas_{verb}_num_threads",
             f"scipy_openblas_{verb}_num_threads64_")
    functions = []
    for path in sorted(paths):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for name in names:
            function = getattr(library, name, None)
            if function is not None:
                functions.append(function)
                break
    return functions


def _one_blas_thread() -> None:
    """Run OpenBLAS on one thread in this process and every process it
    forks, unless ``OPENBLAS_NUM_THREADS`` chooses a size.

    A GEMM's bits depend on the pool size, so a session served by a
    server process equals its in-process twin only when both processes
    run pools of the same size; one thread makes that size the same on
    every machine, too.  It also keeps a server and its client
    processes from running one BLAS worker per core each on cores they
    share, where idle workers spin: on a 2-core box the broadcast
    serve-many workload (one server process, four client processes) ran
    4.7x faster on one thread per process than on the default two,
    while a lone in-process session ran no faster on two.  Without
    OpenBLAS this does nothing.
    """
    import ctypes

    if "OPENBLAS_NUM_THREADS" in os.environ:
        return
    for setter in _openblas("set"):
        setter.argtypes = [ctypes.c_int]
        setter.restype = None
        setter(1)


def _blas_pool_size() -> str:
    """OpenBLAS's thread-pool sizes in this process as a string: the
    distinct sizes of the mapped libraries, ascending and
    comma-separated (``""`` without OpenBLAS).  What a perf record's
    fingerprint carries, so a process that also maps SciPy's OpenBLAS
    and pins it reads ``"1"``, as one that maps only NumPy's does."""
    import ctypes

    sizes = set()
    for getter in _openblas("get"):
        getter.restype = ctypes.c_int
        sizes.add(getter())
    return ",".join(str(size) for size in sorted(sizes))


_one_blas_thread()

from repro.autograd import Tensor, no_grad
from repro.distill import DistillConfig, DistillMode, StudentTrainer, TrainResult
from repro.models import OracleTeacher, StudentNet, TeacherNet, partial_freeze
from repro.network import MessageSizes, NetworkModel
from repro.runtime import (
    Client,
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
from repro.transport import available_transports
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
    "available_transports",
    "LVS_CATEGORIES",
    "NAMED_VIDEOS",
    "SyntheticVideo",
    "VideoConfig",
    "make_category_video",
    "make_named_video",
    "resample_fps",
    "__version__",
]
