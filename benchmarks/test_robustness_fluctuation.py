"""Extension benchmark: in-run bandwidth fluctuation (section 6.4's
motivation, beyond the static sweep of Figure 4).

A congestion event drops the link from 80 Mbps mid-run.  Asynchronous
inference should hide dips that keep the key-frame round trip inside
the MIN_STRIDE inference budget, degrade gracefully below that, and in
all cases lose less relative throughput than naive offloading.  The
bundled LTE- and Wi-Fi-style link traces (``repro.network.model``) are
two more rows: over either, ShadowTutor outruns naive offloading on the
paper's steady 80 Mbps testbed link.
"""

import pytest

from repro.distill.config import DistillConfig
from repro.models.teacher import OracleTeacher
from repro.network.model import BUNDLED_TRACES, constant_link, step_drop
from repro.runtime.naive import NaiveOffloadClient
from repro.runtime.session import SessionConfig, run_shadowtutor
from repro.video.dataset import CATEGORY_BY_KEY, make_category_video

pytestmark = pytest.mark.slow


def _shadow(network, scale):
    spec = CATEGORY_BY_KEY["moving-people"]
    video = make_category_video(
        spec, height=scale.frame_height, width=scale.frame_width
    )
    config = SessionConfig(
        student_width=scale.student_width, pretrain_steps=scale.pretrain_steps
    )
    config.network = network
    return run_shadowtutor(video, scale.num_frames, config)


def _naive(network, scale):
    spec = CATEGORY_BY_KEY["moving-people"]
    video = make_category_video(
        spec, height=scale.frame_height, width=scale.frame_width
    )
    return NaiveOffloadClient(OracleTeacher(), network=network).run(
        video.frames(scale.num_frames)
    )


@pytest.mark.benchmark(group="robustness")
def test_bandwidth_fluctuation(benchmark, scale, results_sink):
    def sweep():
        out = {}
        out["steady 80"] = (_shadow(constant_link(80.0), scale),
                            _naive(constant_link(80.0), scale))
        out["dip to 30"] = (
            _shadow(step_drop(80, 30, drop_at_s=3.0, recover_at_s=10.0), scale),
            _naive(step_drop(80, 30, drop_at_s=3.0, recover_at_s=10.0), scale),
        )
        out["sustained 8"] = (
            _shadow(step_drop(80, 8, drop_at_s=1.0), scale),
            _naive(step_drop(80, 8, drop_at_s=1.0), scale),
        )
        for name, link in BUNDLED_TRACES.items():
            out[name] = (_shadow(link, scale), _naive(link, scale))
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    lines = [f"Robustness — in-run bandwidth fluctuation (frames={scale.num_frames})"]
    for name, (shadow, naive) in results.items():
        lines.append(
            f"{name:12s} shadowtutor={shadow.throughput_fps:5.2f} FPS "
            f"(wait {shadow.wait_time_s:5.1f} s)   "
            f"naive={naive.throughput_fps:5.2f} FPS"
        )
    text = "\n".join(lines) + "\n"
    print(text)
    results_sink(text)

    s80, n80 = results["steady 80"]
    s30, _ = results["dip to 30"]
    s8, n8 = results["sustained 8"]

    # A mild dip is hidden almost completely by asynchronous inference.
    assert s30.throughput_fps > 0.92 * s80.throughput_fps
    # A sustained deep drop costs throughput but degrades gracefully,
    # and naive loses relatively more.
    shadow_loss = 1 - s8.throughput_fps / s80.throughput_fps
    naive_loss = 1 - n8.throughput_fps / n80.throughput_fps
    assert 0 < shadow_loss < naive_loss
    # Even at 8 Mbps ShadowTutor outruns naive at full bandwidth, and
    # so it does over each bundled trace.
    assert s8.throughput_fps > n80.throughput_fps
    for name in BUNDLED_TRACES:
        assert results[name][0].throughput_fps > n80.throughput_fps, name
