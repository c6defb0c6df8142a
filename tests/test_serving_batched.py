"""The pooled predictor: frames are grouped by proven weight equality,
bitwise duplicates within a group are predicted once, and every route
returns exactly what the session's own predict would."""

import numpy as np
import pytest

from repro.models.student import StudentNet
from repro.serving.batched import BatchedPredictor


def random_frames(n, hw, seed=7):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 1.0, (n, 3, *hw)).astype(np.float32)


class TestBatchedPredictor:
    def _client(self, version, width=0.25):
        class FakeClient:
            def __init__(self, student, weight_version):
                self.student = student
                self.weight_version = weight_version

        student = StudentNet(width=width, seed=0)
        return FakeClient(student, version)

    def test_groups_by_weight_version(self):
        """One frame submitted under two weight versions: duplicates
        share a predict only inside a version group."""
        frames = random_frames(1, (32, 48))
        a = self._client("v1")
        b = self._client("v1")
        c = self._client("v2")
        predictor = BatchedPredictor()
        preds, routes = predictor.predict(
            [(a, frames[0]), (b, frames[0]), (c, frames[0])]
        )
        assert routes == ["single", "dedup", "single"]
        assert predictor.counters["deduped_frames"] == 1
        assert predictor.counters["single_frames"] == 2

    def test_untracked_versions_never_share(self):
        frames = random_frames(2, (32, 48))
        a = self._client(None)
        b = self._client(None)
        predictor = BatchedPredictor()
        _, routes = predictor.predict([(a, frames[0]), (b, frames[1])])
        assert routes == ["single", "single"]

    def test_duplicate_frames_are_served_once(self):
        frames = random_frames(1, (32, 48))
        clients = [self._client("v1") for _ in range(3)]
        predictor = BatchedPredictor()
        preds, routes = predictor.predict([(c, frames[0]) for c in clients])
        assert sorted(routes) == ["dedup", "dedup", "single"]
        assert predictor.counters["deduped_frames"] == 2
        ref = clients[0].student.predict(frames[0])
        for p in preds:
            np.testing.assert_array_equal(p, ref)

    def test_key_frames_share_like_any_frame_and_keep_their_tag(self):
        """A key frame's update is still pending when it predicts, so a
        weight-identical cohort's key frames are one predict; they are
        tagged and counted ``key`` whether they ran or were fanned out,
        and ``single`` / ``dedup`` keep meaning "between key frames"."""
        frames = random_frames(2, (32, 48))
        a, b, c, d = (self._client("v1") for _ in range(4))
        lone = self._client(None)
        predictor = BatchedPredictor()
        items = [(a, frames[0]), (b, frames[0]), (c, frames[0]),
                 (d, frames[1]), (lone, frames[1])]
        preds, routes = predictor.predict(items, [True, True, False, False, True])
        assert routes == ["key", "key", "dedup", "single", "key"]
        assert predictor.counters == {
            "predicts": 5, "key_frames": 3, "deduped_frames": 1, "single_frames": 1,
        }
        assert preds[1] is preds[0] and preds[2] is preds[0]
        for (client, frame), pred in zip(items, preds):
            np.testing.assert_array_equal(pred, client.student.predict(frame))

    def test_routes_are_bit_identical_to_self_predict(self):
        frames = random_frames(5, (32, 48))
        clients = [self._client("v1") for _ in range(5)]
        items = [(c, f) for c, f in zip(clients, frames)]
        preds, _ = BatchedPredictor().predict(items)
        for (c, f), p in zip(items, preds):
            np.testing.assert_array_equal(p, c.student.predict(f))

    def test_counters_sum_even_after_midway_exception(self):
        """The route-counter invariant the bench reports depend on:
        ``predicts == deduped + single`` at every point —
        including after an exception aborts a call midway (the old
        code counted a duplicate at gather time, so its representative
        failing left a dedup that never produced a prediction)."""

        class ExplodingStudent:
            def __init__(self, fuse):
                self.fuse = fuse

            def predict(self, frame):
                self.fuse -= 1
                if self.fuse < 0:
                    raise RuntimeError("boom")
                return frame.sum(axis=0)

        class FakeClient:
            def __init__(self, student, weight_version):
                self.student = student
                self.weight_version = weight_version

        def check(predictor):
            c = predictor.counters
            assert c["predicts"] == (
                c["deduped_frames"] + c["single_frames"] + c["key_frames"]
            )

        frames = random_frames(2, (8, 12))
        # Duplicates whose representative's predict explodes: no frame
        # may be recorded served.
        student = ExplodingStudent(fuse=0)
        items = [(FakeClient(student, "v1"), frames[0]) for _ in range(3)]
        for key_flags in ((), (True, True, False)):
            student.fuse = 0
            predictor = BatchedPredictor()
            with pytest.raises(RuntimeError, match="boom"):
                predictor.predict(items, key_flags)
            check(predictor)
            assert predictor.counters["deduped_frames"] == 0
            assert predictor.counters["predicts"] == 0

        # A group whose predict explodes after some singles resolved.
        student = ExplodingStudent(fuse=1)
        items = [(FakeClient(student, None), frames[0]),
                 (FakeClient(student, "v1"), frames[0]),
                 (FakeClient(student, "v1"), frames[1])]
        predictor = BatchedPredictor()
        with pytest.raises(RuntimeError, match="boom"):
            predictor.predict(items)
        check(predictor)
        assert predictor.counters["predicts"] == 1  # only the None-version single
