"""Tests for the LVS class palette."""

from repro.segmentation.classes import (
    BACKGROUND,
    CLASS_INDEX,
    LVS_CLASSES,
    NUM_CLASSES,
)


class TestPalette:
    def test_nine_classes_total(self):
        # 8 LVS object classes + background (student's out channels).
        assert NUM_CLASSES == 9

    def test_background_is_zero(self):
        assert BACKGROUND == 0
        assert LVS_CLASSES[0] == "background"

    def test_paper_class_set(self):
        expected = {"person", "bicycle", "automobile", "bird", "dog",
                    "horse", "elephant", "giraffe"}
        assert set(LVS_CLASSES[1:]) == expected

    def test_index_lookup_consistent(self):
        for i, name in enumerate(LVS_CLASSES):
            assert CLASS_INDEX[name] == i

