"""Unit tests for the content-class vocabulary."""

from __future__ import annotations

from repro.world.content import ContentClass


class DescribeContentClasses:
    def test_values_unique(self):
        values = [c.value for c in ContentClass]
        assert len(values) == len(set(values))
