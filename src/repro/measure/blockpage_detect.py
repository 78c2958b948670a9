"""Deprecated shim over the classifier-layer block-page matcher.

The §5 regex matching engine now lives in
:mod:`repro.measure.classifiers.blockpage` as
:class:`~repro.measure.classifiers.blockpage.BlockPagePatternMatcher`;
the fusion path wraps it in a ``BlockPageClassifier`` that emits a
weighted signal instead of deciding the verdict alone.

This module keeps the old import surface alive:

- ``BlockPagePattern`` / ``DEFAULT_PATTERNS`` / ``Detection`` re-export
  unchanged (no warning);
- ``BlockPageDetector`` still works but warns once per process on first
  instantiation — it is now a thin subclass of the canonical matcher.
"""

from __future__ import annotations

import warnings
from typing import Optional, Sequence

from repro.measure.classifiers.blockpage import (
    BlockPagePatternMatcher,
    BlockPagePattern,
    default_patterns,
)
from repro.measure.verdict import Detection

__all__ = [
    "BlockPageDetector",
    "BlockPagePattern",
    "DEFAULT_PATTERNS",
    "Detection",
]

#: The §5 regex corpus for the paper's default products (re-export).
DEFAULT_PATTERNS: Sequence[BlockPagePattern] = default_patterns()

# A long campaign resolves these shims thousands of times; warn once per
# name per process so logs stay readable.
_warned: set = set()


def _reset_deprecation_warnings() -> None:
    """Re-arm the warn-once latch (test helper)."""
    _warned.clear()


def _warn_once(name: str, replacement: str) -> None:
    if name in _warned:
        return
    _warned.add(name)
    warnings.warn(
        f"repro.measure.blockpage_detect.{name} is deprecated; use "
        f"{replacement}",
        DeprecationWarning,
        stacklevel=3,
    )


class BlockPageDetector(BlockPagePatternMatcher):
    """Deprecated alias of the classifier-layer pattern matcher.

    Matching behavior is identical; only the home moved. ``detect()``,
    ``for_products()`` and ``without_branded_patterns()`` all come from
    the base class.
    """

    def __init__(
        self, patterns: Optional[Sequence[BlockPagePattern]] = None
    ) -> None:
        _warn_once(
            "BlockPageDetector",
            "repro.measure.classifiers.BlockPagePatternMatcher",
        )
        super().__init__(DEFAULT_PATTERNS if patterns is None else patterns)
