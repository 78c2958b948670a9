"""Unit tests for the deterministic RNG discipline."""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.world.rng import derive_rng, derive_seed


class DescribeDerivation:
    def test_same_path_same_seed(self):
        assert derive_seed(1, "a", "b") == derive_seed(1, "a", "b")

    def test_different_paths_differ(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")
        assert derive_seed(1, "a", "b") != derive_seed(1, "ab")

    def test_different_root_seeds_differ(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_derive_rng_reproducible_stream(self):
        first = [derive_rng(9, "x").random() for _ in range(3)]
        second = [derive_rng(9, "x").random() for _ in range(3)]
        # Each call returns a FRESH stream starting from the same state.
        assert first[0] == second[0]

    def test_streams_are_independent(self):
        a = derive_rng(9, "a")
        b = derive_rng(9, "b")
        assert [a.random() for _ in range(4)] != [b.random() for _ in range(4)]


class DescribeHelpers:
    @given(st.integers(), st.lists(st.text(max_size=8), min_size=1, max_size=4))
    def test_derivation_is_pure(self, seed, path):
        assert derive_seed(seed, *path) == derive_seed(seed, *path)
