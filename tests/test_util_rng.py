"""Seeded RNG stream tests: determinism, independence, stability."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.util.rng import SeedBank, derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "a", 1) == derive_seed(42, "a", 1)

    def test_depends_on_root(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_depends_on_labels(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")
        assert derive_seed(1, "a", "b") != derive_seed(1, "a", "c")

    def test_label_boundaries_matter(self):
        # ("ab",) must differ from ("a", "b"): separator prevents collisions.
        assert derive_seed(1, "ab") != derive_seed(1, "a", "b")

    def test_int_and_str_labels_equivalent(self):
        # int labels are stringified, so 1 and "1" coincide by design.
        assert derive_seed(7, 3) == derive_seed(7, "3")

    def test_range(self):
        s = derive_seed(123, "x")
        assert 0 <= s < 2**64

    @given(st.integers(min_value=0, max_value=2**32), st.text(max_size=20))
    def test_always_in_64bit_range(self, root, label):
        assert 0 <= derive_seed(root, label) < 2**64


class TestSeedBank:
    def test_same_path_same_stream(self):
        a = SeedBank(9).generator("x", 1).random(5)
        b = SeedBank(9).generator("x", 1).random(5)
        assert np.array_equal(a, b)

    def test_different_paths_differ(self):
        a = SeedBank(9).generator("x").random(5)
        b = SeedBank(9).generator("y").random(5)
        assert not np.array_equal(a, b)

    def test_child_bank_namespacing(self):
        bank = SeedBank(5)
        child = bank.child("sub")
        # The child's streams match direct derivation through the sub-seed.
        direct = SeedBank(bank.seed("sub")).generator("g").random(3)
        assert np.array_equal(child.generator("g").random(3), direct)

    def test_order_independence(self):
        bank = SeedBank(11)
        g1 = bank.generator("a")
        _ = bank.generator("b").random(100)  # interleaved use
        g1_again = SeedBank(11).generator("a")
        assert np.array_equal(g1.random(4), g1_again.random(4))

    def test_equality_and_hash(self):
        assert SeedBank(1) == SeedBank(1)
        assert SeedBank(1) != SeedBank(2)
        assert hash(SeedBank(1)) == hash(SeedBank(1))

    def test_root_seed_property(self):
        assert SeedBank(77).root_seed == 77

    def test_sequence_type(self):
        assert isinstance(SeedBank(1).sequence("a"), np.random.SeedSequence)
