"""Unit tests for deterministic per-node randomness."""

from repro.sim import derive_seed, fresh_master_seed, node_rng
from repro.sim.rng import derive_seeds


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, 7) == derive_seed(42, 7)

    def test_streams_differ(self):
        assert derive_seed(42, 7) != derive_seed(42, 8)

    def test_masters_differ(self):
        assert derive_seed(42, 7) != derive_seed(43, 7)

    def test_output_fits_64_bits(self):
        assert 0 <= derive_seed(2**70, 2**70) < 2**64


class TestNodeRng:
    def test_same_node_same_sequence(self):
        a = node_rng(5, 3)
        b = node_rng(5, 3)
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_nodes_diverge(self):
        a = node_rng(5, 3)
        b = node_rng(5, 4)
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_none_master_gives_unseeded_rng(self):
        rng = node_rng(None, 0)
        assert 0.0 <= rng.random() < 1.0

    def test_fresh_master_seed_range(self):
        seed = fresh_master_seed()
        assert 0 <= seed < 2**63

    def test_bulk_node_seeds_match_one_at_a_time(self):
        for master in (0, 1, 7, 2**63 + 5, 2**64 + 3, -9, 0xDEADBEEFCAFEF00D):
            assert derive_seeds(master, 40) == [derive_seed(master, i) for i in range(40)]
        assert derive_seeds(3, 0) == []
