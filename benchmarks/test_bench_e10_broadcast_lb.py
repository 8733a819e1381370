"""E10 -- Corollaries 26-27: broadcast (and spanning trees) need Omega(n/sqrt(phi)) messages.

On the lower-bound graph, informing every node means discovering every clique,
and discovering a clique costs Theta(clique_size^2) messages (Lemma 18), so
any broadcast pays about n/sqrt(phi).  Flooding broadcast (which is
message-optimal up to constants on this graph class) is measured against that
reference curve.
"""

import pytest

from repro.analysis import broadcast_lower_bound_messages
from repro.broadcast import flooding_trial, push_pull_trial
from repro.lowerbound import build_lower_bound_graph

SEED = 66
CASES = [(150, 5), (240, 8)]


@pytest.mark.parametrize("n,clique_size", CASES)
def test_e10_broadcast_cost_on_lower_bound_graph(benchmark, n, clique_size):
    lb = build_lower_bound_graph(n, clique_size=clique_size, seed=SEED)

    outcome = benchmark.pedantic(
        flooding_trial,
        kwargs={"graph": lb.graph, "sources": {0}, "seed": SEED},
        rounds=1,
        iterations=1,
    )
    reference = broadcast_lower_bound_messages(lb.num_nodes, lb.alpha)
    benchmark.extra_info.update(
        {
            "n": lb.num_nodes,
            "alpha": round(lb.alpha, 5),
            "messages": outcome.messages,
            "reference_n_over_sqrt_phi": round(reference, 1),
            "all_informed": outcome.classification == "informed_all",
        }
    )
    assert outcome.classification == "informed_all"
    # Corollary 26: the measured cost respects the Omega(n / sqrt(phi)) bound.
    assert outcome.messages >= 0.25 * reference


@pytest.mark.parametrize("n,clique_size", CASES)
def test_e10_spanning_tree_cost_on_lower_bound_graph(benchmark, n, clique_size):
    """Corollary 27: spanning-tree construction also pays Omega(n / sqrt(phi))."""
    from repro.broadcast import run_spanning_tree_construction

    lb = build_lower_bound_graph(n, clique_size=clique_size, seed=SEED)
    outcome = benchmark.pedantic(
        run_spanning_tree_construction,
        kwargs={"graph": lb.graph, "root": 0, "seed": SEED},
        rounds=1,
        iterations=1,
    )
    reference = broadcast_lower_bound_messages(lb.num_nodes, lb.alpha)
    benchmark.extra_info.update(
        {
            "n": lb.num_nodes,
            "alpha": round(lb.alpha, 5),
            "messages": outcome.messages,
            "reference_n_over_sqrt_phi": round(reference, 1),
            "is_spanning": outcome.is_spanning,
            "tree_depth": outcome.tree_depth,
        }
    )
    assert outcome.is_spanning
    assert outcome.messages >= 0.25 * reference


def test_e10_push_pull_also_pays_the_bound(benchmark):
    n, clique_size = CASES[0]
    lb = build_lower_bound_graph(n, clique_size=clique_size, seed=SEED)

    outcome = benchmark.pedantic(
        push_pull_trial,
        kwargs={"graph": lb.graph, "sources": {0}, "seed": SEED, "max_rounds": 1_000_000},
        rounds=1,
        iterations=1,
    )
    reference = broadcast_lower_bound_messages(lb.num_nodes, lb.alpha)
    benchmark.extra_info.update(
        {
            "messages": outcome.messages,
            "reference_n_over_sqrt_phi": round(reference, 1),
            "all_informed": outcome.classification == "informed_all",
            "rounds": outcome.rounds,
        }
    )
    assert outcome.classification == "informed_all"
    assert outcome.messages >= 0.25 * reference
