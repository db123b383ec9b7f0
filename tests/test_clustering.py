import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ubisim.clustering import (
    Cluster,
    Topology,
    deploy_agents,
    elect_head,
    form_clusters,
    reform_cluster,
)
from ubisim.model import EnergySpec, Status
from ubisim.simkernel import Simulation

from conftest import make_device


class TestElectHead:
    def test_tie_breaks_to_lowest_id(self):
        assert elect_head({0, 1, 2}, {0: 5, 1: 7, 2: 7}) == 1

    def test_sole_candidate(self):
        assert elect_head({0}, {0: 5}) == 0

    def test_strict_maximum(self):
        assert elect_head({0, 1}, {0: 5, 1: 9}) == 1

    @given(
        energies=st.dictionaries(
            st.integers(min_value=0, max_value=20),
            st.integers(min_value=0, max_value=1000),
            min_size=1,
        ),
        scale=st.integers(min_value=1, max_value=50),
    )
    def test_invariant_under_uniform_scaling(self, energies, scale):
        candidates = set(energies)
        scaled = {n: e * scale for n, e in energies.items()}
        assert elect_head(candidates, energies) == elect_head(candidates, scaled)


class TestFormClusters:
    def test_singleton(self):
        clusters = form_clusters({7: 100}, Topology(frozenset({7}), frozenset()).neighbors)
        assert clusters == [Cluster(head=7, members=frozenset())]

    def test_path_equal_energy(self):
        topo = Topology(frozenset({0, 1, 2}), frozenset({(0, 1), (1, 2)}))
        clusters = form_clusters({0: 5, 1: 5, 2: 5}, topo.neighbors)
        assert clusters == [
            Cluster(head=0, members=frozenset({1})),
            Cluster(head=2, members=frozenset()),
        ]

    def test_complete_graph_single_cluster(self):
        nodes = set(range(5))
        edges = [(a, b) for a in nodes for b in nodes if a < b]
        topo = Topology(frozenset(nodes), frozenset(edges))
        clusters = form_clusters({n: 9 for n in nodes}, topo.neighbors)
        assert clusters == [Cluster(head=0, members=frozenset({1, 2, 3, 4}))]

    def test_node_outside_energies_does_not_bridge(self):
        # 1 links 0 and 2 but is not swept, so 0 and 2 are not adjacent
        topo = Topology(frozenset({0, 1, 2}), frozenset({(0, 1), (1, 2)}))
        clusters = form_clusters({0: 5, 2: 5}, topo.neighbors)
        assert clusters == [Cluster(head=0), Cluster(head=2)]

    def test_no_nodes_give_no_clusters(self):
        assert form_clusters({}, Topology(frozenset(), frozenset()).neighbors) == []

    @given(
        n=st.integers(min_value=1, max_value=12),
        edge_bits=st.lists(st.booleans(), min_size=0, max_size=66),
        energy_seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(deadline=None, max_examples=60)
    def test_partition_and_adjacency(self, n, edge_bits, energy_seed):
        import random

        nodes = set(range(n))
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        edges = [p for p, keep in zip(pairs, edge_bits) if keep]
        topo = Topology(frozenset(nodes), frozenset(edges))
        rng = random.Random(energy_seed)
        energies = {i: rng.randint(0, 500) for i in nodes}
        clusters = form_clusters(energies, topo.neighbors)
        seen = [m for c in clusters for m in c.nodes]
        assert sorted(seen) == sorted(nodes)  # partition, each node once
        assert sum(1 + len(c.members) for c in clusters) == n
        edge_set = set(topo.edges)
        for c in clusters:
            for m in c.members:
                assert (min(m, c.head), max(m, c.head)) in edge_set


@st.composite
def graphs_with_tied_energies(draw):
    """A random graph over ids 0..n-1 and energies drawn from a few values."""
    n = draw(st.integers(min_value=1, max_value=14))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [p for p, k in zip(pairs, keep) if k]
    levels = draw(st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=3))
    energies = {i: draw(st.sampled_from(levels)) for i in range(n)}
    return Topology(frozenset(range(n)), frozenset(edges)), energies


def reference_clusters(topology, energies):
    """The sweep written as repeated elections over the unassigned nodes."""
    unassigned = set(topology.nodes)
    clusters = []
    while unassigned:
        head = elect_head(unassigned, energies)
        unassigned.discard(head)
        members = frozenset(topology.neighbors(head) & unassigned)
        unassigned -= members
        clusters.append(Cluster(head, members))
    return clusters


class TestSweepEquivalence:
    @given(graphs_with_tied_energies())
    @settings(deadline=None, max_examples=150)
    def test_form_clusters_equals_repeated_election(self, graph):
        topo, energies = graph
        clusters = form_clusters(energies, topo.neighbors)
        assert clusters == reference_clusters(topo, energies)
        # deploy_agents relies on this: a 0 mJ head's members are all depleted
        assert all(energies[m] <= energies[c.head] for c in clusters for m in c.members)

    @given(graphs_with_tied_energies(), st.data())
    @settings(deadline=None, max_examples=150)
    def test_subset_sweep_equals_induced_topology(self, graph, data):
        # re-formation sweeps a subset over the whole graph's neighbour sets;
        # the reference builds the subset's induced topology and sweeps that
        topo, energies = graph
        subset = data.draw(st.sets(st.sampled_from(sorted(topo.nodes))))
        sub_energies = {n: energies[n] for n in subset}
        nodes = frozenset(subset)
        edges = frozenset((m, nb) for m in subset for nb in topo.neighbors(m)
                          if m < nb and nb in nodes)
        induced = Topology(nodes, edges)
        assert (form_clusters(sub_energies, topo.neighbors)
                == form_clusters(sub_energies, induced.neighbors))

    @given(graphs_with_tied_energies())
    @settings(deadline=None, max_examples=100)
    def test_neighbors_equals_edge_scan(self, graph):
        topo, _energies = graph
        for node in topo.nodes:
            scanned = {b for a, b in topo.edges if a == node}
            scanned |= {a for a, b in topo.edges if b == node}
            assert topo.neighbors(node) == scanned

    @given(graphs_with_tied_energies())
    @settings(deadline=None, max_examples=50)
    def test_callers_cannot_change_neighbors(self, graph):
        topo, energies = graph
        before = {n: set(topo.neighbors(n)) for n in topo.nodes}
        clusters = form_clusters(energies, topo.neighbors)
        for node in topo.nodes:
            with pytest.raises(AttributeError):
                topo.neighbors(node).add(-1)
            with pytest.raises(AttributeError):
                topo.neighbors(node).clear()
            nbs = topo.neighbors(node)
            nbs |= {-1}  # rebinds the caller's name to a new set
            assert -1 not in topo.neighbors(node)
        assert {n: topo.neighbors(n) for n in topo.nodes} == before
        assert form_clusters(energies, topo.neighbors) == clusters

    def test_neighbors_of_unknown_node_is_empty(self):
        assert Topology(frozenset({0, 1}), frozenset({(0, 1)})).neighbors(5) == set()


class TestTopology:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Topology(frozenset({0}), frozenset({(0, 0)}))

    def test_rejects_unknown_endpoint(self):
        with pytest.raises(ValueError):
            Topology(frozenset({0}), frozenset({(0, 9)}))


def deploys(sim):
    """(sender, receiver) of each agent_deploy sent, in trace order."""
    lines = [line.split() for line in sim.log.lines]
    return [(int(f[2]), int(f[4][3:])) for f in lines
            if f[3] == "send" and f[5] == "kind=agent_deploy"]


class TestDeployAgents:
    def test_one_message_per_member(self):
        devs = [make_device(0, neighbors={1, 2}), make_device(1, neighbors={0}),
                make_device(2, neighbors={0}), make_device(3, neighbors={4}),
                make_device(4, neighbors={3})]
        sim = Simulation(devs, EnergySpec())
        clusters = [Cluster(head=0, members=frozenset({2, 1})),
                    Cluster(head=3, members=frozenset({4}))]
        sim.install_clusters(clusters)
        deploy_agents(sim, clusters)
        assert deploys(sim) == [(0, 1), (0, 2), (3, 4)]
        assert sim.head_of == {0: 0, 1: 0, 2: 0, 3: 3, 4: 3}

    def test_singleton_head_self_hosts(self):
        dev = make_device(5)
        sim = Simulation([dev], EnergySpec())
        clusters = [Cluster(head=5)]
        sim.install_clusters(clusters)
        deploy_agents(sim, clusters)
        assert not any(l.split()[3] == "send" for l in sim.log.lines)

    def test_depleted_head_triggers_reformation(self):
        # a 0 mJ head's members hold no more energy than it, so all are depleted
        devs = [make_device(0, energy=0, neighbors={1, 2}),
                make_device(1, energy=0, neighbors={0}),
                make_device(2, energy=0, neighbors={0}),
                make_device(3, neighbors={4}), make_device(4, neighbors={3})]
        sim = Simulation(devs, EnergySpec())
        clusters = [Cluster(head=3, members=frozenset({4})),
                    Cluster(head=0, members=frozenset({1, 2}))]
        sim.install_clusters(clusters)
        deploy_agents(sim, clusters)
        assert deploys(sim) == [(3, 4)]
        assert sim.log.cluster_records[2:] == [(0, 0, ())]
        assert sim.head_of == {0: 0, 3: 3, 4: 3}


class TestReformCluster:
    def test_members_resplit_over_induced_subgraph(self):
        # head 0 dies; members 1-2 adjacent to each other, 3 isolated
        devs = [
            make_device(0, neighbors={1, 2, 3}),
            make_device(1, neighbors={0, 2}),
            make_device(2, neighbors={0, 1}),
            make_device(3, neighbors={0}),
        ]
        sim = Simulation(devs, EnergySpec())
        sim.install_clusters([Cluster(head=0, members=frozenset({1, 2, 3}))])
        sim.devices[0].energy_mj = 0
        sim.devices[0].status = Status.DEPLETED
        new = reform_cluster(sim, 0, {1, 2, 3})
        by_head = {c.head: c for c in new}
        assert set(by_head) == {1, 3, 0}
        assert by_head[1].members == frozenset({2})
        assert by_head[0].members == frozenset()  # dead head is a singleton
        assert sim.head_of[2] == 1
        assert sim.head_of[1] == 1

    def test_reelection_prefers_energy(self):
        devs = [
            make_device(0, neighbors={1, 2}),
            make_device(1, neighbors={0, 2}, energy=500),
            make_device(2, neighbors={0, 1}, energy=900),
        ]
        sim = Simulation(devs, EnergySpec())
        sim.install_clusters([Cluster(head=0, members=frozenset({1, 2}))])
        sim.devices[0].status = Status.DEPLETED
        sim.devices[0].energy_mj = 0
        new = reform_cluster(sim, 0, {1, 2})
        live_heads = [c.head for c in new if sim.devices[c.head].status is Status.RUNNING]
        assert live_heads == [2]

    def test_depleted_member_and_outside_neighbours_do_not_bridge(self):
        # head 0 dies; members 1 - 2 - 3 form a path whose middle is depleted,
        # and 1 also links to 4, the head of another cluster
        devs = [
            make_device(0, neighbors={1, 2, 3}),
            make_device(1, neighbors={0, 2, 4}, energy=500),
            make_device(2, neighbors={0, 1, 3}),
            make_device(3, neighbors={0, 2}, energy=400),
            make_device(4, neighbors={1, 5}, energy=900),
            make_device(5, neighbors={4}),
        ]
        sim = Simulation(devs, EnergySpec())
        sim.install_clusters([Cluster(head=0, members=frozenset({1, 2, 3})),
                              Cluster(head=4, members=frozenset({5}))])
        for dead in (0, 2):
            sim.devices[dead].status = Status.DEPLETED
            sim.devices[dead].energy_mj = 0
        new = reform_cluster(sim, 0, {1, 2, 3})
        assert new == [Cluster(head=1), Cluster(head=3), Cluster(head=0)]
        assert sim.head_of[4] == 4
        assert sim.head_of[5] == 4
