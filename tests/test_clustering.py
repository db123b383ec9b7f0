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


def star_sim(n=4):
    devs = [make_device(0, neighbors=set(range(1, n)))]
    devs += [make_device(i, neighbors={0}) for i in range(1, n)]
    return Simulation(devs, EnergySpec())


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
        topo = Topology(frozenset({7}), frozenset())
        clusters = form_clusters(topo, {7: 100})
        assert clusters == [Cluster(head=7, members=frozenset())]

    def test_path_equal_energy(self):
        topo = Topology(frozenset({0, 1, 2}), frozenset({(0, 1), (1, 2)}))
        clusters = form_clusters(topo, {0: 5, 1: 5, 2: 5})
        assert clusters == [
            Cluster(head=0, members=frozenset({1})),
            Cluster(head=2, members=frozenset()),
        ]

    def test_complete_graph_single_cluster(self):
        nodes = set(range(5))
        edges = [(a, b) for a in nodes for b in nodes if a < b]
        clusters = form_clusters(Topology(frozenset(nodes), frozenset(edges)), {n: 9 for n in nodes})
        assert clusters == [Cluster(head=0, members=frozenset({1, 2, 3, 4}))]

    def test_empty_topology_rejected(self):
        with pytest.raises(ValueError):
            form_clusters(Topology(frozenset(), frozenset()), {})

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
        clusters = form_clusters(topo, energies)
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
        assert form_clusters(topo, energies) == reference_clusters(topo, energies)

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
        clusters = form_clusters(topo, energies)
        for node in topo.nodes:
            with pytest.raises(AttributeError):
                topo.neighbors(node).add(-1)
            with pytest.raises(AttributeError):
                topo.neighbors(node).clear()
            nbs = topo.neighbors(node)
            nbs |= {-1}  # rebinds the caller's name to a new set
            assert -1 not in topo.neighbors(node)
        assert {n: topo.neighbors(n) for n in topo.nodes} == before
        assert form_clusters(topo, energies) == clusters

    def test_neighbors_of_unknown_node_is_empty(self):
        assert Topology(frozenset({0, 1}), frozenset({(0, 1)})).neighbors(5) == set()


class TestTopology:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Topology(frozenset({0}), frozenset({(0, 0)}))

    def test_rejects_unknown_endpoint(self):
        with pytest.raises(ValueError):
            Topology(frozenset({0}), frozenset({(0, 9)}))


class TestDeployAgents:
    def test_one_message_per_member(self):
        sim = star_sim(3)
        clusters = [Cluster(head=0, members=frozenset({1, 2}))]
        sim.install_clusters(clusters)
        agents = deploy_agents(sim, clusters)
        assert set(agents) == {0}  # head self-hosts immediately
        assert agents[0].controller == 0
        sends = [l for l in sim.log.lines if l.split()[3] == "send"]
        assert len(sends) == 2
        assert all("kind=agent_deploy" in l for l in sends)

    def test_singleton_head_self_hosts(self):
        dev = make_device(5)
        sim = Simulation([dev], EnergySpec())
        clusters = [Cluster(head=5)]
        sim.install_clusters(clusters)
        agents = deploy_agents(sim, clusters)
        assert agents[5].host == agents[5].controller == 5
        assert not any(l.split()[3] == "send" for l in sim.log.lines)

    def test_depleted_head_triggers_reformation(self):
        sim = star_sim(3)
        sim.devices[0].energy_mj = 0
        sim.devices[0].status = Status.DEPLETED
        # members 1 and 2 are not adjacent, so each becomes its own cluster
        clusters = [Cluster(head=0, members=frozenset({1, 2}))]
        sim.install_clusters(clusters)
        agents = deploy_agents(sim, clusters)
        heads = {h for h in agents if sim.devices[h].status is Status.RUNNING}
        assert heads == {1, 2}


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
        new = reform_cluster(sim, 0)
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
        new = reform_cluster(sim, 0)
        live_heads = [c.head for c in new if sim.devices[c.head].status is Status.RUNNING]
        assert live_heads == [2]
