"""Partition the node topology into 1-hop clusters and elect heads.

The sweep is a greedy dominating set: repeatedly pick the unassigned node
with the most residual energy (ties to the lowest id) as a head and absorb
its unassigned neighbors as members. Every member is therefore adjacent to
its head, which is what the intra-cluster messaging rule relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .model import Status


@dataclass(frozen=True)
class Topology:
    nodes: frozenset[int]
    edges: frozenset[tuple[int, int]]
    _adjacency: dict[int, frozenset[int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        adjacency: dict[int, set[int]] = {n: set() for n in self.nodes}
        for a, b in self.edges:
            if a == b:
                raise ValueError(f"self-loop on node {a}")
            if a not in self.nodes or b not in self.nodes:
                raise ValueError(f"edge ({a}, {b}) references an unknown node")
            adjacency[a].add(b)
            adjacency[b].add(a)
        frozen = {n: frozenset(nbs) for n, nbs in adjacency.items()}
        object.__setattr__(self, "_adjacency", frozen)

    def neighbors(self, node: int) -> frozenset[int]:
        """The node's neighbours, empty for an unknown node. The set is the
        topology's own, shared by every caller and immutable."""
        return self._adjacency.get(node, frozenset())


@dataclass(frozen=True)
class Cluster:
    head: int
    members: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        if self.head in self.members:
            raise ValueError("cluster head cannot be its own member")

    @property
    def nodes(self) -> frozenset[int]:
        return self.members | {self.head}


def _election_key(node: int, energies) -> tuple[int, int]:
    """Sort key that puts the most energy first, ties to the lowest id."""
    return (-energies[node], node)


def elect_head(candidates, energies) -> int:
    """Candidate with maximal energy; ties broken by lowest id.

    One election on its own. ``form_clusters`` sorts once by the same rule
    instead of calling this for every head.
    """
    if not candidates:
        raise ValueError("cannot elect a head from no candidates")
    return min(candidates, key=lambda n: _election_key(n, energies))


def form_clusters(topology: Topology, energies: dict[int, int]) -> list[Cluster]:
    """Partition all nodes into clusters; isolated nodes become singletons.

    Energies do not change during a sweep, so the nodes are sorted once by
    ``elect_head``'s rule (most energy first, ties to the lowest id) and
    each node still unassigned when its turn comes becomes a head. That
    elects the same heads, in the same order, as calling ``elect_head`` on
    the unassigned nodes again and again, in O(N log N + E). Returned in
    election order, which is deterministic for a given (topology, energies)
    pair.
    """
    if not topology.nodes:
        raise ValueError("topology is empty")
    unassigned = set(topology.nodes)
    clusters = []
    for head in sorted(topology.nodes, key=lambda n: _election_key(n, energies)):
        if head not in unassigned:
            continue
        unassigned.discard(head)
        members = topology.neighbors(head) & unassigned
        unassigned -= members
        clusters.append(Cluster(head, members))
    return clusters


def deploy_agents(sim, clusters) -> set[int]:
    """Send one AgentDeploy per member and self-host an agent on each head.

    Member agents start when the deploy message is delivered; the returned
    set holds the heads, whose agents run at once. A head found depleted
    before deployment has its cluster re-formed first, and the live heads
    of the re-formed clusters deploy in its place. An agent reports to
    whichever head ``sim.head_of`` names, not to the deploy's sender.
    """
    heads: set[int] = set()
    for cluster in list(clusters):
        head_dev = sim.devices[cluster.head]
        if head_dev.status is Status.DEPLETED:
            live = [
                sub for sub in reform_cluster(sim, cluster.head)
                if sim.devices[sub.head].status is not Status.DEPLETED
            ]
            heads |= deploy_agents(sim, live)
            continue
        heads.add(cluster.head)
        for member in sorted(cluster.members):
            sim.send(cluster.head, member, "agent_deploy")
    return heads


def reform_cluster(sim, old_head: int) -> list[Cluster]:
    """Re-cluster the running members of a dead head's cluster.

    The old head becomes a depleted singleton; the members are re-swept over
    their induced subgraph so the member-adjacent-to-head invariant survives.
    The new clusters are installed into the kernel's routing registry.
    """
    members = sorted(sim.clusters.get(old_head, set()))
    sim.drop_cluster(old_head)
    running = [m for m in members if sim.devices[m].status is not Status.DEPLETED]
    new_clusters = []
    if running:
        nodes = frozenset(running)
        edges = frozenset((m, nb) for m in running for nb in sim.devices[m].neighbors
                          if m < nb and nb in nodes)
        sub = Topology(nodes, edges)
        energies = {m: sim.energy(m) for m in running}
        new_clusters = form_clusters(sub, energies)
    new_clusters.append(Cluster(old_head))
    sim.install_clusters(new_clusters)
    return new_clusters
