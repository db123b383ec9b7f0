"""Partition the node topology into 1-hop clusters and elect heads.

The sweep is a greedy dominating set: repeatedly pick the unassigned node
with the most residual energy (ties to the lowest id) as a head and absorb
its unassigned neighbors as members. Every member is therefore adjacent to
its head, which is what the intra-cluster messaging rule relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .model import DEPLETED


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


def form_clusters(energies: dict[int, int], neighbors) -> list[Cluster]:
    """Partition the nodes of ``energies`` into clusters over ``neighbors``.

    ``neighbors(node)`` is the node's set of neighbours; only those among
    the nodes of ``energies`` join a cluster, so a node with none becomes a
    singleton and no nodes give no clusters. Energies do not change during
    a sweep, so the nodes are sorted once by ``elect_head``'s rule (most
    energy first, ties to the lowest id) and each node still unassigned
    when its turn comes becomes a head. That elects the same heads, in the
    same order, as calling ``elect_head`` on the unassigned nodes again and
    again, in O(N log N + E). Returned in election order, which is
    deterministic for a given (energies, neighbors) pair.
    """
    unassigned = set(energies)
    clusters = []
    for head in sorted(energies, key=lambda n: _election_key(n, energies)):
        if head not in unassigned:
            continue
        unassigned.discard(head)
        members = neighbors(head) & unassigned
        unassigned -= members
        clusters.append(Cluster(head, members))
    return clusters


def deploy_agents(sim, clusters) -> None:
    """Send one AgentDeploy from each live head to each of its members.

    A member's agent starts when the deploy is delivered; the engine starts
    each live head's own agent. A head found depleted before deployment has
    its cluster re-formed, which deploys nothing: this relies on
    ``form_clusters`` electing no member with more energy than its head, so
    a depleted head's members are depleted too. An agent reports to
    whichever head ``sim.head_of`` names, not to the deploy's sender.
    """
    for cluster in clusters:
        if sim.devices[cluster.head].status is DEPLETED:
            reform_cluster(sim, cluster.head, cluster.members)
            continue
        for member in sorted(cluster.members):
            sim.send(cluster.head, member, "agent_deploy")


def reform_cluster(sim, old_head: int, members) -> list[Cluster]:
    """Re-cluster the running ``members`` of a dead head's cluster.

    The old head becomes a depleted singleton; the members are re-swept over
    their own neighbour sets, each limited to the running members, so the
    member-adjacent-to-head invariant survives. No running member gives the
    singleton alone. The new clusters replace the old one's routes in the
    kernel's routing table.
    """
    sim.drop_cluster(old_head, members)
    devices = sim.devices
    energies = {m: sim.energy(m) for m in sorted(members) if devices[m].status is not DEPLETED}
    new_clusters = form_clusters(energies, lambda m: devices[m].neighbors)
    new_clusters.append(Cluster(old_head))
    sim.install_clusters(new_clusters)
    return new_clusters
