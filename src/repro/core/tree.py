"""Aggregation trees.

"An aggregation tree is a spanning tree covering all the paths from all the
mappers to a reducer. There is one tree rooted at each reducer." (Section 4,
Figure 2.) The tree tells every switch which port leads towards the reducer
and how many children (mappers or downstream switches) it will receive traffic
from, so that it knows when all partial results have arrived.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.core.errors import TreeError
from repro.netsim.devices import Host, SwitchDevice
from repro.netsim.routing import paths_towards
from repro.netsim.topology import Topology


@dataclass
class TreeNode:
    """One node of an aggregation tree."""

    name: str
    parent: str | None
    children: list[str] = field(default_factory=list)
    is_switch: bool = False


@dataclass
class AggregationTree:
    """A spanning tree over the paths from every mapper to one reducer."""

    tree_id: int
    reducer: str
    mappers: tuple[str, ...]
    nodes: dict[str, TreeNode] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def build(
        cls,
        topology: Topology,
        tree_id: int,
        reducer: str,
        mappers: Iterable[str],
        exclude: Iterable[str] | None = None,
    ) -> "AggregationTree":
        """Build the tree from the topology's shortest paths.

        Every node's parent is the next hop on *its own* shortest path towards
        the reducer, which guarantees the union of parent pointers is a tree
        even when different mappers' paths overlap.

        ``exclude`` removes devices (crashed or overloaded switches) from
        the path computation, so the controller can re-plan a tree around
        a failure; an unreachable mapper raises
        :class:`~repro.core.errors.RoutingError`.
        """
        mapper_list = tuple(mappers)
        if not mapper_list:
            raise TreeError("an aggregation tree needs at least one mapper")
        if len(set(mapper_list)) != len(mapper_list):
            raise TreeError("duplicate mappers in aggregation tree")
        reducer_device = topology.get(reducer)
        if not isinstance(reducer_device, Host):
            raise TreeError(f"reducer {reducer!r} is not a host")
        for mapper in mapper_list:
            if mapper == reducer:
                raise TreeError(
                    f"mapper {mapper!r} cannot also be the reducer of the same tree"
                )
            if not isinstance(topology.get(mapper), Host):
                raise TreeError(f"mapper {mapper!r} is not a host")

        tree = cls(tree_id=tree_id, reducer=reducer, mappers=mapper_list)
        tree.nodes[reducer] = TreeNode(name=reducer, parent=None, is_switch=False)

        # One BFS towards the reducer serves every mapper's path (each the
        # one a BFS from that mapper alone would select, including the
        # deterministic ECMP choice).
        paths = paths_towards(topology, reducer, mapper_list, exclude=exclude)
        for mapper in mapper_list:
            path = paths[mapper]
            # Walk the path from the mapper towards the reducer, adding each
            # hop with its next hop as parent, stopping as soon as we reach a
            # node that is already part of the tree.
            for position, name in enumerate(path[:-1]):
                parent = path[position + 1]
                if name in tree.nodes:
                    break
                device = topology.get(name)
                tree.nodes[name] = TreeNode(
                    name=name,
                    parent=parent,
                    is_switch=isinstance(device, SwitchDevice),
                )

        # Derive children lists from parent pointers.
        for node in tree.nodes.values():
            if node.parent is not None:
                if node.parent not in tree.nodes:
                    raise TreeError(
                        f"node {node.name!r} has parent {node.parent!r} outside the tree"
                    )
                tree.nodes[node.parent].children.append(node.name)
        for node in tree.nodes.values():
            node.children.sort()
        tree.validate()
        return tree

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def node(self, name: str) -> TreeNode:
        """Return a tree node by device name."""
        try:
            return self.nodes[name]
        except KeyError as exc:
            raise TreeError(f"device {name!r} is not part of tree {self.tree_id}") from exc

    def switches(self) -> list[TreeNode]:
        """Switch nodes of the tree (the devices that aggregate)."""
        return [n for n in self.nodes.values() if n.is_switch]

    def children_count(self, name: str) -> int:
        """Number of children feeding traffic into ``name``."""
        return len(self.node(name).children)

    def path_to_root(self, name: str) -> list[str]:
        """Devices visited from ``name`` up to (and including) the reducer."""
        path = [name]
        current = self.node(name)
        seen = {name}
        while current.parent is not None:
            parent = current.parent
            if parent in seen:
                raise TreeError(f"cycle detected in tree {self.tree_id} at {parent!r}")
            path.append(parent)
            seen.add(parent)
            current = self.node(parent)
        return path

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Check the tree invariants: rooted, acyclic, mappers are leaves."""
        if self.reducer not in self.nodes:
            raise TreeError("tree does not contain its reducer")
        if self.nodes[self.reducer].parent is not None:
            raise TreeError("the reducer must be the root of the tree")
        roots = [n.name for n in self.nodes.values() if n.parent is None]
        if roots != [self.reducer]:
            raise TreeError(f"tree has unexpected roots {roots}")
        for mapper in self.mappers:
            if mapper not in self.nodes:
                raise TreeError(f"mapper {mapper!r} missing from the tree")
            path = self.path_to_root(mapper)
            if path[-1] != self.reducer:
                raise TreeError(f"mapper {mapper!r} does not reach the reducer")
        # Parent/children consistency.
        for node in self.nodes.values():
            for child in node.children:
                if self.nodes[child].parent != node.name:
                    raise TreeError(
                        f"child {child!r} of {node.name!r} disagrees about its parent"
                    )
