"""Acyclic join queries as rooted join trees.

The paper restricts attention to acyclic queries executed as left-deep
pipelined plans: a *driver* relation is chosen as the root of the join
tree, and the remaining relations are joined in some order that respects
the *precedence constraint* (a relation may only be joined after its
parent, so that no cartesian products arise — Section 2.1).

:class:`JoinQuery` captures the rooted tree; a *join order* is a
permutation of the non-root relations satisfying precedence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["JoinEdge", "JoinQuery"]


@dataclass(frozen=True)
class JoinEdge:
    """One parent-child join: ``parent.parent_attr = child.child_attr``."""

    parent: str
    child: str
    parent_attr: str
    child_attr: str

    def __repr__(self):
        return (
            f"JoinEdge({self.parent}.{self.parent_attr} = "
            f"{self.child}.{self.child_attr})"
        )


class JoinQuery:
    """A rooted join tree over named relations.

    Parameters
    ----------
    root:
        Name of the driver relation.
    edges:
        Iterable of :class:`JoinEdge`; each child must appear exactly
        once and the edges must form a tree rooted at ``root``.
    """

    #: undirected adjacency map, built by the first :meth:`rerooted` call
    _adjacency: dict | None = None

    def __init__(self, root, edges):
        self.root = root
        self.edges = list(edges)
        self._edge_by_child = {}
        self._children = {root: []}
        # the tree is immutable after construction: the structure the
        # order searches read per DP state is derived once, here
        self._parent = {root: None}
        self._non_root = tuple(edge.child for edge in self.edges)
        for edge in self.edges:
            if edge.child in self._edge_by_child:
                raise ValueError(f"relation {edge.child!r} has two parents")
            if edge.child == root:
                raise ValueError(f"root {root!r} cannot be a child")
            self._edge_by_child[edge.child] = edge
            self._parent[edge.child] = edge.parent
            self._children.setdefault(edge.parent, []).append(edge.child)
            self._children.setdefault(edge.child, [])
        # traversals are walked once, here; accessors hand out copies
        self._preorder = self._validate_tree()
        self._postorder = self._walk_postorder()
        self._internal = [rel for rel in self._preorder if self._children[rel]]

    def _validate_tree(self):
        """Check the edges form one tree; returns its pre-order."""
        order = []
        reachable = set()
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node in reachable:
                raise ValueError(f"cycle detected at relation {node!r}")
            reachable.add(node)
            order.append(node)
            stack.extend(self._children.get(node, []))
        declared = {self.root} | set(self._edge_by_child)
        if reachable != declared:
            unreachable = declared - reachable
            raise ValueError(
                f"relations not reachable from root {self.root!r}: "
                f"{sorted(unreachable)}"
            )
        return order

    # ------------------------------------------------------------------
    # Structure accessors
    # ------------------------------------------------------------------

    @property
    def relations(self):
        """All relation names, root first, then in edge order."""
        return [self.root] + [edge.child for edge in self.edges]

    @property
    def non_root_relations(self):
        return [edge.child for edge in self.edges]

    @property
    def num_relations(self):
        return 1 + len(self.edges)

    def edge_to(self, child):
        """The edge joining ``child`` to its parent."""
        try:
            return self._edge_by_child[child]
        except KeyError:
            raise KeyError(f"{child!r} is not a non-root relation") from None

    def parent(self, relation):
        """Parent relation name (``None`` for the root)."""
        try:
            return self._parent[relation]
        except KeyError:
            raise KeyError(f"{relation!r} is not a non-root relation") from None

    def children(self, relation):
        """Child relation names, in declaration order."""
        try:
            return list(self._children[relation])
        except KeyError:
            raise KeyError(f"unknown relation {relation!r}") from None

    def is_leaf(self, relation):
        return not self._children.get(relation)

    def path_to_root(self, relation):
        """Relations from ``relation`` up to (and including) the root."""
        path = [relation]
        while path[-1] != self.root:
            path.append(self.parent(path[-1]))
        return path

    def depth(self, relation):
        """Edge distance from the root (root has depth 0)."""
        return len(self.path_to_root(relation)) - 1

    def subtree(self, relation):
        """All relations in the subtree rooted at ``relation``."""
        nodes = []
        stack = [relation]
        while stack:
            node = stack.pop()
            nodes.append(node)
            stack.extend(self._children[node])
        return nodes

    def preorder(self):
        """Relations in a deterministic pre-order traversal."""
        return list(self._preorder)

    def postorder(self):
        """Relations with every child before its parent."""
        return list(self._postorder)

    def _walk_postorder(self):
        order = []
        stack = [(self.root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
            else:
                stack.append((node, True))
                for child in reversed(self._children[node]):
                    stack.append((child, False))
        return order

    def internal_relations(self):
        """Relations with at least one child (including the root if so)."""
        return list(self._internal)

    # ------------------------------------------------------------------
    # Join orders
    # ------------------------------------------------------------------

    def is_valid_order(self, order):
        """Check that ``order`` is a precedence-respecting permutation."""
        if sorted(order) != sorted(self._non_root):
            return False
        seen = {self.root}
        for relation in order:
            if self._parent[relation] not in seen:
                return False
            seen.add(relation)
        return True

    def validate_order(self, order):
        """Raise ``ValueError`` if ``order`` is not a valid join order."""
        if not self.is_valid_order(order):
            raise ValueError(
                f"invalid join order {list(order)} for query rooted at "
                f"{self.root!r} (must be a permutation of "
                f"{self.non_root_relations} with each parent first)"
            )

    def eligible_next(self, prefix):
        """Relations joinable after ``prefix`` (precedence frontier)."""
        joined = {self.root, *prefix}
        parent = self._parent
        return [
            rel
            for rel in self._non_root
            if rel not in joined and parent[rel] in joined
        ]

    def random_order(self, rng=None):
        """A uniformly-random precedence-respecting join order."""
        rng = np.random.default_rng(rng)
        order = []
        while len(order) < len(self.non_root_relations):
            frontier = self.eligible_next(order)
            order.append(frontier[int(rng.integers(len(frontier)))])
        return order

    def all_orders(self):
        """Generate every valid join order (exponential; small trees only)."""

        def extend(prefix):
            if len(prefix) == len(self.non_root_relations):
                yield list(prefix)
                return
            for relation in self.eligible_next(prefix):
                prefix.append(relation)
                yield from extend(prefix)
                prefix.pop()

        yield from extend([])

    # ------------------------------------------------------------------
    # Re-rooting (trying different driver relations)
    # ------------------------------------------------------------------

    def undirected_edges(self):
        """Edges as (rel_a, attr_a, rel_b, attr_b) tuples, direction-free."""
        return [
            (edge.parent, edge.parent_attr, edge.child, edge.child_attr)
            for edge in self.edges
        ]

    def rerooted(self, new_root):
        """The same join graph rooted at a different driver relation."""
        if new_root == self.root:
            return self
        adjacency = self._adjacency
        if adjacency is None:
            adjacency = self._adjacency = {}
            for rel_a, attr_a, rel_b, attr_b in self.undirected_edges():
                adjacency.setdefault(rel_a, []).append((rel_b, attr_a, attr_b))
                adjacency.setdefault(rel_b, []).append((rel_a, attr_b, attr_a))
        if new_root not in adjacency and self.num_relations > 1:
            raise KeyError(f"unknown relation {new_root!r}")
        edges = []
        visited = {new_root}
        stack = [new_root]
        while stack:
            parent = stack.pop()
            for child, parent_attr, child_attr in adjacency.get(parent, []):
                if child in visited:
                    continue
                visited.add(child)
                edges.append(JoinEdge(parent, child, parent_attr, child_attr))
                stack.append(child)
        return JoinQuery(new_root, edges)

    def __repr__(self):
        return (
            f"JoinQuery(root={self.root!r}, "
            f"relations={self.num_relations}, edges={len(self.edges)})"
        )
