"""Dependency graphs of multiplicity schemas.

The paper: "we have reduced query satisfiability and query implication to
testing embedding from the query to some dependency graphs, so we can
decide them in PTIME".  The dependency graph has the schema labels as
vertices and two edge families:

* *possible* edges ``a -> b`` — ``b`` may occur as a child of ``a``;
* *certain* child groups — for every atom of ``E(a)`` with a required
  multiplicity, the label set of that atom: every valid ``a``-node has at
  least one child whose label belongs to the group.  (For disjunction-free
  schemas the groups are singletons: the classic "required child" edges.)

Query satisfiability embeds the query into the possible edges; query
implication embeds it into the certain groups (see
:mod:`repro.schema.query_analysis`).  The graph is built over the trimmed
schema, so every possible edge is realizable and the certain groups contain
satisfiable labels only.
"""

from __future__ import annotations

from repro.schema.dms import DMS
from repro.schema.satisfiability import trim


class DependencyGraph:
    """Possible/certain structure of a (trimmed) multiplicity schema."""

    def __init__(self, schema: DMS) -> None:
        self.schema = trim(schema)
        self.root = self.schema.root
        self.labels: frozenset[str] = frozenset(self.schema.rules)
        self.possible: dict[str, frozenset[str]] = {
            label: self.schema.expression(label).alphabet
            for label in self.labels
        }
        self.certain_groups: dict[str, list[frozenset[str]]] = {
            label: [
                atom.labels
                for atom in self.schema.expression(label).atoms
                if atom.multiplicity.required
            ]
            for label in self.labels
        }
        self._reach: dict[str, frozenset[str]] | None = None

    # ------------------------------------------------------------------
    def reachable(self, label: str) -> frozenset[str]:
        """Labels reachable from ``label`` via one or more possible edges."""
        if self._reach is None:
            self._reach = {}
            for start in self.labels:
                seen: set[str] = set()
                stack = list(self.possible[start])
                while stack:
                    x = stack.pop()
                    if x in seen:
                        continue
                    seen.add(x)
                    stack.extend(self.possible[x])
                self._reach[start] = frozenset(seen)
        return self._reach[label]

    def required_children(self, label: str) -> frozenset[str]:
        """Labels certain to appear as children (singleton certain groups)."""
        return frozenset(
            next(iter(group))
            for group in self.certain_groups[label]
            if len(group) == 1
        )

    def has_required_cycle(self) -> bool:
        """Required cycles make every label on them unsatisfiable, so a
        trimmed schema never has one; exposed for direct testing."""
        graph = {label: self.required_children(label) for label in self.labels}
        state: dict[str, int] = {}
        return any(state.get(v, 0) == 0 and _visit(graph, state, v)
                   for v in self.labels)


def _visit(graph: dict[str, frozenset[str]], state: dict[str, int],
           v: str) -> bool:
    """Depth-first from ``v``: does it reach a vertex still on the stack?

    ``state`` marks a vertex 1 while on the stack and 2 when done.
    Module-level with its state as arguments: a recursive inner function
    would close over itself and keep the graph in a reference cycle until
    the cyclic collector runs.
    """
    state[v] = 1
    for w in graph[v]:
        s = state.get(w, 0)
        if s == 1:
            return True
        if s == 0 and _visit(graph, state, w):
            return True
    state[v] = 2
    return False
