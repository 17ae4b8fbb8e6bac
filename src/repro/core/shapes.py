"""INFERSHAPES: computing the tree structure of sketches (Theorem 3.1, Algorithm E.1).

The key observation of the paper is that the *shape* (the regular language of
capability paths) of every variable's sketch can be recovered from a constraint
set by a Steensgaard-style almost-linear-time construction:

* build a graph with one node per derived type variable (and each prefix), with
  an edge labelled ``l`` from ``n(alpha)`` to ``n(alpha.l)``;
* quotient by the equivalence generated by ``n(alpha) ~ n(beta)`` whenever
  ``alpha <= beta`` is a constraint, closed under congruence: equivalent nodes
  with outgoing edges labelled ``l`` / ``l'`` have equivalent targets when
  ``l = l'`` or ``{l, l'} = {load, store}`` (the S-POINTER identification).

Paths through the quotient graph starting at a variable's class are exactly the
capability words derivable for that variable, so the quotient directly yields
the sketch automaton.

The same structure also hosts:

* per-class lattice bounds (joins of lower-bound constants / meets of
  upper-bound constants) -- a fast, direction-insensitive approximation that
  the solver refines with the pushdown machinery of Appendix D;
* pointer-ness / integer-ness marks driven by the ADD/SUB rules of Figure 13.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from .constraints import AddConstraint, ConstraintSet, SubConstraint
from .labels import LOAD, STORE, Label
from .lattice import BOTTOM, TOP, TypeLattice
from .sketches import Sketch
from .variables import DerivedTypeVariable


class ShapeInference:
    """Union-find quotient of derived type variables (the INFERSHAPES algorithm)."""

    def __init__(self, lattice: TypeLattice) -> None:
        self.lattice = lattice
        self._parent: List[int] = []
        self._rank: List[int] = []
        self._edges: Dict[int, Dict[Label, int]] = {}
        self._lower: Dict[int, str] = {}
        self._upper: Dict[int, str] = {}
        self._base_cells: Dict[str, int] = {}
        self._int_mark: Set[int] = set()
        self._ptr_mark: Set[int] = set()
        #: pairs of type constants (lower, upper) that must satisfy lower <: upper
        self.scalar_checks: List[Tuple[str, str]] = []

    # -- union-find --------------------------------------------------------------

    def _new_cell(self) -> int:
        ident = len(self._parent)
        self._parent.append(ident)
        self._rank.append(0)
        self._edges[ident] = {}
        self._lower[ident] = BOTTOM
        self._upper[ident] = TOP
        return ident

    def find(self, cell: int) -> int:
        root = cell
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[cell] != root:
            self._parent[cell], cell = root, self._parent[cell]
        return root

    def union(self, a: int, b: int) -> int:
        """Union with downward congruence closure (including load/store identification)."""
        worklist = [(a, b)]
        while worklist:
            x, y = worklist.pop()
            rx, ry = self.find(x), self.find(y)
            if rx == ry:
                continue
            if self._rank[rx] < self._rank[ry]:
                rx, ry = ry, rx
            if self._rank[rx] == self._rank[ry]:
                self._rank[rx] += 1
            self._parent[ry] = rx
            # merge bounds and marks
            self._lower[rx] = self.lattice.join(self._lower[rx], self._lower[ry])
            self._upper[rx] = self.lattice.meet(self._upper[rx], self._upper[ry])
            if ry in self._int_mark:
                self._int_mark.add(rx)
            if ry in self._ptr_mark:
                self._ptr_mark.add(rx)
            # merge outgoing edges, scheduling congruent unifications
            edges_x = self._edges[rx]
            for label, target in self._edges.pop(ry).items():
                if label in edges_x:
                    worklist.append((edges_x[label], target))
                else:
                    edges_x[label] = target
            # S-POINTER: load and store children of one class coincide
            if LOAD in edges_x and STORE in edges_x:
                worklist.append((edges_x[LOAD], edges_x[STORE]))
        return self.find(a)

    # -- derived type variables ----------------------------------------------------

    def is_constant(self, dtv: DerivedTypeVariable) -> bool:
        return dtv.is_base and self.lattice.is_constant(dtv.base)

    def cell_for(self, dtv: DerivedTypeVariable) -> Optional[int]:
        """Cell representing ``dtv``, creating intermediate cells as needed.

        Returns ``None`` for type constants, which live in the lattice rather
        than the shape graph.
        """
        if self.is_constant(dtv):
            return None
        if dtv.base not in self._base_cells:
            self._base_cells[dtv.base] = self._new_cell()
        cell = self.find(self._base_cells[dtv.base])
        for label in dtv.labels:
            edges = self._edges[cell]
            if label not in edges:
                edges[label] = self._new_cell()
            cell = self.find(edges[label])
        return cell

    def lookup(self, dtv: DerivedTypeVariable) -> Optional[int]:
        """Like :meth:`cell_for` but without creating missing cells."""
        if self.is_constant(dtv) or dtv.base not in self._base_cells:
            return None
        cell = self.find(self._base_cells[dtv.base])
        for label in dtv.labels:
            target = self._edges[cell].get(label)
            if target is None:
                # Respect the load/store identification when looking up.
                alt = STORE if label == LOAD else LOAD if label == STORE else None
                if alt is not None:
                    target = self._edges[cell].get(alt)
                if target is None:
                    return None
            cell = self.find(target)
        return cell

    # -- constraint processing --------------------------------------------------------

    def add_constraints(self, constraints: ConstraintSet) -> None:
        for constraint in constraints:
            self.add_subtype(constraint.left, constraint.right)
        self._close_pointer_children()
        self._apply_additive(constraints)

    def add_subtype(self, left: DerivedTypeVariable, right: DerivedTypeVariable) -> None:
        left_const = self.is_constant(left)
        right_const = self.is_constant(right)
        if left_const and right_const:
            self.scalar_checks.append((left.base, right.base))
            return
        if left_const:
            cell = self.cell_for(right)
            assert cell is not None
            self.apply_lower(cell, left.base)
            return
        if right_const:
            cell = self.cell_for(left)
            assert cell is not None
            self.apply_upper(cell, right.base)
            return
        a = self.cell_for(left)
        b = self.cell_for(right)
        assert a is not None and b is not None
        self.union(a, b)

    def _close_pointer_children(self) -> None:
        """Fixpoint pass unifying load/store children created before any union."""
        changed = True
        while changed:
            changed = False
            for cell in list(self._edges):
                if self.find(cell) != cell:
                    continue
                edges = self._edges[cell]
                if LOAD in edges and STORE in edges:
                    a, b = self.find(edges[LOAD]), self.find(edges[STORE])
                    if a != b:
                        self.union(a, b)
                        changed = True

    # -- lattice bounds ------------------------------------------------------------------

    def apply_lower(self, cell: int, element: str) -> None:
        rep = self.find(cell)
        self._lower[rep] = self.lattice.join(self._lower[rep], element)

    def apply_upper(self, cell: int, element: str) -> None:
        rep = self.find(cell)
        self._upper[rep] = self.lattice.meet(self._upper[rep], element)

    def bounds(self, cell: int) -> Tuple[str, str]:
        rep = self.find(cell)
        return self._lower[rep], self._upper[rep]

    def clear_bounds(self) -> None:
        """Reset all per-class bounds (used before a direction-aware recomputation)."""
        for rep in self._lower:
            self._lower[rep] = BOTTOM
            self._upper[rep] = TOP

    # -- capabilities ----------------------------------------------------------------------

    def capabilities(self, cell: int) -> Dict[Label, int]:
        rep = self.find(cell)
        return {label: self.find(target) for label, target in self._edges[rep].items()}

    def has_capability(self, dtv: DerivedTypeVariable, label: Label) -> bool:
        cell = self.lookup(dtv)
        if cell is None:
            return False
        return label in self._edges[self.find(cell)]

    def classes(self) -> Set[int]:
        return {self.find(i) for i in range(len(self._parent))}

    # -- ADD / SUB constraints (Figure 13) ----------------------------------------------------

    def mark_pointer(self, cell: int) -> None:
        self._ptr_mark.add(self.find(cell))

    def mark_integer(self, cell: int) -> None:
        self._int_mark.add(self.find(cell))

    def is_pointer(self, cell: int) -> bool:
        rep = self.find(cell)
        if rep in self._ptr_mark:
            return True
        edges = self._edges[rep]
        if LOAD in edges or STORE in edges:
            return True
        lower, upper = self._lower[rep], self._upper[rep]
        return self.lattice.leq("ptr", upper) and upper != TOP or lower == "ptr"

    def is_integer(self, cell: int) -> bool:
        rep = self.find(cell)
        if rep in self._int_mark:
            return True
        if self.is_pointer(rep):
            return False
        lower, upper = self._lower[rep], self._upper[rep]
        for bound in (lower, upper):
            if bound in (TOP, BOTTOM):
                continue
            if self.lattice.leq(bound, "num64") or self.lattice.leq("num64", bound):
                return True
        return False

    def _apply_additive(self, constraints: ConstraintSet) -> None:
        """Iterate the inference rules for ADD/SUB constraints (Figure 13)."""
        # Sorted, not set order: unions reparent by call order, and the
        # per-process hash seed must not leak into the quotient's shape.
        additive = sorted(constraints.additive, key=str)
        if not additive:
            return
        changed = True
        while changed:
            changed = False
            for constraint in additive:
                cells = [
                    self.cell_for(constraint.left),
                    self.cell_for(constraint.right),
                    self.cell_for(constraint.result),
                ]
                if any(c is None for c in cells):
                    continue
                x, y, z = cells
                is_add = isinstance(constraint, AddConstraint)
                changed |= self._additive_step(x, y, z, is_add)

    def _additive_step(self, x: int, y: int, z: int, is_add: bool) -> bool:
        """One application of the Figure 13 table; returns True if a mark was added.

        In addition to the pointer/integer marks of Figure 13, pointer
        arithmetic with an integer operand identifies the result with the
        pointer operand: ``p + i`` points into the same object as ``p``.  This
        is what lets array indexing (``values[i]``) attribute its loads and
        stores back to the array parameter.
        """
        before = (len(self._int_mark), len(self._ptr_mark))
        xi, yi, zi = self.is_integer(x), self.is_integer(y), self.is_integer(z)
        xp, yp, zp = self.is_pointer(x), self.is_pointer(y), self.is_pointer(z)
        unified = False
        if is_add:
            if xp and not yp and self.find(x) != self.find(z):
                self.union(x, z)
                unified = True
            elif yp and not xp and self.find(y) != self.find(z):
                self.union(y, z)
                unified = True
            elif zp and xi and not yp and self.find(y) != self.find(z):
                self.union(y, z)
                unified = True
            elif zp and yi and not xp and self.find(x) != self.find(z):
                self.union(x, z)
                unified = True
        else:
            if xp and not yp and self.find(x) != self.find(z):
                self.union(x, z)
                unified = True
            elif zp and not yp and self.find(x) != self.find(z):
                self.union(x, z)
                unified = True
        if unified:
            x, y, z = self.find(x), self.find(y), self.find(z)
        if is_add:
            if xi and yi:
                self.mark_integer(z)
            if xp:
                self.mark_integer(y)
                self.mark_pointer(z)
            if yp:
                self.mark_integer(x)
                self.mark_pointer(z)
            if zp and xi:
                self.mark_pointer(y)
            if zp and yi:
                self.mark_pointer(x)
            if zi:
                if xp:
                    pass  # inconsistent; leave for the union policy
                else:
                    if not (xp or yp):
                        self.mark_integer(x)
                        self.mark_integer(y)
        else:
            # SUB(X, Y; Z): Z = X - Y
            if xi and yi:
                self.mark_integer(z)
            if xp and yi:
                self.mark_pointer(z)
            if xp and yp:
                self.mark_integer(z)
            if xi:
                self.mark_integer(y)
                self.mark_integer(z)
            if zp:
                self.mark_pointer(x)
                self.mark_integer(y)
        after = (len(self._int_mark), len(self._ptr_mark))
        return unified or after != before

    # -- sketch extraction -----------------------------------------------------------------------

    def sketch_for(self, dtv: DerivedTypeVariable) -> Sketch:
        """Build the sketch automaton for ``dtv`` by unrolling the quotient graph."""
        sketch = Sketch(self.lattice)
        start = self.lookup(dtv)
        if start is None:
            return sketch
        mapping: Dict[int, int] = {self.find(start): sketch.root}
        worklist = [self.find(start)]
        while worklist:
            rep = worklist.pop()
            node = mapping[rep]
            lower, upper = self._lower[rep], self._upper[rep]
            if (
                lower == BOTTOM
                and rep in self._ptr_mark
                and LOAD not in self._edges[rep]
                and STORE not in self._edges[rep]
            ):
                # Pointer-ness established only through the ADD/SUB rules
                # (Figure 13): record it so the display shows a pointer.
                lower = "ptr" if "ptr" in self.lattice else lower
            sketch.nodes[node].lower = lower
            sketch.nodes[node].upper = upper
            for label, target in sorted(self._edges[rep].items(), key=lambda kv: str(kv[0])):
                target = self.find(target)
                if target not in mapping:
                    mapping[target] = sketch.add_node()
                    worklist.append(target)
                sketch.add_edge(node, label, mapping[target])
        return sketch


def infer_shapes(constraints: ConstraintSet, lattice: TypeLattice) -> ShapeInference:
    """The INFERSHAPES procedure of Algorithm E.1."""
    shapes = ShapeInference(lattice)
    shapes.add_constraints(constraints)
    return shapes
