"""A direct, bounded implementation of the deduction rules of Figure 3.

This module is *not* used by the production solver (which relies on the
pushdown-system machinery of Appendix D); it exists as an executable reference
semantics for the type system.  Given a constraint set it computes the
entailment closure restricted to derived type variables of bounded label depth,
which is enough to unit-test and property-test the efficient algorithms against
the rules as written in the paper:

* T-LEFT / T-RIGHT / T-PREFIX   (existence of derived type variables)
* T-INHERITL / T-INHERITR       (comparable types have the same capabilities)
* S-REFL / S-TRANS              (preorder)
* S-FIELD+ / S-FIELD-           (labels are co-/contra-variant type operators)
* S-POINTER                     (store <= load consistency)
"""

from __future__ import annotations

from typing import Iterable, Optional, Set, Tuple

from .constraints import ConstraintSet, SubtypeConstraint
from .labels import LOAD, STORE, Variance
from .variables import DerivedTypeVariable


class DeductionEngine:
    """Bounded entailment closure for the Figure 3 rules.

    Parameters
    ----------
    constraints:
        The constraint set ``C``.
    max_depth:
        Derived type variables longer than this many labels are not explored.
        The closure is exact for judgements whose variables stay within the
        bound (sufficient for the small examples the engine is meant for).
    """

    def __init__(self, constraints: ConstraintSet, max_depth: int = 4) -> None:
        self.constraints = constraints
        self.max_depth = max_depth
        self._vars: Set[DerivedTypeVariable] = set()
        self._subtypes: Set[Tuple[DerivedTypeVariable, DerivedTypeVariable]] = set()
        self._closed = False

    # -- public API -------------------------------------------------------------

    def entails_var(self, dtv: DerivedTypeVariable) -> bool:
        """``C |- VAR dtv`` (up to the depth bound)."""
        self._close()
        return dtv in self._vars

    def entails_subtype(
        self, left: DerivedTypeVariable, right: DerivedTypeVariable
    ) -> bool:
        """``C |- left <= right`` (up to the depth bound)."""
        self._close()
        return (left, right) in self._subtypes

    def entails(self, constraint: SubtypeConstraint) -> bool:
        return self.entails_subtype(constraint.left, constraint.right)

    # -- fixpoint ----------------------------------------------------------------

    def _close(self) -> None:
        if self._closed:
            return
        variables: Set[DerivedTypeVariable] = set()
        subtypes: Set[Tuple[DerivedTypeVariable, DerivedTypeVariable]] = set()

        for constraint in self.constraints:
            for dtv in (constraint.left, constraint.right):
                variables.add(dtv)
                variables.update(dtv.prefixes())
            subtypes.add((constraint.left, constraint.right))

        changed = True
        while changed:
            changed = False

            # S-REFL on all known variables.
            for dtv in list(variables):
                if (dtv, dtv) not in subtypes:
                    subtypes.add((dtv, dtv))
                    changed = True

            # T-INHERITL / T-INHERITR: comparable variables share capabilities.
            for left, right in list(subtypes):
                for dtv in list(variables):
                    if dtv.depth >= self.max_depth:
                        continue
                    last = dtv.last_label
                    prefix = dtv.prefix
                    if last is None or prefix is None:
                        continue
                    if prefix == left:
                        other = right.with_label(last)
                    elif prefix == right:
                        other = left.with_label(last)
                    else:
                        continue
                    if other.depth <= self.max_depth and other not in variables:
                        variables.add(other)
                        changed = True

            # S-FIELD+/S-FIELD-.
            for left, right in list(subtypes):
                for dtv in list(variables):
                    last = dtv.last_label
                    prefix = dtv.prefix
                    if last is None or prefix is None or prefix != right:
                        continue
                    extended_left = left.with_label(last)
                    extended_right = right.with_label(last)
                    if extended_left.depth > self.max_depth:
                        continue
                    variables.add(extended_left)
                    if last.variance is Variance.COVARIANT:
                        pair = (extended_left, extended_right)
                    else:
                        pair = (extended_right, extended_left)
                    if pair not in subtypes:
                        subtypes.add(pair)
                        changed = True

            # S-POINTER.
            for dtv in list(variables):
                loaded = dtv.with_label(LOAD)
                stored = dtv.with_label(STORE)
                if loaded in variables and stored in variables:
                    if (stored, loaded) not in subtypes:
                        subtypes.add((stored, loaded))
                        changed = True

            # S-TRANS.
            by_left = {}
            for a, b in subtypes:
                by_left.setdefault(a, set()).add(b)
            for a, b in list(subtypes):
                for c in by_left.get(b, ()):
                    if (a, c) not in subtypes:
                        subtypes.add((a, c))
                        changed = True

        self._vars = variables
        self._subtypes = subtypes
        self._closed = True


def entails(
    constraints: ConstraintSet,
    goal: SubtypeConstraint,
    max_depth: int = 4,
) -> bool:
    """Convenience wrapper: does ``constraints`` entail ``goal``?"""
    return DeductionEngine(constraints, max_depth).entails(goal)
