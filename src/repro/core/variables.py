"""Type variables and derived type variables (Definition 3.1).

A *derived type variable* is an expression ``alpha.w`` where ``alpha`` is a base
type variable and ``w`` is a (possibly empty) word of field labels.  The base
variable is represented by its name; type constants (elements of the auxiliary
lattice Lambda) are also represented as base variables whose names the lattice
recognizes.

Derived type variables are the single most-hashed object in the solver: every
constraint-graph node, reaching-forget fact, sketch key and summary entry keys
off one.  Construction therefore precomputes the hash once, and equality tries
identity before comparing ``(base, labels)``; ``str`` is cached lazily since
display/serialization paths render the same variables repeatedly.  Instances
are not interned: two equal variables built separately are distinct objects.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from typing import Iterator, Optional, Sequence, Tuple

from .labels import Label, Variance, parse_label, path_variance


_fresh_counter = itertools.count()


def fresh_var(prefix: str = "v") -> "DerivedTypeVariable":
    """Return a fresh base type variable that has not been used before."""
    return DerivedTypeVariable(f"${prefix}{next(_fresh_counter)}")


@dataclass(frozen=True, order=True)
class DerivedTypeVariable:
    """A base type variable together with a word of field labels.

    ``DerivedTypeVariable("F", (InLabel("stack0"), LoadLabel()))`` prints as
    ``F.in_stack0.load``.
    """

    base: str
    labels: Tuple[Label, ...] = dc_field(default_factory=tuple)

    def __post_init__(self) -> None:
        # Cache the hash: profiles show dict/set operations on derived type
        # variables dominate saturation and simplification otherwise.
        object.__setattr__(self, "_hash", hash((self.base, self.labels)))

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    def __eq__(self, other: object) -> bool:
        if self is other:  # cheap identity check before the field comparison
            return True
        if not isinstance(other, DerivedTypeVariable):
            return NotImplemented
        return self.base == other.base and self.labels == other.labels

    # -- construction helpers -------------------------------------------------

    def with_label(self, label: Label) -> "DerivedTypeVariable":
        """Return ``self.l`` -- this variable extended by one more capability."""
        return DerivedTypeVariable(self.base, self.labels + (label,))

    def with_labels(self, labels: Sequence[Label]) -> "DerivedTypeVariable":
        if not labels:
            return self
        return DerivedTypeVariable(self.base, self.labels + tuple(labels))

    def with_base(self, base: str) -> "DerivedTypeVariable":
        """Return the same derived variable re-rooted at another base variable."""
        return DerivedTypeVariable(base, self.labels)

    # -- structure -------------------------------------------------------------

    @property
    def base_var(self) -> "DerivedTypeVariable":
        """The bare base variable (no labels)."""
        return DerivedTypeVariable(self.base)

    @property
    def is_base(self) -> bool:
        return not self.labels

    @property
    def last_label(self) -> Optional[Label]:
        return self.labels[-1] if self.labels else None

    @property
    def prefix(self) -> Optional["DerivedTypeVariable"]:
        """The derived variable with the final label removed (``None`` for a base)."""
        if not self.labels:
            return None
        return DerivedTypeVariable(self.base, self.labels[:-1])

    def prefixes(self) -> Iterator["DerivedTypeVariable"]:
        """All proper prefixes, shortest first (the base variable comes first)."""
        for i in range(len(self.labels)):
            yield DerivedTypeVariable(self.base, self.labels[:i])

    @property
    def variance(self) -> Variance:
        """Variance of the label word (Definition 3.2)."""
        return path_variance(self.labels)

    @property
    def depth(self) -> int:
        return len(self.labels)

    # -- display ---------------------------------------------------------------

    def __str__(self) -> str:
        cached = getattr(self, "_str", None)
        if cached is None:
            if not self.labels:
                cached = self.base
            else:
                cached = self.base + "." + ".".join(str(lab) for lab in self.labels)
            object.__setattr__(self, "_str", cached)
        return cached

    def __repr__(self) -> str:
        return f"DTV({str(self)!r})"


def parse_dtv(text: str) -> DerivedTypeVariable:
    """Parse ``"F.in_stack0.load.sigma32@4"`` into a :class:`DerivedTypeVariable`.

    The base variable is everything up to the first ``.`` that starts a valid
    label; this allows base names that themselves contain no dots.
    """
    text = text.strip()
    parts = text.split(".")
    base = parts[0]
    labels = []
    for part in parts[1:]:
        labels.append(parse_label(part))
    return DerivedTypeVariable(base, tuple(labels))
