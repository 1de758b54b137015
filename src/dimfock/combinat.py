"""Partitions, tuples of partitions, their statistics and partial orderings.

Conventions: a partition is a non-increasing sequence of positive integers;
trailing zeros are stripped, so (3, 2) == (3, 2, 0).  Boxes of the Young
diagram are addressed as (row i, column j), both starting at 1.  Arm and leg
lengths A(i,j) = lambda_i - j and L(i,j) = lambda'_j - i may be negative for
boxes outside the diagram.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, NamedTuple


class Partition:
    """Immutable integer partition."""

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        ps = tuple(int(p) for p in parts if p)
        if any(p < 0 for p in ps):
            raise ValueError("negative part in %r" % (parts,))
        if any(ps[i] < ps[i + 1] for i in range(len(ps) - 1)):
            raise ValueError("parts not non-increasing: %r" % (parts,))
        self.parts = ps

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def part(self, i: int) -> int:
        """i-th part (1-based); 0 outside the diagram."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def mult(self, k: int) -> int:
        """Number of parts equal to k."""
        return sum(1 for p in self.parts if p == k)

    def conjugate(self) -> "Partition":
        if not self.parts:
            return self
        return Partition(
            tuple(sum(1 for p in self.parts if p >= j) for j in range(1, self.parts[0] + 1))
        )

    def contains(self, other: "Partition") -> bool:
        """True iff the diagram of *other* fits inside this one."""
        return all(self.part(i) >= other.part(i) for i in range(1, other.length + 1))

    def add_box(self, row: int) -> "Partition":
        ps = list(self.parts) + [0]
        ps[row - 1] += 1
        return Partition(ps)

    def remove_box(self, row: int) -> "Partition":
        ps = list(self.parts)
        ps[row - 1] -= 1
        return Partition(ps)

    def cells(self) -> Iterator[tuple[int, int]]:
        for i, p in enumerate(self.parts, start=1):
            for j in range(1, p + 1):
                yield (i, j)

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return "Partition(%r)" % (self.parts,)


EMPTY = Partition(())


class PartitionTuple:
    """Ordered N-tuple of partitions."""

    __slots__ = ("components", "_hash")

    def __init__(self, components):
        comps = tuple(c if isinstance(c, Partition) else Partition(c) for c in components)
        if not comps:
            raise ValueError("need at least one component")
        self.components = comps
        # tuples key every state and operator column, so hash them once
        self._hash = hash(comps)

    @property
    def n_components(self) -> int:
        return len(self.components)

    @property
    def size(self) -> int:
        return sum(c.size for c in self.components)

    def sizes(self) -> tuple[int, ...]:
        return tuple(c.size for c in self.components)

    def __getitem__(self, i):
        return self.components[i]

    def __iter__(self):
        return iter(self.components)

    def __eq__(self, other):
        return isinstance(other, PartitionTuple) and self.components == other.components

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "PartitionTuple(%s)" % (", ".join(repr(c.parts) for c in self.components),)

    def replace(self, i: int, part: Partition) -> "PartitionTuple":
        comps = list(self.components)
        comps[i] = part
        return PartitionTuple(comps)

    def swap(self, i: int, j: int) -> "PartitionTuple":
        comps = list(self.components)
        comps[i], comps[j] = comps[j], comps[i]
        return PartitionTuple(comps)


class BoxCoord(NamedTuple):
    """Box (row, col) in component comp of a partition tuple; 1-based."""

    comp: int
    row: int
    col: int


def arm_leg(lam: Partition, i: int, j: int) -> tuple[int, int]:
    """Arm and leg lengths of box (i, j); negative outside the diagram."""
    if i < 1 or j < 1:
        raise ValueError("box coordinates are 1-based")
    return lam.part(i) - j, lam.conjugate().part(j) - i


def n_stat(lam: Partition) -> int:
    """n(lambda) = sum_i (i-1) * lambda_i."""
    return sum((i - 1) * p for i, p in enumerate(lam.parts, start=1))


def check_partition(lam: Partition) -> Partition:
    """Rows shortened by one box: the boxes whose arm length is nonzero."""
    return Partition(tuple(p - 1 for p in lam.parts if p > 1))


def stats(lam: Partition) -> tuple[int, Partition]:
    return n_stat(lam), check_partition(lam)


def b_factor(lam: Partition, x):
    """b_lambda(x) = prod_i prod_{k=1..m_i} (1 - x^k)."""
    res = Fraction(1)
    for size in set(lam.parts):
        for k in range(1, lam.mult(size) + 1):
            res = res * (1 - x**k)
    return res


def b_factor_neg(lam: Partition, x):
    """prod_i prod_{k=1..m_i} (-1 + x^k) = (-1)^len * b_lambda(x)."""
    b = b_factor(lam, x)
    return -b if lam.length % 2 else b


def b_factors(lam: Partition, x):
    return b_factor(lam, x), b_factor_neg(lam, x)


@lru_cache(maxsize=None)
def partitions(n: int, max_part: int | None = None) -> tuple[Partition, ...]:
    """All partitions of n, largest part first, in descending lex order."""
    if n < 0:
        return ()
    if max_part is None:
        max_part = n
    if n == 0:
        return (EMPTY,)
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions(n - first, first):
            out.append(Partition((first,) + rest.parts))
    return tuple(out)


def partition_count(n: int) -> int:
    return len(partitions(n))


def _tuple_sort_key(tup: PartitionTuple):
    # Canonical order: component sizes read last-to-first, descending lex,
    # ties broken by the part lists read the same way.  This is a linear
    # extension of the suffix-sum ordering on tuples.
    rev_sizes = tuple(-c.size for c in reversed(tup.components))
    rev_parts = tuple(tuple(-p for p in c.parts) for c in reversed(tup.components))
    return (rev_sizes, rev_parts)


@lru_cache(maxsize=None)
def enumerate_tuples(n_comp: int, n: int) -> tuple[PartitionTuple, ...]:
    """All N-tuples of partitions of total size n, in canonical order."""
    if n_comp < 1 or n < 0:
        raise ValueError("need N >= 1 and n >= 0")
    out = []
    for sizes in itertools.product(range(n + 1), repeat=n_comp):
        if sum(sizes) != n:
            continue
        for combo in itertools.product(*(partitions(s) for s in sizes)):
            out.append(PartitionTuple(combo))
    out.sort(key=_tuple_sort_key)
    return tuple(out)


def tuple_count(n_comp: int, n: int) -> int:
    """P^(N)(n): number of N-tuples of Young diagrams with n boxes total."""
    return len(enumerate_tuples(n_comp, n))


# ---------------------------------------------------------------------------
# Partial orderings


def dominance_le(mu: Partition, lam: Partition) -> bool:
    """mu <= lam in dominance order (same size required)."""
    if mu.size != lam.size:
        return False
    acc_l = acc_m = 0
    for i in range(1, max(mu.length, lam.length) + 1):
        acc_l += lam.part(i)
        acc_m += mu.part(i)
        if acc_m > acc_l:
            return False
    return True


def componentwise_le(mu: PartitionTuple, lam: PartitionTuple) -> bool:
    """Componentwise dominance with equal per-component sizes."""
    if mu.sizes() != lam.sizes():
        return False
    return all(dominance_le(m, l) for m, l in zip(mu, lam))


def star_lt(mu: PartitionTuple, lam: PartitionTuple) -> bool:
    """mu *< lam: suffix sums of |mu^(i)| never exceed those of lam, sizes differ."""
    if mu.size != lam.size or mu.n_components != lam.n_components:
        return False
    if mu.sizes() == lam.sizes():
        return False
    n = lam.n_components
    suf_l = suf_m = 0
    for k in range(n - 1, -1, -1):
        suf_l += lam[k].size
        suf_m += mu[k].size
        if suf_m > suf_l:
            return False
    return True


def star_refined_lt(mu: PartitionTuple, lam: PartitionTuple) -> bool:
    """Refinement of *< requiring a common-overpartition witness per slot.

    For each slot a there must exist a partition containing both lam^(a) and
    mu^(a) of size |lam^(a)| + sum_{b>a} (|lam^(b)| - |mu^(b)|); the minimal
    candidate is the rowwise maximum, so only its size needs checking.
    """
    if not star_lt(mu, lam):
        return False
    n = lam.n_components
    for a in range(n):
        target = lam[a].size + sum(lam[b].size - mu[b].size for b in range(a + 1, n))
        rows = max(lam[a].length, mu[a].length)
        rowmax = sum(max(lam[a].part(i), mu[a].part(i)) for i in range(1, rows + 1))
        if rowmax > target:
            return False
    return True


def _partial_sums_key(tup: PartitionTuple, j: int, i: int, reverse: bool) -> int:
    n = tup.n_components
    if reverse:
        outer = sum(tup[k].size for k in range(j - 1))
    else:
        outer = sum(tup[k].size for k in range(j, n))
    return outer + sum(tup[j - 1].part(k) for k in range(1, i + 1))


def l_order_le(mu: PartitionTuple, lam: PartitionTuple, reverse: bool = False) -> bool:
    """mu <=^L lam (or <=^R with reverse=True)."""
    if mu.size != lam.size or mu.n_components != lam.n_components:
        return False
    n = lam.n_components
    depth = max(max((c.length for c in lam), default=1), max((c.length for c in mu), default=1)) + 1
    for j in range(1, n + 1):
        for i in range(1, depth + 1):
            if _partial_sums_key(mu, j, i, reverse) > _partial_sums_key(lam, j, i, reverse):
                return False
    return True


_ORDERINGS = ("dominance", "star", "star_refined", "L", "R")


def compare(lam: PartitionTuple, mu: PartitionTuple, ordering: str) -> str:
    """Compare two tuples; returns 'less', 'greater', 'equal' or 'incomparable'."""
    if ordering not in _ORDERINGS:
        raise ValueError("unknown ordering %r" % ordering)
    if lam.n_components != mu.n_components or lam.size != mu.size:
        return "incomparable"
    if lam == mu:
        return "equal"
    if ordering == "dominance":
        ge, le = componentwise_le(mu, lam), componentwise_le(lam, mu)
    elif ordering == "star":
        ge, le = star_lt(mu, lam), star_lt(lam, mu)
    elif ordering == "star_refined":
        ge, le = star_refined_lt(mu, lam), star_refined_lt(lam, mu)
    else:
        rev = ordering == "R"
        ge = l_order_le(mu, lam, rev) and not l_order_le(lam, mu, rev)
        le = l_order_le(lam, mu, rev) and not l_order_le(mu, lam, rev)
    if ge:
        return "greater"
    if le:
        return "less"
    return "incomparable"


# ---------------------------------------------------------------------------
# Box edges


def addable_boxes(lam: Partition) -> list[tuple[int, int]]:
    out = []
    for i in range(1, lam.length + 2):
        if lam.part(i) < lam.part(i - 1) or i == 1:
            out.append((i, lam.part(i) + 1))
    return out


def removable_boxes(lam: Partition) -> list[tuple[int, int]]:
    out = []
    for i in range(1, lam.length + 1):
        if lam.part(i) > lam.part(i + 1):
            out.append((i, lam.part(i)))
    return out


def add_remove_sets(tup: PartitionTuple) -> tuple[list[BoxCoord], list[BoxCoord]]:
    """Addable and removable box coordinates of every component."""
    add, rem = [], []
    for c, lam in enumerate(tup.components, start=1):
        add.extend(BoxCoord(c, i, j) for i, j in addable_boxes(lam))
        rem.extend(BoxCoord(c, i, j) for i, j in removable_boxes(lam))
    return add, rem


def to_json(obj):
    """JSON form: partitions as arrays, tuples as arrays of arrays."""
    if isinstance(obj, Partition):
        return list(obj.parts)
    if isinstance(obj, PartitionTuple):
        return [list(c.parts) for c in obj.components]
    raise TypeError(type(obj))
