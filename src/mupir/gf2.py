"""GF(2) linear solver used as an independent decoding oracle.

Equations are XOR constraints over unknown blocks: a row is a bitmask over
unknown indices.  Elimination is value-free: instead of a block, each row
carries the bitmask of the equations it is the XOR of.  A session's answer
rows are reduced once; each user then reduces only its own few cache rows
against them.  Blocks are touched only at the end: a determined unknown's
value is the XOR of the blocks its combination names.
"""
from __future__ import annotations

from functools import cached_property

from .errors import UnresolvablePlanError


def _reduce(mask: int, comb: int, rows: dict, pivots: int):
    """Clear from mask every pivot of `pivots` it has set, XORing in the
    reduced row at that pivot; rows hold no other row's pivot, so one pass
    over the set bits, lowest first, suffices."""
    hit = mask & pivots
    while hit:
        low = hit & -hit
        row = rows[low.bit_length() - 1]
        mask ^= row[0]
        comb ^= row[1]
        hit ^= low
    return mask, comb


def _rref(rows):
    """Reduced echelon form of (mask, combination) rows.

    Returns ({pivot: row}, mask of the pivots).  Each pivot is its row's
    highest bit, and no row has another row's pivot set.  Zero rows
    (dependent equations) are dropped.
    """
    echelon = {}
    for mask, comb in rows:
        while mask:
            top = mask.bit_length() - 1
            row = echelon.get(top)
            if row is None:
                echelon[top] = (mask, comb)
                break
            mask ^= row[0]
            comb ^= row[1]
    pivots = 0
    for p in echelon:
        pivots |= 1 << p
    reduced = {}
    # a row's other pivots are all below its own, and rows with lower
    # pivots are reduced first
    for p in sorted(echelon):
        reduced[p] = _reduce(*echelon[p], reduced, pivots & ~(1 << p))
    return reduced, pivots


class Reduction:
    """Value-free reduced echelon form of a list of XOR equations.

    Equation e is `masks[e]`; a combination is a bitmask over equation
    indices, and the XOR of the named equations' values is the value of the
    row it belongs to.
    """

    def __init__(self, masks):
        self.size = len(masks)
        self._rows, self._pivots = _rref((m, 1 << e) for e, m in enumerate(masks))

    def combinations(self, targets, extra=()) -> list:
        """For each target unknown, the combination of equations equal to it,
        or None when the equations do not determine it.

        `extra` masks are further equations numbered from `size` on.  They
        are reduced against the shared rows, which leaves them on free
        columns only, and then among themselves.  A target is determined
        exactly when its unit vector reduces to zero against both, so a
        target fixed only by a sum of several extra rows is found too.
        """
        shared, pivots = self._rows, self._pivots
        small, small_pivots = _rref(
            _reduce(mask, 1 << (self.size + n), shared, pivots)
            for n, mask in enumerate(extra))
        out = []
        for t in targets:
            mask, comb = _reduce(*_reduce(1 << t, 0, shared, pivots), small, small_pivots)
            out.append(None if mask else comb)
        return out


class AnswerSystem:
    """One session's answers as XOR equations over its subsubfiles.

    Nothing is computed when it is made.  The first `solve` reduces the
    answer rows; every later call, one per user, reuses that reduction.
    """

    def __init__(self, bundle, answers, K: int, sub: int):
        self.bundle, self.answers, self.K, self.sub = bundle, answers, K, sub

    def column(self, i: int, j: int, x: int) -> int:
        """Unknown index of subsubfile x of subfile j of file i."""
        return ((i - 1) * self.K + (j - 1)) * self.sub + (x - 1)

    @cached_property
    def reduction(self) -> Reduction:
        K, sub = self.K, self.sub
        masks = []
        for queries in self.bundle.per_db:
            for q in queries:
                mask = 0
                for i, j, x in q.atoms:
                    mask ^= 1 << (((i - 1) * K + j - 1) * sub + x - 1)  # column(i, j, x)
                masks.append(mask)
        return Reduction(masks)

    def solve(self, targets, extra=()):
        """Yield (target, block) for every target (i, j, x), determined by the
        answers plus `extra` (mask, block) equations such as one user's cache
        lines.

        Raises UnresolvablePlanError if any target is undetermined.
        """
        extra = list(extra)
        combs = self.reduction.combinations(
            [self.column(*t) for t in targets], [m for m, _ in extra])
        for (i, j, x), comb in zip(targets, combs):
            if comb is None:
                raise UnresolvablePlanError(
                    f"oracle: subsubfile ({i},{j},{x}) undetermined from answers+cache")
        blocks = [b for row in self.answers for b in row] + [b for _, b in extra]
        for t, comb in zip(targets, combs):
            acc = 0
            while comb:
                low = comb & -comb
                acc ^= blocks[low.bit_length() - 1]
                comb ^= low
            yield t, acc
