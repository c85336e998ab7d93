"""GF(2) linear solver used as an independent decoding oracle.

Equations are XOR constraints over unknown blocks: a row is a bitmask over
unknown indices.  Elimination is value-free: instead of a block, each row
carries the bitmask of the equations it is the XOR of.  A session's answer
rows are brought to forward echelon form once; each user then inserts only
its own few cache rows into a copy of it.  Blocks are touched only at the
end: a determined unknown's value is the XOR of the blocks its combination
names.
"""
from __future__ import annotations

from functools import cached_property

from .errors import UnresolvablePlanError


def _insert(echelon: dict, mask: int, comb: int) -> None:
    """Add a (mask, combination) row to a forward echelon {top bit: row},
    whose rows have distinct top bits: cancel its top bit against the row
    there until a free top bit takes it.  A dependent row reduces to zero
    and is dropped."""
    while mask:
        top = mask.bit_length() - 1
        row = echelon.get(top)
        if row is None:
            echelon[top] = (mask, comb)
            return
        mask ^= row[0]
        comb ^= row[1]


def _express(echelon: dict, mask: int):
    """The combination of rows XORing to `mask`, or None when `mask` is not
    in their span: greedy reduction by top bit is exact in echelon form."""
    comb = 0
    while mask:
        row = echelon.get(mask.bit_length() - 1)
        if row is None:
            return None
        mask ^= row[0]
        comb ^= row[1]
    return comb


class Reduction:
    """Value-free forward echelon form of a list of XOR equations.

    Equation e is `masks[e]`; a combination is a bitmask over equation
    indices, and the XOR of the named equations' values is the value of the
    row it belongs to.
    """

    def __init__(self, masks):
        self.size = len(masks)
        self._rows = {}
        # sparsest first: least fill-in, so each target's reduction chain is short
        for e in sorted(range(self.size), key=lambda e: masks[e].bit_count()):
            _insert(self._rows, masks[e], 1 << e)

    def combinations(self, targets, extra=()) -> list:
        """For each target unknown, the combination of equations equal to it,
        or None when the equations do not determine it.

        `extra` masks are further equations numbered from `size` on.  They
        go into a shallow copy of the shared rows, so the shared rows are
        left as they were.  A target is determined exactly when its unit
        vector lies in the span of both, so a target fixed only by a sum of
        several extra rows is found too.
        """
        rows = self._rows
        if extra:
            rows = dict(rows)
            for n, mask in enumerate(extra, self.size):
                _insert(rows, mask, 1 << n)
        return [_express(rows, 1 << t) for t in targets]


class AnswerSystem:
    """One session's answers as XOR equations over its subsubfiles.

    Nothing is computed when it is made.  The first `solve` brings the
    answer rows to echelon form; every later call, one per user, reuses it.
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
            low = comb & -comb  # a combination names at least one block
            acc = blocks[low.bit_length() - 1]
            comb ^= low
            while comb:
                low = comb & -comb
                acc ^= blocks[low.bit_length() - 1]
                comb ^= low
            yield t, acc
