"""GF(2) cross-check of a session's decoded blocks, independent of its
decoding plan.

Equations are XOR constraints over unknown subsubfiles, one column per atom:
each answer is the XOR of its query's atoms, and each cache line of a user
the XOR of every file's subsubfile at one position of that user's slot.
`cross_check` reads only those (the bundle's shape and atoms, the answers
and the cache lines), never the peeling plan or its symbols, and re-derives
every decoded block once per session, cheapest first (inactivation
decoding: peel, then eliminate only what is left):

1. Peel the answers: an answer equation with one unknown left fixes it.  The
   value is checked against every user who demands that file, and from then
   on the decoder's own block stands for it, so no second copy of a block
   is kept.
2. Each user peels on, by the same routine, from a copy of that state with
   its own cache rows: what it finds is checked only against its blocks.
3. Pairs: a target still unknown is fixed by two answer rows whose atom
   multisets differ by exactly its column, as the XOR of their answers, and
   checked as a peeled value is.  The pairs are found from the atoms alone:
   in a single-user block they are a query and the query one reference
   shorter that another database answered, and they fix every target
   peeling leaves.  A user's targets are tried in order up to the first
   with no pair, so where there are none (the multi-user blocks' core) the
   step costs one failed search per user.
4. A target still unknown lies in the core: every row peeling left, with
   every known block substituted, and the cache rows of the users that
   still have a target.  Its answer rows are brought once, for all users,
   to a forward echelon form whose rows carry their blocks; each user adds
   its cache rows to a copy, and a target's value is what its unit vector
   reduces to.  At N = K nothing is left for steps 3 and 4.
"""
from __future__ import annotations

from .core import atom, atom_triple
from .errors import UnresolvablePlanError


def _insert(echelon: dict, mask: int, block: int) -> None:
    """Add a (mask, block) row to a forward echelon {top bit: row}, whose
    rows have distinct top bits: cancel its top bit against the row there
    until a free top bit takes it.  A dependent row reduces to zero and is
    dropped."""
    while mask:
        top = mask.bit_length() - 1
        row = echelon.get(top)
        if row is None:
            echelon[top] = (mask, block)
            return
        mask ^= row[0]
        block ^= row[1]


def _express(echelon: dict, mask: int):
    """The XOR of the blocks of the rows XORing to `mask`, or None when
    `mask` is not in their span: greedy reduction by top bit is exact in
    echelon form."""
    block = 0
    while mask:
        row = echelon.get(mask.bit_length() - 1)
        if row is None:
            return None
        mask ^= row[0]
        block ^= row[1]
    return block


def _echelon(masks, values) -> dict:
    """The forward echelon of the rows (masks[e], values[e])."""
    rows = {}
    # sparsest first: least fill-in, so each target's reduction chain is short
    for e in sorted(range(len(masks)), key=lambda e: masks[e].bit_count()):
        _insert(rows, masks[e], values[e])
    return rows


def _disagree(ijx):
    return UnresolvablePlanError("peeling and GF(2) oracle disagree at ({},{},{})".format(*ijx))


def _undetermined(ijx):
    return UnresolvablePlanError(
        "oracle: subsubfile ({},{},{}) undetermined from answers+cache".format(*ijx))


def _peel(stack, deg, value, n_answers, lo, hi, rows, holders, vals, K, sub, by_file):
    """Peel from the equations on `stack`, in place: an equation with one
    unknown column left fixes it.  The value is compared with each decoded
    block listed under its file in `by_file`, which then stands for it.
    Only answer equations and equations in [lo, hi) are pushed."""
    while stack:
        e = stack.pop()
        if deg[e] != 1:
            continue
        v = vals[e]
        for c2 in rows[e]:
            w = value[c2]
            if w is None:
                c = c2
            else:
                v ^= w
        i, j, x = named = atom_triple(c, K, sub)
        for decoded in by_file.get(i, ()):
            w = decoded.get((j, x))
            if w is not None:
                if w != v:
                    raise _disagree(named)
                v = w
        value[c] = v
        for e2 in holders[c]:
            deg[e2] -= 1
            if deg[e2] == 1 and (e2 < n_answers or lo <= e2 < hi):
                stack.append(e2)


def _pair(c, rows, holders, vals, n_answers):
    """Column c's value from two answer rows whose atom multisets differ by
    exactly c, the XOR of their answers; None when no two rows do.  The
    shorter row holds every other atom of the longer, so it is sought only
    among the rows holding one of them."""
    for e in holders[c]:
        if e >= n_answers:  # an equation's holders are in order, answers first
            return None
        row = rows[e]
        if len(row) < 2:
            continue
        want = sorted(row)
        want.remove(c)
        a, n = want[0], len(want)
        for e2 in holders[a]:
            if e2 >= n_answers:
                break
            if len(rows[e2]) == n and sorted(rows[e2]) == want:
                return vals[e] ^ vals[e2]
    return None


def cross_check(bundle, answers, users) -> None:
    """Re-derive every decoded block from the equations alone and compare.

    The atoms are those of the bundle's store: `bundle.N` files of
    `bundle.K` subfiles of `bundle.sub` subsubfiles.  `users` maps each user
    to (its demanded file i, its decoded blocks {(subfile j, x): block}, its
    cache rows [(atoms, block)]); the targets are the atoms of its decoded
    blocks.  Raises UnresolvablePlanError at the first target the equations
    do not determine, or whose value differs from the decoded block.

    On answers that are not those of one store, the equations disagree
    among themselves, and the value found depends on the rows that found
    it.  A pair is the two answers the single-user decoder XORs for the
    same block, so a corrupted answer there gives the same wrong value in
    both and passes this check: a session's comparison with the store is
    what catches it.
    """
    K, sub = bundle.K, bundle.sub
    columns = bundle.N * K * sub  # one column per atom
    # equations: the answers in bundle order, then each user's cache rows
    rows = [q.atoms for queries in bundle.per_db for q in queries]
    vals = [block for row in answers for block in row]
    n_answers = len(vals)
    span = {}          # user -> its cache rows' equation range
    by_file = {}       # file -> decoded blocks of every user demanding it
    for u, (i, decoded, cache_rows) in users.items():
        span[u] = (len(vals), len(vals) + len(cache_rows))
        for atoms, block in cache_rows:
            rows.append(atoms)
            vals.append(block)
        by_file.setdefault(i, []).append(decoded)
    # an atom twice in one equation is held twice; every step below counts
    # or XORs it twice, so the two cancel as they should
    holders = [[] for _ in range(columns)]  # column -> the equations that hold it
    for e, atoms in enumerate(rows):
        for c in atoms:
            holders[c].append(e)
    # a column's value once known: the decoder's own block where it has one
    value = [None] * columns

    # 1. peel the answers; `deg` counts each equation's unknown columns
    deg = list(map(len, rows))
    stack = [e for e in range(n_answers) if deg[e] == 1]
    _peel(stack, deg, value, n_answers, n_answers, n_answers, rows, holders, vals, K, sub,
          by_file)

    # 2. each user peels on with its own cache rows, on a copy; its targets
    # still unknown go to the core
    core = {}          # user -> (column, its decoded block's key) of its targets left
    for u, (d, decoded, _) in users.items():
        lo, hi = span[u]
        mine = value.copy()
        stack = [e for e in range(lo, hi) if deg[e] == 1]
        _peel(stack, deg.copy(), mine, n_answers, lo, hi, rows, holders, vals, K, sub,
              {d: [decoded]})
        cols = []
        for jx in decoded:
            j, x = jx
            c = atom(d, j, x, K, sub)
            if not holders[c]:
                raise _undetermined((d, j, x))
            if mine[c] is None:
                cols.append((c, jx))
        if cols:
            core[u] = cols

    # 3. pairs; a user's targets from its first with no pair go to the core
    for u, cols in list(core.items()):
        decoded = users[u][1]
        for n, (c, jx) in enumerate(cols):
            v = _pair(c, rows, holders, vals, n_answers)
            if v is None:
                core[u] = cols[n:]
                break
            if decoded[jx] != v:
                raise _disagree(atom_triple(c, K, sub))
        else:
            del core[u]

    # 4. the core: every row peeling left, with each known column
    # substituted, and the cache rows of only the users with a target there.
    # One pass numbers the unknown columns as first met; it takes the rows
    # last to first, cache rows before answer rows, which measured the
    # fewest row operations in the elimination.
    if not core:
        return
    bit = {}                    # unknown column -> its bit in the core
    masks, values = [], []      # the core's answer rows
    extra = {}                  # user -> its cache rows there, as (mask, block)
    spans = [(u, range(*span[u])) for u in reversed(span) if u in core]
    for u, todo in spans + [(None, range(n_answers))]:
        for e in reversed(todo):
            if not deg[e]:
                continue
            mask, v = 0, vals[e]
            for c in rows[e]:
                w = value[c]
                if w is None:
                    mask ^= 1 << bit.setdefault(c, len(bit))
                else:
                    v ^= w
            if u is None:
                masks.append(mask)
                values.append(v)
            else:
                extra.setdefault(u, []).append((mask, v))

    # reduce the core once; each user adds its own cache rows to a copy,
    # so one user's cache never determines another user's block
    shared = _echelon(masks, values)
    for u, cols in core.items():
        echelon = shared
        if u in extra:
            echelon = dict(shared)
            for mask, v in extra[u]:
                _insert(echelon, mask, v)
        # name an undetermined target before a disagreeing one
        decoded = users[u][1]
        wrong = None
        for c, jx in cols:
            # a column in no row the core took has no bit
            b = bit.get(c)
            v = None if b is None else _express(echelon, 1 << b)
            if v is None:
                raise _undetermined(atom_triple(c, K, sub))
            if wrong is None and decoded[jx] != v:
                wrong = c
        if wrong is not None:
            raise _disagree(atom_triple(wrong, K, sub))
