"""Machine-checkable structural symmetry audits and privacy oracles.

`check_structure` verifies the per-database counting contract of every
generator block against the closed-form repetition counts, plus peelability
of the whole block.  `demand_distribution_oracle` exhaustively enumerates all
session randomness on tiny instances and compares the exact per-database
distribution of canonical query keys across demand vectors.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, lru_cache, partial
from itertools import chain, combinations, count, permutations, product
from math import prod
from operator import itemgetter, sub as _minus

from .core import (
    Permutation,
    QueryBundle,
    atom_codes,
    atom_triple,
    canonical_form,
    canonical_view,
    code_subfile,
    collector_paused,
    file_refs,
)
from .errors import InvalidDimensionError, RegimeError, TooLargeInstanceError
from .params import h_value, phi, psi
from .protocol import (
    SessionTranscript,
    assemble_bundle,
    block_memo,
    generate_alg1,
    generate_alg2,
    generate_alg3,
    replay_bundle,
    rho_options,
)


@dataclass
class AuditReport:
    """Recorded symmetry tables plus a verdict derivable from them alone."""

    ok: bool
    failures: list
    type_tables: dict      # (user, db, fileset) -> count
    per_db_counts: tuple


def count_rate(bundle: QueryBundle) -> Fraction:
    """Measured rate: answer blocks downloaded over the bundle's blocks per
    file, K * sub."""
    return Fraction(bundle.total_queries(), bundle.K * bundle.sub)


# Copies of each k-subset type at database s, per generator kind.
_REPS = {
    "alg1": lambda S, N, s, k: phi(s, S, k),
    "qset1": lambda S, N, s, k: psi(s, S, N, k),
    "qset2": lambda S, N, s, k: k * phi(s, S, k),
}


def _slot_queries(bundle: QueryBundle):
    """Group queries by generator block (user), preserving order, over each
    of the S databases' (query, emission entry) pairs.  Returns the groups
    and a failure per fault of the pairing, by database: lists of different
    lengths, an entry, by position, that is no pair or has no int user (the
    local index is replay's to check), a missing list or one past S.  Every
    user of `bundle.slots` has a block, empty when none of its queries was
    emitted, so that a missing block fails its count tables."""
    S, per_db, emission = bundle.S, bundle.per_db, bundle.emission
    by_user = {user: [[] for _ in range(S)] for user in bundle.slots}
    failures = []
    for db0, (queries, order) in enumerate(zip(per_db[:S], emission)):
        if len(queries) != len(order):
            failures.append(f"db {db0 + 1}: {len(queries)} queries but "
                            f"{len(order)} emission entries")
        for pos, q, entry in zip(count(), queries, order):
            try:
                user, _ = entry
                blocks = by_user[user]
            except (TypeError, ValueError, KeyError) as fault:
                # an int user with no slot fails as an unknown kind; no pair,
                # or any other user, fails here
                if type(fault) is not KeyError or type(user) is not int:
                    failures.append(f"db {db0 + 1}: emission entry {pos} is {entry!r}, "
                                    "not a (user, local) pair with an int user")
                    continue
                blocks = by_user[user] = [[] for _ in range(S)]
            blocks[db0].append(q)
    failures += [f"db {db0 + 1}: no query list or no emission list"
                 for db0 in range(min(len(per_db), len(emission)), S)]
    failures += [f"db {db0 + 1}: past the bundle's {S} databases"
                 for db0 in range(S, max(len(per_db), len(emission)))]
    return by_user, failures


_atoms = itemgetter(0)    # a Query's atoms
_refs_of = itemgetter(1)  # a (db, references) sum's references


def _peel_closure(sums):
    """References resolvable from the sums, (db, frozenset of references),
    each reference one int, as `_check_counts` makes them.

    A sum with exactly one unknown reference resolves it.  Source rule: a
    sum resolves a reference whose removal leaves a sum sent whole by
    another database.  Returns (exposed, each unresolved sum's unknowns, in
    the order of `sums`).

    One pass peels the sums in order; smallest first, as `_check_counts`
    gives them, resolves every multi-user block.  The source rule starts at
    the first sum with two or more unknowns at its turn, since every
    earlier sum is known by then.  It looks among the sums of total t - r
    only: removing r from a sum of total t leaves that total, and one of
    them is that sum when it is one shorter and a subset.  Rounds over the
    unresolved sums then go on to the fixpoint.
    """
    exposed, pending = set(), []
    disjoint = exposed.isdisjoint
    for e, (_, refs) in enumerate(sums):
        unknown = refs if disjoint(refs) else refs - exposed
        if len(unknown) > 1:
            break
        exposed |= unknown
    else:
        return exposed, pending
    totals = list(map(sum, map(_refs_of, sums)))
    by_total = {}  # total -> [(database, references)]
    for s, t in zip(sums, totals):
        hit = by_total.get(t)
        if hit is None:
            by_total[t] = [s]
        else:
            hit.append(s)
    get, add = by_total.get, exposed.add
    for (db, refs), t in zip(sums[e:], totals[e:]):
        n = len(refs) - 1
        for r in refs:
            hit = get(t - r)
            if hit is not None:
                for other_db, other in hit:
                    if other_db != db and len(other) == n and other <= refs:
                        add(r)
                        break
        unknown = refs - exposed
        if len(unknown) == 1:
            exposed |= unknown
        elif unknown:
            pending.append(unknown)
    changed = not all(map(disjoint, pending))
    while changed:
        changed = False
        rest = []
        for unknown in pending:
            unknown = unknown - exposed
            if len(unknown) == 1:
                exposed |= unknown
                changed = True
            elif unknown:
                rest.append(unknown)
        pending = rest
    return exposed, pending


@lru_cache(maxsize=1 << 12)
def _classify(codes, wants, K, sub) -> tuple:
    """What a query's subfile codes (`core.atom_codes`) tell of it: (its
    fileset, the references it has when it passes, each atom's offset from
    its reference).  `wants[f - 1]` is file f's wanted slots, in order.  It
    can pass only when each file's atoms take exactly the file's wanted
    slots, and then it has one reference per file exactly when it passes:
    when each file's atoms share one subsubfile.  One that cannot pass
    wants -1 references.  Memoised: sessions of one shape see the same few
    tuples of codes."""
    by_file, offsets = {}, []
    for code in codes:
        f, j, offset = code_subfile(code, K, sub)
        by_file.setdefault(f, []).append(j)
        offsets.append(offset)
    fit = all(1 <= f <= len(wants) and tuple(sorted(js)) == wants[f - 1]
              for f, js in by_file.items())
    return (tuple(sorted(by_file)), len(by_file) if fit else -1,
            tuple(offsets) if any(offsets) else None)


def _check_counts(user, per_db, info, bundle, failures, tables):
    """Per database: every reference touches exactly its block's subfile
    slots, no sum repeats a file, and each k-subset type occurs as often as
    `_REPS` prescribes for the block's kind, with no other type.  So each
    file is referenced exactly sum_k C(N-1, k-1) * reps(s, k) times.  A
    reference is one int, the atom of its subsubfile at slot 1.

    A query is read through its atoms' subfile codes (`core.atom_codes`,
    made for a database at once).  What a tuple of codes tells
    (`_classify`) is worked out once per distinct tuple, and a query's
    references are its atoms less their offsets.  A query whose references
    do not number what its codes want fails a rule, and only then are its
    atoms regrouped by reference, from its codes, to name the fault.  An
    atom outside the store is named instead, with the store's size, and the
    block is checked no further: its tables would count subsubfiles that do
    not exist.  Returns None then, else the sums (database, frozenset of
    references), smallest first, and each database's reference sets."""
    S, N, K, sub = bundle.S, bundle.N, bundle.K, bundle.sub
    size = N * K * sub
    reps = partial(_REPS[info.kind], S, N)
    wants = tuple(tuple(sorted(info.subfiles(i))) for i in range(1, N + 1))
    typed = {}  # atom codes -> (fileset, references wanted, offsets)
    by_size, by_db, types, faults, outside = {}, [], {}, [], []
    for db0, queries in enumerate(per_db):
        refsets, filesets = [], []
        lists = list(map(_atoms, queries))
        codes = atom_codes(chain.from_iterable(lists), sub)
        stop = 0
        for atoms in lists:
            start, stop = stop, stop + len(atoms)
            key = codes[start:stop]
            hit = typed.get(key)
            if hit is None:
                hit = typed[key] = _classify(key, wants, K, sub)
            fileset, wanted, offsets = hit
            refs = frozenset(atoms if offsets is None else map(_minus, atoms, offsets))
            n = len(refs)
            if n != wanted:
                where = f"user {user} db {db0 + 1}"
                bad = [a for a in atoms if not 0 <= a < size]
                if bad:
                    outside += [f"{where}: atom {a} lies outside the store's {size} blocks"
                                for a in bad]
                    continue
                groups = {}  # reference -> (file, its slots)
                for a, code in zip(atoms, key):
                    f, j, offset = code_subfile(code, K, sub)
                    groups.setdefault(a - offset, (f, []))[1].append(j)
                files = [f for f, _ in groups.values()]
                for f, subfiles in groups.values():
                    subfiles = tuple(sorted(subfiles))
                    if subfiles != wants[f - 1]:
                        faults.append(f"{where}: reference to file {f} uses slots "
                                      f"{list(subfiles)}")
                if len(set(files)) != len(files):
                    faults.append(f"{where}: repeated file within one sum")
            refsets.append(refs)
            filesets.append(fileset)
            hold = by_size.get(n)
            if hold is None:
                by_size[n] = [(db0, refs)]
            else:
                hold.append((db0, refs))
        by_db.append(refsets)
        for fileset, n in Counter(filesets).items():
            types[(db0 + 1, fileset)] = n
    if outside:
        failures += outside
        return None
    failures += faults
    for k in range(1, N + 1):
        for s in range(1, S + 1):
            want = reps(s, k)
            for fileset in combinations(range(1, N + 1), k):
                have = types.pop((s, fileset), 0)
                tables[(user, s, fileset)] = have
                if have != want:
                    failures.append(
                        f"user {user}: db {s} holds {have} sums of type {fileset}, "
                        f"expected {want}"
                    )
    for key in types:
        failures.append(f"user {user}: unexpected sum type at {key}")
    sums = list(chain.from_iterable(by_size[n] for n in sorted(by_size)))
    return sums, by_db


def _file_subsub(r, bundle) -> tuple:
    """A reference's (file, subsub), for a failure message."""
    f, _, x = atom_triple(r, bundle.K, bundle.sub)
    return f, x


def _check_no_repeats(user, by_db, bundle, failures):
    """Single-user privacy: no reference repeats within a database.  The
    repeats of a database are named in (file, subsub) order."""
    for db0, refsets in enumerate(by_db):
        if sum(map(len, refsets)) != len(frozenset().union(*refsets)):
            counts = Counter(chain.from_iterable(refsets))
            failures.extend(f"user {user} db {db0 + 1}: reference {_file_subsub(r, bundle)} "
                            f"appears {n} times" for r, n in sorted(counts.items()) if n > 1)


def _wanted_counts(info, bundle) -> dict:
    """file -> n: a block's peeling must expose subsubfiles 1..n of the
    file: every subsubfile of the demand for alg1, every one but the
    demand's tail (past H) for qset1, every one of every file for qset2."""
    S, N, sub = bundle.S, bundle.N, bundle.sub
    if info.kind == "alg1":
        return {info.demand: sub}
    return {i: h_value(S, N) if i == info.demand else sub for i in range(1, N + 1)}


def _check_peel_exposure(user, sums, info, bundle, failures):
    """Peeling: every sum with a reference to a file `_wanted_counts` names
    resolves it, and each such file exposes exactly its wanted subsubfiles."""
    K, sub = bundle.K, bundle.sub
    want = {}  # file -> (its wanted references, all its references)
    for i, n in _wanted_counts(info, bundle).items():
        every = file_refs(i, K, sub)
        want[i] = frozenset(every[:n]), frozenset(every)
    touched = frozenset().union(*(every for _, every in want.values()))
    exposed, unknowns = _peel_closure(sums)
    unresolved = len(unknowns) - sum(map(touched.isdisjoint, unknowns))
    if unresolved:
        failures.append(f"user {user}: {unresolved} sums cannot be peeled")
    for i, (refs, every) in sorted(want.items()):
        got = exposed & every
        if got != refs:
            failures.append(
                f"user {user}: file {i} exposes "
                f"{sorted(_file_subsub(r, bundle)[1] for r in got)}, "
                f"expected {sorted(_file_subsub(r, bundle)[1] for r in refs)}"
            )


def check_structure(bundle: QueryBundle) -> AuditReport:
    """Verify repetition tables, no-repeat/pairing rules and peelability,
    each generator block against the tables for its own kind, in the
    bundle's own shape (S, N, K).  A database whose queries and emission
    entries do not pair up, or a bad entry, fails by name (`_slot_queries`)."""
    (by_user, failures), tables = _slot_queries(bundle), {}
    for user, per_db in sorted(by_user.items()):
        info = bundle.slots.get(user)
        kind = info.kind if info else None
        if kind not in _REPS:
            failures.append(f"user {user}: unknown generator kind {kind!r}")
            continue
        counted = _check_counts(user, per_db, info, bundle, failures, tables)
        if counted is None:
            continue
        sums, by_db = counted
        if kind == "alg1":
            _check_no_repeats(user, by_db, bundle, failures)
        _check_peel_exposure(user, sums, info, bundle, failures)
    return AuditReport(
        ok=not failures,
        failures=failures,
        type_tables=tables,
        per_db_counts=bundle.counts(),
    )


def verify_replay(bundle: QueryBundle, transcript: SessionTranscript) -> bool:
    """True iff the bundle has the transcript's shape (S, N, K), each
    database's emission order names every record of the transcript exactly
    once and each query equals its record's replay."""
    shape = (transcript.S, transcript.N, transcript.K)
    if (bundle.S, bundle.N, bundle.K) != shape or len(bundle.emission) != transcript.S:
        return False
    try:
        for db0, order in enumerate(bundle.emission):
            if sorted(order) != transcript.record_keys(db0):
                return False
        replayed = replay_bundle(transcript, bundle.emission)
    except TypeError:  # an entry that is no (user, local) pair of ints
        return False
    return replayed.per_db == bundle.per_db


@dataclass
class OracleReport:
    """Outcome of an exhaustive distribution-equality enumeration."""

    equal: bool
    scheme: str
    K: int
    assignments: int
    mismatch: str = None
    distributions: dict = field(default_factory=dict)  # demand -> per-db Counter


def _perms(n, H):
    """Every permutation of [n] fixing positions H+1..n (all of them when H = n)."""
    tail = tuple(range(H + 1, n + 1))
    return [Permutation(head + tail) for head in permutations(range(1, H + 1))]


def _compare_distributions(dists, S):
    """(True, None) when every demand's per-database counters equal the
    first demand's, else False and the first database that differs.  The
    counters are compared as dicts, at C level: none holds a count <= 0, so
    Counter's equality (a missing key counts as 0) is dict equality."""
    demands = sorted(dists)
    ref = dists[demands[0]]
    for d in demands[1:]:
        for s in range(S):
            if not dict.__eq__(dists[d][s], ref[s]):
                return False, f"database {s + 1}: demand {demands[0]} vs {d} differ"
    return True, None


def _count_branch(generate, per_user, first, views, keys, memo) -> tuple:
    """One branch's multiset of user views, cross-checked against its bundle.

    A branch fixes everything but the users' per-file permutations:
    `per_user[c - 1]` is user c's option list, which draws the tails on the
    slot's demanded file and is free on every other file (all free for a
    qset2 slot, which has no demand).  A user's queries depend only on its
    own permutations, its slot record and its schedule, so its view is
    labelled by its `SlotInfo`, and `views` caches, for the whole walk, each
    label's per-database canonical lists: per database, the distinct lists
    with their multiplicities, plus the first option's lists.
    `generate(first)` runs once, on the first assignment (every user's first
    option), for its validation and its transcript, and `assemble_bundle`
    builds that assignment's bundle, which cross-checks its factored key.
    The bundle and the label views take their blocks from the walk's `memo`
    (a `protocol.block_memo`), keyed by exactly the schedule, permutations
    and slot each block is built from, so a branch's blocks are the ones its
    labels' first options built, and a branch whose inputs differ from its
    labels' is materialised for real and fails the cross-check.  The factored key, per database the sorted
    union of the labels' first lists, depends on the sorted labels alone, so
    `keys` holds it per multiset for the walk.  Nothing is expanded here: the
    branch's distribution is a function of its labels alone, which
    `_expand_views` turns into keys once per distinct multiset.
    Returns the sorted tuple of the users' labels.
    """
    transcript = generate(first)
    bundle = assemble_bundle(transcript, memo=memo)
    labels = []
    for c, opts in enumerate(per_user, start=1):
        info = transcript.slots[c]
        if info not in views:
            block = partial(memo, transcript.records[c], info=info, K=transcript.K)
            lists = [list(map(canonical_view, block(dict(enumerate(opt, start=1)))))
                     for opt in opts]
            views[info] = (lists[0], [tuple(Counter(col).items()) for col in zip(*lists)])
        labels.append(info)
    # labels of one kind leave the same fields None, so they sort
    multiset = tuple(sorted(labels))
    key = keys.get(multiset)
    if key is None:
        key = keys[multiset] = tuple(
            tuple(sorted(chain.from_iterable(lists)))
            for lists in zip(*(views[label][0] for label in multiset)))
    if key != canonical_form(bundle):
        slots = tuple(transcript.slots[c].subfile for c in sorted(transcript.slots))
        raise RuntimeError(
            f"factored oracle key differs from the generated bundle's "
            f"(demand {transcript.demand}, slots {slots})"
        )
    return multiset


def _expand_views(multiset, views, S, index) -> list:
    """Per database, the key counts of one multiset of user labels over all
    its assignments.  The oracle compares per-database marginals, so each
    database is counted on its own: a key is the sorted union of one distinct
    list per user, weighted by the product of their multiplicities.

    A key is a nested tuple, whose hash CPython recomputes on every dict
    operation, so each is hashed once here: `index` numbers the distinct
    keys of the whole walk, and the counts are keyed by those numbers."""
    counters = []
    for s in range(S):
        counter = {}
        get = counter.get
        for combo in product(*(views[label][1][s] for label in multiset)):
            lists, counts = zip(*combo)
            i = index.setdefault(tuple(sorted(chain.from_iterable(lists))), len(index))
            counter[i] = get(i, 0) + prod(counts)
        counters.append(counter)
    return counters


def _capped_factorial(n: int, guard: int) -> int:
    """n!, or guard + 1 once the product passes guard, so comparisons with
    guard stay exact without building a huge n!."""
    out = 1
    for k in range(2, n + 1):
        out *= k
        if out > guard:
            return guard + 1
    return out


def _covering_demands(N: int, K: int, prefix=()):
    """Every demand vector in [N]^K naming each file, in lexicographic order;
    a prefix is dropped as soon as its remaining users cannot cover the files
    it misses."""
    if len(prefix) == K:
        yield prefix
        return
    for f in range(1, N + 1):
        t = prefix + (f,)
        if N - len(set(t)) <= K - len(t):
            yield from _covering_demands(N, K, t)


ORACLE_GUARD = 10_000_000


def demand_distribution_oracle(S: int, N: int, K: int = None, *, scheme: str,
                               guard: int = ORACLE_GUARD) -> OracleReport:
    """Enumerate all admissible randomness and compare, per database, the
    exact distribution of canonical query keys across demand vectors.
    K defaults to N for `mupir`; `single` has K = 1 and refuses any other.

    Both schemes take one walk over branches (demands theta, base set, P,
    rho).  `single` is one base user (K = 1) whose demanded file draws any
    permutation (H = S^(N-1)), with theta = (d,).  `mupir` walks the covering
    demand vectors (for N = K the permutations), every base set covering the
    files, and for N < K every non-base user's `rho_options`.  Sessions draw
    only the lowest-index user per file as the base set
    (`choose_base_and_rho`), so an N < K verdict describes a variant of the
    scheme whose base set is uniform over the covering ones.  The branches
    are walked lazily and their assignments summed, into the report's
    `assignments`; the oracle refuses at the first branch that takes the sum
    past `guard`, before any permutation is built; a negative guard is
    refused before any branch is walked.  `_count_branch` reduces
    each branch to its multiset of user view labels, which each theta weighs
    by its number of branches; after the walk `_expand_views` expands each
    distinct multiset once, across branches and thetas, and each theta's
    distribution is the weighted sum of its multisets' expansions.  The walk
    holds one `protocol.block_memo`, made here and dropped on return: every
    block it builds, for a label's views or a branch's bundle, is
    materialised once per distinct (schedule, permutations, slot).
    """
    with collector_paused():
        if S < 2 or N < 2:
            raise InvalidDimensionError(f"the oracle needs S >= 2 and N >= 2, got S={S}, N={N}")
        if guard < 0:
            raise ValueError(f"the oracle guard must be >= 0, got {guard}")
        sub = S ** (N - 1)
        if scheme == "single":
            if K not in (None, 1):
                raise RegimeError(f"the single-user oracle has K = 1, got {K}")
            K, H, n_base = 1, sub, 1
            thetas = [(d,) for d in range(1, N + 1)]
        elif scheme != "mupir":
            raise ValueError(f"unknown scheme {scheme!r}")
        else:
            K = N if K is None else K
            if N > K:
                raise RegimeError(f"mupir oracle needs K>=N, got N={N}, K={K}")
            H, n_base = h_value(S, N), N
            thetas = _covering_demands(N, K)
        users = range(1, K + 1)

        def branches():
            """(theta, base set, non-base users, their rho options), lazily."""
            for theta in thetas:
                for base in combinations(users, n_base):
                    if {theta[b - 1] for b in base} == set(theta):
                        nonbase = [c for c in users if c not in base]
                        yield theta, base, nonbase, [rho_options(theta, base, c) for c in nonbase]

        # every branch: K! slot maps, H! sub!^(N-1) options per base user and
        # sub!^N per non-base user, times its rho choices
        fact = partial(_capped_factorial, guard=guard)
        per_branch = (fact(K) * (fact(H) * fact(sub) ** (N - 1)) ** n_base
                      * fact(sub) ** (N * (K - n_base)))
        walked, n = [], 0
        for branch in branches():
            n += per_branch * prod(len(opts) for opts in branch[3])
            if n > guard:
                raise TooLargeInstanceError(f"{scheme} oracle needs more than {guard} assignments")
            walked.append(branch)

        def generator(theta, P, base, rho):
            if scheme == "single":
                return lambda perms: generate_alg1(S, N, perms[1], theta[0])
            if N == K:
                return partial(generate_alg2, S, N, K, theta, P)
            return partial(generate_alg3, S, N, K, theta, P, base, rho)

        free, tails, slot_maps = _perms(sub, sub), _perms(sub, H), _perms(K, K)

        @cache
        def options(t):
            """A user's options: the tails on file t, every other file free
            (all of them when t is None)."""
            return list(product(*(tails if i == t else free for i in range(1, N + 1))))

        dists, drawn, views, keys, memo = {}, {}, {}, {}, block_memo()
        for theta, base, nonbase, rho_lists in walked:
            if theta not in dists:
                dists[theta] = [{} for _ in range(S)]
            per_user = [options(theta[c - 1] if c in base else None) for c in users]
            first = {c: dict(enumerate(opts[0], start=1))
                     for c, opts in enumerate(per_user, start=1)}
            for P in slot_maps:
                for rho_pick in product(*rho_lists):
                    generate = generator(theta, P, base, dict(zip(nonbase, rho_pick)))
                    multiset = _count_branch(generate, per_user, first, views, keys, memo)
                    weights = drawn.get(multiset)
                    if weights is None:
                        weights = drawn[multiset] = {}
                    weights[theta] = weights.get(theta, 0) + 1
        # each distinct multiset is expanded once, then added to every theta
        # drawing it, weighted by its number of branches there
        index = {}
        for multiset, weights in drawn.items():
            for s, part in enumerate(_expand_views(multiset, views, S, index)):
                for theta, w in weights.items():
                    counter = dists[theta][s]
                    get = counter.get
                    for i, m in part.items():
                        counter[i] = get(i, 0) + w * m
        # the counts, keyed by the keys themselves (a key's number is its
        # position); for N < K, divided by the theta's total, with one Fraction
        # per distinct (count, total): a few values recur over many keys, and
        # shared equal values compare by identity
        keys = list(index)
        frac = cache(Fraction)
        for theta, counters in dists.items():
            total = sum(counters[0].values())
            for s, c in enumerate(counters):
                values = c.values()
                if N < K:
                    shared = {v: frac(v, total) for v in set(values)}
                    values = map(shared.__getitem__, values)
                counters[s] = Counter(dict(zip(map(keys.__getitem__, c), values)))
        if scheme == "single":
            dists = {theta[0]: counters for theta, counters in dists.items()}
        equal, mismatch = _compare_distributions(dists, S)
        return OracleReport(equal=equal, scheme=scheme, K=K, assignments=n,
                            mismatch=mismatch, distributions=dists)
