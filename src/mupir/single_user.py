"""Single-user retrieval with subpacketization S^(N-1).

Query construction works in rounds of growing sum size k.  Database 1 seeds
one singleton per file; afterwards each database turns every demand-free
(k-1)-sum held by the other databases into a k-sum by adding one fresh
demand reference, then pads with fresh demand-free k-sums until every
k-subset of files appears its prescribed number of times.  Decoding peels:
each demand-bearing query differs from an already-answered query by exactly
one reference.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Optional

from .core import (
    Provenance,
    Query,
    QueryAtom,
    QueryBundle,
    SlotInfo,
)
from .errors import DemandError, UnresolvablePlanError
from .gf2 import AnswerSystem
from .params import phi
from .protocol import SessionTranscript


@dataclass(frozen=True)
class PirQuery:
    """One scheduled query: file -> permutation position, plus peel linkage.
    Schedules are cached and shared across sessions, hence frozen."""

    db: int
    k: int
    kind: str          # "seed" | "peel" | "fill"
    pos_map: tuple     # ((file, pos), ...) sorted by file
    source: Optional[tuple]  # (db, index) of the consumed smaller query
    fresh_pos: Optional[int]  # demand position resolved by this query

    @property
    def files(self) -> tuple:
        return tuple(f for f, _ in self.pos_map)


@lru_cache(maxsize=None)
def _alg1_schedule(S: int, N: int, d: int):
    """Position-level schedule for demand d: per database, a tuple of
    PirQuery in insertion order."""
    if not 1 <= d <= N:
        raise DemandError(f"demand {d} outside [1,{N}]")
    per_db = [[] for _ in range(S)]
    if N == 1:
        per_db[0].append(
            PirQuery(db=1, k=1, kind="seed", pos_map=((1, 1),), source=None, fresh_pos=1)
        )
        return tuple(tuple(db) for db in per_db)
    t = [0] * (N + 1)
    for i in range(1, N + 1):
        t[i] = 1
        per_db[0].append(
            PirQuery(db=1, k=1, kind="seed", pos_map=((i, 1),), source=None,
                     fresh_pos=1 if i == d else None)
        )
    for k in range(2, N + 1):
        for j in range(1, S + 1):
            consumed = False
            # ascending database index, insertion order within each database
            for i in range(1, S + 1):
                if i == j:
                    continue
                for idx, rec in enumerate(per_db[i - 1]):
                    if rec.k != k - 1 or d in rec.files:
                        continue
                    t[d] += 1
                    per_db[j - 1].append(
                        PirQuery(db=j, k=k, kind="peel",
                                 pos_map=tuple(sorted(rec.pos_map + ((d, t[d]),))),
                                 source=(i, idx), fresh_pos=t[d])
                    )
                    consumed = True
            if consumed:
                for fileset in combinations([i for i in range(1, N + 1) if i != d], k):
                    for _ in range(phi(j, S, k)):
                        pos_map = []
                        for u in fileset:
                            t[u] += 1
                            pos_map.append((u, t[u]))
                        per_db[j - 1].append(
                            PirQuery(db=j, k=k, kind="fill", pos_map=tuple(pos_map),
                                     source=None, fresh_pos=None)
                        )
    assert t[d] == S ** (N - 1), (S, N, d, t[d])
    return tuple(tuple(db) for db in per_db)


def generate_alg1(S: int, N: int, perms: dict, d: int,
                  shuffle_rng: Optional[random.Random] = None, seed=None):
    """Build the per-database query bundle for demand d.

    perms: {file -> Permutation over [S^(N-1)]}.  Returns (bundle,
    transcript); the transcript replays bit-identically and holds the
    peeling plan.
    """
    records = _alg1_schedule(S, N, d)
    per_db, prov, emission = [], [], []
    for db0 in range(S):
        entries = list(enumerate(records[db0]))
        if shuffle_rng is not None:
            shuffle_rng.shuffle(entries)
        row = []
        for _, rec in entries:
            atoms = tuple(sorted(QueryAtom(f, 1, perms[f](p)) for f, p in rec.pos_map))
            row.append(Query(atoms))
        per_db.append(row)
        prov.append([Provenance(user=1, kind="alg1", index=i) for i, _ in entries])
        emission.append([(1, i) for i, _ in entries])
    slots = {1: SlotInfo(user=1, kind="alg1", subfile=1, demand=d)}
    bundle = QueryBundle(S=S, per_db=per_db, provenance=prov, slots=slots)
    transcript = SessionTranscript(
        scheme="single", S=S, N=N, K=1, seed=seed, demand=(d,),
        user_slots=(1,), base_set=None, rho=None, perms={1: dict(perms)},
        records={1: records}, slots=slots,
        emission=emission, H=S ** (N - 1),
    )
    return bundle, transcript


def replay_alg1(transcript: SessionTranscript) -> QueryBundle:
    """Regenerate the bundle bit-identically from the recorded randomness."""
    perms = transcript.perms[1]
    records = transcript.records[1]
    per_db, prov = [], []
    for db0 in range(transcript.S):
        row, prow = [], []
        for _, local in transcript.emission[db0]:
            rec = records[db0][local]
            atoms = tuple(sorted(QueryAtom(f, 1, perms[f](p)) for f, p in rec.pos_map))
            row.append(Query(atoms))
            prow.append(Provenance(user=1, kind="alg1", index=local))
        per_db.append(row)
        prov.append(prow)
    return QueryBundle(S=transcript.S, per_db=per_db, provenance=prov,
                       slots=dict(transcript.slots))


def decode_single(transcript: SessionTranscript, bundle: QueryBundle, answers,
                  d: int) -> dict:
    """Recover all S^(N-1) subsubfiles of file d from the answer blocks.

    Peels demand references out of the answers, then re-derives every block
    with a GF(2) solver over the same answers (the equations are read from
    `bundle`, the session's emitted queries) and checks agreement.
    """
    if (d,) != transcript.demand:
        raise DemandError(f"transcript was generated for demand {transcript.demand}")
    records = transcript.records[1]
    index = transcript.answer_index()
    perm_d = transcript.perms[1][d]
    sub = transcript.S ** (transcript.N - 1)
    out = {}
    for db0, db_list in enumerate(records):
        for local, rec in enumerate(db_list):
            if rec.fresh_pos is None:
                continue
            dbi, pos = index[(1, db0, local)]
            val = answers[dbi][pos]
            if rec.source is not None:
                sdb, sidx = rec.source
                sdbi, spos = index[(1, sdb - 1, sidx)]
                val ^= answers[sdbi][spos]
            x = perm_d(rec.fresh_pos)
            if x in out:
                raise UnresolvablePlanError(f"subsubfile {x} resolved twice")
            out[x] = val
    if set(out) != set(range(1, sub + 1)):
        raise UnresolvablePlanError(
            f"plan resolved {len(out)} of {sub} subsubfiles of the demand"
        )
    # independent oracle: one GF(2) solve of the same answers
    system = AnswerSystem(bundle, answers, K=1, sub=sub)
    for (_, _, x), val in system.solve([(d, 1, x) for x in range(1, sub + 1)]):
        if val != out[x]:
            raise UnresolvablePlanError(
                f"GF(2) oracle disagrees with peeling at subsubfile {x}"
            )
    return out
