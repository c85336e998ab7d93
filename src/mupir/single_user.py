"""Single-user retrieval with subpacketization S^(N-1).

Query construction works in rounds of growing sum size k.  Database 1 seeds
one singleton per file; afterwards each database turns every demand-free
(k-1)-sum held by the other databases into a k-sum by adding one fresh
demand reference, then pads with fresh demand-free k-sums until every
k-subset of files appears its prescribed number of times.  Decoding peels:
each demand-bearing query differs from an already-answered query by exactly
one reference: its answer XOR its `source` answer.  The session is one
generator block (kind "alg1") of user 1, whose transcript is assembled into
a bundle, replayed, decoded and audited by the same code as the multi-user
blocks in `protocol`.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .core import QueryBundle, SlotInfo
from .errors import DemandError
from .params import phi
from .protocol import Record, SessionTranscript, decode_user


@lru_cache(maxsize=None)
def _alg1_schedule(S: int, N: int, d: int):
    """Position-level schedule for demand d: per database, a tuple of
    Records in insertion order.  A demand-bearing record's refs are its
    fresh demand reference followed by its source's refs, and it resolves
    that reference as its answer XOR its `source` answer; seeds and fills
    resolve nothing, and no reference is reused within a database."""
    if not 1 <= d <= N:
        raise DemandError(f"demand {d} outside [1,{N}]")
    per_db = [[] for _ in range(S)]
    t = [0] * (N + 1)
    for i in range(1, N + 1):
        t[i] = 1
        per_db[0].append(Record(((i, 1),), i == d))
    for k in range(2, N + 1):
        for j in range(1, S + 1):
            consumed = False
            # ascending database index, insertion order within each database
            for i in range(1, S + 1):
                if i == j:
                    continue
                for idx, rec in enumerate(per_db[i - 1]):
                    if len(rec.refs) != k - 1 or any(f == d for f, _ in rec.refs):
                        continue
                    t[d] += 1
                    per_db[j - 1].append(Record(((d, t[d]),) + rec.refs, True, (i, idx)))
                    consumed = True
            if consumed:
                for fileset in combinations([i for i in range(1, N + 1) if i != d], k):
                    for _ in range(phi(j, S, k)):
                        refs = []
                        for u in fileset:
                            t[u] += 1
                            refs.append((u, t[u]))
                        per_db[j - 1].append(Record(tuple(refs)))
    assert t[d] == S ** (N - 1), (S, N, d, t[d])
    return tuple(tuple(db) for db in per_db)


def generate_alg1(S: int, N: int, perms: dict, d: int) -> SessionTranscript:
    """The session's transcript for demand d.

    perms: {file -> Permutation over [S^(N-1)]}.  The transcript holds the
    peeling plan; `protocol.assemble_bundle` builds the per-database query
    bundle from it, and `protocol.replay_bundle` regenerates that bundle
    bit-identically.
    """
    return SessionTranscript(
        S=S, N=N, K=1, demand=(d,), perms={1: dict(perms)},
        records={1: _alg1_schedule(S, N, d)},
        slots={1: SlotInfo(kind="alg1", subfile=1, demand=d)}, H=S ** (N - 1),
    )


def decode_single(transcript: SessionTranscript, bundle: QueryBundle, answers) -> dict:
    """Recover all S^(N-1) subsubfiles of the transcript's demanded file
    from the answer blocks.

    The session is one K = 1 block with H = S^(N-1), so `decode_user` with
    no cache lines peels it and cross-checks every block with the GF(2)
    oracle.  Returns {x: block}.
    """
    return {x: block for (_, x), block in
            decode_user(1, transcript, bundle, answers, None).items()}
