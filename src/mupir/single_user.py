"""Single-user decoding.  The session is one alg1 block of user 1, which
`protocol.generate_alg1` builds; it is assembled, replayed, decoded and
audited by the same code as the multi-user blocks.
"""
from __future__ import annotations

from .core import QueryBundle
from .protocol import SessionTranscript, decode_user


def decode_single(transcript: SessionTranscript, bundle: QueryBundle, answers) -> dict:
    """Recover all S^(N-1) subsubfiles of the transcript's demanded file
    from the answer blocks.

    The session is one K = 1 block with H = S^(N-1), so `decode_user` with
    no cache lines peels it and cross-checks every block with the GF(2)
    oracle.  Returns {x: block}.
    """
    return {x: block for (_, x), block in
            decode_user(1, transcript, bundle, answers, None).items()}
