"""Golden session outputs: a refactor must leave reports and queries byte-identical.

Each digest is sha256 over `to_json(report)` followed by every database's
queries, in emission order, as plain int tuples of (file, subfile, subsub)
(each atom named back by `atom_triple`).
The digests were recorded from the code before the schedule records were
merged; a change that alters a report, a query or the emission order for
the same config and seed fails here.
"""
import hashlib

import pytest

from mupir.core import atom_triple
from mupir.harness import run_mupir_session, run_single_session, to_json

GOLDEN = {
    ("mupir", 3, 3, 3):
        "3a779c31e4b5b03c11c19578ef6cbce6a00b4d9d1717965c7d285ea1f3cf2cdb",
    ("mupir", 3, 3, 5):
        "f4612e68ebdd47ca539f63f9d07e950bc2aa539002c81217f57171220c3d09e6",
    ("mupir", 2, 3, 5):
        "70f964cda3c362192e8aba9ec8d30afea5c5b8703a7dddab4823f4e147d09460",
    ("mupir", 2, 2, 3):
        "bb9ed995a7434a43751893edc6d281ce8794d4f750786790234dc9a9db44a22a",
    ("mupir", 3, 4, 4):
        "e05eb20bfaa01ea01de7f546825682e77f93bed3957153e6c5043e653c7bbbd7",
    ("single", 4, 3):
        "26835467ca03cd3519ae628a6017d98e51e1509733b26afa1b85565652a48b7a",
    ("single", 3, 3):
        "7b2139ad5186472b35b9d6e1af1375cd41a4fa5145a32f86bf0bb5a08157f684",
    ("single", 4, 5):
        "43742c38c5242b48224348f4fdfc636555d19e03aec6abcc1da8b2130595b582",
}
BLOCK_BYTES = 2
SEED = 0


def session_digest(report, bundle) -> str:
    h = hashlib.sha256(to_json(report).encode())
    sub = report["params"]["S"] ** (report["params"]["N"] - 1)
    for queries in bundle.per_db:
        atoms = tuple(tuple(atom_triple(a, bundle.K, sub) for a in q.atoms) for q in queries)
        h.update(repr(atoms).encode())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda c: "-".join(map(str, c)))
def test_session_output_is_pinned(case):
    scheme, *dims = case
    if scheme == "mupir":
        report, art = run_mupir_session(*dims, BLOCK_BYTES, SEED)
    else:
        report, art = run_single_session(*dims, BLOCK_BYTES, SEED)
    assert report["decode_ok"] and report["audit_ok"]
    assert session_digest(report, art["bundle"]) == GOLDEN[case]
