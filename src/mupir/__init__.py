"""Cache-aided multi-user private information retrieval: protocol engine,
exact rate analysis and privacy auditing."""

from .core import (
    FileStore,
    Permutation,
    Query,
    QueryBundle,
    answer_bundle,
    build_file_store,
    canonical_form,
    sample_permutation,
    validate_demands,
    xor_combine,
)
from .params import (
    SchemeParams,
    base_reps,
    cache_fraction,
    f_rep,
    h_value,
    pd_rate,
    phi,
    pir_rate,
    proposed_rate,
    psi,
    q_value,
)
from .single_user import decode_single, generate_alg1
from .protocol import (
    choose_base_and_rho,
    decode_user,
    generate_alg2,
    generate_alg3,
    placement,
)
from .audit import (
    AuditReport,
    check_structure,
    count_rate,
    demand_distribution_oracle,
    mutate_bundle,
    verify_replay,
)
from .harness import (
    parse_config,
    rates_report,
    run_mupir_session,
    run_session,
    run_single_session,
    sweep,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
