"""Binary locality-2 LRCs from GF(4) outer codes.

Construction: each GF(4) symbol of an outer codeword is encoded by the
[3,2,2] binary inner code, giving an [3n, 2k, 2d] binary code whose
coordinates fall into disjoint 3-symbol repair groups.  The package bundles
the outer-code families that make these concatenations optimal, exact
analyzers (distance certificates, weight distributions, the dual-code
transform), the bound families that certify optimality, and an erasure
repair simulator.
"""

from .bounds import (
    BoundQuery,
    BoundReport,
    classify,
    default_kopt,
    griesmer_classical_min_n,
    griesmer_like_max_d,
    griesmer_like_min_n,
    johnson_classical_max_k,
    johnson_like_improved_max_k,
    singleton_like_max_d,
    sphere_packing_classical_max_k,
    sphere_packing_like_max_k,
)
from .code import (
    DistanceCertificate,
    LinearCode,
    WeightDistribution,
    macwilliams,
)
from .concat import (
    BinaryLrc,
    certify_distance,
    concatenate,
    group_subspaces,
    locality_check,
    lrc_weights_from_outer,
)
from .families import (
    cap_code,
    cyclic4,
    hamming4,
    hamming4_weights_closed_form,
    hexacode,
    ingest,
    macdonald,
    mds_rs,
    solomon_stiffler,
)
from .matrix import FieldMatrix
from .projective import CapSet, bundled_cap_pg3_17, pg_points
from .repair import (
    PerSymbolErasures,
    RandomErasures,
    RepairOutcome,
    SplitMix64,
    global_decode,
    local_repair,
    simulate,
)

__version__ = "0.1.0"
