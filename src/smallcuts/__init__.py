"""Cover-small-cuts LP instances whose basic solutions are uniformly small.

For any even k >= 4 this package builds a capacitated graph whose cuts of
capacity below 5 are exactly n-1 prefix cuts and k-1 interval cuts, plus a
link system covering them, and certifies in exact arithmetic that the point
assigning 1/k to every link is a basic feasible solution of the covering LP.
Every positive coordinate of that vertex is 1/k, arbitrarily far below the
1/2 floor that holds for basic solutions of weakly supermodular covering LPs.
"""

__version__ = "0.1.0"

from .certify import (
    Certificate,
    CertificationError,
    FamilySizeError,
    MoveStep,
    ReductionTrace,
    bracketing_prefixes,
    certify_instance,
    coverage,
    full_reduction,
    listed_capacity_table,
    push_to_source,
)
from .construction import (
    CapGraph,
    Edge,
    Instance,
    Link,
    QSet,
    build_circulant,
    build_incidence_matrix,
    build_instance,
    e2_endpoints,
    edge_capacity,
    listed_small_cuts,
    path_q_incidence,
)
from .cuts import (
    BruteForceSizeError,
    Cut,
    CutFamily,
    FrontierFamily,
    canonical_cut,
    cut_capacity,
    enumerate_bruteforce,
    enumerate_flow,
    karger_probe,
)
from .exactmath import IntMatrix, det_bareiss, rank

__all__ = [
    "BruteForceSizeError",
    "CapGraph",
    "Certificate",
    "CertificationError",
    "Cut",
    "CutFamily",
    "Edge",
    "FamilySizeError",
    "FrontierFamily",
    "Instance",
    "IntMatrix",
    "Link",
    "MoveStep",
    "QSet",
    "ReductionTrace",
    "bracketing_prefixes",
    "build_circulant",
    "build_incidence_matrix",
    "build_instance",
    "canonical_cut",
    "certify_instance",
    "coverage",
    "cut_capacity",
    "det_bareiss",
    "e2_endpoints",
    "edge_capacity",
    "enumerate_bruteforce",
    "enumerate_flow",
    "full_reduction",
    "karger_probe",
    "listed_capacity_table",
    "listed_small_cuts",
    "path_q_incidence",
    "push_to_source",
    "rank",
]
