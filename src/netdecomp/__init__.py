"""Strong-diameter ball carving and network decomposition.

Transforms any weak-diameter ball carving (consumed as a black box) into a
strong-diameter one, refines cluster diameters via a cut-or-cluster
dichotomy, reduces ball carving to full network decomposition, accounts
synchronous rounds for every step, and ships brute-force verifiers for all
of it.
"""

from .errors import InvariantViolation
from .graph import (
    BarrierSpec,
    Graph,
    NodeMask,
    bfs_layers,
    complete_graph,
    connected_components,
    from_text,
    generate,
    graph_from_edges,
    induced_diameter,
    to_text,
)
from .ledger import (
    RoundLedger,
    charge_bfs,
    charge_leader_election,
    charge_steiner_aggregate,
    merge_parallel,
)
from .weak import (
    SteinerTree,
    WeakCarving,
    WeakCluster,
    linial_saks_black_box,
    trivial_black_box,
    weak_carve,
)
from .strong import (
    CarvingParams,
    StrongCarving,
    StrongCluster,
    carve_strong,
    detect_giant,
    grow_ball,
)
from .refine import (
    CutOrClusterOutcome,
    cut_or_cluster,
    min_ratio_layer,
    refine,
    refined_diameter_bound,
)
from .decompose import (
    DecompCluster,
    NetworkDecomposition,
    decompose,
    make_refined_carver,
    make_strong_carver,
)
from .verify import (
    Violation,
    Violations,
    no_large_lowdiam_component,
    verify_decomposition,
    verify_strong_carving,
    verify_weak_carving,
)
