"""Variable speed random walks on rooted metric trees.

A tree plus a positive vertex measure determines a continuous time walk:
conductance 1/length per edge, jump rates conductance / (2 * vertex mass).
The package builds such trees, samples ensembles of the walk in lockstep,
evaluates the classical exact formulas (scale, green kernel, occupation,
heat kernel, entrance times) against independent solvers, and measures
convergence of walk laws across refining tree families.
"""

from .tree import (
    FourPointReport,
    MeasureError,
    RootedMetricTree,
    SpeedMeasure,
    TreeError,
    branch_closure,
    build_tree,
    check_four_point,
    discretize,
    load_tree,
    lower_mass,
    save_tree,
    spanned_subtree,
)
from .walk import (
    ChainError,
    WalkChain,
    build_chain,
    dirichlet_energy,
    export_paths_csv,
    lockstep_ensemble,
)
from .exact import (
    AtomLaw,
    HeatKernelResult,
    OracleError,
    atom_law,
    capacity,
    expected_hitting,
    green_kernel,
    harmonic_extension,
    heat_kernel,
    hit_bound,
    hitting_prob,
    l2_bound,
    occupation_functional,
    occupation_solve,
    set_prob_bound,
    speed_bound,
    transition_laws,
    tree_energy,
)
from .measures import (
    ConvergenceRow,
    FiniteAtomMeasure,
    gh_vague_report,
    hausdorff_distance,
    kr_distance,
    prohorov,
    tree_metric,
)
from .families import (
    CoalescentSpec,
    CoalescentTree,
    Excursion,
    FamilyError,
    GluedTree,
    GWSample,
    KestenSample,
    OffspringLaw,
    binary_tree,
    coalescent_speed_measure,
    coalescent_tree,
    degree_measure,
    excursion_distance,
    glue_excursion,
    gw_conditioned,
    kesten_excursion,
    lattice_excursion,
    merge_rate,
    offspring_geometric,
    offspring_poisson,
    reflect_path,
)
from .harness import (
    CheckRecord,
    ConfigError,
    ExperimentConfig,
    EXPERIMENTS,
    RunArtifacts,
    run_experiment,
    stone_level,
)

__version__ = "0.1.0"
