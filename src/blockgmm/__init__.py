"""Split-and-combine estimation for Gaussian regression with many
correlated responses per subject.

The response dimension is cut into J contiguous blocks and the subjects
into K groups; every block is fitted independently (GEE or pairwise
composite likelihood), and the block solutions are merged by a
closed-form information-weighted combination with sandwich inference.
"""

from .combine import (
    CombinedFit,
    GroupSummary,
    SummaryBundle,
    WeightBlocks,
    assemble_vhat,
    combine,
    invert_vhat,
    load_bundle,
    merge_bundles,
    save_bundle,
    split_bundle,
)
from .dataio import Dataset, load_long_csv
from .engines import BlockFit, BlockRecord, SolverOptions, eval_scores, fit_block
from .errors import (
    BlockGmmError,
    CombineError,
    ConvergenceError,
    DataError,
    NumericDomainError,
    PlanError,
    SolverError,
)
from .inference import InferenceReport, godambe_cov, infer, overid_test
from .partition import BlockData, PartitionPlan, make_plan, split
from .simstudy import SimDesign, SimSummary, fit_dataset, run_replications, summarize

__version__ = "0.1.0"

__all__ = [
    "BlockData",
    "BlockFit",
    "BlockGmmError",
    "BlockRecord",
    "CombineError",
    "CombinedFit",
    "ConvergenceError",
    "DataError",
    "Dataset",
    "GroupSummary",
    "InferenceReport",
    "NumericDomainError",
    "PartitionPlan",
    "PlanError",
    "SimDesign",
    "SimSummary",
    "SolverError",
    "SolverOptions",
    "SummaryBundle",
    "WeightBlocks",
    "assemble_vhat",
    "combine",
    "eval_scores",
    "fit_block",
    "fit_dataset",
    "godambe_cov",
    "infer",
    "invert_vhat",
    "load_bundle",
    "load_long_csv",
    "make_plan",
    "merge_bundles",
    "overid_test",
    "run_replications",
    "save_bundle",
    "split",
    "split_bundle",
    "summarize",
]
