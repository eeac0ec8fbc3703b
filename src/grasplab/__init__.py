"""grasplab: gripper-parameterized 6-DoF grasp geometry toolkit.

Candidate sampling on point clouds, parallel-jaw collision checking,
antipodal quality scoring, confidence fields, anchor-based label coding,
training losses with checked gradients, grasp selection policies, and the
evaluation protocol: everything around the network, in plain numpy.
"""

from .anchors import (
    AnchorLabel,
    AnchorSet,
    RefineLabel,
    anchor_set,
    assign_anchor_labels,
    assign_refine_labels,
    decode_proposal,
    encode_residuals,
)
from .collision import (
    Box3,
    GripperVolume,
    check_collision,
    closing_region_points,
    filter_collision_free,
    gripper_volume,
)
from .confidence import ConfidenceField, point_confidence, select_positive_points
from .contact import ContactPair, antipodal_score, find_contacts, width_fit
from .core import (
    Grasp,
    GripperParams,
    PointCloud,
    grasp_frame,
    grasp_frames,
    grasps_from_arrays,
    vertical_score,
)
from .losses import (
    LossResult,
    binary_cross_entropy,
    focal_loss,
    gradient_check,
    grn_loss,
    mse_loss,
    rn_loss,
    smooth_l1,
)
from .metrics import (
    EvalReport,
    antipodal_metrics,
    cfr,
    coverage_rate,
    evaluate,
    select_for_eval,
)
from .policy import (
    DEFAULT_POLICY,
    AnalyticPolicy,
    LinearFit,
    SigmoidFit,
    analytic_select,
    fit_linear,
    fit_sigmoid,
    grasp_probability,
    heuristic_select,
    pearson,
)
from .sampling import (
    EmptyRegionError,
    SamplerConfig,
    ball_query,
    estimate_normals,
    sample_candidates,
)

__version__ = "0.1.0"
