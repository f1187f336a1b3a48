"""Exemplar-based 6D pose refinement engine.

Pure-geometry pipeline: render exemplars offline, retrieve the nearest
views to a rough pose, lift dense 2D flow between crops into 3D-to-2D
correspondences, aggregate across exemplars, and solve one robust PnP.
"""

from .correspond import CorrespondenceSet, aggregate, lift_correspondences
from .crops import CropTransform, align_intrinsics, compute_crop, lift_to_image
from .errors import (
    ArtifactMismatchError,
    BadMagicError,
    BehindCameraError,
    ConfigurationError,
    DegeneracyError,
    DegenerateTriangleError,
    EmptyMeshError,
    FileFormatError,
    FlowFileMissingError,
    MeshError,
    MeshHashMismatchError,
    MeshParseError,
    PfaError,
    RobustFailureError,
    SolverError,
    TruncationError,
    UndefinedInputError,
    VersionMismatchError,
)
from .exemplars import (
    Exemplar,
    ExemplarSet,
    generate_exemplar_set,
    load_set,
    mean_query_distance,
    query_nearest,
    save_set,
)
from .flow import (
    FlowField,
    FlowNoiseSpec,
    OracleFlowSource,
    degrade_flow,
    load_flow,
    oracle_flow,
    save_flow,
)
from .geometry import (
    CameraIntrinsics,
    RigidPose,
    geodesic_distance,
    pose_jitter,
    project,
    sample_rotations,
)
from .mesh import MeshModel, load_mesh, make_box, make_plate, make_tetrahedron
from .metrics import (
    PoseErrorReport,
    accuracy_threshold,
    add_error,
    add_s_error,
    auc_metric,
    pose_error_report,
)
from .pnp import gauss_newton, reprojection_jacobian, solve_pnp
from .raster import CoordinateMap, SceneSpec, rasterize
from .refine import PoseEstimate, RansacConfig, RefineResult, ransac_pnp, refine_pose

__version__ = "0.1.0"
