"""Non-neural core of a bottom-up panoptic segmentation system.

Target encoding (center heatmaps, offset fields, loss weights), the three
training losses with analytic gradients, center-regression post-processing
with majority-vote fusion, evaluation metrics (PQ / mIoU / mask AP), and a
bit-exact tensor container for interchange with model runtimes.
"""

from .core import (
    CategorySpec,
    DatasetSpec,
    Dims,
    InstanceCenter,
    validate,
)
from .losses import (
    LossValue,
    LossWeights,
    l1_offset_loss,
    mse_heatmap_loss,
    total_loss,
    weighted_bootstrapped_ce,
)
from .metrics import (
    ApReport,
    IoUReport,
    PqReport,
    mean_iou,
    panoptic_quality,
)
from .postprocess import (
    InstanceRecord,
    PanopticResult,
    PostprocParams,
    extract_centers,
    group_pixels,
    keypoint_nms,
    merge_panoptic,
    panoptic_inference,
    thing_mask_from_semantic,
)
from .targets import (
    TargetBundle,
    TargetParams,
    compute_mass_centers,
    encode_center_heatmap,
    encode_offsets,
    encode_targets,
    semantic_weight_map,
)
from .tensor_io import read_spec, read_tensor, write_spec, write_tensor

__version__ = "0.1.0"

__all__ = [
    "CategorySpec",
    "DatasetSpec",
    "Dims",
    "InstanceCenter",
    "validate",
    "LossValue",
    "LossWeights",
    "l1_offset_loss",
    "mse_heatmap_loss",
    "total_loss",
    "weighted_bootstrapped_ce",
    "ApReport",
    "IoUReport",
    "PqReport",
    "mean_iou",
    "panoptic_quality",
    "InstanceRecord",
    "PanopticResult",
    "PostprocParams",
    "extract_centers",
    "group_pixels",
    "keypoint_nms",
    "merge_panoptic",
    "panoptic_inference",
    "thing_mask_from_semantic",
    "TargetBundle",
    "TargetParams",
    "compute_mass_centers",
    "encode_center_heatmap",
    "encode_offsets",
    "encode_targets",
    "semantic_weight_map",
    "read_spec",
    "read_tensor",
    "write_spec",
    "write_tensor",
]
