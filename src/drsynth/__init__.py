"""Domain-randomized synthesis of MR-like volumes from tissue label maps.

The package turns segmented (image, labels) subjects into unlimited
randomized training pairs: tissue classes are split into intensity
subclasses by EM clustering, re-rendered with random Gaussian contrast or
a spin-echo physics simulation, spatially deformed, corrupted, resampled
to a simulated acquisition, and normalized.  Supporting pieces: a NIfTI
reader/writer, checkpoint weight interpolation, segmentation metrics, and
deterministic counter-based randomness.
"""

from .augment import (
    AffineParams,
    AffineRanges,
    AugmentProfile,
    CorruptionConfig,
    ResolutionSim,
    SvfConfig,
    draw_affine,
    draw_svf_deformation,
    jacobian_determinant,
    simulate_resolution,
)
from .checkpoints import (
    DEFAULT_SWEEP,
    Checkpoint,
    interpolate,
    read_checkpoint,
    write_checkpoint,
)
from .config import apply_sections, config_sections, load_config
from .epg import (
    EpgSequenceParams,
    ReferenceInterval,
    RelaxometryRanges,
    SequenceRanges,
    TissueRelaxometry,
    epg_fse_echoes,
    render_epg_volume,
    sample_relaxometry,
)
from .errors import DrsynthError
from .generator import (
    GenerationConfig,
    GeneratorMode,
    SamplePair,
    generate_sample,
    render_intensities,
    sample_gmm_params,
)
from .labels import (
    DRAWEM_TO_FETA,
    META_CLASS_TABLE,
    GmmFit,
    SubclassPartition,
    build_meta_classes,
    em_cluster,
    remap_drawem_to_feta,
    split_meta_classes,
    toy_label_map,
)
from .metrics import (
    EvalReport,
    RankSumResult,
    batch_evaluate,
    bonferroni,
    dice,
    evaluate,
    hd95,
    hd100,
    wilcoxon_rank_sum,
)
from .nifti import read_nifti, write_nifti
from .rng import STAGE_IDS, make_stream
from .volume import LabelMap, LabelScheme, Volume3D

__version__ = "0.1.0"

__all__ = [
    "AffineParams",
    "AffineRanges",
    "AugmentProfile",
    "Checkpoint",
    "CorruptionConfig",
    "DEFAULT_SWEEP",
    "DRAWEM_TO_FETA",
    "DrsynthError",
    "EpgSequenceParams",
    "EvalReport",
    "GenerationConfig",
    "GeneratorMode",
    "GmmFit",
    "LabelMap",
    "LabelScheme",
    "META_CLASS_TABLE",
    "RankSumResult",
    "ReferenceInterval",
    "RelaxometryRanges",
    "ResolutionSim",
    "STAGE_IDS",
    "SamplePair",
    "SequenceRanges",
    "SubclassPartition",
    "SvfConfig",
    "TissueRelaxometry",
    "Volume3D",
    "apply_sections",
    "batch_evaluate",
    "bonferroni",
    "build_meta_classes",
    "config_sections",
    "dice",
    "draw_affine",
    "draw_svf_deformation",
    "em_cluster",
    "epg_fse_echoes",
    "evaluate",
    "generate_sample",
    "hd95",
    "hd100",
    "interpolate",
    "jacobian_determinant",
    "load_config",
    "make_stream",
    "read_checkpoint",
    "read_nifti",
    "remap_drawem_to_feta",
    "render_epg_volume",
    "render_intensities",
    "sample_gmm_params",
    "sample_relaxometry",
    "simulate_resolution",
    "split_meta_classes",
    "toy_label_map",
    "wilcoxon_rank_sum",
    "write_checkpoint",
    "write_nifti",
]
