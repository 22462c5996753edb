"""Plastic-cover detection in 13-band multispectral imagery: spectral index
maps plus a small per-pixel MLP classifier."""

from .bands import CANONICAL_ORDER, SENTINEL2_BANDS, BandSpec, canonical_spec
from .dataset import (
    Normalizer,
    SampleSet,
    SplitSpec,
    apply_normalizer,
    balance,
    extract_samples,
    fit_normalizer,
    normalize_set,
    split,
)
from .evaluation import ConfusionMatrix, confusion, metrics
from .indexes import (
    b8b9_index,
    combined_index_mask,
    fdi,
    ndvi,
    normalized_difference,
    threshold_map,
)
from .mlp import (
    MlpModel,
    TrainConfig,
    TrainReport,
    forward,
    gradient,
    init_model,
    load_model,
    loss,
    predict_map,
    save_model,
    train,
)
from .raster_io import (
    Band,
    BandStack,
    import_pgm_band,
    load_stack,
    read_mask,
    save_stack,
    write_mask,
)
from .resample import AlignedCube, align_stack, lanczos3_kernel, resample_band
from .rng import SplitMix64

__version__ = "0.1.0"
