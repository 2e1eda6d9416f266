"""Underwater image enhancement toolkit.

Paired-data synthesis (color transfer and physical scattering), a guided
diffusion core verified against analytic Gaussian oracles, a prompt-learned
joint-embedding classifier with spatial attention, composite training losses,
and the standard underwater image quality metric suite.
"""

from .images import ChannelStats, LabImage, RgbImage, channel_stats, lab_to_srgb, srgb_to_lab
from .imageio import load_image, save_image
from .metrics import MetricReport, cpbd, evaluate, psnr, ssim, uciqe, uiqm
from .synthesis import (
    DatasetManifest,
    DegradationParams,
    ScatterRanges,
    TemplatePool,
    color_transfer,
    scatter_degrade,
    synthesize_dataset,
)
from .diffusion import (
    AnalyticGaussianWorld,
    GuidanceConfig,
    NoiseSchedule,
    combine_scores_lambda,
    default_schedule,
    forward_sample,
    guided_noise_prediction,
    make_linear_schedule,
    reverse_step,
    score_from_noise,
)
from .training import AugmentationConfig, LossWeights, OptimizerConfig, composite_loss, fine_tune, grad_check

__version__ = "0.1.0"
