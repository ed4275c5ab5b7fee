"""Decoder-only model without positional embeddings: forward, losses, inference, checkpoints."""

from .config import ModelConfig  # noqa: F401
from .params import ModelParams, init_params, param_shapes, params_sha256  # noqa: F401
from .bundle import TimelineModel  # noqa: F401
from .transformer import forward, segment_causal_mask  # noqa: F401
from .supervision import AttSupervision, build_att_supervision  # noqa: F401
from .losses import td_loss, tte_loss, gamma_heads, total_loss, evaluate_loss, LossBreakdown  # noqa: F401
from .inference import InferenceSession, extract_representation  # noqa: F401
from .checkpoint import save_checkpoint, load_checkpoint, CheckpointError  # noqa: F401
