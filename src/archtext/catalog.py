"""Operation catalog: names, description phrases, families, shape rules.

The catalog is the closed world of node types the generators draw from.
Each op carries one human-readable phrase used when mentioning it in
generated text; phrases are chosen so no phrase occurs (word-aligned)
inside another, which makes op mentions in text unambiguously
recoverable. The default generator vocabulary is the first 28 entries.
"""

from __future__ import annotations

import functools
import re
from importlib import resources

# name -> phrase; insertion order defines catalog order.
OP_PHRASES: dict[str, str] = {
    # default generator vocabulary (28 ops)
    "conv2d": "standard 2d convolution",
    "dil_conv2d": "dilated convolution",
    "sep_conv2d": "separable convolution",
    "conv_transpose2d": "transposed convolution",
    "linear": "fully connected layer",
    "batchnorm2d": "batch normalization",
    "layernorm": "layer normalization",
    "groupnorm": "group normalization",
    "relu": "rectified linear unit",
    "relu6": "capped rectified unit",
    "gelu": "gaussian error unit",
    "hardswish": "hard swish activation",
    "hardsigmoid": "hard sigmoid gate",
    "sigmoid": "smooth sigmoid activation",
    "tanh": "hyperbolic tangent activation",
    "maxpool2d": "2d max pooling",
    "avgpool2d": "2d average pooling",
    "adaptive_avgpool2d": "adaptive mean pooling",
    "dropout": "random dropout regularization",
    "posenc": "positional encoding",
    "zero": "zeroing connection",
    "identity": "identity passthrough",
    "add": "residual summation",
    "concat": "channel concatenation",
    "flatten": "tensor flattening",
    "softmax": "softmax probability layer",
    "embedding": "lookup table embedding",
    "upsample": "spatial upsampling",
    # extended catalog (57 more ops, 85 total)
    "instancenorm2d": "instance normalization",
    "frozen_batchnorm2d": "frozen batch statistics normalization",
    "stochastic_depth": "stochastic depth skipping",
    "anchor_generator": "anchor box generator",
    "quantize_stub": "quantization entry stub",
    "dequantize": "floating point dequantization",
    "roi_align": "region of interest alignment",
    "nms": "non maximum suppression",
    "multihead_attention": "multi head self attention",
    "feedforward": "position wise feedforward block",
    "squeeze_excite": "squeeze and excitation gating",
    "channel_shuffle": "channel shuffling",
    "pixel_shuffle": "pixel shuffling upscale",
    "depthwise_conv2d": "depthwise convolution",
    "pointwise_conv2d": "pointwise convolution",
    "conv1d": "one dimensional convolution",
    "conv3d": "three dimensional convolution",
    "maxpool1d": "1d max pooling",
    "avgpool1d": "1d average pooling",
    "adaptive_maxpool2d": "adaptive max pooling",
    "global_avgpool": "global average reduction pooling",
    "lstm": "long short term memory cell",
    "gru": "gated recurrent unit",
    "rnn_tanh": "vanilla recurrent cell",
    "bilinear": "bilinear pairwise layer",
    "elu": "exponential linear unit",
    "selu": "self normalizing exponential unit",
    "celu": "continuously differentiable exponential activation",
    "silu": "sigmoid weighted linear activation",
    "mish": "self regularized mish activation",
    "leaky_relu": "leaky rectified activation",
    "prelu": "parametric rectified activation",
    "glu": "gated linear projection",
    "log_softmax": "log domain softmax",
    "local_response_norm": "local response normalization",
    "reflection_pad2d": "reflection padding",
    "zero_pad2d": "zero padding border",
    "interpolate": "bilinear interpolation resize",
    "unfold": "sliding window unfolding",
    "fold": "patch refolding",
    "pixel_unshuffle": "pixel unshuffling downscale",
    "generalized_rcnn_transform": "detection input transform",
    "detection_head": "bounding box prediction head",
    "classification_head": "category prediction head",
    "fpn_block": "feature pyramid fusion block",
    "aspp": "atrous spatial pyramid pooling",
    "transformer_block": "stacked transformer mixing block",
    "patch_embed": "image patch embedding",
    "cls_token": "classification token prepend",
    "rotary_embedding": "rotary position embedding",
    "alibi_bias": "attention bias slope",
    "cross_attention": "cross modality attention",
    "gumbel_softmax": "gumbel softmax sampling",
    "layerscale": "learnable residual scaling",
    "droppath": "residual path dropping",
    "reduce_mean": "mean reduction",
    "split": "tensor splitting",
}

CATALOG: tuple[str, ...] = tuple(OP_PHRASES)
DEFAULT_OPS: tuple[str, ...] = CATALOG[:28]

POOL_OPS = frozenset({
    "maxpool2d", "avgpool2d", "adaptive_avgpool2d", "maxpool1d", "avgpool1d",
    "adaptive_maxpool2d", "global_avgpool",
})
NORM_OPS = frozenset({
    "batchnorm2d", "layernorm", "groupnorm", "instancenorm2d",
    "frozen_batchnorm2d", "local_response_norm",
})
ACT_OPS = frozenset({
    "relu", "relu6", "gelu", "hardswish", "hardsigmoid", "sigmoid", "tanh",
    "elu", "selu", "celu", "silu", "mish", "leaky_relu", "prelu", "glu",
})
CONV_OPS = frozenset({
    "conv2d", "dil_conv2d", "sep_conv2d", "conv_transpose2d",
    "depthwise_conv2d", "pointwise_conv2d", "conv1d", "conv3d",
})

# Shape-assignment rules for the generator.
CONV_SHAPED = CONV_OPS
LINEAR_SHAPED = frozenset({"linear", "bilinear", "embedding", "patch_embed"})
NORM_SHAPED = frozenset({
    "batchnorm2d", "layernorm", "groupnorm", "instancenorm2d", "frozen_batchnorm2d",
    "posenc",
})
KERNEL_POOLS = frozenset({"maxpool2d", "avgpool2d", "maxpool1d", "avgpool1d"})

KERNEL_CHOICES = (1, 2, 3, 5, 7)


def phrase_of(op: str) -> str:
    return OP_PHRASES[op]


def mentioned_ops(text: str, ops=CATALOG) -> set[str]:
    """Ops whose phrase occurs, word-aligned, anywhere in the text."""
    lowered = " ".join(text.lower().split())
    found = set()
    for op in ops:
        if re.search(r"\b" + re.escape(OP_PHRASES[op]) + r"\b", lowered):
            found.add(op)
    return found


ANSWER_FILE = "answers_v1.txt"

# op -> the answer that says what the op does
_DESC_TEXT = {
    "maxpool2d": "calculating the maximum value for each patch of the feature map",
    "avgpool2d": "calculating the average for each patch of the feature map",
    "dil_conv2d": "creating a wider kernel by inserting spaces between the kernel elements",
    "sep_conv2d": "dividing a single convolution into two convolutions to reduce parameters",
    "linear": "applying a linear transformation to the incoming data",
    "dropout": "randomly zeroing activations to reduce overfitting during training",
    "batchnorm2d": "normalizing activations over the batch dimension",
}


class AnswerCatalog:
    """The frozen answer file, one answer per line (id = line number, 51
    entries), with id lookups."""

    def __init__(self):
        data = resources.files("archtext").joinpath("data").joinpath(ANSWER_FILE)
        self.answers = [ln for ln in data.read_text(encoding="utf-8").splitlines() if ln]
        self._idx = {a: i for i, a in enumerate(self.answers)}
        self.name_id = {op: self._idx[op] for op in DEFAULT_OPS}
        self.kernel_id = {f"{k}*{k}": self._idx[f"{k}*{k}"] for k in KERNEL_CHOICES}
        self.desc_id = {op: self._idx[t] for op, t in _DESC_TEXT.items()}
        self.dni_id = {}
        for op in ("maxpool2d", "avgpool2d", "dil_conv2d", "sep_conv2d",
                   "linear", "dropout", "batchnorm2d", "conv2d"):
            self.dni_id[op] = self._idx[f"this model does not include {op}"]
        for fam in ("pooling", "normalization", "activation"):
            self.dni_id[fam] = self._idx[f"this model does not include any {fam} layers"]

    def text_of(self, answer_id: int) -> str:
        return self.answers[answer_id]


@functools.cache
def answer_catalog() -> AnswerCatalog:
    """The answer catalog, read from its file once."""
    return AnswerCatalog()
