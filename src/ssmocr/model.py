"""Full recognizer: encoder + bidirectional connector + one decoding head."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import RunConfig
from .decoders import (ArDecoder, AttentionBaselineDecoder, CtcDecoder,
                       NarDecoder, ctc_greedy_decode, nar_decode)
from .encoder import ConvEncoder, flatten_grid, positional_encode_2d, prepare_image
from .ssm import BiMambaConnector
from .vocab import Vocabulary


@dataclass
class TranscribeResult:
    text: str
    truncated: bool = False


class OcrModel:
    def __init__(self, vocabulary: Vocabulary, cfg: RunConfig, rng):
        self.vocab = vocabulary
        self.cfg = cfg
        self.encoder = ConvEncoder(cfg.d_model, cfg.enc_channels, cfg.enc_pooling, rng=rng)
        self.connector = BiMambaConnector(cfg.d_model, n_state=cfg.n_state,
                                          expand=cfg.expand, rng=rng)
        common = dict(n_layers=cfg.layers, n_state=cfg.n_state,
                      expand=cfg.expand, rng=rng)
        kind = cfg.model_kind
        if kind == "mamba-ctc":
            self.decoder = CtcDecoder(cfg.d_model, vocabulary.ctc_size, **common)
        elif kind == "mamba-ar":
            self.decoder = ArDecoder(cfg.d_model, vocabulary.size,
                                     max_len=cfg.max_len, **common)
        elif kind == "mamba-nar":
            self.decoder = NarDecoder(cfg.d_model, vocabulary.size,
                                      t_max=cfg.t_max, **common)
        elif kind == "attn-ar-baseline":
            self.decoder = AttentionBaselineDecoder(
                cfg.d_model, vocabulary.size, n_layers=cfg.layers, n_heads=4,
                max_len=cfg.max_len, rng=rng)
        else:
            raise ValueError(f"unknown model kind {kind!r}")

    def train(self) -> "OcrModel":
        self.encoder.training = True
        return self

    def eval(self) -> "OcrModel":
        self.encoder.training = False
        return self

    def encode(self, image: np.ndarray) -> T.Tensor:
        """Image to the connector output (L, D)."""
        prepared = prepare_image(image, self.cfg.pad_min_h, self.cfg.pad_min_w)
        grid = positional_encode_2d(self.encoder.forward(prepared))
        return self.connector.forward(flatten_grid(grid))

    def loss(self, image: np.ndarray, text: str) -> T.Tensor:
        h = self.encode(image)
        ids = self.vocab.encode(text)
        if self.cfg.model_kind == "mamba-ctc":
            return self.decoder.loss(h, self.vocab.to_ctc(ids))
        return self.decoder.loss(h, ids)

    def transcribe(self, image: np.ndarray,
                   max_len: int | None = None) -> TranscribeResult:
        with T.no_grad():
            h = self.encode(image)
            if self.cfg.model_kind == "mamba-ctc":
                return TranscribeResult(ctc_greedy_decode(
                    self.decoder.frame_logits(h), self.vocab))
            if self.cfg.model_kind == "mamba-nar":
                res = nar_decode(self.decoder.logits(h))
                return TranscribeResult(self.vocab.decode(res.ids), res.truncated)
            gen = self.decoder.generate(h.data, max_len=max_len)
            return TranscribeResult(self.vocab.decode(gen.ids), gen.truncated)

    def params(self) -> dict[str, T.Tensor]:
        out = {}
        out.update({f"encoder.{k}": v for k, v in self.encoder.params().items()})
        out.update({f"connector.{k}": v for k, v in self.connector.params().items()})
        out.update({f"decoder.{k}": v for k, v in self.decoder.params().items()})
        return out

    def buffers(self) -> dict[str, np.ndarray]:
        return {f"encoder.{k}": v for k, v in self.encoder.buffers().items()}


def build_model(cfg: RunConfig, vocabulary: Vocabulary) -> OcrModel:
    """Deterministic construction: all weights come from the config seed."""
    rng = np.random.default_rng([cfg.seed, 0])
    return OcrModel(vocabulary, cfg, rng=rng)
