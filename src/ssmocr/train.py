"""AdamW training loop with curriculum sampling and checkpointing."""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import checkpoint as C
from . import tensor as T
from .config import RunConfig, config_to_mapping
from .decoders import InfeasibleAlignmentError, TargetTooLongError, ctc_required_frames
from .encoder import frame_count
from .metrics import EvalReport
from .model import OcrModel, build_model
from .pgm import read_pgm
from .synth import AugmentSpec, augment, load_manifest
from .vocab import Vocabulary


class TrainAbort(RuntimeError):
    """Training stopped on a numerical failure; carries diagnostics."""

    def __init__(self, step: int, lr: float, batch_ids, cause: str):
        self.step = step
        self.lr = lr
        self.batch_ids = list(batch_ids)
        super().__init__(
            f"numerical failure at step {step} (lr {lr:g}, batch {self.batch_ids}): {cause}"
        )


class AdamW:
    """Decoupled weight decay; moments keyed by parameter name."""

    def __init__(self, params: dict[str, T.Tensor], lr=1e-4, betas=(0.9, 0.999),
                 weight_decay=0.01, eps=1e-8):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.weight_decay = weight_decay
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(p.data, dtype=np.float64) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data, dtype=np.float64) for k, p in params.items()}

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            g = g.astype(np.float64)
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            p.data -= (self.lr * (update + self.weight_decay * p.data.astype(np.float64))
                       ).astype(p.data.dtype)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None


def clip_global_norm(params, max_norm: float) -> float:
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float((p.grad.astype(np.float64) ** 2).sum())
    norm = float(np.sqrt(total))
    # a non-finite norm stays unscaled: the caller refuses the step
    if max_norm > 0 and max_norm < norm < np.inf:
        scale = max_norm / (norm + 1e-12)
        for p in params.values():
            if p.grad is not None:
                p.grad = p.grad * p.data.dtype.type(scale)
    return norm


@dataclass
class LoadedSample:
    image: np.ndarray
    transcript: str
    line_count: int


def load_samples(manifest_path: str) -> list[LoadedSample]:
    root = Path(manifest_path).parent
    out = []
    for s in load_manifest(manifest_path):
        img = read_pgm(root / s.image_path)
        out.append(LoadedSample(img, s.transcript, s.line_count))
    return out


def evaluate(model: OcrModel, samples, max_len: int | None = None) -> EvalReport:
    """Transcribe the samples in eval mode; the model leaves in the mode it
    came in, also when a transcription raises."""
    was_training = model.encoder.training
    model.eval()
    report = EvalReport()
    try:
        for k, s in enumerate(samples):
            res = model.transcribe(s.image, max_len=max_len)
            report.add(f"sample{k}", s.transcript, res.text)
    finally:
        if was_training:
            model.train()
    return report


@dataclass
class TrainResult:
    steps: int
    final_loss: float
    best_cer: float
    best_step: int
    last_path: str
    best_path: str
    wall_seconds: float
    loss_history: list
    cer_history: list        # (step, cer)


def _curriculum_pool(samples, step: int, cfg: RunConfig):
    if not cfg.curriculum:
        return list(range(len(samples)))
    frac = min(step / max(cfg.ramp_steps, 1), 1.0)
    cur_max = 1 + int(frac * (cfg.max_lines - 1))
    pool = [i for i, s in enumerate(samples) if s.line_count <= cur_max]
    if not pool:
        shortest = min(s.line_count for s in samples)
        pool = [i for i, s in enumerate(samples) if s.line_count == shortest]
    return pool


def _decode_max_len(samples, cfg: RunConfig) -> int:
    longest = max((len(s.transcript) for s in samples), default=0)
    return min(cfg.max_len, longest + 10)


def _refuse_unfit(cfg: RunConfig, vocabulary: Vocabulary, s: LoadedSample, tag: str):
    """Refuse before any step a sample its head cannot fit: a CTC target
    needing more frames than the image gives (augmentation keeps the shape,
    so the count is exact), or a transcript over the decoder's budget."""
    if cfg.model_kind == "mamba-ctc":
        frames = frame_count(*s.image.shape[:2], cfg.pad_min_h, cfg.pad_min_w,
                             cfg.enc_pooling)
        need = max(ctc_required_frames(vocabulary.encode(s.transcript)), 1)
        if frames < need:
            raise InfeasibleAlignmentError(
                f"{tag} image gives {frames} frames; its transcript needs {need}")
        return
    key, budget = (("model.t_max", cfg.t_max - 1) if cfg.model_kind == "mamba-nar"
                   else ("model.max_len", cfg.max_len))
    if len(s.transcript) > budget:
        raise TargetTooLongError(
            f"{tag} transcript has {len(s.transcript)} characters; {key} allows {budget}")


def train_run(cfg: RunConfig, log=None) -> TrainResult:
    """Run the configured training job; returns paths of the written
    checkpoints. Fully deterministic given (config, seed, dataset)."""
    t0 = time.perf_counter()
    log = log or (lambda msg: None)
    if not cfg.train_manifest:
        raise ValueError("config needs data.train_manifest")
    train_samples = load_samples(cfg.train_manifest)
    if not train_samples:
        raise ValueError(f"empty train manifest {cfg.train_manifest}")
    valid_samples = (load_samples(cfg.valid_manifest)
                     if cfg.valid_manifest else train_samples)
    synth_samples = (load_samples(cfg.synth_manifest)
                     if cfg.synth_manifest else None)

    if cfg.model_kind in ("mamba-ctc", "mamba-nar"):
        multi = sum(s.line_count > 1 for s in train_samples + valid_samples)
        if multi:
            raise ValueError(
                f"{cfg.model_kind} is line-level only; {multi} manifest samples "
                "are paragraphs (use mamba-ar for multi-line images)")

    texts = [s.transcript for s in train_samples] + \
            [s.transcript for s in valid_samples]
    if synth_samples:
        texts += [s.transcript for s in synth_samples]
    vocabulary = Vocabulary.from_texts(texts)
    for split, samples in (("train", train_samples), ("synth", synth_samples or [])):
        for i, s in enumerate(samples):
            _refuse_unfit(cfg, vocabulary, s, f"{split}:{i}")
    model = build_model(cfg, vocabulary)
    params = model.params()
    opt = AdamW(params, lr=cfg.lr, betas=(cfg.beta1, cfg.beta2),
                weight_decay=cfg.weight_decay)
    data_rng = np.random.default_rng([cfg.seed, 1])
    start_step = 0

    if cfg.resume:
        ck = C.load(cfg.resume)
        if ck.model_kind != cfg.model_kind:
            raise C.CheckpointError(
                f"checkpoint is {ck.model_kind}, config wants {cfg.model_kind}")
        if ck.vocab_chars != "".join(vocabulary.chars):
            raise C.CheckpointError("checkpoint vocabulary does not match dataset")
        C.apply_to_model(ck, model)
        for name in params:
            if f"adam.m.{name}" in ck.tensors:
                opt.m[name] = ck.tensors[f"adam.m.{name}"].astype(np.float64)
                opt.v[name] = ck.tensors[f"adam.v.{name}"].astype(np.float64)
        start_step = ck.step
        opt.t = ck.step
        if ck.rng_state:
            data_rng.bit_generator.state = ck.rng_state
        log(f"resumed from {cfg.resume} at step {start_step}")

    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    config_map = config_to_mapping(cfg)
    aug_spec = AugmentSpec(prob=cfg.augment_prob) if cfg.augment else None

    def save_ckpt(path, step):
        extra = {}
        for name in params:
            extra[f"adam.m.{name}"] = opt.m[name]
            extra[f"adam.v.{name}"] = opt.v[name]
        ck = C.collect_from_model(model, config_map,
                                  rng_state=data_rng.bit_generator.state,
                                  step=step, extra=extra)
        C.save(path, ck)

    decode_len = _decode_max_len(valid_samples, cfg)
    best_cer = float("inf")
    best_step = -1
    last_loss = float("nan")
    loss_history = []
    cer_history = []
    best_path = str(out_dir / "best.ckpt")
    last_path = str(out_dir / "last.ckpt")
    model.train()
    step = start_step

    def run_eval(step):
        nonlocal best_cer, best_step
        report = evaluate(model, valid_samples, max_len=decode_len)
        cer_val = report.cer
        cer_history.append((step, cer_val))
        log(f"step {step}: val CER {cer_val:.3f}%")
        if cfg.eval_every > 0 and cer_val < best_cer:
            best_cer = cer_val
            best_step = step
            save_ckpt(best_path, step)
        return cer_val

    while step < cfg.max_steps:
        step += 1
        pool = _curriculum_pool(train_samples, step, cfg)
        n_synth = 0
        if synth_samples:
            # stochastic rounding keeps the configured mix even when the
            # batch is too small to hold a whole synthetic sample
            exact = cfg.synth_mix * cfg.batch_size
            n_synth = int(exact) + (1 if data_rng.random() < exact - int(exact) else 0)
            n_synth = min(n_synth, cfg.batch_size)
        n_real = cfg.batch_size - n_synth
        batch_ids = list(data_rng.choice(len(pool), size=min(n_real, len(pool)),
                                         replace=len(pool) < n_real))
        batch = [(train_samples[pool[i]], f"train:{pool[i]}") for i in batch_ids]
        if n_synth:
            sidx = data_rng.choice(len(synth_samples), size=n_synth,
                                   replace=len(synth_samples) < n_synth)
            batch += [(synth_samples[i], f"synth:{i}") for i in sidx]

        opt.zero_grad()
        total = 0.0
        ids_for_diag = [tag for _, tag in batch]
        try:
            # divergence surfaces as NonFiniteError, not as numpy warnings
            with np.errstate(over="ignore", invalid="ignore"):
                for k, (sample, _) in enumerate(batch):
                    img = sample.image
                    if aug_spec is not None:
                        # keyed by (augment.seed, step, slot): resume needs no
                        # extra state, and batch draws do not depend on it
                        seed = np.random.SeedSequence([cfg.augment_seed, step, k])
                        img = augment(img, dataclasses.replace(aug_spec, seed=seed))
                    loss = model.loss(img, sample.transcript)
                    T.backward(T.mul(loss, 1.0 / len(batch)))
                    total += loss.item()
        except BaseException as e:
            T.active_tape().reset()  # the failed forward's nodes
            if isinstance(e, T.NonFiniteError):
                raise TrainAbort(step, cfg.lr, ids_for_diag, str(e)) from e
            raise
        last_loss = total / len(batch)
        if not np.isfinite(last_loss):
            raise TrainAbort(step, cfg.lr, ids_for_diag, f"loss={last_loss}")
        loss_history.append(last_loss)
        grad_norm = clip_global_norm(params, cfg.clip_norm)
        if not np.isfinite(grad_norm):  # AdamW would write it into the weights
            raise TrainAbort(step, cfg.lr, ids_for_diag, f"gradient norm {grad_norm}")
        opt.step()

        if cfg.eval_every > 0 and step % cfg.eval_every == 0:
            cer_val = run_eval(step)
            if cfg.target_cer is not None and cer_val <= cfg.target_cer:
                log(f"target CER {cfg.target_cer}% reached at step {step}")
                break
        if step % 50 == 0:
            log(f"step {step}: loss {last_loss:.4f}")

    if not cer_history or cer_history[-1][0] != step:
        run_eval(step)
    save_ckpt(last_path, step)
    if best_step < 0:
        best_cer = cer_history[-1][1]
        best_step = step
        save_ckpt(best_path, step)
    return TrainResult(
        steps=step, final_loss=last_loss, best_cer=best_cer, best_step=best_step,
        last_path=last_path, best_path=best_path,
        wall_seconds=time.perf_counter() - t0,
        loss_history=loss_history, cer_history=cer_history,
    )
