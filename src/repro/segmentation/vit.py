"""ViT-based sparse eye segmentation (paper Sec. III-B, Fig. 6).

Architecture, following Strudel et al.'s Segmenter as the paper does:

* **patch embedding** — the sparse frame is split into non-overlapping
  patches; each token is the concatenation of the (masked) pixel values
  and the sampling-mask bits of its patch, linearly projected and given a
  learned positional embedding.  Carrying the mask bits lets the network
  distinguish "dark pixel" from "unsampled pixel".
* **encoder** — ``depth`` pre-LN MHA modules.  Tokens whose patch contains
  no sampled pixel are marked invalid and excluded from attention via a
  key-padding mask, which is how the computation "naturally reduces as the
  pixel volume reduces".
* **decoder** — learned class embeddings are appended as extra tokens and
  ``decoder_depth`` MHA modules run over the joint sequence; a linear head
  then expands every patch token into per-pixel class logits, and argmax
  yields the segmentation (Fig. 6's "MHA module x 2" + argmax).

Paper-scale configuration: 12 encoder MHA modules, 2 decoder modules,
3 heads x 192 channels.  The CI configuration shrinks depth/width only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import nn
from repro.nn import functional as F
from repro.nn import init
from repro.synth.eye_model import NUM_CLASSES

__all__ = ["ViTConfig", "ViTSegmenter"]


@dataclass(frozen=True)
class ViTConfig:
    """Hyper-parameters of the ViT segmenter."""

    height: int = 64
    width: int = 64
    patch: int = 8
    dim: int = 48
    heads: int = 3
    depth: int = 2
    decoder_depth: int = 1
    mlp_ratio: float = 2.0
    num_classes: int = NUM_CLASSES

    @staticmethod
    def paper(height: int = 400, width: int = 640) -> "ViTConfig":
        """The configuration reported in Sec. III-B."""
        return ViTConfig(
            height=height,
            width=width,
            patch=16,
            dim=192,
            heads=3,
            depth=12,
            decoder_depth=2,
            mlp_ratio=4.0,
        )

    @property
    def tokens(self) -> int:
        return (self.height // self.patch) * (self.width // self.patch)

    def __post_init__(self):
        if self.height % self.patch or self.width % self.patch:
            raise ValueError(
                f"{self.height}x{self.width} not divisible by patch {self.patch}"
            )
        if self.dim % self.heads:
            raise ValueError(f"dim {self.dim} not divisible by heads {self.heads}")


class ViTSegmenter(nn.Module):
    """Sparse-input ViT segmentation network with full backprop."""

    #: The forward has no batch-coupled modules (LayerNorm and masked
    #: attention are per-row regardless of ``training``), so the engine
    #: may batch ``predict_batch`` even on a net still in training mode.
    predict_batch_requires_eval = False

    def __init__(self, config: ViTConfig, rng: np.random.Generator):
        super().__init__()
        self.config = config
        c = config
        in_dim = 2 * c.patch * c.patch  # pixel values + mask bits
        self.patch_embed = nn.Linear(in_dim, c.dim, rng)
        self.pos_embed = nn.Parameter(
            init.truncated_normal((1, c.tokens, c.dim), rng), name="pos_embed"
        )
        self.class_embed = nn.Parameter(
            init.truncated_normal((1, c.num_classes, c.dim), rng), name="class_embed"
        )
        self.encoder = [
            nn.TransformerBlock(c.dim, c.heads, c.mlp_ratio, rng)
            for _ in range(c.depth)
        ]
        self.decoder = [
            nn.TransformerBlock(c.dim, c.heads, c.mlp_ratio, rng)
            for _ in range(c.decoder_depth)
        ]
        self.final_norm = nn.LayerNorm(c.dim)
        self.head = nn.Linear(c.dim, c.patch * c.patch * c.num_classes, rng)

    # -- helpers ---------------------------------------------------------------
    def _tokenize(
        self, frames: np.ndarray, masks: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Frames+masks (B, H, W) -> token features (B, T, 2p^2), validity (B, T)."""
        c = self.config
        frames = frames[:, None]  # (B, 1, H, W)
        masks_f = masks.astype(np.float64)[:, None]
        pix = F.patchify(frames * masks_f, c.patch)
        bit = F.patchify(masks_f, c.patch)
        valid = bit.sum(axis=-1) > 0  # token has at least one sampled pixel
        return np.concatenate([pix, bit], axis=-1), valid

    # -- forward / backward ------------------------------------------------------
    def forward(self, frames: np.ndarray, masks: np.ndarray) -> np.ndarray:
        """Sparse frames (B, H, W) + sampling masks -> logits (B, H, W, K)."""
        c = self.config
        if frames.ndim != 3:
            raise ValueError(f"expected (B, H, W) frames, got {frames.shape}")
        tokens, valid = self._tokenize(frames, masks)
        batch = tokens.shape[0]
        x = self.patch_embed(tokens) + self.pos_embed.data
        for block in self.encoder:
            x = block(x, key_mask=valid)
        cls = np.broadcast_to(
            self.class_embed.data, (batch, c.num_classes, c.dim)
        ).copy()
        joint = np.concatenate([x, cls], axis=1)
        joint_valid = np.concatenate(
            [valid, np.ones((batch, c.num_classes), dtype=bool)], axis=1
        )
        for block in self.decoder:
            joint = block(joint, key_mask=joint_valid)
        patch_tokens = joint[:, : c.tokens]
        normed = self.final_norm(patch_tokens)
        return self._logits_image(self.head(normed))

    def _logits_image(self, logits_flat: np.ndarray) -> np.ndarray:
        """Head logits ``(B, T, p*p*K)`` -> per-pixel logits ``(B, H, W, K)``."""
        c = self.config
        batch = logits_flat.shape[0]
        per_pixel = logits_flat.reshape(batch, c.tokens, c.patch * c.patch, c.num_classes)
        # Rearrange to (B, H, W, K) via unpatchify on each class channel.
        per_pixel = per_pixel.transpose(0, 1, 3, 2).reshape(
            batch, c.tokens, c.num_classes * c.patch * c.patch
        )
        img = F.unpatchify(per_pixel, c.patch, c.num_classes, c.height, c.width)
        return img.transpose(0, 2, 3, 1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        c = self.config
        batch = grad.shape[0]
        grad = grad.transpose(0, 3, 1, 2)  # (B, K, H, W)
        grad_tokens = F.patchify(grad, c.patch)  # (B, T, K*p*p)
        grad_tokens = grad_tokens.reshape(
            batch, c.tokens, c.num_classes, c.patch * c.patch
        ).transpose(0, 1, 3, 2)
        grad_flat = grad_tokens.reshape(batch, c.tokens, -1)
        grad_normed = self.head.backward(grad_flat)
        grad_patch_tokens = self.final_norm.backward(grad_normed)
        grad_joint = np.concatenate(
            [
                grad_patch_tokens,
                np.zeros((batch, c.num_classes, c.dim)),
            ],
            axis=1,
        )
        for block in reversed(self.decoder):
            grad_joint = block.backward(grad_joint)
        grad_x = grad_joint[:, : c.tokens]
        self.class_embed.grad += grad_joint[:, c.tokens :].sum(axis=0, keepdims=True)
        for block in reversed(self.encoder):
            grad_x = block.backward(grad_x)
        self.pos_embed.grad += grad_x.sum(axis=0, keepdims=True)
        return self.patch_embed.backward(grad_x)

    def backward_to_input(self, grad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Backward pass returning pixel-space input gradients.

        Returns ``(grad_sparse_frame, grad_mask_channel)``, each ``(B, H,
        W)`` — the gradients with respect to the masked pixel values and
        the mask bits.  These feed the joint training's approximate
        differentiation through the sampling stage (Sec. III-C).
        """
        c = self.config
        grad_tokens = self.backward(grad)  # (B, T, 2*p*p)
        half = c.patch * c.patch
        grad_pix = F.unpatchify(
            grad_tokens[..., :half], c.patch, 1, c.height, c.width
        )[:, 0]
        grad_bit = F.unpatchify(
            grad_tokens[..., half:], c.patch, 1, c.height, c.width
        )[:, 0]
        return grad_pix, grad_bit

    # -- inference -----------------------------------------------------------
    def predict(self, frame: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Single sparse frame -> integer segmentation map (argmax layer)."""
        return self.predict_batch(frame[None], mask[None])[0]

    def predict_batch(self, frames: np.ndarray, masks: np.ndarray) -> np.ndarray:
        """Dense segmentation maps of a ``(B, H, W)`` rank, row-independent.

        One stacked dense forward under :func:`repro.nn.inference`: every
        row keeps the full token grid, so the rank is a single
        fixed-shape group (see :meth:`predict_packed_batch` on the BLAS
        property this rests on).  The strategy graph's segment-or-reuse
        stage runs through this dense path, not the packed one.
        """
        with nn.inference():
            return np.argmax(self.forward(frames, masks), axis=-1)

    def forward_packed(
        self, frame: np.ndarray, mask: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sparse inference with *physically dropped* empty tokens.

        This is how "the cost of computation naturally reduces as the
        pixel volume reduces" (Sec. III-B) is realized at inference: only
        patch tokens containing sampled pixels enter the transformer, so
        attention and MLP cost scale with the valid-token count, not the
        frame size.  Because masked attention already isolates valid
        tokens from invalid ones, the logits produced for valid patches
        are identical to :meth:`forward`'s (up to float round-off).

        Returns ``(logits (H, W, K), token_valid (T,))``; patches without
        sampled pixels receive all-zero logits (argmax -> background).
        A width-1 :meth:`_packed_logits` rank under
        :func:`repro.nn.inference`.
        """
        tokens = self.config.tokens
        _, tok, packed = self._packed_logits(frame[None], mask[None])
        logits = np.zeros((1, tokens, packed.shape[1]))
        logits[0, tok] = packed
        valid = np.zeros(tokens, dtype=bool)
        valid[tok] = True
        return self._logits_image(logits)[0], valid

    def predict_packed(self, frame: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Like :meth:`predict` but with dropped-token (fast) inference."""
        return self.predict_packed_batch(frame[None], mask[None])[0]

    def predict_packed_batch(
        self, frames: np.ndarray, masks: np.ndarray
    ) -> np.ndarray:
        """Packed inference over a rank of frames, bitwise-equal per frame.

        The valid tokens of every frame are packed into one ``(N, D)``
        slab, frames ordered by valid-token count, so patch embedding,
        every LayerNorm, Linear, GELU and residual add, the final norm,
        the head and the argmax each run once per rank.  Only the
        attention core runs per group of equal-count frames, on
        ``(frames, count, 3D)`` views of the slab (the ``runs`` of
        :class:`~repro.nn.MultiHeadAttention`); the decoder's class
        tokens are placed into a joint slab by precomputed indices.
        Frames without a valid token never enter the slab.

        A frame's labels do not depend on the rest of its rank because
        the rows of a BLAS GEMM with at least two rows are bitwise
        independent of the row count and offset, and the attention core
        sees the same shapes at every rank width.  A one-row product
        takes numpy's vector path instead, which rounds differently, so
        a slab of one token is padded to two by running its frame twice.
        The GEMM property belongs to the installed BLAS, not to IEEE; the
        engine equivalence tests pin it, in CI on single-threaded BLAS
        as well.  Forwards run under :func:`repro.nn.inference`.
        """
        c = self.config
        p = c.patch
        rows, tok, logits = self._packed_logits(frames, masks)
        # Empty patches carry all-zero logits, so their argmax is class 0
        # (background), which is what a zero-initialized map encodes.
        seg_tokens = np.zeros((frames.shape[0], c.tokens, p * p), dtype=np.int64)
        # Per-token head layout is (pixel, class).
        seg_tokens[rows, tok] = np.argmax(
            logits.reshape(tok.size, p * p, c.num_classes), axis=-1
        )
        return (
            seg_tokens.reshape(-1, c.height // p, c.width // p, p, p)
            .transpose(0, 1, 3, 2, 4)
            .reshape(-1, c.height, c.width)
        )

    def _packed_logits(
        self, frames: np.ndarray, masks: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Head logits of every valid token of a rank, computed on one slab.

        Returns ``(frame, token, logits)``: one row per valid token, in
        slab order (frames by ascending valid-token count, tokens
        ascending within a frame), with ``logits`` of shape
        ``(N, p*p*K)``.
        """
        c = self.config
        if frames.ndim != 3:
            raise ValueError(f"expected (B, H, W) frames, got {frames.shape}")
        k = c.num_classes
        tokens, valid = self._tokenize(frames, masks)
        counts = valid.sum(axis=1)
        order = np.argsort(counts, kind="stable")
        order = order[counts[order] > 0]
        single = counts.sum() == 1
        if single:
            order = np.repeat(order, 2)  # never a one-row slab
        lengths = counts[order]
        slot, tok = np.nonzero(valid[order])  # slab rows, frame by frame
        rows = order[slot]
        if not order.size:
            return rows, tok, np.zeros((0, self.head.out_features))
        starts = np.cumsum(lengths) - lengths
        groups = zip(*np.unique(lengths, return_index=True, return_counts=True))
        runs, joint_runs = [], []
        for length, first, members in groups:
            start = int(starts[first])
            runs.append((start, int(members), int(length)))
            joint_runs.append((start + k * int(first), int(members), int(length) + k))
        # In the joint slab each frame's tokens are followed by its k
        # class tokens.
        token_at = np.arange(slot.size) + k * slot
        class_at = (starts + lengths + k * np.arange(order.size))[:, None]
        class_at = class_at + np.arange(k)
        with nn.inference():
            x = self.patch_embed(tokens[rows, tok])
            x += self.pos_embed.data[0][tok]
            for block in self.encoder:
                x = block(x, runs=runs)
            joint = np.empty((slot.size + k * order.size, c.dim))
            joint[token_at] = x
            joint[class_at] = self.class_embed.data[0]
            for block in self.decoder:
                joint = block(joint, runs=joint_runs)
            logits = self.head(self.final_norm(joint[token_at]))
        if single:
            return rows[:1], tok[:1], logits[:1]
        return rows, tok, logits

    # -- cost model ------------------------------------------------------------
    def mac_count(self, valid_tokens: int | None = None) -> int:
        """MACs for one frame; sparse inputs shrink the attention cost.

        ``valid_tokens`` is the number of patch tokens containing at least
        one sampled pixel; None means a dense frame (all tokens valid).
        """
        c = self.config
        t = c.tokens if valid_tokens is None else int(valid_tokens)
        total = t * self.patch_embed.in_features * self.patch_embed.out_features
        for block in self.encoder:
            total += block.mac_count(t)
        for block in self.decoder:
            total += block.mac_count(t + c.num_classes)
        total += t * self.head.in_features * self.head.out_features
        return total
