"""GIN graph encoder (Sec. V-B, Eq. 5).

Encodes a feature graph into a similarity-aware dataset embedding.  Each
GINConv layer computes

    h_i^{(l+1)} = f_θ( (1 + ε)·h_i^{(l)} + Σ_{j ∈ N(i)} e'_{ji} · h_j^{(l)} )

with a learnable ε per layer and the join correlations e' as edge weights;
a final sum pooling over vertices produces the embedding X (the paper uses
sum pooling explicitly).
"""

from __future__ import annotations

import numpy as np
from numpy.typing import DTypeLike

from .. import nn
from ..nn.autograd import Tensor
from ..utils.rng import rng_from_seed
from .graph import FeatureGraph, batch_graphs


def gin_combine(h: nn.Tensor, adjacency: np.ndarray,
                epsilon: nn.Tensor) -> nn.Tensor:
    """Fused ``(1 + ε)·h + A·h`` as one autograd node.

    The adjacency is a constant and — being the symmetrized ``E + Eᵀ`` —
    equals its own transpose, so the backward pass reuses it directly
    instead of a strided transposed batched matmul.  Fusing the
    scale-and-aggregate avoids four intermediate tensors per layer on the
    training hot path.
    """
    eps = 1.0 + float(epsilon.data[0])
    data = eps * h.data + adjacency @ h.data
    h_data = h.data

    def backward(grad: np.ndarray
                 ) -> list[tuple[nn.Tensor, np.ndarray]]:
        out = []
        if h.requires_grad:
            out.append((h, eps * grad + adjacency @ grad))
        if epsilon.requires_grad:
            out.append((epsilon, np.array([(grad * h_data).sum()])))
        return out

    return Tensor._make(data, (h, epsilon), backward)


def masked_sum_pool(h: nn.Tensor, mask: np.ndarray) -> nn.Tensor:
    """Fused masked sum pooling ``Σ_i mask_i · h_i`` over the vertex axis."""
    data = (h.data * mask[:, :, None]).sum(axis=1)

    def backward(grad: np.ndarray
                 ) -> tuple[tuple[nn.Tensor, np.ndarray], ...]:
        return ((h, grad[:, None, :] * mask[:, :, None]),)

    return Tensor._make(data, (h,), backward)


class GINLayer(nn.Module):
    """One GINConv layer with learnable ε and a 2-layer MLP as f_θ."""

    def __init__(self, in_dim: int, out_dim: int,
                 rng: np.random.Generator) -> None:
        super().__init__()
        self.epsilon = nn.Tensor(np.zeros(1), requires_grad=True)
        # output_activation="relu" lets the MLP fuse the layer's final ReLU
        # into its last affine node on the training hot path.
        self.mlp = nn.MLP([in_dim, out_dim, out_dim], rng,
                          output_activation="relu")

    def forward(self, h: nn.Tensor, adjacency: np.ndarray,
                mask: np.ndarray) -> nn.Tensor:
        # h: [B, n, d]; adjacency: [B, n, n] (weighted, symmetric).
        # The MLP's fused affine collapses [B, n, d] to one [B·n, d] GEMM;
        # padded vertices need no per-layer zeroing — their adjacency
        # rows/columns are zero, so they never reach a real vertex, and the
        # encoder's final sum pooling masks them out.
        return self.mlp(gin_combine(h, adjacency, self.epsilon))


class GINEncoder(nn.Module):
    """Stack of GINConv layers + sum pooling (the graph encoder G).

    ``dtype`` selects the encoder's precision tier.  Parameters are always
    *initialized* in float64 from the seeded RNG and then cast, so a float32
    encoder starts from (the rounding of) the exact same weights as its
    float64 twin — the property-based equivalence harness depends on this.
    Inputs are cast at the forward boundary; the autograd engine keeps the
    tier end-to-end from there.
    """

    def __init__(self, vertex_dim: int, hidden_dim: int = 64,
                 embedding_dim: int = 32, num_layers: int = 2,
                 seed: int | np.random.Generator = 0,
                 dtype: DTypeLike = np.float64) -> None:
        super().__init__()
        rng = rng_from_seed(seed)
        self.vertex_dim = vertex_dim
        self.embedding_dim = embedding_dim
        dims = [vertex_dim] + [hidden_dim] * (num_layers - 1) + [embedding_dim]
        self.layers = []
        for i, (d_in, d_out) in enumerate(zip(dims[:-1], dims[1:])):
            layer = GINLayer(d_in, d_out, rng)
            self.layers.append(layer)
            setattr(self, f"gin{i}", layer)
        self.dtype = np.dtype(np.float64)
        self.to(dtype)

    def to(self, dtype: DTypeLike) -> "GINEncoder":
        super().to(dtype)
        object.__setattr__(self, "dtype", np.dtype(dtype))
        return self

    def _cast(self, array: np.ndarray) -> np.ndarray:
        """Bring a forward input onto the encoder's precision tier (no-copy
        when it already is)."""
        return np.asarray(array, dtype=self.dtype)

    def forward(self, vertices: np.ndarray, edges: np.ndarray,
                mask: np.ndarray) -> nn.Tensor:
        """Batched encoding: [B, n, d] + [B, n, n] + [B, n] → [B, e]."""
        # Symmetrize: messages flow both ways along a join edge.
        edges = self._cast(edges)
        return self.forward_adjacency(
            vertices, edges + np.swapaxes(edges, 1, 2), mask)

    def forward_adjacency(self, vertices: np.ndarray, adjacency: np.ndarray,
                          mask: np.ndarray) -> nn.Tensor:
        """Encoding from an already-symmetrized adjacency (``E + Eᵀ``).

        The fast training path precomputes the symmetrized adjacency once per
        corpus (see :class:`~repro.core.graph.GraphTensorBatcher`) instead of
        re-deriving it on every forward call.
        """
        h = nn.Tensor(self._cast(vertices))
        adjacency = self._cast(adjacency)
        mask = self._cast(mask)
        for layer in self.layers:
            h = layer(h, adjacency, mask)
        # Sum pooling over (unpadded) vertices.
        return masked_sum_pool(h, mask)

    def encode_batch(self, graphs: list[FeatureGraph]) -> nn.Tensor:
        vertices, edges, mask = batch_graphs(graphs, dtype=self.dtype)
        return self.forward(vertices, edges, mask)

    def embed(self, graphs: list[FeatureGraph]) -> np.ndarray:
        """Inference-mode embeddings as a plain numpy array [B, e]."""
        with nn.no_grad():
            return self.encode_batch(graphs).numpy()
