"""Layer-graph intermediate representation for whole-model compilation.

The paper's architecture discussion (Section II-E, ISAAC [32]) assumes a
*whole DNN* is spatially mapped onto many crossbar tiles and executed as a
pipeline.  Everything below this module operates on one weight matrix at a
time; the IR is the missing contract between "a trained model" and "a
machine full of tiles":

* :class:`LayerNode` — one pipeline stage: a dense, conv2d or matmul
  stage with its weights, bias, activation and input calibration scale;
* :class:`LayerGraph` — a validated *DAG* of nodes with a software
  reference forward pass (the numerics oracle every schedule must match);
* :class:`GraphBuilder` — a fluent builder for hand-written graphs;
* :func:`trace_mlp` / :func:`trace_cnn` — extraction from the
  :class:`~repro.apps.nn.MLP` and :class:`~repro.apps.cnn.SimpleCNN`
  models (per-layer ``input_scale`` from calibration activations,
  ``w_max`` normalization at deployment time).
  :class:`~repro.apps.nn.CrossbarMLP` is a traced graph deployed onto
  tiles; its subclass :class:`~repro.apps.cnn.CrossbarCNN` only traces
  with :func:`trace_cnn` instead.

The graph is a general fork-join DAG: nodes declare their producers by
name (``inputs``), nodes with no declared producers auto-wire as a chain
(the shape every feed-forward model lowers to, and the historical
behaviour), and validation is edge-based — cycle detection, dangling-edge
resolution, and per-edge shape checks.  ``GRAPH_INPUT`` is the reserved
producer name for the graph's external input; the graph must converge to
exactly one sink.

Two node kinds beyond dense/conv2d make attention expressible:

* per-token dense (``tokens > 0``) applies one weight matrix to every
  token of a ``(batch, tokens * fan_in)`` payload — the Q/K/V projection;
* ``matmul`` consumes *two* producers: the left operand streams through
  the crossbar while the right operand is programmed into it per sample
  (QK^T and AV, the data-dependent products of attention), with the
  softmax running in the digital periphery as the node activation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.utils.validation import check_positive

__all__ = [
    "GRAPH_INPUT",
    "LayerNode",
    "LayerGraph",
    "GraphBuilder",
    "trace_mlp",
    "trace_cnn",
]

_ACTIVATIONS = ("relu", "softmax", "none")
_KINDS = ("dense", "conv2d", "matmul")

#: Reserved producer name standing for the graph's external input.
GRAPH_INPUT = "@input"


def _apply_activation(z: np.ndarray, activation: str) -> np.ndarray:
    if activation == "relu":
        return np.maximum(z, 0.0)
    if activation == "softmax":
        # Shifted-exp softmax over the last axis: subtracting the row max
        # keeps every exponent <= 0, so large logits (e.g. unnormalized
        # QK^T scores) can never overflow to inf/nan.
        shifted = z - np.max(z, axis=-1, keepdims=True)
        e = np.exp(shifted)
        return e / np.sum(e, axis=-1, keepdims=True)
    return z


@dataclass
class LayerNode:
    """One pipeline stage: a weight layer plus its deployment metadata.

    ``kind`` is ``"dense"`` (``y = act(x @ W + b)``), ``"conv2d"``
    (im2col lowering: every ``kernel x kernel`` patch of the input image
    becomes one wordline vector against the stationary ``(k*k, filters)``
    kernel bank, the weight-stationary dataflow of a crossbar CNN) or
    ``"matmul"`` (``Y = act(scale * A @ B + b)`` per sample, with ``A``
    from the first producer and ``B`` from the second, programmed into
    the crossbar — ``weights`` is then a placeholder fixing the crossbar
    geometry ``(contraction, out)``).

    ``inputs`` names the producer nodes (empty = auto-chain at graph
    build).  ``tokens > 0`` marks a per-token stage: the flat payload is
    ``(batch, tokens * fan_in)`` and the weights apply to every token.
    ``input_scale`` is the calibration divisor applied before encoding
    activations into the crossbar's ``[0, 1]`` input domain.
    """

    name: str
    kind: str
    weights: np.ndarray
    bias: np.ndarray
    activation: str = "relu"
    input_scale: float = 1.0
    image_size: int = 0       # conv2d only: input image edge length
    kernel: int = 0           # conv2d only: kernel edge length
    inputs: Tuple[str, ...] = ()
    tokens: int = 0           # dense/matmul: tokens per sample (0 = flat)
    transpose_right: bool = False  # matmul only: use B^T
    matmul_scale: float = 1.0      # matmul only: product prescale

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.activation not in _ACTIVATIONS:
            raise ValueError(
                f"activation must be one of {_ACTIVATIONS}, got "
                f"{self.activation!r}"
            )
        self.inputs = tuple(str(s) for s in self.inputs)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.ndim != 2:
            raise ValueError(
                f"weights must be 2-D, got shape {self.weights.shape}"
            )
        self.bias = np.asarray(self.bias, dtype=float)
        if self.bias.shape != (self.weights.shape[1],):
            raise ValueError(
                f"bias must have shape ({self.weights.shape[1]},), got "
                f"{self.bias.shape}"
            )
        check_positive("input_scale", self.input_scale)
        if self.tokens < 0:
            raise ValueError(f"tokens must be >= 0, got {self.tokens}")
        if self.kind == "conv2d":
            if self.tokens:
                raise ValueError("conv2d nodes do not take tokens")
            if self.image_size < 2 or self.kernel < 1:
                raise ValueError(
                    "conv2d nodes need image_size >= 2 and kernel >= 1"
                )
            if self.kernel > self.image_size:
                raise ValueError(
                    f"kernel {self.kernel} exceeds image size {self.image_size}"
                )
            if self.weights.shape[0] != self.kernel * self.kernel:
                raise ValueError(
                    f"conv2d weights must have {self.kernel**2} rows, got "
                    f"{self.weights.shape[0]}"
                )
        if self.kind == "matmul":
            if self.tokens < 1:
                raise ValueError("matmul nodes need tokens >= 1")
            check_positive("matmul_scale", self.matmul_scale)

    # ------------------------------------------------------------- geometry
    @property
    def conv_out_edge(self) -> int:
        """Output feature-map edge length (valid convolution)."""
        return self.image_size - self.kernel + 1

    @property
    def patches_per_sample(self) -> int:
        """Crossbar input vectors produced per sample (1 for flat dense)."""
        if self.kind == "conv2d":
            return self.conv_out_edge**2
        if self.tokens:
            return self.tokens
        return 1

    @property
    def in_features(self) -> int:
        """Flat input width of the stage (pixels for conv2d; the *left*
        operand for matmul)."""
        if self.kind == "conv2d":
            return self.image_size**2
        if self.tokens:
            return self.tokens * int(self.weights.shape[0])
        return int(self.weights.shape[0])

    @property
    def right_in_features(self) -> int:
        """Flat width of a matmul node's second (programmed) operand."""
        if self.kind != "matmul":
            raise ValueError(f"node {self.name!r} is not a matmul stage")
        return int(self.weights.shape[0] * self.weights.shape[1])

    @property
    def out_features(self) -> int:
        """Flat output width of the stage."""
        if self.kind == "conv2d":
            return self.patches_per_sample * int(self.weights.shape[1])
        if self.tokens:
            return self.tokens * int(self.weights.shape[1])
        return int(self.weights.shape[1])

    @property
    def macs_per_sample(self) -> int:
        """Multiply-accumulates one sample costs on this stage — the load
        estimate the allocator's duplication heuristic balances."""
        return self.patches_per_sample * int(self.weights.size)

    # ------------------------------------------------------------- numerics
    def _right_operand(self, flat: np.ndarray) -> np.ndarray:
        """Per-sample ``B`` matrices from the second producer's payload."""
        rows, cols = self.weights.shape
        batch = flat.shape[0]
        if self.transpose_right:
            return flat.reshape(batch, cols, rows).transpose(0, 2, 1)
        return flat.reshape(batch, rows, cols)

    def reference_forward(self, *inputs: np.ndarray) -> np.ndarray:
        """Ideal software forward pass (float, no crossbar effects)."""
        h = np.asarray(inputs[0], dtype=float)
        if self.kind == "conv2d":
            from repro.apps.cnn import im2col

            if h.ndim == 2:  # mid-graph conv: flat payload -> images
                h = h.reshape(h.shape[0], self.image_size, self.image_size)
            patches = im2col(h, self.kernel)
            z = patches @ self.weights + self.bias
            z = _apply_activation(z, self.activation)
            return z.reshape(h.shape[0], -1)
        if self.kind == "matmul":
            right = np.asarray(inputs[1], dtype=float)
            rows, cols = self.weights.shape
            a = h.reshape(h.shape[0], self.tokens, rows)
            z = a @ self._right_operand(right) * self.matmul_scale + self.bias
            z = _apply_activation(z, self.activation)
            return z.reshape(h.shape[0], -1)
        if self.tokens:
            batch = h.shape[0]
            flat = h.reshape(batch * self.tokens, int(self.weights.shape[0]))
            z = flat @ self.weights + self.bias
            z = _apply_activation(z, self.activation)
            return z.reshape(batch, -1)
        z = h @ self.weights + self.bias
        return _apply_activation(z, self.activation)


class LayerGraph:
    """A validated DAG of :class:`LayerNode` stages.

    Construction resolves every node's producers (auto-wiring undeclared
    nodes as a chain, the historical behaviour), then validates the
    graph edge-by-edge: unknown producer names are *dangling edges*,
    Kahn's algorithm rejects *cycles* (naming the members), every edge is
    *shape-checked* (producer flat width against the consumer port), and
    the graph must converge to exactly one sink.  Nodes are stored in
    topological order.  The graph knows its software reference semantics
    (:meth:`reference_forward`) — the oracle the allocator and scheduler
    are tested against.
    """

    def __init__(self, nodes: Sequence[LayerNode]) -> None:
        nodes = list(nodes)
        if not nodes:
            raise ValueError("a LayerGraph needs at least one node")
        names = [n.name for n in nodes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate node names: {names}")
        if GRAPH_INPUT in names:
            raise ValueError(
                f"{GRAPH_INPUT!r} is reserved for the graph input"
            )
        by_name = {n.name: n for n in nodes}

        # ---- wiring: explicit producers, else auto-chain.
        wiring: Dict[str, Tuple[str, ...]] = {}
        for i, node in enumerate(nodes):
            if node.inputs:
                wiring[node.name] = node.inputs
            elif i == 0:
                wiring[node.name] = (GRAPH_INPUT,)
            else:
                wiring[node.name] = (nodes[i - 1].name,)

        # ---- arity and dangling-edge validation.
        for node in nodes:
            produced = wiring[node.name]
            expected = 2 if node.kind == "matmul" else 1
            if len(produced) != expected:
                raise ValueError(
                    f"{node.kind} node {node.name!r} must have exactly "
                    f"{expected} input(s), got {len(produced)}"
                )
            for src in produced:
                if src != GRAPH_INPUT and src not in by_name:
                    raise ValueError(
                        f"dangling edge: node {node.name!r} reads from "
                        f"unknown producer {src!r}"
                    )

        # ---- cycle detection (stable Kahn, preserving given order).
        indegree = {
            n.name: sum(1 for s in wiring[n.name] if s != GRAPH_INPUT)
            for n in nodes
        }
        consumers: Dict[str, List[str]] = {n.name: [] for n in nodes}
        for node in nodes:
            for src in wiring[node.name]:
                if src != GRAPH_INPUT:
                    consumers[src].append(node.name)
        ready = [n.name for n in nodes if indegree[n.name] == 0]
        topo: List[str] = []
        while ready:
            name = ready.pop(0)
            topo.append(name)
            for dst in consumers[name]:
                indegree[dst] -= 1
                if indegree[dst] == 0:
                    ready.append(dst)
        if len(topo) != len(nodes):
            cyclic = sorted(set(names) - set(topo))
            raise ValueError(
                f"layer graph contains a cycle through nodes {cyclic}"
            )

        # ---- per-edge shape checks.
        for name in topo:
            node = by_name[name]
            for slot, src in enumerate(wiring[name]):
                if node.kind == "matmul" and slot == 1:
                    expected = node.right_in_features
                    port = "right operand"
                else:
                    expected = node.in_features
                    port = "input"
                if src == GRAPH_INPUT:
                    continue  # entry widths are checked collectively below
                producer = by_name[src]
                if producer.out_features != expected:
                    raise ValueError(
                        f"edge {src!r} -> {name!r} is shape-incompatible: "
                        f"producer emits {producer.out_features} features "
                        f"but the {port} expects {expected}"
                    )

        # ---- entries: nodes fed by the graph input must agree on width.
        entries = [
            by_name[name]
            for name in topo
            if GRAPH_INPUT in wiring[name]
        ]
        if not entries:
            raise ValueError("no node consumes the graph input")
        widths = {e.in_features for e in entries}
        if len(widths) != 1:
            raise ValueError(
                f"entry stages disagree on the input width: "
                f"{sorted((e.name, e.in_features) for e in entries)}"
            )
        if any(e.kind == "conv2d" for e in entries) and len(entries) > 1:
            raise ValueError(
                "a conv2d entry stage cannot share the graph input with "
                "other entry stages"
            )

        # ---- single sink.
        consumed = {
            src for produced in wiring.values() for src in produced
        }
        sinks = [name for name in topo if name not in consumed]
        if len(sinks) != 1:
            raise ValueError(
                f"layer graph must have exactly one sink, got {sinks}"
            )

        self.nodes: List[LayerNode] = [by_name[name] for name in topo]
        self._by_name = by_name
        self._wiring = wiring
        self._entries = [e.name for e in entries]
        self._sink = sinks[0]

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)

    # ------------------------------------------------------------- topology
    def node(self, name: str) -> LayerNode:
        """The node called ``name``."""
        return self._by_name[name]

    def producers(self, name: str) -> Tuple[str, ...]:
        """Producer names of ``name`` (``GRAPH_INPUT`` for the host)."""
        return self._wiring[name]

    @property
    def entry_names(self) -> List[str]:
        """Names of the stages fed directly by the graph input."""
        return list(self._entries)

    @property
    def sink_name(self) -> str:
        """Name of the unique sink stage."""
        return self._sink

    def edges(self) -> List[Tuple[str, str]]:
        """All internal (producer, consumer) name pairs in topo order."""
        return [
            (src, node.name)
            for node in self.nodes
            for src in self._wiring[node.name]
            if src != GRAPH_INPUT
        ]

    # ------------------------------------------------------------- geometry
    @property
    def input_is_image(self) -> bool:
        """Whether the graph consumes ``(batch, H, W)`` images."""
        return self._by_name[self._entries[0]].kind == "conv2d"

    @property
    def in_features(self) -> int:
        """Flat input width of the whole graph."""
        return self._by_name[self._entries[0]].in_features

    @property
    def out_features(self) -> int:
        """Flat output width of the whole graph (the sink's)."""
        return self._by_name[self._sink].out_features

    # ------------------------------------------------------------- numerics
    def reference_forward(self, x: np.ndarray) -> np.ndarray:
        """Ideal software forward pass over the DAG in topological order."""
        x = self.validate_input(x)
        values: Dict[str, np.ndarray] = {GRAPH_INPUT: x}
        for node in self.nodes:
            ins = [values[src] for src in self._wiring[node.name]]
            values[node.name] = node.reference_forward(*ins)
        return values[self._sink]

    def validate_input(self, x: np.ndarray) -> np.ndarray:
        """Check (and coerce) a batch against the entry stages' shape."""
        x = np.asarray(x, dtype=float)
        entry = self._by_name[self._entries[0]]
        if entry.kind == "conv2d":
            expected = (entry.image_size, entry.image_size)
            if x.ndim != 3 or x.shape[1:] != expected:
                raise ValueError(
                    f"input must be (batch, {expected[0]}, {expected[1]}), "
                    f"got {x.shape}"
                )
        else:
            if x.ndim != 2 or x.shape[1] != entry.in_features:
                raise ValueError(
                    f"input must be (batch, {entry.in_features}), got {x.shape}"
                )
        return x


class GraphBuilder:
    """Fluent builder for hand-written layer graphs.

    Example::

        graph = (
            GraphBuilder()
            .dense(w1, b1)                 # relu by default
            .dense(w2, activation="none")  # logits
            .build()
        )

    Fork-join graphs name their producers explicitly (``GRAPH_INPUT``
    stands for the host input)::

        graph = (
            GraphBuilder()
            .dense(wq, tokens=seq, name="wq", inputs=(GRAPH_INPUT,))
            .dense(wk, tokens=seq, name="wk", inputs=(GRAPH_INPUT,))
            .matmul(d, seq, tokens=seq, inputs=("wq", "wk"),
                    transpose_right=True, activation="softmax")
            .build()
        )
    """

    def __init__(self) -> None:
        self._nodes: List[LayerNode] = []

    def _next_name(self, kind: str) -> str:
        return f"{kind}{len(self._nodes)}"

    def conv2d(
        self,
        weights: np.ndarray,
        bias: Optional[np.ndarray] = None,
        *,
        image_size: int,
        activation: str = "relu",
        input_scale: float = 1.0,
        name: Optional[str] = None,
        inputs: Sequence[str] = (),
    ) -> "GraphBuilder":
        """Append a conv2d stage (``(k*k, filters)`` kernel bank)."""
        weights = np.asarray(weights, dtype=float)
        kernel = int(round(np.sqrt(weights.shape[0])))
        if kernel * kernel != weights.shape[0]:
            raise ValueError(
                f"conv2d weights must have a square number of rows, got "
                f"{weights.shape[0]}"
            )
        self._nodes.append(
            LayerNode(
                name=name or self._next_name("conv"),
                kind="conv2d",
                weights=weights,
                bias=np.zeros(weights.shape[1]) if bias is None else bias,
                activation=activation,
                input_scale=input_scale,
                image_size=image_size,
                kernel=kernel,
                inputs=tuple(inputs),
            )
        )
        return self

    def dense(
        self,
        weights: np.ndarray,
        bias: Optional[np.ndarray] = None,
        *,
        activation: str = "relu",
        input_scale: float = 1.0,
        name: Optional[str] = None,
        inputs: Sequence[str] = (),
        tokens: int = 0,
    ) -> "GraphBuilder":
        """Append a dense stage (``(fan_in, fan_out)`` weights); with
        ``tokens > 0`` the matrix applies to every token of the payload."""
        weights = np.asarray(weights, dtype=float)
        self._nodes.append(
            LayerNode(
                name=name or self._next_name("dense"),
                kind="dense",
                weights=weights,
                bias=np.zeros(weights.shape[1]) if bias is None else bias,
                activation=activation,
                input_scale=input_scale,
                inputs=tuple(inputs),
                tokens=tokens,
            )
        )
        return self

    def matmul(
        self,
        contraction: int,
        out_width: int,
        *,
        tokens: int,
        inputs: Sequence[str],
        transpose_right: bool = False,
        scale: float = 1.0,
        activation: str = "none",
        input_scale: float = 1.0,
        name: Optional[str] = None,
        bias: Optional[np.ndarray] = None,
    ) -> "GraphBuilder":
        """Append a data-dependent matmul stage.

        The crossbar geometry is ``(contraction, out_width)``; the left
        producer streams ``tokens`` vectors of width ``contraction`` per
        sample, the right producer's payload is programmed into the
        crossbar (transposed when ``transpose_right``).
        """
        self._nodes.append(
            LayerNode(
                name=name or self._next_name("matmul"),
                kind="matmul",
                weights=np.zeros((int(contraction), int(out_width))),
                bias=np.zeros(int(out_width)) if bias is None else bias,
                activation=activation,
                input_scale=input_scale,
                inputs=tuple(inputs),
                tokens=int(tokens),
                transpose_right=bool(transpose_right),
                matmul_scale=float(scale),
            )
        )
        return self

    def build(self) -> LayerGraph:
        """Validate the DAG and return the :class:`LayerGraph`."""
        return LayerGraph(self._nodes)


def trace_mlp(mlp, calibration: np.ndarray) -> LayerGraph:
    """Extract a :class:`LayerGraph` from an :class:`~repro.apps.nn.MLP`.

    Per-layer ``input_scale`` is the maximum of that layer's calibration
    activations (the divisor that maps them into the crossbar's ``[0, 1]``
    input domain); hidden layers are relu, the output layer emits raw
    logits.  :class:`~repro.apps.nn.CrossbarMLP` is this graph deployed.
    """
    calibration = np.asarray(calibration, dtype=float)
    if calibration.ndim != 2 or calibration.shape[1] != mlp.layer_sizes[0]:
        raise ValueError(
            f"calibration must be (n, {mlp.layer_sizes[0]}), got "
            f"{calibration.shape}"
        )
    builder = GraphBuilder()
    h = calibration
    for k, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        last = k == mlp.n_layers - 1
        builder.dense(
            w,
            b,
            activation="none" if last else "relu",
            input_scale=float(max(h.max(), 1e-12)),
            name=f"fc{k}",
        )
        z = h @ w + b
        h = z if last else np.maximum(z, 0.0)
    return builder.build()


def trace_cnn(cnn, calibration: np.ndarray) -> LayerGraph:
    """Extract a :class:`LayerGraph` from a :class:`~repro.apps.cnn.SimpleCNN`.

    The conv stage's inputs are image pixels already in ``[0, 1]``
    (``input_scale=1``); the dense stage's scale is calibrated on the
    post-conv activations.  :class:`~repro.apps.cnn.CrossbarCNN`, the
    :class:`~repro.apps.nn.CrossbarMLP` subclass for CNNs, is this graph
    deployed.
    """
    calibration = np.asarray(calibration, dtype=float)
    patches, pre = cnn._conv_forward(calibration)
    hidden = np.maximum(pre, 0.0).reshape(calibration.shape[0], -1)
    return (
        GraphBuilder()
        .conv2d(
            cnn.conv_w,
            cnn.conv_b,
            image_size=cnn.image_size,
            activation="relu",
            input_scale=1.0,
            name="conv0",
        )
        .dense(
            cnn.dense_w,
            cnn.dense_b,
            activation="none",
            input_scale=float(max(hidden.max(), 1e-12)),
            name="fc0",
        )
        .build()
    )
