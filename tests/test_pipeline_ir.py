"""Tests for the layer-graph IR (repro.pipeline.ir)."""

import numpy as np
import pytest

from repro.apps.cnn import SimpleCNN, CrossbarCNN
from repro.apps.nn import MLP, CrossbarMLP
from repro.pipeline import (
    GRAPH_INPUT,
    GraphBuilder,
    LayerGraph,
    LayerNode,
    trace_cnn,
    trace_mlp,
)
from repro.pipeline.ir import _apply_activation


class TestLayerNode:
    def test_dense_geometry(self, rng):
        node = LayerNode("fc", "dense", rng.uniform(-1, 1, (16, 8)), np.zeros(8))
        assert node.in_features == 16
        assert node.out_features == 8
        assert node.patches_per_sample == 1
        assert node.macs_per_sample == 16 * 8

    def test_conv_geometry(self, rng):
        node = LayerNode(
            "conv",
            "conv2d",
            rng.uniform(-1, 1, (9, 4)),
            np.zeros(4),
            image_size=8,
            kernel=3,
        )
        assert node.conv_out_edge == 6
        assert node.patches_per_sample == 36
        assert node.in_features == 64
        assert node.out_features == 36 * 4

    def test_reference_forward_dense(self, rng):
        w, b = rng.uniform(-1, 1, (6, 4)), rng.uniform(-1, 1, 4)
        node = LayerNode("fc", "dense", w, b, activation="relu")
        h = rng.uniform(-1, 1, (5, 6))
        assert np.allclose(node.reference_forward(h), np.maximum(h @ w + b, 0))

    def test_bad_kind_rejected(self, rng):
        with pytest.raises(ValueError, match="kind"):
            LayerNode("x", "pool", rng.uniform(-1, 1, (4, 4)), np.zeros(4))

    def test_bad_bias_shape_rejected(self, rng):
        with pytest.raises(ValueError, match="bias"):
            LayerNode("x", "dense", rng.uniform(-1, 1, (4, 4)), np.zeros(3))

    def test_conv_needs_square_rows(self, rng):
        with pytest.raises(ValueError, match="rows"):
            LayerNode(
                "x",
                "conv2d",
                rng.uniform(-1, 1, (8, 4)),
                np.zeros(4),
                image_size=8,
                kernel=3,
            )


class TestLayerGraph:
    def test_shape_incompatible_edge_rejected(self, rng):
        a = LayerNode("a", "dense", rng.uniform(-1, 1, (8, 4)), np.zeros(4))
        b = LayerNode("b", "dense", rng.uniform(-1, 1, (5, 2)), np.zeros(2))
        with pytest.raises(ValueError, match="shape"):
            LayerGraph([a, b])

    def test_duplicate_names_rejected(self, rng):
        a = LayerNode("a", "dense", rng.uniform(-1, 1, (8, 4)), np.zeros(4))
        b = LayerNode("a", "dense", rng.uniform(-1, 1, (4, 2)), np.zeros(2))
        with pytest.raises(ValueError, match="duplicate"):
            LayerGraph([a, b])

    def test_mid_graph_conv_shape_checked(self, rng):
        # The historical "multi-conv chains are not supported yet" dead
        # end is gone: a mis-sized dense -> conv edge now gets a real
        # shape diagnostic...
        a = LayerNode("a", "dense", rng.uniform(-1, 1, (8, 9)), np.zeros(9))
        conv = LayerNode(
            "c",
            "conv2d",
            rng.uniform(-1, 1, (9, 4)),
            np.zeros(4),
            image_size=8,
            kernel=3,
        )
        with pytest.raises(ValueError, match="shape-incompatible"):
            LayerGraph([a, conv])

    def test_mid_graph_conv_supported(self, rng):
        # ...and a correctly-sized one builds and evaluates: the flat
        # (batch, 64) payload reshapes to 8x8 images for the conv stage.
        a = LayerNode("a", "dense", rng.uniform(-1, 1, (8, 64)), np.zeros(64))
        conv = LayerNode(
            "c",
            "conv2d",
            rng.uniform(-1, 1, (9, 4)),
            np.zeros(4),
            image_size=8,
            kernel=3,
        )
        g = LayerGraph([a, conv])
        x = rng.uniform(0, 1, (3, 8))
        out = g.reference_forward(x)
        hidden = np.maximum(x @ a.weights, 0.0)
        expected = conv.reference_forward(hidden.reshape(3, 8, 8))
        assert np.array_equal(out, expected)

    def test_cycle_rejected(self, rng):
        a = LayerNode(
            "a", "dense", rng.uniform(-1, 1, (4, 4)), np.zeros(4),
            inputs=("b",),
        )
        b = LayerNode(
            "b", "dense", rng.uniform(-1, 1, (4, 4)), np.zeros(4),
            inputs=("a",),
        )
        with pytest.raises(ValueError, match="cycle"):
            LayerGraph([a, b])

    def test_dangling_edge_rejected(self, rng):
        a = LayerNode(
            "a", "dense", rng.uniform(-1, 1, (4, 4)), np.zeros(4),
            inputs=("ghost",),
        )
        with pytest.raises(ValueError, match="dangling"):
            LayerGraph([a])

    def test_multiple_sinks_rejected(self, rng):
        a = LayerNode(
            "a", "dense", rng.uniform(-1, 1, (4, 4)), np.zeros(4),
            inputs=(GRAPH_INPUT,),
        )
        b = LayerNode(
            "b", "dense", rng.uniform(-1, 1, (4, 2)), np.zeros(2),
            inputs=(GRAPH_INPUT,),
        )
        with pytest.raises(ValueError, match="sink"):
            LayerGraph([a, b])

    def test_matmul_arity_enforced(self, rng):
        fork = LayerNode(
            "fork", "dense", rng.uniform(-1, 1, (4, 8)), np.zeros(8),
            inputs=(GRAPH_INPUT,), tokens=2,
        )
        mm = LayerNode(
            "mm", "matmul", np.zeros((4, 2)), np.zeros(2),
            inputs=("fork",), tokens=2,
        )
        with pytest.raises(ValueError, match="input"):
            LayerGraph([fork, mm])

    def test_fork_join_reference_forward(self, rng):
        """A hand-built fork-join graph evaluates left @ right.T."""
        left = LayerNode(
            "left", "dense", rng.uniform(-1, 1, (3, 4)), np.zeros(4),
            inputs=(GRAPH_INPUT,), tokens=2, activation="none",
        )
        right = LayerNode(
            "right", "dense", rng.uniform(-1, 1, (3, 4)), np.zeros(4),
            inputs=(GRAPH_INPUT,), tokens=2, activation="none",
        )
        join = LayerNode(
            "join", "matmul", np.zeros((4, 2)), np.zeros(2),
            inputs=("left", "right"), tokens=2, transpose_right=True,
            activation="none",
        )
        g = LayerGraph([left, right, join])
        x = rng.uniform(0, 1, (5, 6))
        toks = x.reshape(5, 2, 3)
        l = toks @ left.weights
        r = toks @ right.weights
        expected = (l @ r.transpose(0, 2, 1)).reshape(5, -1)
        assert np.allclose(g.reference_forward(x), expected)

    def test_edges_and_validate_input(self, rng):
        g = (
            GraphBuilder()
            .dense(rng.uniform(-1, 1, (8, 4)))
            .dense(rng.uniform(-1, 1, (4, 2)), activation="none")
            .build()
        )
        assert g.edges() == [("dense0", "dense1")]
        with pytest.raises(ValueError, match="input"):
            g.validate_input(np.zeros((3, 7)))


class TestSoftmaxActivation:
    def test_rows_sum_to_one(self, rng):
        z = rng.normal(size=(6, 5))
        p = _apply_activation(z, "softmax")
        assert np.allclose(p.sum(axis=-1), 1.0)
        assert np.all(p > 0)

    def test_large_logits_do_not_overflow(self):
        """The shifted-exp form must survive logits that overflow a naive
        exp(z): no inf/nan, and the distribution is still correct."""
        z = np.array([[1000.0, 1000.0, 0.0], [-1000.0, 0.0, 1000.0]])
        with np.errstate(over="raise", invalid="raise"):
            p = _apply_activation(z, "softmax")
        assert np.all(np.isfinite(p))
        assert np.allclose(p.sum(axis=-1), 1.0)
        assert p[0, 0] == pytest.approx(0.5)
        assert p[1, 2] == pytest.approx(1.0)

    def test_uniform_logits_give_uniform_distribution(self):
        p = _apply_activation(np.full((2, 4), 7.0e2), "softmax")
        assert np.allclose(p, 0.25)

    def test_shift_invariance(self, rng):
        z = rng.normal(size=(3, 6))
        assert np.allclose(
            _apply_activation(z, "softmax"),
            _apply_activation(z + 123.0, "softmax"),
        )

    def test_last_axis_on_3d(self, rng):
        z = rng.normal(size=(2, 3, 4))
        p = _apply_activation(z, "softmax")
        assert np.allclose(p.sum(axis=-1), 1.0)


class TestTraceMLP:
    def test_reference_matches_mlp_logits(self, rng):
        mlp = MLP((12, 10, 4), rng=rng)
        calib = rng.uniform(0, 1, (30, 12))
        graph = trace_mlp(mlp, calib)
        x = rng.uniform(0, 1, (9, 12))
        # The MLP's forward applies softmax; compare pre-softmax logits.
        h = x
        for k, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
            z = h @ w + b
            h = z if k == mlp.n_layers - 1 else np.maximum(z, 0.0)
        assert np.allclose(graph.reference_forward(x), h)

    def test_input_scales_match_crossbar_mlp(self, rng):
        mlp = MLP((12, 10, 4), rng=rng)
        calib = rng.uniform(0, 1, (30, 12))
        graph = trace_mlp(mlp, calib)
        xb = CrossbarMLP(mlp, calib, rng=0)
        # Each layer's scale is the max of its calibration activations.
        expected = []
        h = calib
        for k, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
            expected.append(float(h.max()))
            z = h @ w + b
            h = z if k == mlp.n_layers - 1 else np.maximum(z, 0.0)
        assert [n.input_scale for n in graph] == expected
        assert [stage.node.input_scale for stage in xb.stages] == expected

    def test_calibration_shape_checked(self, rng):
        mlp = MLP((12, 10, 4), rng=rng)
        with pytest.raises(ValueError, match="calibration"):
            trace_mlp(mlp, rng.uniform(0, 1, (30, 11)))


class TestTraceCNN:
    def test_reference_matches_cnn_pre_softmax(self, rng):
        cnn = SimpleCNN(rng=rng)
        calib = rng.uniform(0, 1, (20, 8, 8))
        graph = trace_cnn(cnn, calib)
        imgs = rng.uniform(0, 1, (6, 8, 8))
        _, pre = cnn._conv_forward(imgs)
        hidden = np.maximum(pre, 0.0).reshape(6, -1)
        logits = hidden @ cnn.dense_w + cnn.dense_b
        assert np.allclose(graph.reference_forward(imgs), logits)

    def test_graph_shape(self, rng):
        cnn = SimpleCNN(rng=rng)
        graph = trace_cnn(cnn, rng.uniform(0, 1, (20, 8, 8)))
        assert graph.input_is_image
        assert [n.kind for n in graph] == ["conv2d", "dense"]
        assert graph.nodes[0].input_scale == 1.0
