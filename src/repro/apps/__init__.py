"""Application kernels on the CIM substrate (Section II-D, V-D).

* :mod:`repro.apps.datasets` — synthetic dataset generators (the paper's
  ImageNet-class experiments are substituted per DESIGN.md);
* :mod:`repro.apps.nn` — neuromorphic computing: a pure-NumPy MLP trained
  in software and deployed onto :class:`repro.core.accelerator.CIMAccelerator`
  for inference, with the accuracy-vs-yield fault experiment of [38];
* :mod:`repro.apps.cnn` — a pure-NumPy CNN, deployed by the same
  deployed-network class and swept by the same yield experiment;
* :mod:`repro.apps.bnn` — binary neural networks on the FeRFET
  XNOR-popcount engine (Section V-D);
* :mod:`repro.apps.sparse_coding` — ISTA sparse coding with the dictionary
  products executed on a crossbar (Section II-D2);
* :mod:`repro.apps.threshold_logic` — threshold gates as crossbar MACs
  plus a comparator (Section II-D3).
"""

from repro.apps.datasets import gaussian_blobs, sparse_signals, binary_patterns
from repro.apps.nn import MLP, CrossbarMLP, accuracy_vs_yield
from repro.apps.cnn import CrossbarCNN, SimpleCNN, im2col, synthetic_images
from repro.apps.bnn import BinaryMLP, FeRFETBinaryLayer
from repro.apps.sparse_coding import CrossbarSparseCoder, ista_reference
from repro.apps.threshold_logic import ThresholdGate, CrossbarThresholdGate

__all__ = [
    "gaussian_blobs",
    "sparse_signals",
    "binary_patterns",
    "MLP",
    "CrossbarMLP",
    "accuracy_vs_yield",
    "CrossbarCNN",
    "SimpleCNN",
    "im2col",
    "synthetic_images",
    "BinaryMLP",
    "FeRFETBinaryLayer",
    "CrossbarSparseCoder",
    "ista_reference",
    "ThresholdGate",
    "CrossbarThresholdGate",
]
