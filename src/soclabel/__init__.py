"""Soft pseudo-label selection for hard-to-distinguish class spaces.

Tracks class-prediction transitions as a similarity signal, clusters the
class space with similarity-driven k-medoids, restricts soft pseudo-labels
to the cluster of the predicted class (with a confidence-aware cluster
count), and trains with the resulting selected soft labels.

The API lives in the submodules: import from `soclabel.labels`,
`soclabel.clustering`, `soclabel.sim` and so on.
"""

__version__ = "0.1.0"
