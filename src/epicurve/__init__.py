"""epicurve: shape features and information-theoretic analysis of daily
infection-rate curves.

Submodules:

* ``ingest`` -- raw CSV parsing and validation
* ``curve_features`` -- smoothing, peak/crossing detection, shape features
* ``infotheory`` -- discretization, contingency tables, entropy, networks
* ``major_factor`` -- conditional-entropy scans and interaction detection
* ``cluster_fuse`` -- K-means feature fusion and Ward.D2 tree coding
* ``pipeline`` / ``cli`` -- end-to-end orchestration
"""

__version__ = "0.1.0"
