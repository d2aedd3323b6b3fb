"""Vision-guided pipeline following with a fuzzy steering controller."""

from . import features, fis, imgproc, netpbm, sim

__all__ = ["features", "fis", "imgproc", "netpbm", "sim"]
__version__ = "0.1.0"
