"""Hardware simulation substrate.

These modules replace the paper's physical testbed (A100 GPU, Intel Optane /
Samsung 980 Pro NVMe SSDs, PCIe Gen4, EPYC CPU) with calibrated device
models.  Every model consumes *real* access streams produced by the
functional layers (sampling, caching) and returns *simulated time*; no
wall-clock measurement of the Python process is ever reported.
"""

from .ssd import SSDArray, SSDMicrobench
from .pcie import PCIeLink
from .cpu import CPUModel
from .gpu import GPUModel
from .pagecache import PageCache
from .counters import TransferCounters

__all__ = [
    "SSDArray",
    "SSDMicrobench",
    "PCIeLink",
    "CPUModel",
    "GPUModel",
    "PageCache",
    "TransferCounters",
]
