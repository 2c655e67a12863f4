"""Baseline dataloaders the paper compares against.

* :class:`DGLMmapLoader` — the state-of-the-art DGL dataloader extended with
  memory-mapped feature files (the paper's primary baseline, Fig. 4).
* :class:`GinexLoader` — Ginex-style super-batch Belady caching with
  pipelined CPU data preparation (Park et al., VLDB'22).
"""

from .mmap_loader import DGLMmapLoader
from .ginex import GinexLoader

__all__ = ["DGLMmapLoader", "GinexLoader"]
