"""Register renaming: the renamer, its map table (``Renamer.map``) and free lists."""

from repro.rename.free_list import FreeList
from repro.rename.renamer import Renamer

__all__ = ["FreeList", "Renamer"]
