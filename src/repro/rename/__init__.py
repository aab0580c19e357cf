"""Register renaming: map table, free list and the renamer."""

from repro.rename.free_list import FreeList
from repro.rename.map_table import MapTable
from repro.rename.renamer import Renamer

__all__ = ["FreeList", "MapTable", "Renamer"]
