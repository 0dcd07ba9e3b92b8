"""The pass library.

Importing this package registers every pass (see
:mod:`repro.passes.registry`).  Modules:

* generic source-level passes of the paper's systematic method —
  :mod:`.unroll`, :mod:`.tile`, :mod:`.independent`, :mod:`.distribute`,
  :mod:`.reduction`, :mod:`.data`, :mod:`.reorganize`;
* the two shared-memory passes — :mod:`.shared_tile` (tiling with
  ``cache`` directive modeling) and :mod:`.fuse_reuse` (loop fusion with
  liveness-checked buffer reuse);
* per-compiler lowering passes — :mod:`.caps`, :mod:`.pgi`,
  :mod:`.opencl`.

The transform *functions* (``unroll_in_kernel`` & co.) live in these
modules too.
"""

from . import (  # noqa: F401  (import-time pass registration)
    caps,
    data,
    distribute,
    fuse_reuse,
    independent,
    opencl,
    pgi,
    reduction,
    reorganize,
    shared_tile,
    tile,
    unroll,
)
