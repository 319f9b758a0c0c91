"""Span target for perfbench's ``--trace 1`` table, nothing else.

Nothing in ``repro`` imports this module; it goes with the next
benchmark change.
"""


class WarpBatcher:
    """Read only by perfbench, which wraps :meth:`try_fuse` as its
    ``sim.fuse`` span; goes with the next benchmark change."""

    def try_fuse(self, warp, pc, inst):
        return None
