"""Midplane allocation: mapping jobs onto racks.

Partitions are allocated in midplanes (two per rack, 96 total).  The
allocator implements the placement behaviour the paper attributes to
real Mira operations:

* ``prod-long`` jobs pack into row 0 first (so row 0 shows the highest
  utilization and power in Fig 6),
* certain users habitually target specific regions — columns 2, 6, A
  and B — creating utilization hotspots (Section IV-A), with the
  strongest affinity at rack (0, A) (the highest-utilization rack),
* rack (2, D) is the least-preferred allocation target (the paper's
  lowest-utilization rack).

Within a preference tier the allocator packs the lowest-numbered free
midplanes first, which keeps partitions reasonably contiguous.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro import constants
from repro.facility.topology import MiraTopology, RackId
from repro.scheduler.jobs import Job
from repro.scheduler.queues import QueueName

#: Midplanes per rack.
MIDPLANES_PER_RACK = constants.MIDPLANES_PER_RACK

#: Total allocatable midplanes.
TOTAL_MIDPLANES = constants.NUM_RACKS * MIDPLANES_PER_RACK

#: Columns with user-affinity hotspots (Section IV-A).
AFFINITY_COLUMNS = (0x2, 0x6, 0xA, 0xB)

#: Order-variant indices drawn per refill of the allocator's buffer.
VARIANT_BLOCK = 4096


def rack_of_midplane(midplane_id: int) -> int:
    """Flat rack index owning a midplane."""
    if not 0 <= midplane_id < TOTAL_MIDPLANES:
        raise ValueError(f"midplane id out of range: {midplane_id}")
    return midplane_id // MIDPLANES_PER_RACK


class MidplaneAllocator:
    """Free-list allocator over the 96 midplanes.

    Args:
        topology: Floor plan (used for rack naming/row lookups).
    """

    #: How many jittered scan-order variants to precompute per queue
    #: class.  Placement on real Mira was not strictly first-fit; the
    #: variants spread idle midplanes across the floor instead of
    #: piling all idleness onto the tail of one deterministic order.
    ORDER_VARIANTS = 24

    #: Positional jitter (in midplane slots) applied to each variant.
    #: Larger than a row's span, so within-row position is a weak
    #: preference and idleness spreads evenly; the affinity pull stays
    #: comparable to the jitter's sigma, so hotspots remain hotspots.
    ORDER_JITTER = 64.0

    def __init__(
        self,
        topology: Optional[MiraTopology] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self._topology = topology if topology is not None else MiraTopology()
        self._rng = rng if rng is not None else np.random.default_rng(12)
        #: midplane id -> job id, or None when free/blocked.
        self._owner: List[Optional[int]] = [None] * TOTAL_MIDPLANES
        self._blocked: List[bool] = [False] * TOTAL_MIDPLANES
        #: Count of midplanes neither owned nor blocked.
        self._free = TOTAL_MIDPLANES
        self._variants: Iterator[int] = iter(())
        self._affinity = self._build_affinity()
        #: Precomputed allocation-order variants per preferred row.
        self._order_by_row: Dict[int, List[Tuple[int, ...]]] = {
            row: [
                self._allocation_order(row)
                for _ in range(self.ORDER_VARIANTS)
            ]
            for row in range(constants.NUM_ROWS)
        }

    # -- preference structure ---------------------------------------------------

    def _build_affinity(self) -> np.ndarray:
        """Static per-rack allocation preference scores (higher first)."""
        scores = np.zeros(constants.NUM_RACKS)
        for rack_id in self._topology.rack_ids:
            score = 0.0
            if rack_id.col in AFFINITY_COLUMNS:
                score += 0.5
            if (rack_id.row, rack_id.col) == constants.HIGHEST_UTILIZATION_RACK:
                score += 2.0
            if (rack_id.row, rack_id.col) == (2, 0xD):
                score -= 0.6  # the paper's least-utilized rack
            scores[rack_id.flat_index] = score
        return scores

    def _allocation_order(self, preferred_row: int) -> Tuple[int, ...]:
        """Midplane scan order for a queue preferring ``preferred_row``.

        ``prod-long`` (preferred row 0) packs row 0 first and spills
        into rows 1-2; every other queue treats rows 1 and 2 as one
        pool and takes row 0 last (keeping it free for long jobs).
        Affinity acts as a *soft* bias — each unit of affinity pulls a
        rack's midplanes a few positions forward in the scan — and a
        per-variant random jitter spreads residual idleness evenly.
        """
        midplanes_per_row = constants.RACKS_PER_ROW * MIDPLANES_PER_RACK
        jitter = self._rng.uniform(0.0, self.ORDER_JITTER, size=TOTAL_MIDPLANES)

        def key(midplane_id: int) -> Tuple[int, float, int]:
            rack = rack_of_midplane(midplane_id)
            row = rack // constants.RACKS_PER_ROW
            if preferred_row == 0:
                row_rank = 0 if row == 0 else 1
            else:
                row_rank = 1 if row == 0 else 0
            within_row = midplane_id - row * midplanes_per_row
            score = within_row - 12.0 * self._affinity[rack] + jitter[midplane_id]
            return (row_rank, score, row)

        return tuple(sorted(range(TOTAL_MIDPLANES), key=key))

    # -- blocking (reservations / rack outages) ----------------------------------

    def block_racks(self, rack_indices: Sequence[int]) -> None:
        """Remove whole racks from the allocatable pool (reservation/outage).

        Running jobs on those racks are unaffected; callers kill them
        separately if the block is an outage.
        """
        self._set_blocked(rack_indices, True)

    def unblock_racks(self, rack_indices: Sequence[int]) -> None:
        """Return racks to the allocatable pool."""
        self._set_blocked(rack_indices, False)

    def _set_blocked(self, rack_indices: Sequence[int], blocked: bool) -> None:
        for rack in rack_indices:
            for mp in (rack * MIDPLANES_PER_RACK, rack * MIDPLANES_PER_RACK + 1):
                if self._blocked[mp] != blocked:
                    self._blocked[mp] = blocked
                    if self._owner[mp] is None:
                        self._free += -1 if blocked else 1

    @property
    def blocked_racks(self) -> Tuple[int, ...]:
        """Flat indices of currently blocked racks (blocks are whole racks)."""
        racks = range(constants.NUM_RACKS)
        return tuple(r for r in racks if self._blocked[r * MIDPLANES_PER_RACK])

    # -- allocation ----------------------------------------------------------------

    def _next_order(self, queue: QueueName) -> Tuple[int, ...]:
        """The next random precomputed order variant for ``queue``.

        Indices come in blocks; a block draw equals as many scalar draws,
        and nothing else draws from this generator after construction.
        """
        index = next(self._variants, None)
        if index is None:
            block = self._rng.integers(self.ORDER_VARIANTS, size=VARIANT_BLOCK)
            self._variants = iter(block.tolist())
            index = next(self._variants)
        return self._order_by_row[queue.preferred_row][index]

    def free_midplanes(self, queue: QueueName) -> List[int]:
        """Free, unblocked midplanes in this queue's preference order.

        A random precomputed order variant is used each call so that
        idle capacity rotates across the floor.
        """
        order = self._next_order(queue)
        return [
            mp for mp in order if self._owner[mp] is None and not self._blocked[mp]
        ]

    def free_count(self) -> int:
        """Number of allocatable midplanes right now."""
        return self._free

    def try_allocate(self, job: Job) -> Optional[Tuple[int, ...]]:
        """Reserve midplanes for a job, or return None if it cannot fit.

        Every attempt draws a variant; only the free count decides fit.
        """
        order = self._next_order(job.queue)
        if self._free < job.midplanes:
            return None
        free = (mp for mp in order if self._owner[mp] is None and not self._blocked[mp])
        chosen = tuple(itertools.islice(free, job.midplanes))
        for mp in chosen:
            self._owner[mp] = job.job_id
        self._free -= job.midplanes
        return chosen

    def claim(self, job_id: int, midplane_ids: Sequence[int]) -> None:
        """Directly place a job on specific free midplanes (burner path).

        Raises:
            ValueError: if any midplane is already owned.
        """
        for mp in midplane_ids:
            if self._owner[mp] is not None:
                raise ValueError(f"midplane {mp} already owned by {self._owner[mp]}")
        for mp in midplane_ids:
            if self._owner[mp] is None and not self._blocked[mp]:
                self._free -= 1
            self._owner[mp] = job_id

    def release(self, job: Job) -> None:
        """Free a finished job's midplanes.

        Raises:
            ValueError: if a midplane is not owned by this job (double
                release or corrupted state).
        """
        for mp in job.assigned_midplanes:
            if self._owner[mp] != job.job_id:
                raise ValueError(
                    f"midplane {mp} not owned by job {job.job_id} "
                    f"(owner: {self._owner[mp]})"
                )
            self._owner[mp] = None
            if not self._blocked[mp]:
                self._free += 1

    # -- occupancy views -------------------------------------------------------------

    def rack_occupancy(self) -> np.ndarray:
        """Fraction of each rack's midplanes occupied by jobs (flat order)."""
        occupied = np.array([owner is not None for owner in self._owner])
        return occupied.reshape(-1, MIDPLANES_PER_RACK).mean(axis=1)

    def midplane_owners(self) -> Tuple[Optional[int], ...]:
        """Current owner job id of each midplane."""
        return tuple(self._owner)
