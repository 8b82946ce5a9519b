"""The midplane allocator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import constants
from repro.scheduler.allocator import (
    MIDPLANES_PER_RACK,
    VARIANT_BLOCK,
    MidplaneAllocator,
    TOTAL_MIDPLANES,
    rack_of_midplane,
)
from repro.scheduler.jobs import Job
from repro.scheduler.queues import QueueName


def _job(job_id, midplanes, queue=QueueName.PROD_SHORT):
    return Job(
        job_id=job_id,
        project=None,
        queue=queue,
        midplanes=midplanes,
        walltime_s=3600.0,
        intensity=1.0,
        submit_epoch_s=0.0,
    )


@pytest.fixture
def allocator():
    return MidplaneAllocator(rng=np.random.default_rng(2))


class TestMapping:
    def test_rack_of_midplane(self):
        assert rack_of_midplane(0) == 0
        assert rack_of_midplane(1) == 0
        assert rack_of_midplane(2) == 1
        assert rack_of_midplane(95) == 47

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            rack_of_midplane(96)

    def test_total_midplanes(self):
        assert TOTAL_MIDPLANES == 96


class TestAllocation:
    def test_allocate_and_release(self, allocator):
        job = _job(1, 4)
        placement = allocator.try_allocate(job)
        assert placement is not None and len(placement) == 4
        job.start(0.0, placement)
        assert allocator.free_count() == TOTAL_MIDPLANES - 4
        allocator.release(job)
        assert allocator.free_count() == TOTAL_MIDPLANES

    def test_full_machine_job(self, allocator):
        job = _job(1, 96)
        placement = allocator.try_allocate(job)
        assert placement is not None
        assert allocator.free_count() == 0

    def test_oversubscription_returns_none(self, allocator):
        first = _job(1, 96)
        first.start(0.0, allocator.try_allocate(first))
        assert allocator.try_allocate(_job(2, 1)) is None

    def test_no_double_allocation(self, allocator):
        a = _job(1, 48)
        b = _job(2, 48)
        pa = allocator.try_allocate(a)
        pb = allocator.try_allocate(b)
        assert set(pa).isdisjoint(set(pb))

    def test_release_requires_ownership(self, allocator):
        a = _job(1, 2)
        a.start(0.0, allocator.try_allocate(a))
        allocator.release(a)
        with pytest.raises(ValueError):
            allocator.release(a)  # double release

    def test_claim_specific(self, allocator):
        allocator.claim(99, (10, 11))
        assert allocator.midplane_owners()[10] == 99
        with pytest.raises(ValueError):
            allocator.claim(100, (10,))


class TestPlacementPolicy:
    def test_prod_long_lands_in_row_zero(self, allocator):
        job = _job(1, 8, queue=QueueName.PROD_LONG)
        placement = allocator.try_allocate(job)
        rows = {rack_of_midplane(mp) // constants.RACKS_PER_ROW for mp in placement}
        assert rows == {0}

    def test_prod_short_avoids_row_zero(self, allocator):
        job = _job(1, 8, queue=QueueName.PROD_SHORT)
        placement = allocator.try_allocate(job)
        rows = {rack_of_midplane(mp) // constants.RACKS_PER_ROW for mp in placement}
        assert 0 not in rows

    def test_prod_short_spills_into_row_zero_when_full(self, allocator):
        blocker = _job(1, 64, queue=QueueName.PROD_SHORT)
        blocker.start(0.0, allocator.try_allocate(blocker))
        job = _job(2, 8, queue=QueueName.PROD_SHORT)
        placement = allocator.try_allocate(job)
        assert placement is not None  # spilled into row 0

    def test_affinity_prefers_0A_for_long_jobs(self, allocator):
        # Across many fresh allocators, (0, A) appears in the first
        # long-job placement far more often than a baseline rack.
        hits_0a, hits_baseline = 0, 0
        target = constants.HIGHEST_UTILIZATION_RACK[0] * 16 + (
            constants.HIGHEST_UTILIZATION_RACK[1]
        )
        for seed in range(30):
            fresh = MidplaneAllocator(rng=np.random.default_rng(seed))
            job = _job(1, 8, queue=QueueName.PROD_LONG)
            racks = {rack_of_midplane(mp) for mp in fresh.try_allocate(job)}
            hits_0a += target in racks
            hits_baseline += 3 in racks  # rack (0, 3), no affinity
        assert hits_0a > hits_baseline


class TestBlocking:
    def test_blocked_racks_not_allocatable(self, allocator):
        allocator.block_racks(range(48))
        assert allocator.try_allocate(_job(1, 1)) is None

    def test_unblock_restores(self, allocator):
        allocator.block_racks([0, 1])
        allocator.unblock_racks([0, 1])
        assert allocator.free_count() == TOTAL_MIDPLANES

    def test_blocked_racks_listed(self, allocator):
        allocator.block_racks([5, 9])
        assert allocator.blocked_racks == (5, 9)

    def test_block_does_not_evict_running(self, allocator):
        job = _job(1, 2)
        job.start(0.0, allocator.try_allocate(job))
        allocator.block_racks([rack_of_midplane(job.assigned_midplanes[0])])
        # Still owned; release works normally.
        allocator.release(job)


class TestOccupancy:
    def test_rack_occupancy_fractions(self, allocator):
        allocator.claim(1, (0,))  # half of rack 0
        allocator.claim(2, (2, 3))  # all of rack 1
        occupancy = allocator.rack_occupancy()
        assert occupancy[0] == pytest.approx(0.5)
        assert occupancy[1] == pytest.approx(1.0)
        assert occupancy[2] == pytest.approx(0.0)


_RACK_LISTS = st.lists(st.integers(0, constants.NUM_RACKS - 1), max_size=6)
_OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("block"), _RACK_LISTS),
        st.tuples(st.just("unblock"), _RACK_LISTS),
        st.tuples(st.just("claim"), st.integers(0, TOTAL_MIDPLANES - 1)),
        st.tuples(st.just("release"), st.integers(0, 10_000)),
        st.tuples(
            st.just("allocate"),
            st.sampled_from([1, 2, 4, 8, 16, 32, 64, 96]),
            st.sampled_from(list(QueueName)),
        ),
    ),
    max_size=60,
)


def _brute_force_free(allocator):
    blocked = set(allocator.blocked_racks)
    return sum(
        1
        for mp, owner in enumerate(allocator.midplane_owners())
        if owner is None and rack_of_midplane(mp) not in blocked
    )


class TestFreeCountProperty:
    """The incremental free count equals a brute-force count after any
    interleaving of (overlapping, repeated) blocks and unblocks, claims
    (blocked midplanes included), releases and allocation attempts."""

    @settings(max_examples=150, deadline=None)
    @given(_OPERATIONS)
    def test_free_count_matches_brute_force(self, operations):
        allocator = MidplaneAllocator(rng=np.random.default_rng(5))
        running = []
        for job_id, (kind, *args) in enumerate(operations, start=1):
            if kind == "block":
                allocator.block_racks(args[0])
            elif kind == "unblock":
                allocator.unblock_racks(args[0])
            elif kind == "claim":
                (mp,) = args
                if allocator.midplane_owners()[mp] is None:
                    job = _job(job_id, 1)
                    allocator.claim(job_id, (mp,))
                    job.start(0.0, (mp,))
                    running.append(job)
            elif kind == "release":
                if running:
                    allocator.release(running.pop(args[0] % len(running)))
            else:
                size, queue = args
                free_before = _brute_force_free(allocator)
                job = _job(job_id, size, queue=queue)
                placement = allocator.try_allocate(job)
                assert (placement is None) == (free_before < size)
                if placement is not None:
                    assert len(set(placement)) == size
                    job.start(0.0, placement)
                    running.append(job)
            assert allocator.free_count() == _brute_force_free(allocator)


class TestVariantBlockContract:
    """The allocator serves its order variants from block draws.  That
    is only bit-identical to one scalar draw per attempt because numpy
    yields the same values, and leaves the same generator state, for
    ``integers(k, size=n)`` as for n scalar ``integers(k)`` calls.  If a
    numpy upgrade breaks this, placements (and every realization)
    change; this test names the cause."""

    @pytest.mark.parametrize("n", [1, 7, VARIANT_BLOCK, 100_001])
    def test_block_draw_equals_scalar_draws(self, n):
        variants = MidplaneAllocator.ORDER_VARIANTS
        block_rng = np.random.default_rng(20_140_101)
        scalar_rng = np.random.default_rng(20_140_101)
        for rng in (block_rng, scalar_rng):
            rng.uniform(0.0, 64.0, size=TOTAL_MIDPLANES)  # as the order jitter
            rng.integers(variants)  # leave half a 64-bit word buffered
        block = block_rng.integers(variants, size=n).tolist()
        scalars = [int(scalar_rng.integers(variants)) for _ in range(n)]
        assert block == scalars
        assert block_rng.bit_generator.state == scalar_rng.bit_generator.state
