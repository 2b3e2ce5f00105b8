"""Property-based equivalence pins for the vectorized hot paths.

The vectorization work (dirty-log batching, batched link outcome
draws) promises **bit-for-bit** agreement with the scalar code it
replaced — that promise is what keeps every committed benchmark
fingerprint valid.  These properties attack the promise with randomised
inputs instead of hand-picked cases:

* ``unique_pages_batch`` must agree elementwise with the scalar
  occupancy formula, including the fractional-touch clamp;
* ``Link.draw_chunk_outcomes`` must consume the impairment
  stream exactly like the historical per-chunk branch loop and return
  the same verdicts;
* ``DirtyLog.record_uniform_spread`` must leave the shared and
  per-vCPU state bit-identical to the per-vCPU ``record_uniform``
  loop it replaced, under arbitrary interleavings;
* ``ps_complete``'s scalar pop loop must return the same completion
  times, NaNs included, as the ``np.cumsum`` pop path it replaced.
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.hardware.link import Link
from repro.hardware.nic import Nic
from repro.serving.queue import (
    CapacitySegment,
    ps_complete,
    segments_from_windows,
    validate_segments,
)
from repro.simkernel import Simulation
from repro.vm.dirty import DirtyLog, unique_pages, unique_pages_batch


touch_counts = st.one_of(
    st.floats(min_value=0.0, max_value=1e12, allow_nan=False),
    st.floats(min_value=0.0, max_value=1.0),  # fractional: the clamp
    st.integers(min_value=0, max_value=10**9).map(float),
    st.just(0.0),
)


class TestUniquePagesBatchAgreesWithScalar:
    @settings(max_examples=200, deadline=None)
    @given(
        chunk_pages=st.integers(min_value=1, max_value=1 << 20),
        touches=st.lists(touch_counts, min_size=0, max_size=50),
    )
    def test_elementwise_bit_identical(self, chunk_pages, touches):
        batched = unique_pages_batch(chunk_pages, np.array(touches))
        scalar = [unique_pages(chunk_pages, k) for k in touches]
        assert batched.shape == (len(touches),)
        for got, expected in zip(batched.tolist(), scalar):
            # Exact equality, not approx: both must run the same
            # IEEE-754 operations.
            assert got == expected

    @settings(max_examples=50, deadline=None)
    @given(touches=st.lists(touch_counts, min_size=1, max_size=20))
    def test_never_exceeds_touches_or_chunk(self, touches):
        chunk_pages = 512
        batched = unique_pages_batch(chunk_pages, np.array(touches))
        assert (batched <= np.array(touches)).all()
        assert (batched <= chunk_pages).all()
        assert (batched >= 0).all()


def _scalar_outcome_loop(rng, count, loss_rate, corrupt_rate):
    """The historical per-chunk branch loop, verbatim semantics."""
    outcomes = []
    for _ in range(count):
        draw = rng.random()
        if draw < loss_rate:
            outcomes.append("lost")
        elif draw < loss_rate + corrupt_rate:
            outcomes.append("corrupt")
        else:
            outcomes.append("ok")
    return outcomes


class TestDrawChunkOutcomesMatchesScalarLoop:
    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        count=st.integers(min_value=1, max_value=200),
        loss_rate=st.floats(min_value=0.0, max_value=1.0),
        corrupt_share=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_same_stream_same_verdicts(
        self, seed, count, loss_rate, corrupt_share
    ):
        corrupt_rate = (1.0 - loss_rate) * corrupt_share
        nic = Nic(name="eth0", bandwidth_bps=10e9)

        sim = Simulation(seed=seed)
        link = Link(sim, nic, name="wire")
        link.impair(loss_rate=loss_rate, corrupt_rate=corrupt_rate)
        batched = link.draw_chunk_outcomes(count)

        # Reference: identical named stream on a twin simulation, run
        # through the historical scalar branches.
        twin = Simulation(seed=seed)
        rng = twin.random.stream("link.impair.wire")
        expected = _scalar_outcome_loop(rng, count, loss_rate, corrupt_rate)

        assert batched == expected
        # Identical stream consumption: the next draw agrees too.
        if loss_rate > 0.0 or corrupt_rate > 0.0:
            assert link._impairment_rng().random() == rng.random()

    def test_unimpaired_link_consumes_no_randomness(self):
        sim = Simulation(seed=7)
        link = Link(sim, Nic(name="eth0", bandwidth_bps=10e9),
                           name="clean")
        assert link.draw_chunk_outcomes(32) == ["ok"] * 32
        twin = Simulation(seed=7)
        assert (
            sim.random.stream("link.impair.clean").random()
            == twin.random.stream("link.impair.clean").random()
        )


#: One dirty-log operation: either a uniform spread over all vCPUs or
#: a single-vCPU uniform record, with a random in-range chunk window.
def _operations(n_chunks, n_vcpus):
    windows = st.tuples(
        st.integers(min_value=0, max_value=n_chunks - 1),
        st.integers(min_value=1, max_value=n_chunks),
    ).map(
        lambda pair: (pair[0], min(pair[1], n_chunks - pair[0]))
    )
    spread = st.tuples(
        st.just("spread"),
        st.integers(min_value=1, max_value=n_vcpus),
        windows,
        st.floats(min_value=0.0, max_value=1e9),
    )
    single = st.tuples(
        st.just("single"),
        st.integers(min_value=0, max_value=n_vcpus - 1),
        windows,
        st.floats(min_value=0.0, max_value=1e9),
    )
    return st.lists(st.one_of(spread, single), min_size=1, max_size=12)


class TestSpreadMatchesPerVcpuLoop:
    @settings(max_examples=100, deadline=None)
    @given(ops=_operations(n_chunks=37, n_vcpus=5))
    def test_bit_identical_state_under_interleaving(self, ops):
        batched = DirtyLog(n_chunks=37, pages_per_chunk=512)
        looped = DirtyLog(n_chunks=37, pages_per_chunk=512)
        for kind, vcpus, (first, width), touches in ops:
            if kind == "spread":
                batched.record_uniform_spread(vcpus, first, width, touches)
                for vcpu in range(vcpus):
                    looped.record_uniform(vcpu, first, width, touches)
            else:
                batched.record_uniform(vcpus, first, width, touches)
                looped.record_uniform(vcpus, first, width, touches)

        ours, theirs = batched.peek(), looped.peek()
        assert (ours.chunk_touches == theirs.chunk_touches).all()
        # Same vCPU population in the same first-touch order (the
        # order ``problematic_pages`` sums in).
        assert list(ours.per_vcpu_touches) == list(theirs.per_vcpu_touches)
        for vcpu, expected in theirs.per_vcpu_touches.items():
            assert (ours.per_vcpu_touches[vcpu] == expected).all()
        # Derived statistics follow bit-for-bit.
        assert ours.unique_dirty_pages() == theirs.unique_dirty_pages()
        assert ours.problematic_pages() == theirs.problematic_pages()

    @settings(max_examples=50, deadline=None)
    @given(ops=_operations(n_chunks=37, n_vcpus=5))
    def test_snapshot_and_clear_hands_off_identical_state(self, ops):
        batched = DirtyLog(n_chunks=37, pages_per_chunk=512)
        looped = DirtyLog(n_chunks=37, pages_per_chunk=512)
        for kind, vcpus, (first, width), touches in ops:
            if kind == "spread":
                batched.record_uniform_spread(vcpus, first, width, touches)
                for vcpu in range(vcpus):
                    looped.record_uniform(vcpu, first, width, touches)
            else:
                batched.record_uniform(vcpus, first, width, touches)
                looped.record_uniform(vcpus, first, width, touches)
        ours = batched.snapshot_and_clear()
        theirs = looped.snapshot_and_clear()
        assert (ours.chunk_touches == theirs.chunk_touches).all()
        assert list(ours.per_vcpu_touches) == list(theirs.per_vcpu_touches)
        for vcpu, expected in theirs.per_vcpu_touches.items():
            assert (ours.per_vcpu_touches[vcpu] == expected).all()
        # Both logs are empty again and reusable.
        assert batched.is_clean() and looped.is_clean()
        batched.record_uniform_spread(2, 0, 4, 8.0)
        looped.record_uniform(0, 0, 4, 8.0)
        looped.record_uniform(1, 0, 4, 8.0)
        assert (
            batched.peek().chunk_touches == looped.peek().chunk_touches
        ).all()


#: The oracle's chunk size, fixed independently of ``repro``'s.
_ORACLE_CHUNK = 8192


def numpy_ps_complete(arrivals, demand, segments):
    """The numpy ``ps_complete`` the scalar loop replaced: the oracle.

    Copied unchanged but for the chunk constant's name.
    """
    if demand <= 0:
        raise ValueError(f"per-request demand must be positive: {demand}")
    validate_segments(segments)
    arrivals = np.asarray(arrivals, dtype=np.float64)
    n = arrivals.size
    completions = np.full(n, math.nan)
    if n == 0:
        return completions
    if np.any(np.diff(arrivals) < 0):
        raise ValueError("arrivals must be sorted ascending")
    if arrivals[0] < segments[0].start or arrivals[-1] > segments[-1].end:
        raise ValueError("arrivals outside the segment span")

    theta = np.empty(n, dtype=np.float64)  # virtual completion thresholds
    head = 0  # oldest unfinished request
    tail = 0  # next slot to fill
    virtual = 0.0
    now = segments[0].start
    arrival_list = arrivals.tolist()
    next_arrival_index = 0

    for segment in segments:
        now = segment.start
        if segment.lost:
            # Blackout: everything in flight dies, arrivals bounce.
            head = tail
            while (
                next_arrival_index < n
                and arrival_list[next_arrival_index] < segment.end
            ):
                theta[tail] = math.inf  # lost: never completes
                head = tail = tail + 1
                next_arrival_index += 1
            now = segment.end
            continue
        capacity = segment.capacity
        while True:
            at_arrival = (
                next_arrival_index < n
                and arrival_list[next_arrival_index] < segment.end
            )
            boundary = (
                arrival_list[next_arrival_index]
                if at_arrival
                else segment.end
            )
            # Pop every completion due before the boundary.  The head
            # check is scalar (the common no-completion case); runs of
            # completions fall through to the vectorized cumsum.
            while head < tail and capacity > 0.0:
                backlog = tail - head
                head_time = now + (theta[head] - virtual) * backlog / capacity
                if head_time > boundary:
                    break
                chunk = min(backlog, _ORACLE_CHUNK)
                deltas = np.diff(theta[head : head + chunk], prepend=virtual)
                times = now + np.cumsum(
                    deltas * (backlog - np.arange(chunk))
                ) / capacity
                popped = int(np.searchsorted(times, boundary, side="right"))
                if popped == 0:
                    break
                completions[head : head + popped] = times[:popped]
                now = float(times[popped - 1])
                virtual = float(theta[head + popped - 1])
                head += popped
            if at_arrival:
                if head < tail and capacity > 0.0:
                    virtual += (boundary - now) * capacity / (tail - head)
                now = boundary
                theta[tail] = virtual + demand
                tail += 1
                next_arrival_index += 1
            else:
                if head < tail and capacity > 0.0:
                    virtual += (boundary - now) * capacity / (tail - head)
                now = boundary
                break
    return completions


def assert_bit_identical(ours, oracle):
    """Same shape, same IEEE-754 bit patterns (NaN positions too)."""
    assert ours.dtype == oracle.dtype == np.float64
    assert ours.shape == oracle.shape
    assert (ours.view(np.int64) == oracle.view(np.int64)).all()


windows = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=0.3),
    ),
    max_size=4,
)


class TestScalarPsMatchesNumpyOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        horizon=st.floats(min_value=0.5, max_value=50.0),
        fractions=st.lists(
            st.floats(min_value=0.0, max_value=1.0), max_size=300
        ),
        demand=st.floats(min_value=1e-4, max_value=2.0),
        capacity=st.floats(min_value=0.05, max_value=4.0),
        pauses=windows,
        blackouts=windows,
    )
    def test_bit_identical_completions(
        self, horizon, fractions, demand, capacity, pauses, blackouts
    ):
        arrivals = np.sort(np.asarray(fractions, dtype=np.float64) * horizon)

        def scaled(drawn):
            return [
                (lo * horizon, (lo + width) * horizon) for lo, width in drawn
            ]

        segments = segments_from_windows(
            0.0, horizon, scaled(pauses), scaled(blackouts), capacity
        )
        assert_bit_identical(
            ps_complete(arrivals, demand, segments),
            numpy_ps_complete(arrivals, demand, segments),
        )

    def test_drain_past_the_chunk_restart_through_a_blackout(self):
        # 10k requests pile up behind a slow start, so the drain from
        # t=5 begins with a backlog above 8,192; PS finishes nearly all
        # of them in one run at its end, which the blackout cuts after
        # about 9.1k pops, past the first accumulation restart.
        rng = np.random.default_rng(2023)
        arrivals = np.sort(rng.uniform(0.0, 5.0, size=10_000))
        segments = [
            CapacitySegment(0.0, 5.0, capacity=0.05),
            CapacitySegment(5.0, 14.749),
            CapacitySegment(14.749, 15.749, capacity=0.0, lost=True),
            CapacitySegment(15.749, 20.0),
        ]
        ours = ps_complete(arrivals, 0.001, segments)
        assert_bit_identical(ours, numpy_ps_complete(arrivals, 0.001, segments))
        served = np.count_nonzero(~np.isnan(ours))
        assert _ORACLE_CHUNK < served < arrivals.size
