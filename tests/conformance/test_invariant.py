"""The batched executor's horizon (DESIGN.md §8).

Hit runs stop at the heap top's key, because the unbatched reference
applies an operation's mutations atomically at its start; these tests
pin the published horizons and the min-run continuation.
"""

import math

from repro.sim.executor import SYNC_HORIZON_CYCLES, Executor, SimThread


class TestExecutorBatchedMode:
    def test_negative_epoch_rejected(self):
        try:
            Executor(epoch_cycles=-1.0)
        except ValueError:
            pass
        else:
            raise AssertionError("negative epoch_cycles accepted")

    def test_horizon_published_and_cleared(self):
        seen = []

        def workload(thread):
            for _ in range(3):
                seen.append(thread.run_horizon)
                thread.clock.charge("x", 10)
                yield

        executor = Executor(epoch_cycles=SYNC_HORIZON_CYCLES)
        thread = SimThread(core=0)
        executor.add(thread, workload(thread))
        executor.run()
        # Solo thread: infinite horizon while running, cleared after.
        assert seen and all(math.isinf(h) for h in seen)
        assert thread.run_horizon is None

    def test_unbatched_mode_publishes_no_horizon(self):
        seen = []

        def workload(thread):
            for _ in range(2):
                seen.append(thread.run_horizon)
                thread.clock.charge("x", 10)
                yield

        executor = Executor()
        thread = SimThread(core=0)
        executor.add(thread, workload(thread))
        executor.run()
        assert seen == [None, None]

    def test_core_sharing_zeroes_the_quantum(self):
        horizons = []

        def workload(thread):
            for _ in range(2):
                horizons.append((thread.name, thread.run_horizon))
                thread.clock.charge("x", 100)
                yield

        executor = Executor(epoch_cycles=SYNC_HORIZON_CYCLES)
        threads = [SimThread(core=0), SimThread(core=0)]  # same hw thread
        for t in threads:
            executor.add(t, workload(t))
        executor.run()
        # Every published finite horizon is the heap top's key: the
        # peer's clock when this thread wins the tie on insertion order
        # (thread a), else the largest float below it (thread b), so a
        # hit op never starts where the unbatched heap would pop the peer
        # first.  The two threads alternate in 100-cycle steps.
        finite = [h for _, h in horizons if h is not None and not math.isinf(h)]
        below = lambda t: math.nextafter(t, -math.inf)  # noqa: E731
        assert finite == [0.0, below(100.0), 100.0, below(200.0)]

    def test_min_run_continuation_matches_unbatched_schedule(self):
        def make(events, label):
            def workload(thread):
                for i in range(4):
                    events.append((label, i, thread.clock.now))
                    thread.clock.charge("x", 50 if label == "a" else 70)
                    yield

            return workload

        events_u, events_b = [], []
        for events, epoch in ((events_u, None), (events_b, SYNC_HORIZON_CYCLES)):
            SimThread.reset_ids()
            executor = Executor(epoch_cycles=epoch)
            ta, tb = SimThread(core=0), SimThread(core=1)
            executor.add(ta, make(events, "a")(ta))
            executor.add(tb, make(events, "b")(tb))
            executor.run()
        assert events_u == events_b
