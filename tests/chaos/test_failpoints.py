"""The failpoint subsystem itself: grammar, triggers, actions.

Everything here is same-process and fully deterministic — the
``prob`` trigger is asserted against the exact stream its seed
produces, and byte corruption against its fixed offsets.
"""

import random
import threading
import time

import pytest

from repro import faults
from repro.exceptions import (
    FaultInjectedError,
    SnapshotIntegrityError,
    WorkerTimeoutError,
)
from repro.faults import FailpointSpecError
from repro.service.errors import Overloaded


class TestTriggers:
    def test_unarmed_site_is_inert(self):
        assert not faults.is_armed()
        faults.hit("nowhere")                       # no-op, no error
        assert faults.corrupt("nowhere", b"abc") == b"abc"

    def test_off_registers_but_never_fires(self):
        faults.activate("site", "off")
        assert "site" in faults.active_sites()
        assert not faults.is_armed()                # fast path stays off
        faults.hit("site")

    def test_once_fires_exactly_once(self):
        faults.activate("site", "once:raise")
        with pytest.raises(FaultInjectedError):
            faults.hit("site")
        for _ in range(5):
            faults.hit("site")                      # spent

    def test_always_fires_every_time(self):
        faults.activate("site", "always:raise")
        for _ in range(3):
            with pytest.raises(FaultInjectedError):
                faults.hit("site")

    def test_nth_fires_on_exactly_the_nth_call(self):
        faults.activate("site", "nth(3):raise")
        faults.hit("site")
        faults.hit("site")
        with pytest.raises(FaultInjectedError):
            faults.hit("site")
        faults.hit("site")                          # 4th: past it

    def test_prob_replays_its_seeded_stream_exactly(self):
        faults.activate("site", "prob(0.5, 42):raise")
        rng = random.Random(42)
        expected = [rng.random() < 0.5 for _ in range(50)]
        observed = []
        for _ in range(50):
            try:
                faults.hit("site")
                observed.append(False)
            except FaultInjectedError:
                observed.append(True)
        assert observed == expected
        assert any(observed) and not all(observed)

    def test_prob_zero_and_one_are_degenerate(self):
        faults.activate("never", "prob(0.0, 1):raise")
        faults.activate("ever", "prob(1.0, 1):raise")
        for _ in range(10):
            faults.hit("never")
            with pytest.raises(FaultInjectedError):
                faults.hit("ever")


class TestActions:
    def test_raise_default_is_fault_injected_error(self):
        faults.activate("site", "once:raise")
        with pytest.raises(FaultInjectedError) as excinfo:
            faults.hit("site")
        assert "site" in str(excinfo.value)

    def test_raise_named_exception_from_exceptions_module(self):
        faults.activate("site", "always:raise(WorkerTimeoutError)")
        with pytest.raises(WorkerTimeoutError):
            faults.hit("site")

    def test_raise_named_exception_from_service_errors(self):
        faults.activate("site", "always:raise(Overloaded)")
        with pytest.raises(Overloaded):
            faults.hit("site")

    def test_raise_unknown_exception_name_is_a_spec_error(self):
        faults.activate("site", "always:raise(NoSuchError)")
        with pytest.raises(FailpointSpecError):
            faults.hit("site")

    def test_sleep_blocks_for_the_given_duration(self):
        faults.activate("site", "once:sleep(0.2)")
        start = time.monotonic()
        faults.hit("site")
        assert time.monotonic() - start >= 0.2
        start = time.monotonic()
        faults.hit("site")                          # spent: instant
        assert time.monotonic() - start < 0.2

    def test_corrupt_flips_fixed_offsets_deterministically(self):
        payload = bytes(range(10))
        faults.activate("site", "always:corrupt")
        damaged = faults.corrupt("site", payload)
        assert damaged != payload
        assert damaged == faults.corrupt("site", payload)  # replayable
        expected = bytearray(payload)
        for offset in (0, len(payload) // 2, len(payload) - 1):
            expected[offset] ^= 0xFF
        assert damaged == bytes(expected)

    def test_corrupt_of_empty_payload_still_differs(self):
        faults.activate("site", "always:corrupt-bytes")
        assert faults.corrupt("site", b"") != b""

    def test_corrupt_action_at_hit_site_is_a_noop(self):
        faults.activate("site", "always:corrupt")
        faults.hit("site")                          # nothing to damage

    def test_raise_action_at_corrupt_site_raises(self):
        faults.activate("site", "always:raise")
        with pytest.raises(FaultInjectedError):
            faults.corrupt("site", b"abc")


class TestConfiguration:
    def test_configure_parses_multiple_sites(self):
        faults.configure(
            "a=once:raise; b=nth(2):sleep(0.1), c=prob(0.5, 7):exit")
        assert set(faults.active_sites()) == {"a", "b", "c"}

    def test_separators_inside_parens_do_not_split(self):
        faults.configure("a=prob(0.5, 42):raise;b=once:raise")
        assert set(faults.active_sites()) == {"a", "b"}

    def test_bad_entry_raises_spec_error(self):
        for bad in ("justaname", "=once:raise", "a=once",
                    "a=nth(zero):raise", "a=prob(2.0, 1):raise",
                    "a=once:explode", "a=once:sleep(fast)"):
            with pytest.raises(FailpointSpecError):
                faults.configure(bad)

    def test_clear_disarms_one_or_all(self):
        faults.activate("a", "once:raise")
        faults.activate("b", "once:raise")
        faults.clear("a")
        assert set(faults.active_sites()) == {"b"}
        faults.clear()
        assert faults.active_sites() == {}
        assert not faults.is_armed()

    def test_reload_env_mirrors_the_environment(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "x=once:raise")
        faults.reload_env()
        assert set(faults.active_sites()) == {"x"}
        monkeypatch.delenv(faults.ENV_VAR)
        faults.reload_env()
        assert faults.active_sites() == {}


class TestConcurrency:
    def test_concurrent_arm_disarm_never_corrupts_the_registry(self):
        """Arming and disarming from several threads at once must
        neither raise (registry mutated during the fast-path flag
        recomputation) nor leave the flag stale relative to the
        registry."""
        errors = []

        def hammer(lane):
            try:
                for n in range(200):
                    site = f"hammer.{lane}.{n % 5}"
                    # Armed but effectively inert: nth far beyond any
                    # call count this test makes.
                    faults.activate(site, "nth(1000000):sleep(0)")
                    faults.hit(site)
                    faults.clear(site)
            except Exception as error:  # noqa: BLE001 — collected
                errors.append(error)

        threads = [threading.Thread(target=hammer, args=(lane,))
                   for lane in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        faults.clear()
        assert faults.active_sites() == {}
        assert not faults.is_armed()


class TestSnapshotSites:
    def test_corrupted_section_fails_checksum_verification(
            self, fig4_store):
        """An armed corrupt site on section reads must be caught by
        the snapshot layer's own integrity checking — the graph never
        materializes from damaged bytes."""
        from repro.snapshot import SnapshotStore
        from repro.snapshot.snapshot import load_snapshot

        path = SnapshotStore(fig4_store).resolve()
        load_snapshot(path)                         # sane baseline
        faults.activate("snapshot.section", "always:corrupt")
        with pytest.raises(SnapshotIntegrityError):
            load_snapshot(path)
        faults.clear()
        load_snapshot(path)                         # damage-free again

    def test_targeted_section_corruption_also_caught(self,
                                                     fig4_store):
        from repro.snapshot import SnapshotStore
        from repro.snapshot.snapshot import load_snapshot

        path = SnapshotStore(fig4_store).resolve()
        faults.activate("snapshot.section.graph", "always:corrupt")
        with pytest.raises(SnapshotIntegrityError):
            load_snapshot(path)

    def test_snapshot_load_site_raises(self, fig4_store):
        from repro.snapshot import SnapshotStore
        from repro.snapshot.snapshot import load_snapshot

        path = SnapshotStore(fig4_store).resolve()
        faults.activate("snapshot.load", "once:raise")
        with pytest.raises(FaultInjectedError):
            load_snapshot(path)
        load_snapshot(path)                         # next load is clean


class TestMmapSnapshotSites:
    """Every load maps its sections read-only; damage in any mapped
    section fails with a *typed* error — never a bare numpy or struct
    error escaping from the view layer."""

    def test_corrupted_section_is_a_typed_error_in_mmap_mode(
            self, fig4_store):
        import numpy as np

        from repro.exceptions import SnapshotError
        from repro.snapshot import SnapshotStore
        from repro.snapshot.snapshot import load_snapshot

        path = SnapshotStore(fig4_store).resolve()
        targets = load_snapshot(path).dbg.graph.forward.targets
        assert not np.asarray(targets).flags.writeable   # mapped
        faults.activate("snapshot.section", "always:corrupt")
        with pytest.raises(SnapshotIntegrityError) as excinfo:
            load_snapshot(path)
        assert isinstance(excinfo.value, SnapshotError)
        faults.clear()
        load_snapshot(path)                         # clean again

    @pytest.mark.parametrize("section",
                             ("graph", "nodes", "index", "postings"))
    def test_each_mapped_section_is_checksummed(self, fig4_store,
                                                section):
        from repro.snapshot import SnapshotStore
        from repro.snapshot.snapshot import load_snapshot

        path = SnapshotStore(fig4_store).resolve()
        faults.activate(f"snapshot.section.{section}",
                        "always:corrupt")
        with pytest.raises(SnapshotIntegrityError):
            load_snapshot(path)

    def test_load_site_fires_before_any_mapping(self, fig4_store):
        """With both sites armed the load site wins: it fires before
        any section is mapped (so before the section site can)."""
        from repro.snapshot import SnapshotStore
        from repro.snapshot.snapshot import load_snapshot

        path = SnapshotStore(fig4_store).resolve()
        faults.activate("snapshot.load", "once:raise")
        faults.activate("snapshot.section", "always:corrupt")
        with pytest.raises(FaultInjectedError):
            load_snapshot(path)
        with pytest.raises(SnapshotIntegrityError):
            load_snapshot(path)                     # load site spent
        faults.clear()
        load_snapshot(path)
