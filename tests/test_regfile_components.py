"""Unit tests for register-file building blocks: ports, pseudo-LRU, buses."""

import pytest

from repro.errors import ConfigurationError, RegisterFileError
from repro.regfile.bus import TransferBusSet
from repro.regfile.ports import PortSet, WriteScheduler
from repro.regfile.replacement import PseudoLRU


class TestPortSet:
    def test_limited_ports(self):
        ports = PortSet(2)
        ports.begin_cycle()
        assert ports.available_capped(2)
        ports.claim_capped(2)
        assert not ports.available_capped(1)
        with pytest.raises(RegisterFileError):
            ports.claim_capped(1)
        ports.begin_cycle()
        assert ports.available_capped(1)

    def test_unlimited_ports(self):
        ports = PortSet(None)
        ports.begin_cycle()
        ports.claim_capped(100)
        assert ports.available_capped(100)

    def test_over_claim_raises(self):
        ports = PortSet(1)
        ports.begin_cycle()
        ports.claim_capped(1)
        with pytest.raises(RegisterFileError):
            ports.claim_capped(1)

    def test_negative_request_rejected(self):
        ports = PortSet(1)
        with pytest.raises(RegisterFileError):
            ports.claim_capped(-1)

    def test_zero_ports_rejected(self):
        with pytest.raises(ConfigurationError):
            PortSet(0)


class TestWriteScheduler:
    def test_unlimited(self):
        scheduler = WriteScheduler(None)
        assert scheduler.schedule(5) == 5
        assert scheduler.schedule(5) == 5

    def test_limited_spills_to_next_cycle(self):
        scheduler = WriteScheduler(2)
        assert scheduler.schedule(5) == 5
        assert scheduler.schedule(5) == 5
        assert scheduler.schedule(5) == 6
        assert scheduler.delayed_writes == 1

    def test_reserve_exact_cycle(self):
        scheduler = WriteScheduler(1)
        assert scheduler.reserve(3)
        assert not scheduler.reserve(3)
        assert scheduler.reserve(4)

    def test_forget_before_keeps_future(self):
        scheduler = WriteScheduler(1)
        scheduler.schedule(10)
        scheduler.forget_before(5)
        assert not scheduler.reserve(10)
        scheduler.forget_before(11)
        assert scheduler.reserve(10)


class TestPseudoLRU:
    def test_capacity_must_be_power_of_two(self):
        with pytest.raises(ConfigurationError):
            PseudoLRU(capacity=6)

    def test_insert_until_full_no_eviction(self):
        lru = PseudoLRU(capacity=4)
        for key in "abcd":
            assert lru.insert(key) is None
        assert lru.full and len(lru) == 4

    def test_eviction_of_cold_entry(self):
        lru = PseudoLRU(capacity=4)
        for key in "abcd":
            lru.insert(key)
        # Touch everything except 'b'; 'b' should be the victim.
        for key in "acd":
            lru.touch(key)
        evicted = lru.insert("e")
        assert evicted == "b"
        assert "e" in lru and "b" not in lru

    def test_reinsert_resident_key_touches(self):
        lru = PseudoLRU(capacity=2)
        lru.insert("a")
        lru.insert("b")
        assert lru.insert("a") is None     # already resident
        evicted = lru.insert("c")
        assert evicted == "b"

    def test_touch_non_resident_raises(self):
        lru = PseudoLRU(capacity=2)
        with pytest.raises(RegisterFileError):
            lru.touch("missing")

    def test_remove(self):
        lru = PseudoLRU(capacity=2)
        lru.insert("a")
        assert lru.remove("a")
        assert not lru.remove("a")
        assert "a" not in lru

    def test_capacity_one(self):
        lru = PseudoLRU(capacity=1)
        assert lru.insert("a") is None
        assert lru.insert("b") == "a"

    def test_keys_listing(self):
        lru = PseudoLRU(capacity=4)
        lru.insert("x")
        lru.insert("y")
        assert set(lru.keys()) == {"x", "y"}


class TestTransferBusSet:
    def test_unlimited_buses(self):
        buses = TransferBusSet(None, transfer_latency=2)
        assert buses.try_start_transfer(4) == 6
        assert buses.try_start_transfer(4) == 6

    def test_limited_buses_busy(self):
        buses = TransferBusSet(1, transfer_latency=2)
        assert buses.try_start_transfer(0) == 2
        assert buses.try_start_transfer(1) is None
        assert buses.transfers_denied == 1
        assert buses.try_start_transfer(2) == 4

    def test_multiple_buses(self):
        buses = TransferBusSet(2, transfer_latency=3)
        assert buses.try_start_transfer(0) == 3
        assert buses.try_start_transfer(0) == 3
        assert buses.try_start_transfer(0) is None
        assert buses.try_start_transfer(3) == 6

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TransferBusSet(0)
        with pytest.raises(ConfigurationError):
            TransferBusSet(1, transfer_latency=0)

    def test_statistics(self):
        buses = TransferBusSet(1, transfer_latency=1)
        buses.try_start_transfer(0)
        buses.try_start_transfer(0)
        assert (buses.transfers_started, buses.transfers_denied) == (1, 1)
