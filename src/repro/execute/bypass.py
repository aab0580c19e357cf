"""Bypass (forwarding) network timing model.

The paper's comparison hinges on how many *levels* of bypass a register
file architecture needs.  A register file with ``read_stages`` cycles of
operand read requires ``read_stages`` levels of bypass for dependent
instructions to execute back-to-back; every missing level adds one cycle
of effective producer→consumer latency (keeping only the *last* level
avoids "holes": once a value leaves the bypass network it is already
readable from the register file).

This module encapsulates that arithmetic.  How operands are actually
delivered is counted elsewhere: each register file's ``claim_reads``
counts it (summed into ``SimulationStats.operands_from_bypass`` and
``operands_from_file``) and sets ``ValueState.consumed_via_bypass``,
which the non-bypass caching policy reads.
"""

from __future__ import annotations

from repro.errors import ConfigurationError


class BypassNetwork:
    """Availability calculations for a given bypass configuration."""

    def __init__(self, read_stages: int, bypass_levels: int) -> None:
        if read_stages <= 0:
            raise ConfigurationError("read_stages must be positive")
        if not 0 <= bypass_levels <= read_stages:
            raise ConfigurationError(
                "bypass_levels must be between 0 and read_stages (full bypass)"
            )
        self.read_stages = read_stages
        self.bypass_levels = bypass_levels

    def earliest_consumer_execute(self, producer_ex_end: int) -> int:
        """Earliest cycle a dependent instruction can start executing.

        With full bypass this is the cycle right after the producer
        finishes; each missing bypass level costs one more cycle.
        """
        return producer_ex_end + 1 + (self.read_stages - self.bypass_levels)
