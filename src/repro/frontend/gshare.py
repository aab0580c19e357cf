"""Gshare branch direction predictor (Table 1: 64K entries).

Gshare XORs the branch PC with a global history register to index a table
of 2-bit saturating counters.  Speculative history update with recovery
is modelled by checkpointing the history register at prediction time and
restoring it when a misprediction is detected.
"""

from __future__ import annotations

from repro.errors import ConfigurationError


class GSharePredictor:
    """A gshare predictor with 2-bit saturating counters.

    Parameters
    ----------
    num_entries:
        Number of counters; must be a power of two (default 64K, as in
        Table 1 of the paper).
    history_bits:
        Number of global history bits (defaults to log2(num_entries)).
    """

    def __init__(self, num_entries: int = 64 * 1024, history_bits: int | None = None) -> None:
        if num_entries <= 0 or num_entries & (num_entries - 1):
            raise ConfigurationError("num_entries must be a positive power of two")
        self.num_entries = num_entries
        self.index_bits = num_entries.bit_length() - 1
        self.history_bits = self.index_bits if history_bits is None else history_bits
        if not 0 <= self.history_bits <= 32:
            raise ConfigurationError("history_bits must be between 0 and 32")
        self._counters = bytearray(b"\x02") * num_entries  # weakly taken
        self._history = 0
        self._history_mask = (1 << self.history_bits) - 1

    # ------------------------------------------------------------------

    def _index(self, pc: int, history: int) -> int:
        return ((pc >> 2) ^ history) & (self.num_entries - 1)

    def predict(self, pc: int) -> tuple[bool, int]:
        """Predict the direction of the branch at ``pc``.

        Returns ``(taken, checkpoint)`` where ``checkpoint`` must be
        passed back to :meth:`update`, which repairs the history on a
        misprediction.
        """
        checkpoint = self._history
        counter = self._counters[self._index(pc, self._history)]
        taken = counter >= 2
        # Speculative history update.
        self._history = ((self._history << 1) | int(taken)) & self._history_mask
        return taken, checkpoint

    def update(self, pc: int, taken: bool, checkpoint: int, predicted: bool) -> None:
        """Train the predictor with the resolved outcome of a branch."""
        index = self._index(pc, checkpoint)
        counter = self._counters[index]
        if taken:
            self._counters[index] = min(3, counter + 1)
        else:
            self._counters[index] = max(0, counter - 1)
        if taken != predicted:
            # Repair the global history: the speculative bit was wrong,
            # and fetch stopped at this branch, so no younger prediction
            # has extended it.
            self._history = ((checkpoint << 1) | int(taken)) & self._history_mask
