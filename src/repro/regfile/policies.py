"""Caching policies of the register file cache.

The caching policy decides, at write-back time, whether a result is also
written into the small uppermost bank (it is *always* written into the
lowest bank).  The paper proposes two policies:

* **non-bypass caching** — cache only results that were *not* delivered to
  a consumer through the bypass network.  The rationale is that most
  values are read at most once; if the single read was already satisfied
  by the bypass, the copy in the upper bank would be wasted space.
* **ready caching** — cache only results that are source operands of an
  instruction in the window that has not yet issued but now (with this
  result) has all its operands ready.  Such a value is certain to be read
  soon and cannot come from the bypass network anymore.

Two additional baseline policies are provided for ablation studies:
``AlwaysCaching`` (cache every result, LRU does the filtering — the
behaviour assumed by earlier register-cache work) and ``NeverCaching``
(the upper level is only filled by demand fetches/prefetches).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.execute.scoreboard import ValueState
from repro.rename.renamer import PhysicalRegister

if TYPE_CHECKING:  # pragma: no cover
    from repro.execute.issue_queue import IssueQueue


class CachingPolicy(ABC):
    """Decides which write-back results are cached in the uppermost bank."""

    name: str = "caching-policy"

    @abstractmethod
    def should_cache(
        self,
        register: PhysicalRegister,
        state: ValueState,
        window: "IssueQueue",
        cycle: int,
    ) -> bool:
        """Whether the result in ``register`` should be written to the
        uppermost level at write-back time (``cycle``)."""


class NonBypassCaching(CachingPolicy):
    """Cache results that were not read from the bypass network."""

    name = "non-bypass"

    def should_cache(
        self,
        register: PhysicalRegister,
        state: ValueState,
        window: "IssueQueue",
        cycle: int,
    ) -> bool:
        return not state.consumed_via_bypass


class ReadyCaching(CachingPolicy):
    """Cache results needed by a waiting instruction that is now ready."""

    name = "ready"

    def should_cache(
        self,
        register: PhysicalRegister,
        state: ValueState,
        window: "IssueQueue",
        cycle: int,
    ) -> bool:
        values = window.values
        for entry in window.waiting_consumers_of(register):
            other_sources = [s for s in entry.sources if s != register]
            if all(values[src.uid].produced for src in other_sources):
                return True
        return False


class AlwaysCaching(CachingPolicy):
    """Cache every result (baseline / ablation)."""

    name = "always"

    def should_cache(
        self,
        register: PhysicalRegister,
        state: ValueState,
        window: "IssueQueue",
        cycle: int,
    ) -> bool:
        return True


class NeverCaching(CachingPolicy):
    """Never cache results at write-back (fills/prefetches only)."""

    name = "never"

    def should_cache(
        self,
        register: PhysicalRegister,
        state: ValueState,
        window: "IssueQueue",
        cycle: int,
    ) -> bool:
        return False


_POLICIES: dict[str, type[CachingPolicy]] = {
    NonBypassCaching.name: NonBypassCaching,
    ReadyCaching.name: ReadyCaching,
    AlwaysCaching.name: AlwaysCaching,
    NeverCaching.name: NeverCaching,
}


def caching_policy_by_name(name: str) -> CachingPolicy:
    """Instantiate a caching policy from its short name.

    Raises
    ------
    ConfigurationError
        If the name is unknown.
    """
    try:
        return _POLICIES[name]()
    except KeyError as exc:
        raise ConfigurationError(
            f"unknown caching policy {name!r}; expected one of {sorted(_POLICIES)}"
        ) from exc
