"""The sampling specification: stride, window and CI knobs.

A :class:`SamplingSpec` describes one systematic-sampling policy over a
decoded trace: simulate a detailed **window** of instructions at every
**stride** boundary, functionally warm the renamer/scoreboard/register
files over the **warmup** instructions preceding each window, and report
IPC as the mean of the per-window IPCs with a Student-t confidence
interval at the configured **confidence** level.  With a
``target_half_width`` the engine stops adding windows as soon as the
relative half-width of the interval drops below the target (adaptive
window count); otherwise every stride boundary that fits the stream is
simulated.

This module deliberately imports nothing but the error hierarchy so the
spec can be shared by the experiment scheduler, the service admission
layer and the sampling engine without import cycles.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError

#: Confidence levels with a committed Student-t table (see
#: :mod:`repro.sampling.engine`).
SUPPORTED_CONFIDENCE_LEVELS = (0.90, 0.95, 0.99)


def _positive_int(value, name: str) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
        raise ConfigurationError(f"sampling {name} must be a positive integer")


@dataclass(frozen=True)
class SamplingSpec:
    """One systematic interval-sampling policy.

    ``stride``
        Instructions between consecutive detailed-window starts.
    ``window``
        Detailed instructions simulated per window (``window <= stride``
        so windows never overlap).
    ``warmup``
        Instructions of functional warm-up replay before each window
        (defaults to ``window`` when omitted).
    ``confidence``
        Confidence level of the reported IPC interval.
    ``target_half_width``
        Optional relative half-width target in (0, 1); the engine stops
        adding windows once ``half_width / mean`` drops below it (but
        never before ``min_windows`` windows).
    ``min_windows`` / ``max_windows``
        Bounds on the adaptive window count.
    """

    stride: int
    window: int
    warmup: Optional[int] = None
    confidence: float = 0.95
    target_half_width: Optional[float] = None
    min_windows: int = 4
    max_windows: Optional[int] = None

    def __post_init__(self) -> None:
        _positive_int(self.stride, "stride")
        _positive_int(self.window, "window")
        if self.window > self.stride:
            raise ConfigurationError(
                f"sampling window ({self.window}) cannot exceed the stride "
                f"({self.stride}): detailed windows must not overlap"
            )
        if self.warmup is not None and (
            not isinstance(self.warmup, int)
            or isinstance(self.warmup, bool)
            or self.warmup < 0
        ):
            raise ConfigurationError(
                "sampling warmup must be a non-negative integer (or omitted)"
            )
        if self.confidence not in SUPPORTED_CONFIDENCE_LEVELS:
            raise ConfigurationError(
                f"sampling confidence {self.confidence!r} is unsupported "
                f"(supported: {', '.join(str(c) for c in SUPPORTED_CONFIDENCE_LEVELS)})"
            )
        if self.target_half_width is not None:
            value = self.target_half_width
            if (
                isinstance(value, bool)
                or not isinstance(value, (int, float))
                or not 0.0 < value < 1.0
            ):
                raise ConfigurationError(
                    "sampling target_half_width must be a relative width in (0, 1)"
                )
        if (
            not isinstance(self.min_windows, int)
            or isinstance(self.min_windows, bool)
            or self.min_windows < 2
        ):
            raise ConfigurationError(
                "sampling min_windows must be an integer >= 2 "
                "(a confidence interval needs at least two windows)"
            )
        if self.max_windows is not None:
            _positive_int(self.max_windows, "max_windows")
            if self.max_windows < self.min_windows:
                raise ConfigurationError(
                    f"sampling max_windows ({self.max_windows}) cannot be "
                    f"smaller than min_windows ({self.min_windows})"
                )

    # ------------------------------------------------------------------

    @property
    def effective_warmup(self) -> int:
        """The warm-up budget actually applied (default: one window)."""
        return self.window if self.warmup is None else self.warmup

    def label(self) -> str:
        """Compact ``stride:window:warmup`` tag for metadata and logs."""
        return f"{self.stride}:{self.window}:{self.effective_warmup}"

    # ------------------------------------------------------------------
    # serialization (service API, store keys)
    # ------------------------------------------------------------------

    def to_payload(self) -> dict:
        """JSON-serializable dictionary (inverse of :meth:`from_payload`)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_payload(cls, payload) -> "SamplingSpec":
        """Rebuild a spec from a payload dictionary.

        Raises
        ------
        ConfigurationError
            On a non-mapping payload, unknown fields, missing
            ``stride``/``window`` or out-of-range values.
        """
        if not isinstance(payload, dict):
            raise ConfigurationError("sampling spec must be a JSON object")
        known = {spec.name for spec in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown sampling field(s): {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})"
            )
        missing = sorted({"stride", "window"} - set(payload))
        if missing:
            raise ConfigurationError(
                f"sampling spec is missing required field(s): {', '.join(missing)}"
            )
        return cls(**payload)


def parse_sampling(text) -> SamplingSpec:
    """Parse the CLI form ``stride:window[:warmup]`` into a spec.

    Raises
    ------
    ConfigurationError
        On anything that is not two or three colon-separated integers,
        or on values the :class:`SamplingSpec` validator rejects.
    """
    if not isinstance(text, str):
        raise ConfigurationError("sampling spec must be a string")
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise ConfigurationError(
            f"sampling spec {text!r} must be STRIDE:WINDOW[:WARMUP], "
            "e.g. 2000:200 or 2000:200:400"
        )
    try:
        numbers = [int(part) for part in parts]
    except ValueError as error:
        raise ConfigurationError(
            f"sampling spec {text!r} must be colon-separated integers"
        ) from error
    warmup = numbers[2] if len(numbers) == 3 else None
    return SamplingSpec(stride=numbers[0], window=numbers[1], warmup=warmup)
