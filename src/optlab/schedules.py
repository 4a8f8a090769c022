"""Step-size decay schedules shared by the run loop and the tuner."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["DecayPolicy", "next_alpha"]

DECAY_KINDS = ("none", "dev_decay", "fixed_decay")


@dataclass(frozen=True)
class DecayPolicy:
    """How the step size shrinks over epochs.

    ``dev_decay`` multiplies by `delta` on every epoch without a new best
    development metric and carries no other knob; ``fixed_decay`` multiplies
    by `delta` every `period` epochs; ``none`` leaves the rate alone.
    """

    kind: str = "none"
    delta: float = 0.9
    period: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in DECAY_KINDS:
            raise ValueError(f"unknown decay kind {self.kind!r}; expected one of {DECAY_KINDS}")
        if self.kind != "none" and not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if self.kind == "fixed_decay":
            if self.period is None or self.period < 1:
                raise ValueError("fixed_decay needs a positive period")
        elif self.period is not None:
            raise ValueError(f"{self.kind} does not take a period")


def next_alpha(policy: DecayPolicy, alpha: float, epoch: int, improved: bool = False) -> float:
    """Step size for the epoch after `epoch`.

    For ``dev_decay`` an epoch whose dev metric is a new best (`improved`:
    strictly below every earlier epoch's, so a tie is not) keeps the rate, and
    any other epoch multiplies it by delta.  For ``fixed_decay`` the rate
    shrinks exactly when `epoch` is a multiple of the period.
    """
    if epoch < 1:
        raise ValueError("epochs are counted from 1")
    if policy.kind == "dev_decay":
        return alpha if improved else alpha * policy.delta
    if policy.kind == "fixed_decay" and epoch % policy.period == 0:
        return alpha * policy.delta
    return alpha
