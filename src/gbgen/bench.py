"""Timing the generator against the forward completion oracle.

Both directions run over the same sample stream: "backward" is the cost of
producing (F, G) pairs, "forward" the cost of recovering G from F with
Buchberger under a per-instance timeout.  A timed-out instance contributes
the full timeout value to the forward total, so the reported ratio is a
floor on the true gap.  Timing loops are single-threaded on purpose.
"""

import time
from dataclasses import asdict, dataclass, replace

from .dataset import GenerationConfig, generate_sample
from .groebner import GroebnerTimeout, buchberger

__all__ = ["BenchReport", "run_bench", "DEFAULT_TIMEOUT"]

DEFAULT_TIMEOUT = 5.0


@dataclass
class BenchReport:
    nvars: int
    field: str
    num_samples: int
    backward_seconds: float
    forward_seconds: float
    timeouts: int
    success_rate: float
    speedup: float

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def table_header() -> str:
        return (
            f"{'n':>3} {'field':>8} {'m':>6} {'backward_s':>11} "
            f"{'forward_s':>10} {'timeouts':>9} {'success':>8} {'speedup':>9}"
        )

    def table_row(self) -> str:
        return (
            f"{self.nvars:>3} {self.field:>8} {self.num_samples:>6} "
            f"{self.backward_seconds:>11.3f} {self.forward_seconds:>10.3f} "
            f"{self.timeouts:>9} {self.success_rate:>8.3f} {self.speedup:>9.1f}"
        )


def run_bench(
    config: GenerationConfig,
    timeout: float = DEFAULT_TIMEOUT,
    forward: bool = True,
) -> BenchReport:
    """Generate config.num_samples pairs, then (optionally) re-solve each F."""
    config = replace(config, verify_fraction=0.0)  # keep the oracle out of the backward timing
    start = time.perf_counter()
    samples = [generate_sample(config, i) for i in range(config.num_samples)]
    backward_seconds = time.perf_counter() - start

    forward_seconds = 0.0
    timeouts = 0
    if forward:
        for pair in samples:
            gens = [f for f in pair.F if f]
            tick = time.perf_counter()
            try:
                buchberger(gens, timeout=timeout)
                forward_seconds += time.perf_counter() - tick
            except GroebnerTimeout:
                timeouts += 1
                forward_seconds += timeout
    m = max(config.num_samples, 1)
    success = 1.0 - timeouts / m if forward else 1.0
    speedup = forward_seconds / backward_seconds if backward_seconds > 0 else float("inf")
    return BenchReport(
        nvars=config.nvars,
        field=str(config.field),
        num_samples=config.num_samples,
        backward_seconds=backward_seconds,
        forward_seconds=forward_seconds,
        timeouts=timeouts,
        success_rate=success,
        speedup=speedup if forward else 0.0,
    )
