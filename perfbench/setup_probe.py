"""Time one workload's set-up in a fresh interpreter.

Measures from `import rankfuzz` until every field the workload uses is
built, log/exp tables included (the first multiplication builds them).
Prints the seconds taken, then the same divided by the speed factor of
the reference loop timed just before and after (see speed.py).  A CLI
invocation pays this on every command.

    python3 perfbench/setup_probe.py <workload>
"""

import sys
import time
from pathlib import Path

from shapes import FIELDS, REFERENCE
from speed import SpeedGauge

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> None:
    workload = sys.argv[1]
    fields = FIELDS[workload]
    gauge = SpeedGauge(REFERENCE[workload], window=10)
    start = time.perf_counter()
    import rankfuzz

    for q, m in fields:
        rankfuzz.ext_field(q, m).mul(1, 1)
    seconds = time.perf_counter() - start
    for _ in range(5):  # the window now holds 5 samples before and 5 after
        gauge.sample()
    print(repr(seconds), repr(seconds / gauge.factor()))


if __name__ == "__main__":
    main()
