"""Print, as JSON, the seconds a fresh interpreter spends importing
parakahler.cli and running its first catalog.build: as measured ("wall")
and at the reference host speed ("normalised", see hostspeed.py).

Usage: python3 setup_probe.py <src dir> <spec.json>
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from hostspeed import SpeedSampler  # noqa: E402  (numpy, which the toolkit imports too)

sys.path.insert(0, sys.argv[1])

with SpeedSampler() as sampler:
    from parakahler import cli  # noqa: E402

    with open(sys.argv[2], encoding="utf-8") as fh:
        cli.catalog.build(json.load(fh))
    wall = time.perf_counter() - START
print(json.dumps({"wall": wall, "normalised": sampler.normalise(wall)}))
