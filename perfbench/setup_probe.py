"""Set-up probe, run in a fresh interpreter.

Reads NUL-separated game texts from stdin, then times ``import pismg``
plus ``parse_game`` and ``validate`` of every text, as one CLI call
pays them. Prints the seconds taken.

Usage: python3 perfbench/setup_probe.py CHECKOUT_ROOT < texts
"""

import sys
import time

texts = sys.stdin.buffer.read().decode().split("\0")
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1] + "/src")
import pismg  # noqa: E402

for text in texts:
    pismg.validate(pismg.parse_game(text))
print(time.perf_counter() - t0)
