"""The suite's draws match the randint oracle, value and rng state.

local_model._random_ratios draws each bounded int with getrandbits as
CPython's Random.randint consumes bits; tests/draw_reference.py draws with
randint itself, so a release that consumes bits differently changes the
values or the rng state left behind.  Run from the checkout:

    PYTHONPATH=src:tests python tests/ci/suite_draws.py
"""

import sys
from random import Random

import draw_reference
from su12fiber import local_model


def main() -> None:
    for seed in range(3000):
        order = seed % 32 + 1
        new, old = Random(seed), Random(seed)
        for nonzero in (False, True, False):
            s = local_model.random_scalar(new, nonzero=nonzero)
            r = draw_reference.random_scalar(old, nonzero=nonzero)
            if s != r or new.getstate() != old.getstate():
                sys.exit(f"seed {seed}: random_scalar(nonzero={nonzero}) {s} != {r}")
        s = local_model.random_series(new, order)
        r = draw_reference.random_series(old, order)
        if s != r or new.getstate() != old.getstate():
            sys.exit(f"seed {seed}: random_series at order {order} {s} != {r}")
    print(f"{seed + 1} seeds, orders 1 to 32: draws and rng state match randint")


if __name__ == "__main__":
    main()
