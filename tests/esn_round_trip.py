"""The ESN round trip on the symmetric inverse monoid I_n, timed.

    PYTHONPATH=src python tests/esn_round_trip.py [N]

Builds I_N (default 5, which has 1,546 elements), validates it, converts
it to its inductive groupoid (recorded as valid by the ESN theorem, not
validated again) and back (the rebuilt pseudoproduct table is compared
with the input, which was validated once), checks that the result equals
the input, and prints the raw wall time of each step.  A guard on how the
conversions scale, kept outside the test suite; it exits non-zero if the
round trip does not give back the input.  With OGACTION_CHECKED=1 each
conversion also validates a rebuilt copy in full and raises if its
reports differ.
"""

import sys
import time

from generators import symmetric_inverse_monoid
from ogaction.semigroups import esn_to_groupoid, esn_to_semigroup


def main(n: int) -> int:
    s = symmetric_inverse_monoid(n)
    t0 = time.perf_counter()
    s.require_valid()
    t1 = time.perf_counter()
    g = esn_to_groupoid(s)
    t2 = time.perf_counter()
    back = esn_to_semigroup(g)
    t3 = time.perf_counter()
    print(
        f"I_{n}: {s.n} elements; validate {t1 - t0:.2f} s, esn_to_groupoid {t2 - t1:.2f} s, "
        f"esn_to_semigroup {t3 - t2:.2f} s, round trip {t3 - t0:.2f} s"
    )
    if back != s:
        print(f"I_{n}: the round trip does not give back the input")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 5))
