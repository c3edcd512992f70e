"""The ESN round trip on the symmetric inverse monoid I_n, timed.

    PYTHONPATH=src python tests/esn_round_trip.py [N]

Builds I_N (default 5, which has 1,546 elements), validates it, converts
it to its inductive groupoid (recorded as valid by the ESN theorem, not
validated again) and back (the input itself, by S(G(S)) = S, with no
pseudoproduct table formed), checks that the result equals the input, and
prints the raw wall time of each step in milliseconds.  A guard on how the
conversions scale, kept outside the test suite; it exits non-zero if the
round trip does not give back the input.  With OGACTION_CHECKED=1 each
conversion also validates a rebuilt copy in full and raises if its
reports differ, and the way back compares the pseudoproduct table with the
input's.
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
    ms = lambda a, b: f"{(b - a) * 1e3:.1f} ms"  # noqa: E731
    print(
        f"I_{n}: {s.n} elements; validate {ms(t0, t1)}, esn_to_groupoid {ms(t1, t2)}, "
        f"esn_to_semigroup {ms(t2, t3)}, round trip {ms(t0, t3)}"
    )
    if back != s:
        print(f"I_{n}: the round trip does not give back the input")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 5))
