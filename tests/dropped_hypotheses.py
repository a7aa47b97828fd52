"""Show what each hypothesis of each square check is for.

Usage: PYTHONPATH=src python tests/dropped_hypotheses.py N

Builds every square over the frames of posets with at most N points, one
at a time (N = 3: 1,559 squares; N = 4: 156,317), and prints, for each
hypothesis of each square check, how many squares make it false and the
check's other hypotheses true, and the first of them on which the
conclusion fails, by subject and witness.  A hypothesis with no such
failure is one that these squares do not show to be needed.
"""

import sys
import time

from oracles import dropped_hypotheses, iter_square_space


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not argv[0].isdigit():
        print("usage: dropped_hypotheses.py N", file=sys.stderr)
        return 2
    start = time.perf_counter()
    squares = 0

    def counted():
        nonlocal squares
        for sq in iter_square_space(int(argv[0])):
            squares += 1
            yield sq

    table = dropped_hypotheses(counted())
    print(f"{squares} squares in {time.perf_counter() - start:.1f} s")
    for (cid, hypothesis), (count, first) in table.items():
        found = ("no counterexample" if first is None
                 else f"fails on {first[0]}: {first[1]}")
        print(f"{cid} without {hypothesis}: {count} squares, {found}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
