"""Run the offline checks of a whole square space in one pass.

Usage: PYTHONPATH=src python tests/square_space.py N

Builds every square over the frames of posets with at most N points, one
at a time (N = 2: 36 squares; N = 3: 1,559; N = 4: 156,317).  On each it
compares every property in ``oracles.square_verdicts`` with its
reference, each map's adjoint table with the one found from the order
included, each distinct map once, and it tallies what each hypothesis of
each square check is for (``oracles.dropped_hypotheses``).  Prints the
square count and the number of disagreements, with the first few, then,
for each hypothesis, how many squares make it alone false and the first
of them on which the conclusion fails, by subject and witness.  A
hypothesis with no such failure is one that these squares do not show to
be needed.  Exits 1 on any disagreement.
"""

import sys
import time

from oracles import dropped_hypotheses, iter_square_space, square_verdicts


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not argv[0].isdigit():
        print("usage: square_space.py N", file=sys.stderr)
        return 2
    start = time.perf_counter()
    squares = 0
    wrong = []
    seen = {}   # each distinct map's verdicts, compared once

    def compared():
        nonlocal squares
        for sq in iter_square_space(int(argv[0])):
            squares += 1
            verdicts = square_verdicts(sq, seen)
            wrong.extend((prop, sq.subject(), got, want)
                         for prop, (got, want) in verdicts.items()
                         if got != want)
            yield sq

    table = dropped_hypotheses(compared())
    print(f"{squares} squares, {len(wrong)} disagreements "
          f"in {time.perf_counter() - start:.1f} s")
    for prop, subject, got, want in wrong[:5]:
        print(f"  {prop}: library {got}, reference {want} on {subject}")
    for (cid, hypothesis), (count, first) in table.items():
        found = ("no counterexample" if first is None
                 else f"fails on {first[0]}: {first[1]}")
        print(f"{cid} without {hypothesis}: {count} squares, {found}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
