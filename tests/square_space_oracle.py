"""Compare the square layer with its references on a whole square space.

Usage: PYTHONPATH=src python tests/square_space_oracle.py N

Builds every square over the frames of posets with at most N points, one
at a time (N = 3: 1,559 squares; N = 4: 156,317), and compares each
property in ``oracles.square_verdicts`` with its reference.  Prints the
square count and the number of disagreements, with the first few; exits
1 on any disagreement.
"""

import sys
import time

from oracles import iter_square_space, square_verdicts


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not argv[0].isdigit():
        print("usage: square_space_oracle.py N", file=sys.stderr)
        return 2
    start = time.perf_counter()
    squares = 0
    wrong = []
    for sq in iter_square_space(int(argv[0])):
        squares += 1
        wrong += [(prop, sq.subject(), got, want)
                  for prop, (got, want) in square_verdicts(sq).items()
                  if got != want]
    print(f"{squares} squares, {len(wrong)} disagreements "
          f"in {time.perf_counter() - start:.1f} s")
    for prop, subject, got, want in wrong[:5]:
        print(f"  {prop}: library {got}, reference {want} on {subject}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
