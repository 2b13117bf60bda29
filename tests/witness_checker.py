"""Check the witnesses of `steinhaus search --format json` from the printed
fields alone, with the standard library only: nothing here imports the
package that printed them.

Usage: python tests/witness_checker.py PAYLOAD.json   (or - for stdin)

Prints one line per failing witness and a summary; exits 0 when every
witness passes, 1 otherwise.

Each witness claims that the triangles of sizes kp + r, k = 0, 1, 2, ...,
generated by its printed tuples are all balanced (ones and zeroes differ by
at most one).  A triangle is rebuilt from the tuples by the rule
cell = left parent XOR right parent:

* Steinhaus, from the printed row z: row 0 is z repeated, and row i + 1 is
  row i XOR row i shifted by one, so cell (i, m) of the triangle is g(i, i + m).
* Pascal, from the printed sides: row t has t + 1 cells, the first
  z_left[t], the last z_right[t], each other one the XOR of the two cells
  above it, so cell (t, m) is g(t, m) for 0 <= m <= t.

Periodicity.  The theorem needs g(i + p, j) = g(i, j) and
g(i + p, j + p) = g(i, j) wherever both cells lie in the triangle.
For Steinhaus every row of g is p-periodic (row 0 is, and the rule keeps
it), and row p of g(i, j) = row_i[j - i] equals row 0 when p cyclic
derivations z[m] XOR z[m + 1] return z, which is checked.  For Pascal the
sides are p-periodic by construction, and the two translations are checked
on the rows t < 3p; they then hold on every row T >= 3p, by induction on T:
(p, p) at a cell (T, m + p): for m = T - p both cells are right-side
cells, z_right[T] = z_right[T - p]; for 0 < m < T - p both are XORs of two
cells of the rows above, equal by (p, p) at row T - 1; for m = 0,
g(T, p) = g(T-1, p-1) XOR g(T-1, p) = g(T-1-p, p-1) XOR z_left[T-1-p] by
(p, 0) and (p, p) at row T - 1, which by the same two steps at row T - p is
g(T - p, p) = g(T - 2p, 0) = z_left[T - p].  (p, 0) at a cell (T, m):
m = 0 is a left-side cell; 0 < m < T - p is an XOR of cells equal by (p, 0)
at row T - 1; and g(T, T - p) = g(T - p, T - 2p) by (p, p) at row T, which
is g(T - 2p, T - 2p) = z_right[T - p] by (p, 0) at row T - p.

Three sizes decide all.  Cut the size-(kp + r) triangle into p-by-p blocks.
By the two translations every block off the diagonal holds the same
cells, every diagonal block is the size-p triangle, and the strip of the
last r rows (Pascal) or columns (Steinhaus) is k equal r-by-p rectangles
and one size-r triangle.  So D(k) = 2 ones - cells of the size-(kp + r)
triangle is a polynomial of degree at most 2 in k.  A bounded such
polynomial on k >= 0 is constant, so the family is balanced for every k
exactly when D(0) = D(1) = D(2) lies in {-1, 0, 1}.

The corner and band counts printed beside each witness are checked against
the rebuilt triangles too: the corner is the size-r triangle, the band the
cells that growing it to size p + r adds, and the period holds p^2 / 2 ones.
"""

from __future__ import annotations

import json
import sys


def _bits(digits: str) -> int:
    """The 0/1 digits as an int, digit m at bit m."""
    return int(digits[::-1], 2)


def _steinhaus_ones(z: str, sizes: list[int]) -> list[int] | str:
    """Ones of the Steinhaus triangles of the given sizes with top row z
    repeated, or the reason z generates no p-periodic orbit."""
    p = len(z)
    bits = _bits(z)
    derived = bits
    for _ in range(p):
        derived ^= (derived >> 1) | ((derived & 1) << (p - 1))
    if derived != bits:
        return "z is not periodic: p cyclic derivations do not return it"
    n = max(sizes)
    row = _bits((z * (n // p + 1))[:n])
    ones = [0] * len(sizes)
    for i in range(n):
        for k, size in enumerate(sizes):
            if i < size:
                ones[k] += (row & ((1 << (size - i)) - 1)).bit_count()
        row = (row ^ (row >> 1)) & ((1 << (n - 1 - i)) - 1)
    return ones


def _pascal_ones(left: str, right: str, sizes: list[int]) -> list[int] | str:
    """Ones of the Pascal triangles of the given sizes with the sides left
    and right repeated, or the reason they generate no doubly periodic one."""
    p = len(left)
    if len(right) != p:
        return "z_left and z_right differ in length"
    if left[0] != right[0]:
        return "z_left and z_right disagree on the apex"
    n = max(3 * p, max(sizes))
    rows = [int(left[0])]
    for t in range(1, n):
        prev = rows[-1]
        inner = (prev ^ (prev << 1)) & ((1 << t) - 2)
        rows.append(int(left[t % p]) | inner | (int(right[t % p]) << t))
    for t in range(n - p):
        below = rows[t + p]
        if below & ((1 << (t + 1)) - 1) != rows[t] or below >> p != rows[t]:
            return f"the triangle is not p-periodic at row {t + p}"
    prefix = [0]
    for row in rows:
        prefix.append(prefix[-1] + row.bit_count())
    return [prefix[size] for size in sizes]


def check_witness(record: dict, p: int) -> str | None:
    """None when the witness proves its family balanced for every size
    kp + r, else the reason it does not."""
    r = record["remainder"]
    if not 0 <= r < p:
        return f"remainder {r} outside 0..{p - 1}"
    sizes = [r, p + r, 2 * p + r]
    if record["kind"] == "steinhaus":
        if len(record["z"]) != p:
            return f"z has {len(record['z'])} entries, not {p}"
        ones = _steinhaus_ones(record["z"], sizes)
    else:
        if len(record["z_left"]) != p:
            return f"z_left has {len(record['z_left'])} entries, not {p}"
        ones = _pascal_ones(record["z_left"], record["z_right"], sizes)
    if isinstance(ones, str):
        return ones
    cells = [n * (n + 1) // 2 for n in sizes]
    d = {2 * o - c for o, c in zip(ones, cells)}
    if len(d) != 1 or abs(d.pop()) > 1:
        return f"sizes {sizes} hold {ones} ones in {cells} cells: not one balanced family"
    band = ones[1] - ones[0]
    printed = (record["corner_counts"], record["band_counts"], record["period_counts"])
    if printed != ([cells[0] - ones[0], ones[0]], [band, band], [p * p // 2] * 2):
        return f"printed counts {printed} disagree with the rebuilt triangles"
    return None


def check_payload(payload: dict) -> tuple[int, list[str]]:
    """The number of witnesses checked and one line per failure."""
    p = payload["p"]
    checked, failures = 0, []
    for entry in payload["classes"]:
        for kind in ("steinhaus", "pascal"):
            if kind not in entry:
                continue
            witnesses = entry[kind]["witnesses"]
            remainders = [w["remainder"] for w in witnesses]
            if remainders != entry[kind]["remainders"] or len(remainders) != entry[kind]["remainder_count"]:
                failures.append(f"class {entry['index']} {kind}: remainders disagree with the witnesses")
            for record in witnesses:
                checked += 1
                reason = check_witness(record, p) if record["kind"] == kind else f"kind {record['kind']!r}"
                if reason is not None:
                    failures.append(
                        f"class {entry['index']} {kind} r={record['remainder']} "
                        f"at {tuple(record['position'])}: {reason}"
                    )
    return checked, failures


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: witness_checker.py PAYLOAD.json (or - for stdin)", file=sys.stderr)
        return 2
    if argv[0] == "-":
        payload = json.load(sys.stdin)
    else:
        with open(argv[0], encoding="utf-8") as handle:
            payload = json.load(handle)
    checked, failures = check_payload(payload)
    for line in failures:
        print(line)
    print(f"p={payload['p']}: {checked} witnesses checked, {len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
