"""Reference values and output checks made apart from the fractal_tutte package.

Every expected value here comes from the paper's closed forms, from
elementary graph theory, or from a computation written independently of
the package: spanning trees are counted with the matrix-tree theorem and
fraction-free (Bareiss) elimination.  The module imports nothing from the
package, so a fault there cannot leak into the answers it is checked
against.

Every check compares exact integers and none converts a large integer to a
decimal string, so Python's int-to-str digit limit never applies.  Each
check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from typing import Dict, Iterable, List, Sequence, Tuple

FAMILIES = ("fractal", "flower22", "flower13")

# A prime used to compare huge decimal strings without converting the
# expected integer to decimal: both sides are reduced modulo it.
RESIDUE_PRIME = (1 << 127) - 1


# -- closed forms from the paper --------------------------------------------


def lattice_counts(family: str, n: int) -> Tuple[int, int]:
    """(|V|, |E|) of generation n: (2*4^n+4)/3 and 4^n or (4^(n+1)-1)/3."""
    vertices = (2 * 4 ** n + 4) // 3
    edges = (4 ** (n + 1) - 1) // 3 if family == "fractal" else 4 ** n
    return vertices, edges


def tree_count_closed(family: str, n: int) -> int:
    """Spanning-tree count of generation n, from the paper's closed forms."""
    power = 4 ** n
    if family == "fractal":
        return 2 ** (power - 1)
    if family == "flower22":
        return 2 ** (2 * (power - 1) // 3)
    return 3 ** ((power - 3 * n - 1) // 9) * 4 ** ((2 * power + 3 * n - 2) // 9)


def fractal_diagonal(n: int, x: Fraction) -> Tuple[int, int]:
    """T(x, x) of the fractal lattice as an unreduced (numerator, denominator).

    The paper's closed form is x * (x^2 + 5x + 2)^((4^n - 1) / 3).
    """
    a, b = x.numerator, x.denominator
    e = (4 ** n - 1) // 3
    return a * (a * a + 5 * a * b + 2 * b * b) ** e, b ** (2 * e + 1)


def fractal_potts_diagonal(n: int, v: Fraction) -> Tuple[int, int]:
    """Z(q = v^2, v) of the fractal lattice, unreduced.

    With q = v^2 the Tutte point ((q + v)/v, v + 1) lies on the diagonal
    x = y = v + 1, and Z = q * v^(|V| - 1) * T(v + 1, v + 1).
    """
    vertices, _ = lattice_counts("fractal", n)
    t_num, t_den = fractal_diagonal(n, v + 1)
    a, b = v.numerator, v.denominator
    return a ** (vertices + 1) * t_num, b ** (vertices + 1) * t_den


# -- the matrix-tree theorem --------------------------------------------------


def matrix_tree_count(vertex_count: int, edges: Iterable[Tuple[int, int]]) -> int:
    """Spanning trees of a multigraph: det of the reduced Laplacian (Bareiss)."""
    m = vertex_count - 1
    if m <= 0:
        return 1
    lap = [[0] * m for _ in range(m)]
    for u, v in edges:
        if u == v:
            continue
        if u < m:
            lap[u][u] += 1
        if v < m:
            lap[v][v] += 1
        if u < m and v < m:
            lap[u][v] -= 1
            lap[v][u] -= 1
    sign, prev = 1, 1
    for k in range(m):
        if lap[k][k] == 0:
            swap = next((i for i in range(k + 1, m) if lap[i][k]), None)
            if swap is None:
                return 0
            lap[k], lap[swap] = lap[swap], lap[k]
            sign = -sign
        pivot_row = lap[k]
        pivot = pivot_row[k]
        tail = pivot_row[k + 1:]
        for i in range(k + 1, m):
            row = lap[i]
            factor = row[k]
            if factor:
                row[k + 1:] = [(pivot * a - factor * b) // prev
                               for a, b in zip(row[k + 1:], tail)]
            else:
                row[k + 1:] = [pivot * a // prev for a in row[k + 1:]]
        prev = pivot
    return sign * lap[m - 1][m - 1]


def is_connected(vertex_count: int, edges: Iterable[Tuple[int, int]]) -> bool:
    parent = list(range(vertex_count))
    components = vertex_count
    for u, v in edges:
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        if u != v:
            parent[u] = v
            components -= 1
    return components == 1


# -- exact comparisons ----------------------------------------------------------


def same_fraction(value: Fraction, num: int, den: int) -> bool:
    return value.numerator * den == num * value.denominator


def decimal_residue(text: str, prime: int = RESIDUE_PRIME) -> int:
    """Residue of a decimal integer string, read in short chunks."""
    digits = text[1:] if text.startswith("-") else text
    if not digits or not digits.isascii() or not digits.isdigit():
        raise ValueError("not a decimal integer")
    residue = 0
    for start in range(0, len(digits), 18):
        chunk = digits[start:start + 18]
        residue = (residue * 10 ** len(chunk) + int(chunk)) % prime
    return -residue % prime if text.startswith("-") else residue


def poly_values(terms: Dict[Tuple[int, int], int]) -> Tuple[int, int, int, int]:
    """(T(1,1), T(2,2), deg_x, deg_y) of a polynomial given by its terms."""
    at_11 = sum(terms.values())
    at_22 = sum(c << (i + j) for (i, j), c in terms.items())
    deg_x = max((i for i, _ in terms), default=-1)
    deg_y = max((j for _, j in terms), default=-1)
    return at_11, at_22, deg_x, deg_y


# -- output checks ----------------------------------------------------------------


def check_polynomial(family: str, n: int, terms: Dict[Tuple[int, int], int],
                     trees: int) -> List[str]:
    """Properties every Tutte polynomial of generation n must have.

    `trees` is the matrix-tree count of the built lattice.
    """
    vertices, edges = lattice_counts(family, n)
    at_11, at_22, deg_x, deg_y = poly_values(terms)
    problems = []
    if at_22 != 2 ** edges:
        problems.append(f"{family} n={n}: T(2,2) != 2^|E|")
    if deg_x != vertices - 1:
        problems.append(f"{family} n={n}: deg_x {deg_x} != |V|-1 = {vertices - 1}")
    if deg_y != edges - vertices + 1:
        problems.append(f"{family} n={n}: deg_y {deg_y} != |E|-|V|+1 = {edges - vertices + 1}")
    if at_11 != trees:
        problems.append(f"{family} n={n}: T(1,1) != matrix-tree count")
    return problems


def check_json_terms(text: str, terms: Dict[Tuple[int, int], int]) -> List[str]:
    """The JSON form lists exactly the polynomial's terms, with no zeros."""
    try:
        parsed = json.loads(text)["terms"]
        decoded = {(int(t["x"]), int(t["y"])): int(t["c"]) for t in parsed}
    except (ValueError, KeyError, TypeError) as exc:
        return [f"to_json output unreadable: {exc}"]
    if len(decoded) != len(parsed) or decoded != terms or 0 in decoded.values():
        return ["to_json terms differ from the polynomial"]
    return []


def check_tree_counts(family: str, n: int, trees: int) -> List[str]:
    """The matrix-tree count of the built lattice against the closed form."""
    if trees != tree_count_closed(family, n):
        return [f"{family} n={n}: matrix-tree count != closed form"]
    return []


def check_integer_point(family: str, n: int, x: int, y: int, value: Fraction) -> List[str]:
    """Tutte values at (1,1) and (2,2) from closed forms."""
    _, edges = lattice_counts(family, n)
    expected = {(1, 1): tree_count_closed(family, n), (2, 2): 2 ** edges}[(x, y)]
    if value.denominator != 1 or value.numerator != expected:
        return [f"{family} n={n}: T({x},{y}) wrong"]
    return []


def check_denominator(family: str, n: int, x: Fraction, y: Fraction,
                      value: Fraction) -> List[str]:
    """T has integer coefficients, deg_x |V|-1 and deg_y |E|-|V|+1, so its
    value's denominator divides den(x)^(|V|-1) * den(y)^(|E|-|V|+1)."""
    vertices, edges = lattice_counts(family, n)
    bound = x.denominator ** (vertices - 1) * y.denominator ** (edges - vertices + 1)
    if bound % value.denominator:
        return [f"{family} n={n}: denominator of T({x},{y}) too large"]
    return []


def check_fractal_diagonal(n: int, x: Fraction, value: Fraction) -> List[str]:
    num, den = fractal_diagonal(n, x)
    if not same_fraction(value, num, den):
        return [f"fractal n={n}: T({x},{x}) != x(x^2+5x+2)^((4^n-1)/3)"]
    return check_denominator("fractal", n, x, x, value)


def check_potts(family: str, n: int, q: Fraction, v: Fraction, value: Fraction) -> List[str]:
    if family == "fractal":
        if q != v * v:
            raise ValueError("the fractal Potts check needs q = v^2")
        num, den = fractal_potts_diagonal(n, v)
        if not same_fraction(value, num, den):
            return [f"fractal n={n}: Z(q={q}, v={v}) != closed form"]
        return []
    if (q, v) != (2, -1):
        raise ValueError("the flower Potts check needs q = 2, v = -1")
    # Both flowers are connected and bipartite: exactly two proper 2-colourings.
    if value != 2:
        return [f"{family} n={n}: Z(q=2, v=-1) != 2"]
    return []


def check_graph(family: str, n: int, vertex_count: int,
                edges: Sequence[Tuple[int, int]], special_x: int, special_y: int) -> List[str]:
    """Counts, degree sum, connectivity and the specials of a lattice."""
    vertices, edge_count = lattice_counts(family, n)
    problems = []
    if (vertex_count, len(edges)) != (vertices, edge_count):
        problems.append(f"{family} n={n}: (|V|, |E|) = ({vertex_count}, {len(edges)}), "
                        f"expected ({vertices}, {edge_count})")
        return problems
    degree = [0] * vertex_count
    for u, v in edges:
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            return [f"{family} n={n}: edge ({u}, {v}) out of range"]
        degree[u] += 1
        degree[v] += 1
    if sum(degree) != 2 * edge_count or min(degree) < 1:
        problems.append(f"{family} n={n}: degree sum != 2|E| or an isolated vertex")
    if not is_connected(vertex_count, edges):
        problems.append(f"{family} n={n}: not connected")
    if special_x == special_y or not (0 <= special_x < vertex_count
                                      and 0 <= special_y < vertex_count):
        problems.append(f"{family} n={n}: specials ({special_x}, {special_y}) invalid")
        return problems
    # Only the (1,3)-flower keeps its specials adjacent: its 1-copy path is,
    # recursively, a single edge.  The other two join them by 2^n-edge paths.
    specials = {(special_x, special_y), (special_y, special_x)}
    adjacent = any(edge in specials for edge in edges)
    if adjacent != (family == "flower13" or n == 0):
        problems.append(f"{family} n={n}: specials {'' if adjacent else 'not '}adjacent")
    return problems


def check_edge_list(text: str, vertex_count: int, edges: Sequence[Tuple[int, int]],
                    special_x: int, special_y: int) -> List[str]:
    """The edge-list text is the header line, then one "e u v" line per edge.

    The text is compared in place, one line at a time, so the check never
    holds a second copy of it and cannot set the process's peak memory.
    """
    pos = 0
    for line in itertools.chain([f"p {vertex_count} {len(edges)} {special_x} {special_y}\n"],
                                (f"e {u} {v}\n" for u, v in edges)):
        if not text.startswith(line, pos):
            return ["edge list differs from the graph"]
        pos += len(line)
    if pos != len(text):
        return ["edge list has text after the last edge"]
    return []


def check_tree_bruteforce(family: str, n: int, count: int, trees: int) -> List[str]:
    if count != trees:
        return [f"{family} n={n}: brute-force tree count != matrix-tree count"]
    return []
