"""Correctness oracles, derived apart from pqsurf.

Nothing here imports pqsurf.  Every check returns a list of problems (empty
when the output passes), so a run can report all of them at once:

* the basket formulas of Bauer-Catanese-Grunewald-Pignatelli give K^2 and e
  of the minimal resolution from |G|, the two genera and the singularities,
  independently of pqsurf's Lefschetz average:
      K^2 = 8 (g1-1)(g2-1)/|G| - sum_x k_x,
      k_x = -2 + (2 + q + q')/n + sum_i (b_i - 2),   q q' = 1 (mod n),
      e   = 4 (g1-1)(g2-1)/|G| + sum_x (l_x + 1 - 1/n),
  with b_1..b_l the Hirzebruch-Jung chain of n/q;
* Riemann-Hurwitz for each genus, sum d*n = g and sum deg*cw = g per curve,
  chi = 1 - q + p_g, b2 = e - 2 + 4q and Noether's K^2 + e = 12 chi;
* row orthogonality of the character table, checked exactly in Z[zeta_e];
* the published table values (``PAPER_ROWS``), the values stated in the
  headers of ``surfaces/*``, and lattice invariants known from construction;
* completeness of a generating-vector search (``check_search``).
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import product
from math import gcd

from perm import FiniteGroup, parse_cycles

# Published values for the eight unmixed families with p_g = q = 2:
# (group order, genera, K^2, singularities as sorted (n, q), paired (d, n)).
PAPER_ROWS = {
    "V4": (4, (3, 3), 8, (), (1, 1)),
    "S3-8": (6, (3, 4), 8, (), (1, 2)),
    "D4-8": (8, (3, 5), 8, (), (1, 2)),
    "A4": (12, (4, 4), 6, ((2, 1), (2, 1)), (1, 3)),
    "S3-5": (6, (3, 3), 5, ((3, 1), (3, 2)), (1, 2)),
    "Q8": (8, (3, 3), 4, ((2, 1),) * 4, (2, 1)),
    "D4-4": (8, (3, 3), 4, ((2, 1),) * 4, (1, 2)),
    "C2": (2, (2, 2), 4, ((2, 1),) * 4, (1, 1)),
}

_SING = re.compile(r"1/(\d+)\(1,(\d+)\)")


# -- surface invariants ---------------------------------------------------------

def hj_chain(n: int, q: int) -> tuple[int, ...]:
    """Hirzebruch-Jung continued fraction n/q = b1 - 1/(b2 - ...)."""
    chain = []
    a, b = n, q
    while b:
        step = -(-a // b)
        chain.append(step)
        a, b = b, step * b - a
    return tuple(chain)


def basket(group_order: int, g1: int, g2: int, sings) -> tuple[Fraction, Fraction]:
    """(K^2, e) of the minimal resolution from the basket formulas."""
    base = Fraction((g1 - 1) * (g2 - 1), group_order)
    k2 = 8 * base
    e = 4 * base
    for n, q in sings:
        chain = hj_chain(n, q)
        q_dual = pow(q, -1, n)
        k2 -= -2 + Fraction(2 + q + q_dual, n) + sum(b - 2 for b in chain)
        e += len(chain) + 1 - Fraction(1, n)
    return k2, e


def riemann_hurwitz(group_order: int, base_genus: int, orders) -> Fraction:
    return 1 + group_order * (base_genus - 1) + sum(
        Fraction(group_order * (m - 1), 2 * m) for m in orders
    )


def check_surface_numbers(group_order, curves, surface, sings) -> list[str]:
    """``curves``: (base genus, orders, genus) per curve; ``surface``: dict
    with p_g, q, chi, e, K2, b2, eta; ``sings``: (n, q, chain or None)."""
    problems = []
    for i, (g0, orders, g) in enumerate(curves, start=1):
        rh = riemann_hurwitz(group_order, g0, orders)
        if rh != g:
            problems.append(f"curve {i}: genus {g}, Riemann-Hurwitz gives {rh}")
    q = sum(c[0] for c in curves)
    if surface["q"] != q:
        problems.append(f"q = {surface['q']}, base genera give {q}")
    if surface["chi"] != 1 - surface["q"] + surface["p_g"]:
        problems.append(f"chi = {surface['chi']} != 1 - q + p_g")
    if surface["b2"] != surface["e"] - 2 + 4 * surface["q"]:
        problems.append(f"b2 = {surface['b2']} != e - 2 + 4q")
    if surface["K2"] + surface["e"] != 12 * surface["chi"]:
        problems.append(f"Noether: K^2 + e = {surface['K2'] + surface['e']} != 12 chi")
    eta = 0
    for n, sq, chain in sings:
        if not (1 <= sq < n and gcd(n, sq) == 1):
            problems.append(f"singularity 1/{n}(1,{sq}) is not a cyclic quotient type")
            return problems
        own = hj_chain(n, sq)
        if chain is not None and tuple(chain) != own:
            problems.append(f"1/{n}(1,{sq}): chain {chain}, expected {list(own)}")
        eta += len(own)
    if surface["eta"] != eta:
        problems.append(f"eta = {surface['eta']}, chains give {eta}")
    k2, e = basket(group_order, curves[0][2], curves[1][2], [(n, sq) for n, sq, _ in sings])
    if surface["K2"] != k2:
        problems.append(f"K^2 = {surface['K2']}, basket formula gives {k2}")
    if surface["e"] != e:
        problems.append(f"e = {surface['e']}, basket formula gives {e}")
    return problems


def check_header(surface, header) -> list[str]:
    """K^2 and p_g = q = 2 as stated in a description file's comment."""
    problems = []
    for key in ("K2", "p_g", "q"):
        if key in header and surface[key] != header[key]:
            problems.append(f"{key} = {surface[key]}, the file states {header[key]}")
    return problems


def header_values(text: str) -> dict:
    """Values a description file's header comment states: every surface in
    surfaces/ has p_g = q = 2 and names its K^2."""
    m = re.search(r"K\^2 = (\d+)", text)
    if not m:
        raise ValueError("no 'K^2 = n' in the header comment")
    return {"K2": int(m.group(1)), "p_g": 2, "q": 2}


# -- character tables -------------------------------------------------------------

_CYCLOTOMIC: dict[int, list[int]] = {}


def cyclotomic_polynomial(n: int) -> list[int]:
    """Integer coefficients of Phi_n, lowest degree first."""
    if n not in _CYCLOTOMIC:
        poly = [-1] + [0] * (n - 1) + [1]
        for d in range(1, n):
            if n % d == 0:
                poly = _divide_exact(poly, cyclotomic_polynomial(d))
        _CYCLOTOMIC[n] = poly
    return _CYCLOTOMIC[n]


def _divide_exact(num: list[int], den: list[int]) -> list[int]:
    num = list(num)
    quot = [0] * (len(num) - len(den) + 1)
    for k in range(len(quot) - 1, -1, -1):
        c = num[k + len(den) - 1] // den[-1]
        quot[k] = c
        for j, d in enumerate(den):
            num[k + j] -= c * d
    if any(num):
        raise ArithmeticError("inexact polynomial division")
    return quot


def _vanishes_at_zeta(coeffs: list[int], e: int) -> bool:
    """Whether sum_a coeffs[a] zeta_e^a = 0, by reduction modulo Phi_e."""
    phi = cyclotomic_polynomial(e)
    rem = list(coeffs)
    deg = len(phi) - 1
    for k in range(len(rem) - 1, deg - 1, -1):
        c = rem[k]
        if c:
            for j, p in enumerate(phi):
                rem[k - deg + j] -= c * p
    return not any(rem[:deg])


def check_character_table(group_doc: dict) -> list[str]:
    """Row orthogonality sum_c |c| chi_i(c) conj(chi_j(c)) = |G| delta_ij,
    plus the shape facts: one row per class, degrees at the identity class,
    sum of squared degrees = |G|."""
    table = group_doc["character_table"]
    e = table["exponent"]
    sizes = group_doc["class_sizes"]
    order = group_doc["order"]
    rows = [[{int(a) % e: m for a, m in value.items()} for value in row] for row in table["values"]]
    problems = []
    if sum(sizes) != order:
        problems.append(f"class sizes sum to {sum(sizes)}, not |G| = {order}")
    if len(rows) != len(sizes):
        problems.append(f"{len(rows)} irreducibles for {len(sizes)} classes")
        return problems
    degrees = [sum(row[0].values()) for row in rows]
    if degrees != table["degrees"]:
        problems.append(f"degrees {table['degrees']} disagree with the identity column {degrees}")
    if sum(d * d for d in degrees) != order:
        problems.append("sum of squared degrees is not |G|")
    for i, row_i in enumerate(rows):
        for j in range(i, len(rows)):
            coeffs = [0] * e
            for size, vi, vj in zip(sizes, row_i, rows[j]):
                for a, ma in vi.items():
                    for b, mb in vj.items():
                        coeffs[(a - b) % e] += size * ma * mb
            coeffs[0] -= order if i == j else 0
            if not _vanishes_at_zeta(coeffs, e):
                problems.append(f"rows {i} and {j} of the character table are not orthonormal")
    return problems


# -- analyze output -----------------------------------------------------------------

def check_analysis_json(doc: dict, expect: dict) -> list[str]:
    """Checks on ``pqsurf analyze --format json`` output.

    ``expect`` may carry: group_order (from the benchmark's own closure),
    header (values stated in the file), curves (per curve, the input as
    (base genus, orders, flat list of cycle strings) or None for a search
    directive) and degree (points the group acts on)."""
    problems = []
    group = doc["group"]
    if "group_order" in expect and group["order"] != expect["group_order"]:
        problems.append(f"|G| = {group['order']}, the generators give {expect['group_order']}")
    problems += check_character_table(group)
    curves = []
    degrees = group["character_table"]["degrees"]
    for i, c in enumerate(doc["curves"], start=1):
        curves.append((c["base_genus"], c["orders"], c["genus"]))
        dn = sum(f["d"] * f["n"] for f in c["isotypical_factors"])
        if dn != c["genus"]:
            problems.append(f"curve {i}: sum d*n = {dn}, genus {c['genus']}")
        if len(c["chevalley_weil"]) != len(degrees):
            problems.append(f"curve {i}: one Chevalley-Weil multiplicity per irreducible expected")
        cw = sum(d * m for d, m in zip(degrees, c["chevalley_weil"]))
        if cw != c["genus"]:
            problems.append(f"curve {i}: sum deg*cw = {cw}, genus {c['genus']}")
    for i, (c, want) in enumerate(zip(doc["curves"], expect.get("curves", ())), start=1):
        g0, orders, flat = want
        if c["base_genus"] != g0 or list(c["orders"]) != list(orders):
            problems.append(f"curve {i}: signature differs from the input")
        got = [p for pair in c["handles"] for p in pair] + list(c["monodromies"])
        if flat is not None:
            degree = expect["degree"]
            if [parse_cycles(p, degree) for p in got] != [parse_cycles(p, degree) for p in flat]:
                problems.append(f"curve {i}: the generating vector differs from the input")
        elif "generators" in expect:
            problems += check_vector(expect["generators"], expect["degree"], g0, orders, got, i)
    surf = doc["surface"]
    sings = [(s["n"], s["q"], s["chain"]) for s in surf["singularities"]]
    problems += check_surface_numbers(group["order"], curves, surf, sings)
    problems += check_header(surf, expect.get("header", {}))
    return problems


def check_vector(generators, degree, g0, orders, cycle_strings, label) -> list[str]:
    """A generating vector printed in cycle notation is valid for the group."""
    group = FiniteGroup([parse_cycles(g, degree) for g in generators])
    word = []
    for p in cycle_strings:
        images = parse_cycles(p, degree)
        if images not in group.index:
            return [f"curve {label}: {p} is not in the group"]
        word.append(group.index[images])
    return _vector_problems(group, g0, orders, word, f"curve {label}")


_TEXT_GROUP = re.compile(r"^group: .*\(order (\d+),", re.M)
_TEXT_CURVE = re.compile(r"^curve \d: base genus (\d+), branch orders \(([\d, ]*)\), genus (\d+)$", re.M)
_TEXT_SURFACE = re.compile(
    r"^surface: p_g=(-?\d+) q=(-?\d+) chi=(-?\d+) e=(-?\d+) K\^2=(-?\d+) b2=(-?\d+) eta=(\d+)$", re.M
)
_TEXT_SING = re.compile(r"^  singularities: (.*)$", re.M)


def check_analysis_text(text: str, expect: dict) -> list[str]:
    """The same numerical checks on the text report."""
    group = _TEXT_GROUP.search(text)
    surface = _TEXT_SURFACE.search(text)
    sing_line = _TEXT_SING.search(text)
    curve_lines = _TEXT_CURVE.findall(text)
    if not (group and surface and sing_line) or len(curve_lines) != 2:
        return ["text report lacks the group, curve, surface or singularity line"]
    order = int(group.group(1))
    problems = []
    if "group_order" in expect and order != expect["group_order"]:
        problems.append(f"|G| = {order}, the generators give {expect['group_order']}")
    curves = [
        (int(g0), [int(m) for m in orders.split(",") if m.strip()], int(g))
        for g0, orders, g in curve_lines
    ]
    keys = ("p_g", "q", "chi", "e", "K2", "b2", "eta")
    surf = dict(zip(keys, (int(v) for v in surface.groups())))
    sings = [(int(n), int(q), None) for n, q in _SING.findall(sing_line.group(1))]
    problems += check_surface_numbers(order, curves, surf, sings)
    problems += check_header(surf, expect.get("header", {}))
    return problems


# -- reproduce-tables output ------------------------------------------------------------

def check_table_row(doc, name: str) -> list[str]:
    """One row of ``reproduce-tables --format json`` against the published
    values, with the basket formulas run on the row's own numbers."""
    if not isinstance(doc, list) or len(doc) != 1:
        return ["expected a list with exactly one row"]
    res = doc[0]
    order, genera, k2, sings, paired = PAPER_ROWS[name]
    problems = []
    if res["row"] != name:
        problems.append(f"row {res['row']} reported for {name}")
    if not res["ok"] or res["mismatches"]:
        problems.append(f"row reports mismatches: {res['mismatches']}")
    got_sings = tuple(sorted((int(n), int(q)) for n, q in (_SING.fullmatch(s).groups() for s in res["singularities"])))
    if got_sings != sings:
        problems.append(f"basket {got_sings}, published {sings}")
    got_genera = tuple(1 + sum(d * n for d, n in res[key]) for key in ("jacobian1", "jacobian2"))
    if got_genera != genera:
        problems.append(f"genera {got_genera} from the Jacobian factors, published {genera}")
    if res["K2"] != k2:
        problems.append(f"K^2 = {res['K2']}, published {k2}")
    if tuple(res["paired_dn"] or ()) != paired:
        problems.append(f"paired [d, n] = {res['paired_dn']}, published {list(paired)}")
    basket_k2, basket_e = basket(order, got_genera[0], got_genera[1], got_sings)
    if basket_k2 != res["K2"]:
        problems.append(f"K^2 = {res['K2']}, basket formula gives {basket_k2}")
    # p_g = q = 2, so chi = 1 and Noether gives e = 12 - K^2
    if basket_e != 12 - res["K2"]:
        problems.append(f"e = {12 - res['K2']} by Noether, basket formula gives {basket_e}")
    if res["eta"] != sum(len(hj_chain(n, q)) for n, q in got_sings):
        problems.append(f"eta = {res['eta']} disagrees with the chains")
    return problems


# -- generating-vector search ---------------------------------------------------------

def _vector_problems(group: FiniteGroup, g0: int, orders, word, label: str) -> list[str]:
    problems = []
    if len(word) != 2 * g0 + len(orders):
        return [f"{label}: {len(word)} entries for signature ({g0}; {orders})"]
    if not group.closes_up(g0, word):
        problems.append(f"{label}: long relation fails")
    got = [group.orders[c] for c in word[2 * g0:]]
    if got != list(orders):
        problems.append(f"{label}: monodromy orders {got}, expected {list(orders)}")
    if not group.generates(word):
        problems.append(f"{label}: does not generate the group")
    return problems


def count_generating_tuples(group: FiniteGroup, g0: int, orders) -> int:
    """All tuples (a_1, b_1, ..., c_1, ..., c_r) with the long relation, the
    branching orders and generation; the last monodromy is forced."""
    orders = tuple(orders)
    pools = [range(group.order)] * (2 * g0) + [
        [g for g in range(group.order) if group.orders[g] == m] for m in orders[:-1]
    ]
    count = 0
    for head in product(*pools):
        last = group.inv[group.relation_word(g0, head)]
        if group.orders[last] == orders[-1] and group.generates(head + (last,)):
            count += 1
    return count


def check_search(group: FiniteGroup, g0: int, orders, vectors, tuple_count: int) -> list[str]:
    """Search output (vectors as lists of image tuples) is valid, has one
    vector per conjugation orbit, and misses none.  Simultaneous conjugation
    on generating tuples has stabiliser Z(G), so every orbit has |G|/|Z(G)|
    members and the orbit count times that must equal ``tuple_count``."""
    problems = []
    seen = set()
    for k, vec in enumerate(vectors):
        label = f"vector {k}"
        if any(tuple(p) not in group.index for p in vec):
            problems.append(f"{label}: an entry is not in the group")
            continue
        word = [group.index[tuple(p)] for p in vec]
        problems += _vector_problems(group, g0, orders, word, label)
        key = group.canonical(word)
        if key in seen:
            problems.append(f"{label}: conjugate to an earlier vector")
        seen.add(key)
    orbit = group.order // group.center_order()
    if len(vectors) * orbit != tuple_count:
        problems.append(
            f"{len(vectors)} orbits x |G|/|Z(G)| = {len(vectors) * orbit}, "
            f"but there are {tuple_count} generating tuples"
        )
    return problems


# -- lattices ---------------------------------------------------------------------------

def check_lattices(outputs, expected) -> list[str]:
    """Signature, discriminant order and embedding verdict per lattice."""
    if len(outputs) != len(expected):
        return [f"{len(outputs)} lattice results for {len(expected)} lattices"]
    problems = []
    for k, (got, want) in enumerate(zip(outputs, expected)):
        factors = got["factors"]
        disc = 1
        for d in factors:
            disc *= d
        if got["signature"] != want["signature"]:
            problems.append(f"lattice {k}: signature {got['signature']}, expected {want['signature']}")
        if disc != want["disc_order"] or any(d < 2 for d in factors):
            problems.append(f"lattice {k}: discriminant factors {factors}, order {want['disc_order']} expected")
        if any(b % a for a, b in zip(factors, factors[1:])):
            problems.append(f"lattice {k}: invariant factors {factors} are not a divisibility chain")
        if "factors" in want and factors != want["factors"]:
            problems.append(f"lattice {k}: invariant factors {factors}, expected {want['factors']}")
        if got["embedding"] != want["embedding"]:
            problems.append(f"lattice {k}: embedding {got['embedding']!r}, expected {want['embedding']!r}")
    return problems


# -- dispatch ---------------------------------------------------------------------------

def check_op(op: dict, value, groups: dict) -> list[str]:
    """Oracle for one operation of a manifest; ``groups`` caches FiniteGroups."""
    check = op["check"]
    if check == "table-row":
        return check_table_row(json.loads(value), op["row"])
    if check == "analysis-json":
        return check_analysis_json(json.loads(value), op["expect"])
    if check == "analysis-text":
        return check_analysis_text(value, op["expect"])
    if check == "lattices":
        return check_lattices(value, op["expect"])
    if check == "search":
        key = (op["degree"], tuple(op["generators"]))
        if key not in groups:
            groups[key] = FiniteGroup([parse_cycles(g, op["degree"]) for g in op["generators"]])
        return check_search(groups[key], op["genus0"], op["orders"], value, op["expect"]["tuples"])
    raise ValueError(f"unknown check {check!r}")

