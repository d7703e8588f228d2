"""Workload inputs, made from a seed by the benchmark's own code.

A manifest is a list of operations, each with what the pass process runs
(``kind`` plus arguments) and what the oracle checks (``check`` plus
``expect``).  The seed relabels the points of every group built from
generators, picks the lambda_d lattices and the random even lattices, and
samples the generating vectors of the scale-analyze description files; the
groups, signatures and monodromy classes themselves are fixed, so every seed
asks for the same amount of work.

Regenerate the scale-analyze description files for a seed with

    python3 bench/workloads.py --seed 7 --out some/dir
"""

from __future__ import annotations

import argparse
import random
from pathlib import Path

from oracles import PAPER_ROWS, count_generating_tuples, header_values
from perm import FiniteGroup, cycle_string, parse_cycles, relabel

WORKLOADS = ("catalog", "scale-search", "scale-analyze")

S4 = (4, ("(1,2)", "(1,2,3,4)"))
D16 = (8, ("(1,2,3,4,5,6,7,8)", "(2,8)(3,7)(4,6)"))
C4XC4 = (8, ("(1,2,3,4)", "(5,6,7,8)"))
C2XD4 = (6, ("(1,2)", "(3,4,5,6)", "(4,6)"))
C2XD8 = (10, ("(1,2)", "(3,4,5,6,7,8,9,10)", "(4,10)(5,9)(6,8)"))
S5 = (5, ("(1,2)", "(1,2,3,4,5)"))
A5 = (5, ("(1,2,3)", "(1,2,3,4,5)"))
A4 = (4, ("(1,2)(3,4)", "(1,2,3)"))

# name, group, base genus, branching orders
SEARCHES = (
    ("s4", S4, 1, (2, 2)),
    ("d16", D16, 1, (2, 2)),
    ("c4xc4", C4XC4, 1, (2, 2)),
    ("c2xd4", C2XD4, 1, (2, 2)),
    ("s5-g1", S5, 1, (2,)),
    ("s5-245", S5, 0, (2, 4, 5)),
    ("a5-255", A5, 0, (2, 5, 5)),
)

# name, group, base genus, one class representative per monodromy; both
# curves of a file are sampled from the same classes, which fixes the
# singularity count and so the cost of the analysis
PAIRS = (
    ("s4", S4, 1, ("(1,2)", "(1,2)")),
    ("d16", D16, 1, ("(2,8)(3,7)(4,6)", "(2,8)(3,7)(4,6)")),
    ("c2xd8", C2XD8, 1, ("(4,10)(5,9)(6,8)", "(4,10)(5,9)(6,8)")),
    ("s5-g1", S5, 1, ("(1,2)(3,4)",)),
    ("s5-245", S5, 0, ("(1,2)", "(1,2,3,4)", "(1,2,3,4,5)")),
    ("a5-255", A5, 0, ("(1,2)(3,4)", "(1,2,3,4,5)", "(1,3,5,2,4)")),
)

CATALOG_ROWS = tuple(PAPER_ROWS)
LAMBDA_DS = 4
RANDOM_LATTICES = 12
SAMPLE_TRIES = 100_000


def _relabelled(group, rng: random.Random):
    """The group's generators with the points renamed by a seeded shuffle."""
    degree, gens = group
    sigma = list(range(1, degree + 1))
    rng.shuffle(sigma)
    sigma = tuple(sigma)
    return degree, sigma, tuple(cycle_string(relabel(parse_cycles(g, degree), sigma)) for g in gens)


# -- catalog ------------------------------------------------------------------------

def _even_lattice(rng: random.Random) -> dict:
    """A random even lattice of signature (2, n), n <= 8, with a scrambled
    basis; signature and |det| are known from the blocks it is built from."""
    n = rng.randint(0, 8)
    heads = ["pp"] + (["Up"] if n >= 1 else []) + (["UU"] if n >= 2 else [])
    head = rng.choice(heads)
    blocks, neg = [], 0
    if head == "UU":
        blocks += [[[0, 1], [1, 0]], [[0, 1], [1, 0]]]
        neg = 2
    elif head == "Up":
        blocks += [[[0, 1], [1, 0]], [[2 * rng.randint(1, 3)]]]
        neg = 1
    else:
        blocks += [[[2 * rng.randint(1, 3)]], [[2 * rng.randint(1, 3)]]]
    while neg < n:
        if n - neg >= 2 and rng.random() < 0.5:
            blocks.append([[-2, 1], [1, -2]])  # A2(-1)
            neg += 2
        else:
            blocks.append([[-2 * rng.randint(1, 3)]])
            neg += 1
    rank = sum(len(b) for b in blocks)
    gram = [[0] * rank for _ in range(rank)]
    det = 1
    offset = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                gram[offset + i][offset + j] = x
        det *= b[0][0] if len(b) == 1 else b[0][0] * b[1][1] - b[0][1] * b[1][0]
        offset += len(b)
    # basis change by elementary unimodular moves: column j += s * column i,
    # and the same on rows, keeps the lattice (and evenness) and scrambles
    # the Gram matrix
    for _ in range(2 * rank):
        if rank < 2:
            break
        i, j = rng.sample(range(rank), 2)
        s = rng.choice((-1, 1))
        for row in gram:
            row[j] += s * row[i]
        gram[j] = [a + s * b for a, b in zip(gram[j], gram[i])]
    return {
        "item": {"kind": "gram", "gram": gram},
        "expect": {"signature": [2, n], "disc_order": abs(det), "embedding": "guaranteed"},
    }


def catalog_ops(root: Path, rng: random.Random) -> list[dict]:
    ops = []
    for row in CATALOG_ROWS:
        ops.append(
            {
                "name": f"table-{row}",
                "kind": "cli",
                "argv": ["reproduce-tables", "--row", row, "--format", "json"],
                "check": "table-row",
                "row": row,
            }
        )
    surfaces = root / "surfaces"
    for path in sorted(surfaces.iterdir()):
        # a JSON description carries no comment; it takes the values stated
        # in the .surface file of the same name
        header_src = path.with_suffix(".surface")
        header = header_values(header_src.read_text(encoding="utf-8"))
        for fmt in ("text", "json"):
            ops.append(
                {
                    "name": f"analyze-{path.name}-{fmt}",
                    "kind": "cli",
                    "argv": ["analyze", str(path), "--format", fmt],
                    "check": f"analysis-{fmt}",
                    "expect": {"header": header},
                }
            )
    items, expect = [{"kind": "k3"}], [
        {"signature": [3, 19], "disc_order": 1, "factors": [], "embedding": "criterion_not_satisfied"}
    ]
    for d in sorted(rng.sample(range(1, 13), LAMBDA_DS)):
        items.append({"kind": "lambda", "d": d})
        # E8(-1)^2 + U^2 + <-2d>: rank 21 leaves no room for the rank slack
        # and t_- = 19 is not below the K3 lattice's 19
        expect.append(
            {"signature": [2, 19], "disc_order": 2 * d, "factors": [2 * d], "embedding": "criterion_not_satisfied"}
        )
    for _ in range(RANDOM_LATTICES):
        lat = _even_lattice(rng)
        items.append(lat["item"])
        expect.append(lat["expect"])
    ops.append({"name": "lattices", "kind": "lattice", "items": items, "check": "lattices", "expect": expect})
    return ops


# -- scale-search ---------------------------------------------------------------------

def scale_search_ops(rng: random.Random) -> list[dict]:
    ops = []
    for name, group, g0, orders in SEARCHES:
        degree, _, gens = _relabelled(group, rng)
        fg = FiniteGroup([parse_cycles(g, degree) for g in gens])
        ops.append(
            {
                "name": f"search-{name}",
                "kind": "search",
                "degree": degree,
                "generators": list(gens),
                "genus0": g0,
                "orders": list(orders),
                "check": "search",
                "expect": {"tuples": count_generating_tuples(fg, g0, orders)},
            }
        )
    return ops


# -- scale-analyze ---------------------------------------------------------------------

def sample_vector(group: FiniteGroup, g0: int, class_reps, rng: random.Random) -> list[int]:
    """A random generating vector whose monodromies lie in the classes of
    ``class_reps`` (the last one is forced by the long relation)."""
    classes = [sorted(group.conjugacy_class(c)) for c in class_reps]
    last_class = set(classes[-1])
    for _ in range(SAMPLE_TRIES):
        head = [rng.randrange(group.order) for _ in range(2 * g0)]
        head += [rng.choice(cls) for cls in classes[:-1]]
        last = group.inv[group.relation_word(g0, head)]
        word = head + [last]
        if last in last_class and group.generates(word):
            return word
    raise RuntimeError("no generating vector found in the given classes")


def _curve_section(section: str, group: FiniteGroup, g0: int, orders, word) -> tuple[list[str], list[str]]:
    cyc = [cycle_string(group.elements[g]) for g in word]
    lines = [f"[{section}]", f"genus0 = {g0}"]
    if g0:
        lines.append("handles = " + " ; ".join(cyc[: 2 * g0]))
    lines.append("monodromies = " + " ; ".join(cyc[2 * g0:]))
    lines.append("orders = " + ", ".join(str(m) for m in orders))
    return lines, cyc


def scale_analyze_files(seed: int, out_dir: Path) -> list[dict]:
    """Write the description files for a seed; returns one op per file."""
    rng = random.Random(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    ops = []
    for name, base, g0, reps in PAIRS:
        degree, sigma, gens = _relabelled(base, rng)
        group = FiniteGroup([parse_cycles(g, degree) for g in gens])
        rep_ids = [group.index[relabel(parse_cycles(c, degree), sigma)] for c in reps]
        orders = [group.orders[c] for c in rep_ids]
        lines = [
            f"# {name}: |G| = {group.order}, base genus {g0}, branching orders {tuple(orders)};",
            f"# generating vectors sampled with seed {seed}.",
            "",
            "[group]",
            "generators = " + " ; ".join(gens),
            "",
        ]
        curves = []
        for section in ("curve1", "curve2"):
            word = sample_vector(group, g0, rep_ids, rng)
            # verified with the benchmark's own arithmetic before it is written
            if not (group.closes_up(g0, word) and group.generates(word)):
                raise AssertionError(f"{name}: sampled vector is invalid")
            if [group.orders[c] for c in word[2 * g0:]] != orders:
                raise AssertionError(f"{name}: sampled vector has the wrong orders")
            section_lines, cyc = _curve_section(section, group, g0, orders, word)
            lines += section_lines + [""]
            curves.append([g0, orders, cyc])
        path = out_dir / f"{name}.surface"
        path.write_text("\n".join(lines), encoding="utf-8")
        ops.append(_analyze_op(name, path, group, degree, gens, curves))

    # search directives over A4: no pair of (2,2) covers has p_g = 2, so the
    # pair selection scans all of them and falls back to the first pair
    degree, _, gens = _relabelled(A4, rng)
    group = FiniteGroup([parse_cycles(g, degree) for g in gens])
    text = "\n".join(
        [
            "# a4-search: search directives 2,2 / 2,2 over A4; no pair has p_g = 2.",
            "",
            "[group]",
            "generators = " + " ; ".join(gens),
            "",
            "[curve1]",
            "genus0 = 1",
            "search = 2, 2",
            "",
            "[curve2]",
            "genus0 = 1",
            "search = 2, 2",
            "",
        ]
    )
    path = out_dir / "a4-search.surface"
    path.write_text(text, encoding="utf-8")
    ops.append(_analyze_op("a4-search", path, group, degree, gens, [[1, [2, 2], None]] * 2))
    return ops


def _analyze_op(name, path, group, degree, gens, curves) -> dict:
    return {
        "name": f"analyze-{name}",
        "kind": "cli",
        "argv": ["analyze", str(path), "--format", "json"],
        "check": "analysis-json",
        "expect": {
            "group_order": group.order,
            "degree": degree,
            "generators": list(gens),
            "curves": curves,
        },
    }


def build(workload: str, seed: int, root: Path, work_dir: Path) -> list[dict]:
    rng = random.Random(seed)
    if workload == "catalog":
        return catalog_ops(root, rng)
    if workload == "scale-search":
        return scale_search_ops(rng)
    if workload == "scale-analyze":
        return scale_analyze_files(seed, work_dir / "surfaces")
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def main() -> int:
    parser = argparse.ArgumentParser(description="Write the scale-analyze description files for a seed.")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    for op in scale_analyze_files(args.seed, Path(args.out)):
        print(op["argv"][1])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
