"""Seeded input generator for the persmod benchmark.

Writes one input file per CLI invocation into a directory, plus
``manifest.json`` listing, for each invocation, its argv (relative to
the directory) and what the oracles need to know about the input.
Nothing here imports persmod or the test suite, so two commits given the
same seed receive byte-identical files; the printed sha256 covers every
file written and lets runs on two commits show that.

    python3 perfbench/gen.py --workload rips-barcode --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
from fractions import Fraction
from itertools import combinations

WORKLOADS = ("rips-barcode", "rips-stream", "module-ops")

# Point counts of the Rips complexes in one batch: a third small, a
# third medium, a third large.  The counts are the same for every seed,
# only the points move.  Costs vary by about 10 % between point sets of
# one size, so the median and the tail are each read from inside a group
# of equal sizes (the median from the middle of the medium group, the
# tail from the large group) rather than from a boundary between sizes,
# where they would jump with the seed.
RIPS_BARCODE_SIZES = (12, 14, 16) * 5 + (20,) * 14 + (28,) * 15
RIPS_STREAM_SIZES = (12, 13, 14) * 5 + (16,) * 14 + (20,) * 15

# module-ops: (command kind, copies per batch, generators per module,
# disguise operations).  Every kind takes 10-22 % of the workload's time.
# hom and wedge:2, whose cost is set by their output size and varies
# least between inputs, are the most expensive, so the tail is read from
# them; the median is read from the mix of the other five.
MODULE_OPS_MIX = (
    ("presentation-barcode", 10, 75, 1300),
    ("snf", 10, 75, 1300),
    ("kernel", 10, 40, 350),
    ("image", 10, 40, 350),
    ("cokernel", 10, 100, 300),
    ("hom", 10, 140, 150),
    ("wedge", 10, 190, 300),
)


# ---------------------------------------------------------------------------
# Vietoris-Rips complexes
# ---------------------------------------------------------------------------


def rips_complex(rng, npoints):
    """The full 2-skeleton on random planar points, Rips-filtered.

    Returns (simplex, value) pairs in lexicographic order by dimension.
    Vertices enter at 0, an edge at its length, a triangle at its
    longest edge.
    """
    pts = [(rng.random(), rng.random()) for _ in range(npoints)]
    length = {
        (i, j): math.dist(pts[i], pts[j])
        for i, j in combinations(range(npoints), 2)
    }
    out = [((v,), 0) for v in range(npoints)]
    out += [(e, length[e]) for e in combinations(range(npoints), 2)]
    out += [
        ((a, b, c), max(length[(a, b)], length[(a, c)], length[(b, c)]))
        for a, b, c in combinations(range(npoints), 3)
    ]
    return out


def face_compatible_shuffle(rng, simplices):
    """A random order in which every simplex follows its faces.

    Each simplex draws a random key and inherits the largest key of its
    faces when that is later; ties go to the lower dimension.
    """
    key = {}
    for s, _ in simplices:  # faces precede cofaces in the input
        k = rng.random()
        if len(s) > 1:
            k = max([k] + [key[f] for f in combinations(s, len(s) - 1)])
        key[s] = k
    return sorted(simplices, key=lambda sv: (key[sv[0]], len(sv[0])))


def complex_text(simplices):
    lines = []
    for s, value in simplices:
        head = " ".join(str(v) for v in s)
        lines.append(f"{head} ; {value!r}")
    return "".join(line + "\n" for line in lines)


# ---------------------------------------------------------------------------
# Presentations and morphisms (plain dicts, no persmod types)
#
# A presentation is {"gens": [(label, degree)], "rels": [(degree, {i: c})]}:
# each relation is a column over the generators, entry c at generator i
# standing for c * t^(degree - deg gen i).  A morphism is a source, a
# target and "phi": one column {i: c} over the target per source
# generator.  The module is built diagonal, so its barcode is known,
# and then disguised by legal elementary operations.
# ---------------------------------------------------------------------------


def random_scalar(rng, nonzero=False):
    num = rng.randint(1, 5) if nonzero else rng.randint(-5, 5)
    if nonzero and rng.random() < 0.5:
        num = -num
    return Fraction(num, rng.randint(1, 4))


def diagonal_presentation(rng, prefix, ngens, max_degree, free_share=0.3):
    """A diagonal module and its annihilator exponents (None = free).

    Degrees cycle through 0..max_degree and annihilators through 1..5,
    and exactly ``free_share`` of the generators are free; the seed only
    shuffles them.  Modules of one size then cost about the same.
    """
    degrees = [i % (max_degree + 1) for i in range(ngens)]
    nfree = round(ngens * free_share)
    anns = [None] * nfree + [1 + i % 5 for i in range(ngens - nfree)]
    rng.shuffle(degrees)
    rng.shuffle(anns)
    gens = [(f"{prefix}{i}", d) for i, d in enumerate(degrees)]
    rels = [
        (gens[i][1] + a, {i: Fraction(1)})
        for i, a in enumerate(anns)
        if a is not None
    ]
    return {"gens": gens, "rels": rels}, anns


def compatible_map(rng, src, src_ann, dst, dst_ann, density=0.5):
    """Generator map src -> dst that descends to the diagonal quotients."""
    phi = []
    for i, (_, sd) in enumerate(src["gens"]):
        col = {}
        for j, (_, dd) in enumerate(dst["gens"]):
            if sd < dd:
                continue
            ok = src_ann[i] is None or (
                dst_ann[j] is not None and sd + src_ann[i] >= dd + dst_ann[j]
            )
            if ok and rng.random() < density:
                c = random_scalar(rng)
                if c:
                    col[j] = c
        phi.append(col)
    return phi


def _sort_key(gens, i):
    return (gens[i][1], i)


def _add_multiple(col, src_index, dst_index, c):
    """col[dst_index] += c * col[src_index], dropping a zero result."""
    if src_index not in col:
        return
    v = col.get(dst_index, 0) + c * col[src_index]
    if v:
        col[dst_index] = v
    else:
        col.pop(dst_index, None)


def disguise(rng, pres, ops, maps_from=(), maps_into=()):
    """Apply ``ops`` random legal elementary operations to ``pres``.

    A generator operation replaces generator j by g_j - c t^e g_i (with
    (deg, index) of j above that of i); relation columns and the
    columns of maps into ``pres`` change by row i += c * row j, and
    maps out of ``pres`` change by column j -= c * column i.  A
    relation operation adds a multiple of an earlier relation to a
    later one.  Neither changes the module up to isomorphism, nor
    whether a map descends.
    """
    gens, rels = pres["gens"], pres["rels"]
    for _ in range(ops):
        if rng.random() < 0.5:
            i, j = rng.randrange(len(gens)), rng.randrange(len(gens))
            if _sort_key(gens, j) <= _sort_key(gens, i):
                continue
            c = random_scalar(rng, nonzero=True)
            for _, col in rels:
                _add_multiple(col, j, i, c)
            for phi in maps_into:
                for col in phi:
                    _add_multiple(col, j, i, c)
            for phi in maps_from:
                for t, v in list(phi[i].items()):
                    w = phi[j].get(t, 0) - c * v
                    if w:
                        phi[j][t] = w
                    else:
                        phi[j].pop(t, None)
        elif len(rels) > 1:
            a, b = rng.randrange(len(rels)), rng.randrange(len(rels))
            if (rels[b][0], b) <= (rels[a][0], a):
                continue
            c = random_scalar(rng, nonzero=True)
            for t, v in rels[a][1].items():
                w = rels[b][1].get(t, 0) + c * v
                if w:
                    rels[b][1][t] = w
                else:
                    rels[b][1].pop(t, None)


def _term(c, exponent, label):
    return f"{c}t^{exponent}*{label}"


def presentation_lines(pres):
    gens = pres["gens"]
    lines = [f"gen {label} {deg}" for label, deg in gens]
    for deg, col in pres["rels"]:
        if col:
            terms = [_term(c, deg - gens[i][1], gens[i][0]) for i, c in sorted(col.items())]
            lines.append("rel " + " + ".join(terms))
    return lines


def presentation_text(pres):
    return "".join(line + "\n" for line in presentation_lines(pres))


def morphism_text(src, dst, phi):
    lines = ["source", *presentation_lines(src), "target", *presentation_lines(dst), "maps"]
    for j, col in enumerate(phi):
        if col:
            label, deg = src["gens"][j]
            terms = [
                _term(c, deg - dst["gens"][i][1], dst["gens"][i][0])
                for i, c in sorted(col.items())
            ]
            lines.append(f"map {label} -> " + " + ".join(terms))
    return "".join(line + "\n" for line in lines)


def _diagonal_truth(pres, anns):
    """[(degree, annihilator or None)] of the diagonal generators."""
    return [[deg, a] for (_, deg), a in zip(pres["gens"], anns)]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _rips_barcode(rng, scale):
    for k, n in enumerate(_scaled(RIPS_BARCODE_SIZES, scale)):
        name = f"rips{k:03d}_n{n}.txt"
        yield name, complex_text(rips_complex(rng, n)), {
            "argv": ["--field", "Zp:2", "barcode", name],
            "kind": "barcode",
            "input": name,
            "field": "Zp:2",
        }


def _rips_stream(rng, scale):
    for k, n in enumerate(_scaled(RIPS_STREAM_SIZES, scale)):
        name = f"stream{k:03d}_n{n}.txt"
        simplices = face_compatible_shuffle(rng, rips_complex(rng, n))
        yield name, complex_text(simplices), {
            "argv": ["--field", "Q", "stream", "--emit-events", name],
            "kind": "stream",
            "input": name,
            "field": "Q",
        }


def _module_ops(rng, scale):
    k = 0
    for kind, copies, ngens, ops in MODULE_OPS_MIX:
        if scale < 1:
            ngens, ops = max(3, round(ngens * scale)), round(ops * scale)
        for _ in range(max(1, round(copies * scale))):
            name = f"op{k:03d}_{kind}.txt"
            out = f"op{k:03d}_{kind}.out"
            k += 1
            if kind in ("presentation-barcode", "snf"):
                pres, anns = diagonal_presentation(rng, "g", ngens, 12)
                disguise(rng, pres, ops)
                argv = ["--field", "Q", kind, name]
                if kind == "snf":
                    argv.append("--dump")
                yield name, presentation_text(pres), {
                    "argv": argv, "kind": kind, "input": name, "field": "Q",
                    "truth": _diagonal_truth(pres, anns),
                }
            elif kind in ("kernel", "image", "cokernel"):
                src, src_ann = diagonal_presentation(rng, "x", ngens, 8)
                dst, dst_ann = diagonal_presentation(rng, "y", ngens, 8)
                phi = compatible_map(rng, src, src_ann, dst, dst_ann)
                disguise(rng, src, ops, maps_from=[phi])
                disguise(rng, dst, ops, maps_into=[phi])
                yield name, morphism_text(src, dst, phi), {
                    "argv": ["--field", "Q", "op", kind, name, "-o", out],
                    "kind": kind, "input": name, "output": out, "field": "Q",
                }
            elif kind == "hom":
                p, p_ann = diagonal_presentation(rng, "x", ngens, 10)
                q, q_ann = diagonal_presentation(rng, "y", ngens, 10)
                disguise(rng, p, ops)
                disguise(rng, q, ops)
                second = f"op{k - 1:03d}_{kind}_b.txt"
                yield second, presentation_text(q), None
                yield name, presentation_text(p), {
                    "argv": ["--field", "Q", "op", "hom", name, second, "-o", out],
                    "kind": kind, "input": name, "output": out, "field": "Q",
                    "truth": [_diagonal_truth(p, p_ann), _diagonal_truth(q, q_ann)],
                }
            else:
                pres, anns = diagonal_presentation(rng, "g", ngens, 10)
                disguise(rng, pres, ops)
                yield name, presentation_text(pres), {
                    "argv": ["--field", "Q", "op", "wedge:2", name, "-o", out],
                    "kind": kind, "input": name, "output": out, "field": "Q",
                    "truth": _diagonal_truth(pres, anns),
                }


def _scaled(sizes, scale):
    if scale >= 1:
        return sizes
    count = max(2, round(len(sizes) * scale))
    return tuple(min(sizes) + 2 * (k % 4) for k in range(count))


_BUILDERS = {
    "rips-barcode": _rips_barcode,
    "rips-stream": _rips_stream,
    "module-ops": _module_ops,
}


def generate(workload, seed, out_dir, scale=1.0):
    """Write the inputs of one workload and return (manifest, sha256).

    ``scale`` < 1 shrinks the batch to a few small inputs; the
    benchmark itself always uses the full batch.
    """
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"persmod-bench:{workload}:{seed}")
    digest = hashlib.sha256()
    invocations = []
    for name, text, entry in _BUILDERS[workload](rng, scale):
        data = text.encode("ascii")
        with open(os.path.join(out_dir, name), "wb") as handle:
            handle.write(data)
        digest.update(name.encode("ascii") + b"\0" + data + b"\0")
        if entry is not None:
            invocations.append(entry)
    manifest = {"workload": workload, "seed": seed, "invocations": invocations}
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="ascii") as handle:
        json.dump(manifest, handle, indent=1)
    return manifest, digest.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="existing directory to write into")
    args = parser.parse_args(argv)
    manifest, sha = generate(args.workload, args.seed, args.out)
    print(f"{len(manifest['invocations'])} invocations, inputs sha256 {sha}")


if __name__ == "__main__":
    main()
