"""Independent oracles for the benchmark's CLI outputs.

Nothing here imports persmod: the parsers, the field arithmetic and the
rank computations are written out again, so a defect in the library's
reduction engine cannot hide itself.  Each ``check_*`` function takes
the input text, the captured output and the manifest entry, and returns
a list of error strings; an empty list means the output is correct.

Ranks come from plain Gaussian elimination over the workload's field
(Z/p with ints, Q exactly with fraction-free integer rows).  Columns
are inserted in grade order, so one pass yields the rank of every
degree slice: the slice at grade g uses exactly the columns of grade at
most g, and their entries only touch rows of grade at most g.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations

INF = math.inf


# ---------------------------------------------------------------------------
# Rank by Gaussian elimination
# ---------------------------------------------------------------------------


class IncrementalRank:
    """Rank of a growing set of sparse vectors over Q (p = 0) or Z/p.

    Vectors are {row: value} dicts with int (or, for Q, Fraction)
    values.  The echelon basis is keyed by each vector's largest row.
    """

    def __init__(self, p):
        self.p = p
        self.basis = {}
        self.rank = 0

    def add(self, vector):
        p = self.p
        if p:
            v = {i: int(c) % p for i, c in vector.items() if int(c) % p}
        else:
            v = _primitive(_integral(vector))
        while v:
            h = max(v)
            b = self.basis.get(h)
            if b is None:
                self.basis[h] = v
                self.rank += 1
                return True
            if p:
                r = v[h] * pow(b[h], -1, p) % p
                for i, c in b.items():
                    w = (v.get(i, 0) - r * c) % p
                    if w:
                        v[i] = w
                    else:
                        v.pop(i, None)
            else:
                vh, bh = v[h], b[h]
                w = {i: c * bh for i, c in v.items()}
                for i, c in b.items():
                    x = w.get(i, 0) - vh * c
                    if x:
                        w[i] = x
                    else:
                        w.pop(i, None)
                v = _primitive(w)
        return False


def _integral(vector):
    """Scale a rational vector to integers (rank is unchanged)."""
    lcm = 1
    for c in vector.values():
        d = Fraction(c).denominator
        lcm = lcm * d // math.gcd(lcm, d)
    return {i: int(Fraction(c) * lcm) for i, c in vector.items() if c}


def _primitive(v):
    g = 0
    for c in v.values():
        g = math.gcd(g, c)
    if g > 1:
        return {i: c // g for i, c in v.items()}
    return v


def ranks_by_grade(columns, p, grades):
    """{g: rank of the columns of grade <= g} for every g in ``grades``.

    ``columns`` is a list of (grade, vector).
    """
    columns = sorted(columns, key=lambda gv: gv[0])
    acc = IncrementalRank(p)
    out = {}
    n = 0
    for g in sorted(grades):
        while n < len(columns) and columns[n][0] <= g:
            acc.add(columns[n][1])
            n += 1
        out[g] = acc.rank
    return out


def field_char(spec):
    """0 for Q, p for Zp:<p>."""
    return 0 if spec == "Q" else int(spec.split(":", 1)[1])


# ---------------------------------------------------------------------------
# Filtered complexes
# ---------------------------------------------------------------------------


def _number(token):
    try:
        return int(token)
    except ValueError:
        return float(token)


def parse_complex(text):
    """[(vertex tuple, grade)] with non-integer values replaced by rank."""
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, value = line.split(";")
        rows.append((tuple(sorted(int(v) for v in head.split())), _number(value.strip())))
    if any(not isinstance(v, int) for _, v in rows):
        rank = {v: n for n, v in enumerate(sorted({v for _, v in rows}))}
        rows = [(s, rank[v]) for s, v in rows]
    return rows


def betti_by_grade(simplices, p):
    """{grade: [b_0, b_1, ...]} of every sublevel complex, by elimination."""
    grade = dict(simplices)
    top = max(len(s) for s in grade) - 1
    grades = sorted(set(grade.values()))
    count = {d: Counter() for d in range(top + 1)}
    index = {d: {} for d in range(top + 1)}
    for s in sorted(grade):  # lexicographic, unrelated to the filtration
        index[len(s) - 1][s] = len(index[len(s) - 1])
        count[len(s) - 1][grade[s]] += 1
    rank = {}
    for d in range(1, top + 1):
        cols = []
        for s in index[d]:
            vec = {}
            for k in range(len(s)):
                face = s[:k] + s[k + 1:]
                vec[index[d - 1][face]] = 1 if k % 2 == 0 else -1
            cols.append((grade[s], vec))
        rank[d] = ranks_by_grade(cols, p, grades)
    out = {}
    sizes = Counter()
    for g in grades:
        for d in range(top + 1):
            sizes[d] += count[d][g]
        out[g] = [
            sizes[d] - rank.get(d, {}).get(g, 0) - rank.get(d + 1, {}).get(g, 0)
            for d in range(top + 1)
        ]
    return out


def _bar(tokens):
    dim = None if tokens[0] == "-" else int(tokens[0])
    death = INF if tokens[2] == "inf" else int(tokens[2])
    return (dim, int(tokens[1]), death)


def parse_bars(lines):
    return [_bar(line.split()) for line in lines]


def _alive_by_grade(bars, grades, top):
    """{g: bars alive at g per dimension}, or None for a bad dimension."""
    change = Counter()
    for dim, birth, death in bars:
        if dim is None or not 0 <= dim <= top:
            return None
        if birth < death:
            change[(birth, dim)] += 1
            change[(death, dim)] -= 1
    events = sorted(change.items())
    out = {}
    alive = [0] * (top + 1)
    n = 0
    for g in sorted(grades):
        while n < len(events) and events[n][0][0] <= g:
            alive[events[n][0][1]] += events[n][1]
            n += 1
        out[g] = list(alive)
    return out


def check_bars_against_complex(bars, simplices, p):
    """Bars alive at every grade must match the Betti numbers there."""
    betti = betti_by_grade(simplices, p)
    top = len(next(iter(betti.values()))) - 1
    alive = _alive_by_grade(bars, betti, top)
    if alive is None:
        return ["bar with a dimension outside the complex"]
    errors = []
    for g, b in betti.items():
        if alive[g] != b:
            errors.append(f"grade {g}: bars alive {alive[g]} != betti {b}")
            if len(errors) >= 3:
                break
    return errors


def check_barcode(input_text, output, entry):
    bars = parse_bars(l for l in output.splitlines() if l and not l.startswith("#"))
    return check_bars_against_complex(bars, parse_complex(input_text), field_char(entry["field"]))


def check_stream(input_text, output, entry):
    """Events fold to the final barcode, which matches the Betti numbers."""
    simplices = parse_complex(input_text)
    live = Counter()
    inserts = 0
    final = []
    for line in output.splitlines():
        if line.startswith("# insert"):
            inserts += 1
        elif line.startswith("#") or not line:
            continue
        elif line[0] in "+-":
            bar = _bar(line[2:].split())
            if line[0] == "-":
                if not live[bar]:
                    return [f"event removes absent bar {line!r}"]
                live[bar] -= 1
            else:
                live[bar] += 1
        else:
            final.append(_bar(line.split()))
    errors = []
    if inserts != len(simplices):
        errors.append(f"{inserts} insert events for {len(simplices)} simplices")
    if +live != Counter(final):
        errors.append("events do not fold to the final barcode")
    return errors + check_bars_against_complex(final, simplices, field_char(entry["field"]))


# ---------------------------------------------------------------------------
# Presentations over Q
# ---------------------------------------------------------------------------


def parse_term(token):
    """``<coeff>t^<e>*<label>`` -> (Fraction, exponent, label)."""
    head, _, label = token.strip().partition("*")
    coeff, _, exponent = head.partition("t^")
    return Fraction(coeff) if coeff else Fraction(1), int(exponent), label


def parse_presentation(lines):
    """(gens [(label, degree)], rels [(degree, {gen index: coeff})])."""
    gens, rels = [], []
    index = {}
    for line in lines:
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        keyword, _, rest = line.partition(" ")
        if keyword == "gen":
            label, degree = rest.split()
            index[label] = len(gens)
            gens.append((label, int(degree)))
        elif keyword == "rel":
            col = {}
            degree = None
            for token in rest.split(" + "):
                c, e, label = parse_term(token)
                i = index[label]
                degree = e + gens[i][1]
                col[i] = col.get(i, 0) + c
            rels.append((degree, col))
        else:
            raise ValueError(f"unexpected line {line!r}")
    return gens, rels


def parse_morphism(text):
    sections = {"source": [], "target": [], "maps": []}
    current = None
    for line in text.splitlines():
        if line.strip() in sections:
            current = sections[line.strip()]
        elif current is not None:
            current.append(line)
    src = parse_presentation(sections["source"])
    dst = parse_presentation(sections["target"])
    dst_index = {label: i for i, (label, _) in enumerate(dst[0])}
    src_index = {label: j for j, (label, _) in enumerate(src[0])}
    phi = [{} for _ in src[0]]
    for line in sections["maps"]:
        label, _, terms = line[len("map "):].partition("->")
        col = phi[src_index[label.strip()]]
        for token in terms.split(" + "):
            c, _, target = parse_term(token)
            col[dst_index[target]] = col.get(dst_index[target], 0) + c
    return src, dst, phi


def slice_dims(pres, grades):
    """{d: dim_k of the degree-d slice of the presented module}."""
    gens, rels = pres
    ranks = ranks_by_grade(rels, 0, grades)
    return {d: sum(1 for _, g in gens if g <= d) - ranks[d] for d in grades}


def _degree_range(*presentations):
    degrees = [0]
    for gens, rels in presentations:
        degrees += [g for _, g in gens] + [r for r, _ in rels]
    return range(min(degrees), max(degrees) + 2)


def check_morphism_op(input_text, output, entry):
    """Slice dimensions of ker, im or coker by rank-nullity."""
    src, dst, phi = parse_morphism(input_text)
    result = parse_presentation(output.splitlines())
    grades = _degree_range(src, dst, result)
    src_dims = slice_dims(src, grades)
    dst_dims = slice_dims(dst, grades)
    dst_rank = ranks_by_grade(dst[1], 0, grades)
    combined = ranks_by_grade(
        [(g, col) for (_, g), col in zip(src[0], phi)] + list(dst[1]), 0, grades
    )
    got = slice_dims(result, grades)
    errors = []
    for d in grades:
        rank_f = combined[d] - dst_rank[d]
        want = {
            "kernel": src_dims[d] - rank_f,
            "image": rank_f,
            "cokernel": dst_dims[d] - rank_f,
        }[entry["kind"]]
        if got[d] != want:
            errors.append(f"degree {d}: {entry['kind']} has dim {got[d]}, expected {want}")
    return errors


def _diagonal_pairs(pres):
    """Counter of (degree, annihilator) for a diagonal presentation."""
    gens, rels = pres
    ann = {}
    for degree, col in rels:
        if len(col) != 1:
            raise ValueError("relation is not a single term")
        (i, c), = col.items()
        if c != 1 or i in ann:
            raise ValueError("relation is not monic or repeats a generator")
        ann[i] = degree - gens[i][1]
    return Counter((g, ann.get(i, INF)) for i, (_, g) in enumerate(gens))


def _truth(pairs):
    return [(deg, INF if a is None else a) for deg, a in pairs]


def _compare_pairs(got_pres, want, what):
    got = _diagonal_pairs(got_pres)
    if got != Counter(want):
        n_got, n_want = sum(got.values()), len(want)
        return [f"{what}: (degree, annihilator) multiset differs ({n_got} vs {n_want} generators)"]
    return []


def check_presentation_barcode(input_text, output, entry):
    bars = Counter(parse_bars(l for l in output.splitlines() if l))
    want = Counter((None, deg, deg + a) for deg, a in _truth(entry["truth"]))
    return [] if bars == want else ["barcode differs from the module it was built from"]


def check_snf(input_text, output, entry):
    """Diagonal form matches the truth and to_new o from_new = id."""
    lines = output.splitlines()
    try:
        cut = lines.index("# to_new")
        mid = lines.index("# from_new")
    except ValueError:
        return ["missing '# to_new' or '# from_new' section"]
    pres = parse_presentation(lines[:cut])
    errors = _compare_pairs(pres, _truth(entry["truth"]), "snf")
    to_new = _parse_maps(lines[cut + 1:mid])
    from_new = _parse_maps(lines[mid + 1:])
    degree = dict(pres[0])
    old_degree = dict(parse_presentation(input_text.splitlines())[0])
    for label, image in from_new.items():
        total = {}
        for old, (c, e) in image.items():
            if e != degree[label] - old_degree[old]:
                errors.append(f"from_new {label}: term on {old} has exponent {e}")
            for new, (d, f) in to_new.get(old, {}).items():
                if f != old_degree[old] - degree[new]:
                    errors.append(f"to_new {old}: term on {new} has exponent {f}")
                total[new] = total.get(new, 0) + c * d
        total = {k: v for k, v in total.items() if v}
        if total != {label: 1}:
            errors.append(f"to_new o from_new is not the identity on {label}")
        if len(errors) >= 3:
            break
    if set(from_new) != set(degree):
        errors.append("from_new does not cover the new generators")
    return errors


def _parse_maps(lines):
    maps = {}
    for line in lines:
        label, _, terms = line[len("map "):].partition(" -> ")
        image = {}
        if terms.strip() != "0":
            for token in terms.split(" + "):
                c, e, target = parse_term(token)
                image[target] = (c, e)
        maps[label] = image
    return maps


def check_hom(input_text, output, entry):
    """hom(P, Q) = dual(P) (x) Q: one generator per pair, min annihilator."""
    p, q = (_truth(t) for t in entry["truth"])
    want = [(qd - pd, min(pa, qa)) for pd, pa in p for qd, qa in q]
    return _compare_pairs(parse_presentation(output.splitlines()), want, "hom")


def check_wedge(input_text, output, entry):
    """wedge^2: one generator per 2-subset, degrees add, min annihilator."""
    gens = _truth(entry["truth"])
    want = [(ad + bd, min(aa, ba)) for (ad, aa), (bd, ba) in combinations(gens, 2)]
    return _compare_pairs(parse_presentation(output.splitlines()), want, "wedge:2")


CHECKS = {
    "barcode": check_barcode,
    "stream": check_stream,
    "presentation-barcode": check_presentation_barcode,
    "snf": check_snf,
    "kernel": check_morphism_op,
    "image": check_morphism_op,
    "cokernel": check_morphism_op,
    "hom": check_hom,
    "wedge": check_wedge,
}


def check(entry, input_text, output):
    """Errors of one invocation's output (stdout, or the -o file)."""
    try:
        return CHECKS[entry["kind"]](input_text, output, entry)
    except Exception as e:  # malformed output fails this invocation, not the run
        return [f"oracle could not read the output: {type(e).__name__}: {e}"]
