"""Generate the inputs of the `verify` workload from a seed.

Usage: python3 verify_inputs.py SEED STRATA_JSON

STRATA_JSON is a list of [series, dimV, count]. From each stratum the seed
picks `count` distinguished realizations (graph and, for connected series-D
graphs, orbit sign). Each is written twice as realization JSON: as built,
with diagonal h, and conjugated by a seeded rational isometry T of its form,
so that h is no longer diagonal:

- series A: T is a product of elementary integer matrices in GL(n, Q);
- series B, C, D: T = (I - X)^-1 (I + X), the Cayley transform of a small
  X in the algebra, X = G^-1 S with S skew (B, D) or symmetric (C).

The result is one JSON list on stdout. Run in its own process so that none
of this is counted in the timed rounds.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import replace
from fractions import Fraction

from skewpairs import build_pair, enumerate_admissible
from skewpairs.liealg import realization_to_jsonable

SIGN_SUFFIX = {None: "", "plus": "+", "minus": "-"}


def _identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def _mul(a, b):
    cols = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in cols] for row in a]


def _inverse(a):
    """Gauss-Jordan inverse over Q, or None when a is singular."""
    n = len(a)
    work = [list(row) + ident for row, ident in zip(a, _identity(n))]
    for c in range(n):
        pivot = next((i for i in range(c, n) if work[i][c]), None)
        if pivot is None:
            return None
        work[c], work[pivot] = work[pivot], work[c]
        lead = work[c][c]
        work[c] = [x / lead for x in work[c]]
        for i in range(n):
            if i != c and work[i][c]:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[c])]
    return [row[n:] for row in work]


def _is_diagonal(m):
    return all(not x for i, row in enumerate(m) for j, x in enumerate(row) if i != j)


def _conjugator(r, rng):
    """(T, T^-1) for a seeded isometry T of r's form that moves h off the diagonal."""
    n = r.spec.dimv
    one = _identity(n)
    while True:
        if r.spec.series == "A":
            t, t_inv = one, one
            for _ in range(3):
                i, j = rng.sample(range(n), 2)
                c = Fraction(rng.choice((1, -1)))
                step, back = _identity(n), _identity(n)
                step[i][j], back[i][j] = c, -c
                t, t_inv = _mul(t, step), _mul(back, t_inv)
        else:
            s = [[Fraction(0)] * n for _ in range(n)]
            for _ in range(2):
                i, j = rng.sample(range(n), 2)
                c = Fraction(rng.choice((1, -1)))
                s[i][j] += c
                s[j][i] += c if r.spec.series == "C" else -c
            form = [list(row) for row in r.spec.form]
            x = _mul(_inverse(form), s)
            i_plus_x = [[a + b for a, b in zip(p, q)] for p, q in zip(one, x)]
            i_minus_x = [[a - b for a, b in zip(p, q)] for p, q in zip(one, x)]
            inv_minus, inv_plus = _inverse(i_minus_x), _inverse(i_plus_x)
            if inv_minus is None or inv_plus is None:
                continue
            t, t_inv = _mul(inv_minus, i_plus_x), _mul(inv_plus, i_minus_x)
            if _mul(list(map(list, zip(*t))), _mul(form, t)) != form:
                raise RuntimeError("Cayley transform is not an isometry of the form")
        moved_h = [_mul(_mul(t, h), t_inv) for h in (r.h1, r.h2)]
        if not all(_is_diagonal(h) for h in moved_h):
            return t, t_inv


def generate(seed: int, strata) -> list:
    rng = random.Random(seed)
    entries = []
    for series, dimv, count in strata:
        pool = [
            (index, graph, sign)
            for index, graph in enumerate(enumerate_admissible(series, dimv, "distinguished"))
            for sign in (("plus", "minus") if series == "D" and graph.is_connected() else (None,))
        ]
        for index, graph, sign in rng.sample(pool, min(count, len(pool))):
            r = build_pair(series, graph, sign)
            t, t_inv = _conjugator(r, rng)

            def conj(m):
                return tuple(tuple(row) for row in _mul(_mul(t, m), t_inv))

            moved = replace(r, e1=conj(r.e1), e2=conj(r.e2), h1=conj(r.h1), h2=conj(r.h2))
            entries.append({
                "id": f"{series}{dimv}#{index}{SIGN_SUFFIX[sign]}",
                "diag": realization_to_jsonable(r),
                "conj": realization_to_jsonable(moved),
            })
    return entries


if __name__ == "__main__":
    json.dump(generate(int(sys.argv[1]), json.loads(sys.argv[2])), sys.stdout)
    sys.stdout.write("\n")
