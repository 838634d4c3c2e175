"""Seeded input generators for the three workloads.

Each round of a workload is a fixed set of operations on fresh inputs, so no
round repeats the maps or points of another: a cache that only pays on
repeated calls across rounds gains nothing, while per-map reuse inside a
round (many points per map in ``heights``) is there to be exploited.

The inputs of a round are stratified so that every round, whatever the
seed, does about the same amount of work: the degree, the number of
resultant primes, the conjugator prime band and the census box are fixed by
the slot, and the seed only draws coefficients, points and residues inside
those limits.  That keeps the median round time steady across seeds.

A round directory holds what the timed process reads (``ops.json`` and the
wire-format map files it names) and what only the checks read
(``meta.json``).  Nothing here imports dynheights.
"""

from __future__ import annotations

import json
import os
import random

import reference as ref

WORKLOADS = ("badplaces", "heights", "census")

#: conjugator primes q for phi: z -> q^k z + j; a narrow band keeps the
#: (k+1)(q+1) neighbour evaluations of each conjugate's descent comparable
Q_BAND = tuple(p for p in range(223, 258) if ref.is_prime(p))

#: census slots: (search bound, t-fraction).  t = 30 counts every searched
#: point, so the 8- and 72-point boxes give 8 points and the 60-point energy
#: cap; t = 0.5 on the 16-point box counts a seed-dependent handful.
CENSUS_SLOTS = ((0.7, 30.0), (1.1, 0.5), (2.0, 30.0))

#: A fixed census operation that fails its check on every run.  [-1:1] is a
#: fixed point of this map with multiplier -10; the archimedean local height
#: there comes out near 4.6e-7 with an error radius near 1.1e-8, though the
#: canonical height of a preperiodic point is 0.  Seed-dependent inputs
#: avoid preperiodic points instead (the heights points, the census boxes),
#: because the same fault would make them fail on some seeds only.
KNOWN_FAULT_MAP = ([-7, 5, 9], [-8, -5, 6])  # ascending: P = 9x^2+5xy-7y^2
KNOWN_FAULT_SLOT = (0.7, 30.0)

#: heights slots: (degree, distinct primes dividing Res)
HEIGHTS_SLOTS = ((2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (4, 3))
HEIGHTS_POINTS_PER_MAP = 70  # plus their images: 140 canonical heights per map


def _random_map(rng, d, coeff, prime_bound, n_primes=None, box=()):
    """Normalized map with 1 < |Res|, every prime of Res <= prime_bound, and
    no preperiodic point among the points of ``box``."""
    while True:
        p = [rng.randint(-coeff, coeff) for _ in range(d + 1)]
        q = [rng.randint(-coeff, coeff) for _ in range(d + 1)]
        if not any(p) or not any(q):
            continue
        p, q = ref.normalize(p, q)
        res = ref.resultant(p, q)
        if abs(res) <= 1:
            continue
        fac = ref.smooth_factors(res, prime_bound)
        if fac is None or (n_primes is not None and len(fac) != n_primes):
            continue
        if any(ref.is_preperiodic(p, q, *x) for x in box):
            continue
        return p, q


def _monic_polynomial(rng, d, coeff):
    """z^d + lower terms as (P, Q) = (x^d + ..., y^d): Res = 1, good reduction."""
    p = [rng.randint(-coeff, coeff) for _ in range(d)] + [1]
    q = [1] + [0] * d
    return p, q


def _map_json(p_asc, q_asc) -> dict:
    d = len(p_asc) - 1
    return {"d": d, "P": [str(c) for c in p_asc[::-1]], "Q": [str(c) for c in q_asc[::-1]]}


def _point_str(x0, x1) -> str:
    return f"[{x0}:{x1}]"


def _badplaces_round(rng):
    maps, pairs, good = [], [], []
    for d in (2, 3, 4):
        for base, k in ((_random_map(rng, d, 9, 50), 1), (_monic_polynomial(rng, d, 9), 2)):
            q = rng.choice(Q_BAND)
            phi = ((q**k, rng.randint(1, q - 1)), (0, 1))
            conj = ref.conjugate(base[0], base[1], phi)
            i = len(maps)
            maps += [base, conj]
            pairs.append([i, i + 1, [list(r) for r in phi]])
            if k == 2:
                good += [i, i + 1]
    ops = [{"map": f"m{i}.json"} for i in range(len(maps))]
    return maps, ops, {"pairs": pairs, "good": good}


def _random_point(rng, digits):
    top = max(1, int(10**digits))
    return ref.canonical(rng.randint(-top, top), rng.randint(0, top) or 1)


def _heights_round(rng):
    maps, ops, pairs = [], [], []
    for d, n_primes in HEIGHTS_SLOTS:
        p, q = _random_map(rng, d, 12, 1000, n_primes)
        m = len(maps)
        maps.append((p, q))
        seen = set()
        while len(seen) < 2 * HEIGHTS_POINTS_PER_MAP:
            # images of points with up to 100/d digits have up to ~100 digits
            x = _random_point(rng, rng.uniform(0.0, 100.0 / d))
            fx = ref.apply(p, q, *x)
            if x in seen or fx in seen or ref.is_preperiodic(p, q, *x):
                continue
            seen.update((x, fx))
            pairs.append([len(ops), len(ops) + 1])
            ops += [{"map": f"m{m}.json", "point": _point_str(*x)},
                    {"map": f"m{m}.json", "point": _point_str(*fx)}]
    return maps, ops, {"pairs": pairs}


def _census_round(rng):
    maps, ops = [], []
    for i, (bound, t) in enumerate(CENSUS_SLOTS):
        maps.append(_random_map(rng, 2, 9, 50, n_primes=2, box=ref.box_points(bound)))
        ops.append({"map": f"m{i}.json", "bound": bound, "t_fraction": t})
    maps.append(KNOWN_FAULT_MAP)
    ops.append({"map": f"m{len(ops)}.json", "bound": KNOWN_FAULT_SLOT[0],
                "t_fraction": KNOWN_FAULT_SLOT[1]})
    return maps, ops, {"known_fault": [len(ops) - 1]}


_ROUND = {"badplaces": _badplaces_round, "heights": _heights_round, "census": _census_round}


def generate(workload: str, seed: int, rounds: int, out_dir: str) -> None:
    """Write ``rounds`` round directories r00, r01, ... under out_dir."""
    for r in range(rounds):
        rng = random.Random(f"{workload}/{seed}/{r}")
        maps, ops, meta = _ROUND[workload](rng)
        rdir = os.path.join(out_dir, f"r{r:02d}")
        os.makedirs(rdir, exist_ok=True)
        for i, (p, q) in enumerate(maps):
            with open(os.path.join(rdir, f"m{i}.json"), "w", encoding="utf-8") as fh:
                json.dump(_map_json(p, q), fh)
        meta["maps"] = [[p, q] for (p, q) in maps]
        for name, obj in (("ops.json", ops), ("meta.json", meta)):
            with open(os.path.join(rdir, name), "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
