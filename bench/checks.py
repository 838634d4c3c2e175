"""Output checks: every operation of every round is checked against the
benchmark's own reference code (reference.py), never against stored output.

Each check function takes a round directory, its ops, its generator
metadata and the worker's results, and returns {op index: message} for the
operations that failed.  From dynheights it uses only the exhaustive
``minimal_resultant_oracle`` (for p <= 7) and the proven constant
``height_gap_constant`` (the tolerance of the defining limit).
"""

from __future__ import annotations

import math
import os
import sys
from fractions import Fraction

import reference as ref
from dynheights.canonical import height_gap_constant
from dynheights.formats import load_map
from dynheights.reduction import minimal_resultant_oracle

_EPS = sys.float_info.epsilon

#: size (in nats) up to which the defining-limit check iterates exactly
_LIMIT_NATS = 3000.0
_ORACLE_PRIME_MAX = 7
_ORACLE_RADIUS_MAX = 3
#: trial-division bound above every prime a badplaces input can have in Res
_BADPLACES_PRIME_BOUND = 300


def _slack(*xs) -> float:
    """Rounding of the check's own float arithmetic on values of these sizes."""
    return 8.0 * _EPS * sum(abs(x) for x in xs)


def _integral(rows):
    """Scale a rational 2x2 matrix (string entries) to an integer one."""
    fr = [[Fraction(e) for e in row] for row in rows]
    den = 1
    for row in fr:
        for e in row:
            den = den * e.denominator // math.gcd(den, e.denominator)
    return [[int(e * den) for e in row] for row in fr]


def _map_index(name: str) -> int:
    """Index into meta["maps"] of a map file named m<i>.json."""
    return int(name[1 : -len(".json")])


def _parse_point(text: str) -> tuple:
    a, b = text.strip()[1:-1].split(":")
    return int(a), int(b)


def check_badplaces(rdir, ops, meta, results):
    bad = {}
    maps = meta["maps"]
    for i, rep in enumerate(results):
        p_asc, q_asc = ref.normalize(*maps[i])
        res = ref.resultant(p_asc, q_asc)
        primes = ref.smooth_factors(res, _BADPLACES_PRIME_BOUND)
        certs = rep["certificates"]
        if primes is None or sorted(primes) != [c["p"] for c in certs]:
            bad[i] = f"certificate primes {[c['p'] for c in certs]} != primes of Res"
            continue
        if rep["warnings"] or [[c["p"], c["ord_min"]] for c in certs if c["ord_min"] > 0] != rep["bad_primes"]:
            bad[i] = "bad_primes disagree with the certificates, or a descent was capped"
            continue
        for c in certs:
            g = ref.conjugate(p_asc, q_asc, _integral(c["conjugator"]))
            if ref.ord_p(ref.resultant(*g), c["p"]) != c["ord_min"]:
                bad[i] = f"p={c['p']}: conjugator does not reproduce ord_min {c['ord_min']}"
                break
            if c["p"] <= _ORACLE_PRIME_MAX:
                # the descent moves at most ord_start - ord_min steps; a ball
                # that holds its end and the end's neighbours must find the
                # same minimum, a smaller ball no smaller one
                drop = c["ord_start"] - c["ord_min"]
                radius = min(drop + 1, _ORACLE_RADIUS_MAX)
                F = load_map(os.path.join(rdir, ops[i]["map"]))
                found = minimal_resultant_oracle(F, c["p"], radius)
                if found < c["ord_min"] or (radius == drop + 1 and found != c["ord_min"]):
                    bad[i] = f"p={c['p']}: oracle of radius {radius} finds {found}"
                    break
    for i, j, _phi in meta["pairs"]:
        if results[i]["bad_primes"] != results[j]["bad_primes"]:
            bad.setdefault(j, "conjugate reports other bad primes than its base map")
    for i in meta["good"]:
        if results[i]["bad_primes"]:
            bad.setdefault(i, "good-reduction conjugacy class reports a bad prime")
    return bad


def _limit_iterations(d: int, h: float) -> int:
    n = 1
    while n < 8 and d ** (n + 1) * (h + 1.0) <= _LIMIT_NATS:
        n += 1
    return n


def check_heights(rdir, ops, meta, results):
    bad = {}
    maps = meta["maps"]
    gaps = {}
    for i, (op, (value, err)) in enumerate(zip(ops, results)):
        m = _map_index(op["map"])
        p_asc, q_asc = ref.normalize(*maps[m])
        d = len(p_asc) - 1
        if m not in gaps:
            gaps[m] = height_gap_constant(load_map(os.path.join(rdir, op["map"])))
        x0, x1 = _parse_point(op["point"])
        if value < -err:
            bad[i] = f"hhat {value} below -err {err}"
            continue
        n = _limit_iterations(d, ref.weil_height(x0, x1))
        lim = ref.limit_height(p_asc, q_asc, x0, x1, n)
        if abs(value - lim) > gaps[m] / d**n + err + _slack(value, lim):
            bad[i] = f"hhat {value} +- {err} vs d^-{n} h(f^{n} x) = {lim}"
    for i, j in meta["pairs"]:
        d = len(maps[_map_index(ops[i]["map"])][0]) - 1
        (vi, ei), (vj, ej) = results[i], results[j]
        if abs(vj - d * vi) > ej + d * ei + _slack(vj, d * vi):
            bad.setdefault(i, "functional equation hhat(f x) = d hhat(x) fails")
            bad.setdefault(j, "functional equation hhat(f x) = d hhat(x) fails")
    return bad


def check_census(rdir, ops, meta, results):
    bad = {}
    maps = meta["maps"]
    for i, (op, (code, out)) in enumerate(zip(ops, results)):
        if code != 0 or out is None:
            bad[i] = f"exit code {code}"
            continue
        p_asc, q_asc = ref.normalize(*maps[i])
        box = len(ref.box_points(op["bound"]))
        if out["searched"] != box:
            bad[i] = f"searched {out['searched']} != {box} points in the box"
            continue
        rows = out["points"]
        if out["count"] != len(rows) or (out["energy"] is None) != (len(rows) < 2):
            bad[i] = "count or energy table inconsistent with the listed points"
            continue
        for row in rows:
            if not row["preperiodic"]:
                continue
            y = _parse_point(row["point"])
            for _ in range(row["tail"]):
                y = ref.apply(p_asc, q_asc, *y)
            z = y
            for _ in range(row["cycle"]):
                z = ref.apply(p_asc, q_asc, *z)
            if row["cycle"] < 1 or z != y:
                bad[i] = f"cycle of {row['point']} does not close"
                break
            if abs(row["hhat"]) > row["hhat_err"]:
                bad[i] = f"preperiodic {row['point']} has hhat {row['hhat']} +- {row['hhat_err']}"
                break
        energy = out["energy"]
        if i not in bad and energy is not None:
            if not energy["identity_residual"] <= energy["identity_budget"]:
                bad[i] = "energy identity residual exceeds its budget"
    return bad


CHECKS = {"badplaces": check_badplaces, "heights": check_heights, "census": check_census}
