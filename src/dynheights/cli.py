"""Command-line entry point.

One subcommand per library operation, machine-readable output on stdout
(JSON by default, CSV for the census), diagnostics and the run manifest on
stderr.  Exit status: 0 on success, 2 on invalid input, 3 when a result is
uncertified: an iteration or descent budget ran out, or the arithmetic
left the range where the result can be certified (for instance
coefficients too large for a float); in that last case nothing is written
to stdout.

Output bytes are a deterministic function of the command line and input
files: dictionaries are serialized with sorted keys, floats with their
shortest round-trip representation, and all internal reductions run in a
fixed order.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys
from dataclasses import dataclass
from datetime import datetime, timezone

from . import __version__
from .canonical import DEFAULT_ITERS, canonical_height
from .census import (
    comparison_scatter,
    energy_sum,
    height_gap_probe,
    orbit,
    preperiodic_height_bound,
    preperiodic_points,
    small_height_census,
)
from .errors import DynheightsError, InputError
from .formats import load_map, map_hash, parse_pair, parse_point
from .local_heights import escape_radius, green_pairing, verify_escape
from .maps_core import Place, milnor_invariants
from .reduction import bad_places, minimal_resultant_ord


@dataclass
class RunManifest:
    """Reproducibility record: identical manifests imply identical outputs."""

    tool_version: str
    command: str
    argv: list
    map_hash: str | None
    budgets: dict
    timestamp: str
    output_digest: str

    def to_json_dict(self) -> dict:
        return {
            "tool_version": self.tool_version,
            "command": self.command,
            "argv": self.argv,
            "map_hash": self.map_hash,
            "budgets": self.budgets,
            "timestamp": self.timestamp,
            "output_digest": self.output_digest,
        }


def _parse_place(text: str, allow_all: bool = False):
    text = text.strip().lower()
    if text == "inf":
        return Place.archimedean()
    if allow_all and text == "all":
        return "all"
    try:
        p = int(text)
    except ValueError:
        raise InputError(f"--place must be 'inf'{', ' + chr(39) + 'all' + chr(39) if allow_all else ''} or a prime, got {text!r}")
    return Place.finite(p)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynheights",
        description="Exact resultants, minimal resultants, certified heights and "
        "Arakelov-Green pairings for rational self-maps of P^1 over Q.",
    )
    parser.add_argument("--manifest", metavar="FILE", help="write the run manifest JSON here")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, *, with_map=True, with_iters=False, with_format=False):
        sp = sub.add_parser(name, help=help_text)
        if with_map:
            sp.add_argument("--map", required=True, metavar="FILE", help="map JSON file")
        if with_iters:
            sp.add_argument("--iters", type=int, default=DEFAULT_ITERS, metavar="N")
        if with_format:
            sp.add_argument("--format", choices=("json", "csv"), default="json")
        return sp

    add("resultant", "Sylvester resultant of the lift as given in the file")
    add("badplaces", "places of bad reduction with minimal-resultant certificates")
    sp = add("minres", "per-prime minimal resultant certificate")
    sp.add_argument("--prime", type=int, required=True, metavar="P")
    sp = add("height", "canonical height of a point with per-place breakdown", with_iters=True)
    sp.add_argument("--point", required=True, metavar="'[a:b]'")
    sp = add("green", "Arakelov-Green pairing of two points at a place", with_iters=True)
    sp.add_argument("--x", required=True, metavar="'[a:b]'")
    sp.add_argument("--y", required=True, metavar="'[a:b]'")
    sp.add_argument("--place", required=True, metavar="inf|P")
    sp = add("escape", "certified escape test outside the escape radius")
    sp.add_argument("--place", required=True, metavar="inf|P")
    sp.add_argument("--z", required=True, metavar="'[a:b]'", help="affine pair, rationals allowed")
    sp.add_argument("--steps", type=int, default=10, metavar="N")
    sp.add_argument("--delta", type=float, default=0.1, metavar="D")
    sp = add("orbit", "orbit classification with exact cycle detection")
    sp.add_argument("--point", required=True, metavar="'[a:b]'")
    sp.add_argument("--budget", type=int, default=10_000, metavar="N")
    sp.add_argument(
        "--bound", type=float, default=None, metavar="B",
        help="escape height bound (default: the map's preperiodic height bound)",
    )
    sp = add("preperiodic", "all preperiodic rational points in a height box")
    sp.add_argument("--bound", type=float, required=True, metavar="B")
    sp = add("census", "small-height census with energy tables", with_iters=True, with_format=True)
    sp.add_argument("--bound", type=float, required=True, metavar="B")
    sp.add_argument("--t-fraction", type=float, default=0.1, dest="t_fraction", metavar="T")
    sp.add_argument("--plot", metavar="FILE.svg", help="write an hhat vs Weil-height scatter")
    sp = add("gap", "smallest certified positive canonical height in a box", with_iters=True)
    sp.add_argument("--bound", type=float, required=True, metavar="B")
    sp = add("energy", "pairwise Green energy of a point list", with_iters=True)
    sp.add_argument("--points", required=True, metavar="'[a:b];[c:d];...'")
    sp.add_argument("--place", required=True, metavar="inf|P|all")
    sp = add("compare", "d=2 scatter: resultant height vs Milnor moduli height", with_map=False)
    sp.add_argument("--map", action="append", required=True, dest="maps", metavar="FILE")
    add("milnor", "exact Milnor multiplier invariants of a quadratic map")
    return parser


# ---------------------------------------------------------------------------
# Handlers: return (payload dict, uncertified flag, loaded lift or None)
# ---------------------------------------------------------------------------


def _run_command(args):
    cmd = args.command
    if cmd == "resultant":
        F = load_map(args.map, normalized=False)
        return {"res": str(F.resultant)}, False, F
    if cmd == "badplaces":
        F = load_map(args.map)
        rep = bad_places(F)
        return rep.to_json_dict(), bool(rep.warnings), F
    if cmd == "minres":
        F = load_map(args.map)
        cert = minimal_resultant_ord(F, args.prime)
        return cert.to_json_dict(), cert.capped, F
    if cmd == "height":
        F = load_map(args.map)
        hb = canonical_height(F, parse_point(args.point), args.iters)
        return hb.to_json_dict(), False, F
    if cmd == "green":
        F = load_map(args.map)
        v = _parse_place(args.place)
        cv = green_pairing(F, parse_point(args.x), parse_point(args.y), v, args.iters)
        return cv.to_json_dict(), False, F
    if cmd == "escape":
        F = load_map(args.map)
        v = _parse_place(args.place)
        z = parse_pair(args.z)
        ok = verify_escape(F, v, z, args.steps, args.delta)
        return {
            "escapes": ok,
            "place": str(v),
            "radius": escape_radius(F, v).R,
            "steps": args.steps,
            "delta": args.delta,
        }, False, F
    if cmd == "orbit":
        F = load_map(args.map)
        rec = orbit(F, parse_point(args.point), budget=args.budget, height_bound=args.bound)
        return rec.to_json_dict(), rec.status == "undecided", F
    if cmd == "preperiodic":
        F = load_map(args.map)
        pts = preperiodic_points(F, args.bound)
        return {
            "points": [str(x) for x in pts],
            "count": len(pts),
            "search_bound": args.bound,
            "complete_global": args.bound >= preperiodic_height_bound(F),
        }, False, F
    if cmd == "census":
        F = load_map(args.map)
        rep = small_height_census(F, args.t_fraction, args.bound, n_iter=args.iters)
        uncertified = any("budget" in w for w in rep.warnings)
        if args.plot:
            _write_scatter_svg(args.plot, rep)
        return rep, uncertified, F
    if cmd == "gap":
        F = load_map(args.map)
        probe = height_gap_probe(F, args.bound, n_iter=args.iters)
        return probe.to_json_dict(), False, F
    if cmd == "energy":
        F = load_map(args.map)
        pts = [parse_point(t) for t in args.points.split(";") if t.strip()]
        v = _parse_place(args.place, allow_all=True)
        rep = energy_sum(F, pts, v, n_iter=args.iters)
        return rep.to_json_dict(), False, F
    if cmd == "compare":
        maps = [load_map(path) for path in args.maps]
        table = comparison_scatter(maps)
        return table.to_json_dict(), False, maps[0] if maps else None
    if cmd == "milnor":
        F = load_map(args.map)
        inv = milnor_invariants(F)
        return {
            "sigma1": str(inv.sigma1),
            "sigma2": str(inv.sigma2),
            "sigma3": str(inv.sigma3),
            "relation_sigma3_eq_sigma1_minus_2": inv.relation_holds(),
            "moduli_height": inv.moduli_height.to_json_dict(),
        }, False, F
    raise InputError(f"unknown subcommand {cmd!r}")


def _census_csv(rep) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["point", "weil_h", "hhat", "hhat_err", "preperiodic", "tail", "cycle"])
    for row in rep.rows:
        writer.writerow(
            [
                str(row.point),
                repr(row.weil),
                repr(row.hhat.value),
                repr(row.hhat.err),
                str(row.preperiodic).lower(),
                row.tail,
                row.cycle,
            ]
        )
    return buf.getvalue()


def _write_scatter_svg(path: str, rep) -> None:
    """Minimal deterministic SVG scatter of hhat against Weil height."""
    pts = [(r.weil, r.hhat.value) for r in rep.rows]
    w, h, margin = 480, 360, 40
    xmax = max([p[0] for p in pts], default=1.0) or 1.0
    ymax = max([abs(p[1]) for p in pts], default=1.0) or 1.0
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<line x1="{margin}" y1="{h - margin}" x2="{w - margin}" y2="{h - margin}" '
        'stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{h - margin}" stroke="black"/>',
        f'<text x="{w // 2}" y="{h - 8}" font-size="12">weil height</text>',
        f'<text x="8" y="{h // 2}" font-size="12" transform="rotate(-90 12 {h // 2})">'
        "canonical height</text>",
    ]
    for wx, hy in pts:
        cx = margin + (w - 2 * margin) * (wx / xmax if xmax else 0.0)
        cy = (h - margin) - (h - 2 * margin) * (max(hy, 0.0) / ymax if ymax else 0.0)
        lines.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="3" fill="steelblue"/>')
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        payload, uncertified, lift = _run_command(args)
    except DynheightsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    fmt = getattr(args, "format", "json")
    if fmt == "csv":
        if args.command != "census":
            print("error: --format csv is only supported for census", file=sys.stderr)
            return 2
        out = _census_csv(payload)
    else:
        obj = payload.to_json_dict() if hasattr(payload, "to_json_dict") else payload
        out = json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"

    sys.stdout.write(out)
    sys.stdout.flush()

    budgets = {}
    for key in ("iters", "bound", "budget", "steps", "t_fraction"):
        if hasattr(args, key):
            budgets[key] = getattr(args, key)
    manifest = RunManifest(
        tool_version=__version__,
        command=args.command,
        argv=list(argv) if argv is not None else sys.argv[1:],
        map_hash=map_hash(lift) if lift is not None else None,
        budgets=budgets,
        timestamp=datetime.now(timezone.utc).isoformat(),
        output_digest=hashlib.sha256(out.encode()).hexdigest(),
    )
    print("manifest: " + json.dumps(manifest.to_json_dict(), sort_keys=True), file=sys.stderr)
    if args.manifest:
        with open(args.manifest, "w", encoding="utf-8") as fh:
            json.dump(manifest.to_json_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")
    return 3 if uncertified else 0


if __name__ == "__main__":
    sys.exit(main())
