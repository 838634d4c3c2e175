import contextlib
import hashlib
import io
import json
import math
import subprocess
import sys
import time

import pytest

from dynheights import HomogeneousLift, milnor_invariants, sylvester_resultant

MONOMIAL = {"d": 2, "P": ["1", "0", "0"], "Q": ["0", "0", "1"]}
Z2_MINUS_1 = {"d": 2, "P": ["1", "0", "-1"], "Q": ["0", "0", "1"]}
THREE_Z2 = {"d": 2, "P": ["3", "0", "0"], "Q": ["0", "0", "1"]}


@pytest.fixture
def map_file(tmp_path):
    def write(obj, name="m.json"):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    return write


def run_cli(*args, timeout=240):
    proc = subprocess.run(
        [sys.executable, "-m", "dynheights", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    return proc


def test_resultant_output(map_file):
    proc = run_cli("resultant", "--map", map_file(MONOMIAL))
    assert proc.returncode == 0
    assert proc.stdout == '{"res":"1"}\n'


def test_height_output(map_file):
    proc = run_cli("height", "--map", map_file(MONOMIAL), "--point", "[2:1]")
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["total"]["value"] == pytest.approx(math.log(2), abs=1e-10)
    assert "err" in out["total"]


def test_orbit_output(map_file):
    proc = run_cli("orbit", "--map", map_file(Z2_MINUS_1), "--point", "[0:1]")
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["status"] == "preperiodic" and out["tail"] == 0 and out["cycle"] == 2


def test_minres_output(map_file):
    proc = run_cli("minres", "--map", map_file(THREE_Z2), "--prime", "3")
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out == {
        "conjugator": [["3", "0"], ["0", "1"]],
        "method": "descent",
        "ord_min": 0,
        "ord_start": 2,
        "p": 3,
    }


def test_minres_on_a_good_prime_returns_at_once(map_file):
    # Res(z^2 - 1) = 1: no descent is needed, so the p + 1 neighbours of the
    # start vertex must not be built
    start = time.perf_counter()
    proc = run_cli("minres", "--map", map_file(Z2_MINUS_1), "--prime", "1000003")
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ord_min"] == 0
    assert elapsed < 2.0


def test_green_output(map_file):
    proc = run_cli(
        "green", "--map", map_file(MONOMIAL), "--x", "[2:1]", "--y", "[3:1]", "--place", "inf"
    )
    out = json.loads(proc.stdout)
    assert out["value"] == pytest.approx(math.log(6), abs=1e-9)
    assert set(out) == {"value", "err", "exact"}


def test_census_csv(map_file):
    proc = run_cli(
        "census", "--map", map_file(MONOMIAL), "--bound", "1.0", "--format", "csv"
    )
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "point,weil_h,hhat,hhat_err,preperiodic,tail,cycle"
    assert any(line.startswith("[1:1]") for line in lines[1:])


def test_invalid_point_exits_2(map_file):
    proc = run_cli("height", "--map", map_file(MONOMIAL), "--point", "oops")
    assert proc.returncode == 2
    assert "error" in proc.stderr


def test_unknown_subcommand_exits_2(map_file):
    proc = run_cli("frobnicate", "--map", map_file(MONOMIAL))
    assert proc.returncode == 2


def test_degenerate_map_exits_2(map_file):
    proc = run_cli("resultant", "--map", map_file({"d": 2, "P": ["1", "0", "0"], "Q": ["2", "0", "0"]}))
    assert proc.returncode == 2


def test_milnor_on_cubic_exits_2(map_file):
    cubic = {"d": 3, "P": ["1", "0", "0", "0"], "Q": ["0", "0", "0", "1"]}
    proc = run_cli("milnor", "--map", map_file(cubic))
    assert proc.returncode == 2


def test_undecided_orbit_exits_3(map_file):
    proc = run_cli(
        "orbit", "--map", map_file(Z2_MINUS_1), "--point", "[2:1]", "--budget", "1"
    )
    assert proc.returncode == 3
    assert json.loads(proc.stdout)["status"] == "undecided"


#: a coefficient above the float range: the archimedean arithmetic cannot be certified
HUGE = {"d": 2, "P": ["1" + "0" * 320, "0", "1"], "Q": ["0", "0", "1"]}


def test_height_overflow_exits_3(map_file):
    proc = run_cli("height", "--map", map_file(HUGE), "--point", "[2:1]")
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


def test_escape_overflow_exits_3(map_file):
    proc = run_cli("escape", "--map", map_file(HUGE), "--place", "inf", "--z", "[2:1]")
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


#: 10^400 z^2 + 1: every |Res|/max|coeff|^4 of the h_res conjugator family
#: underflows to 0.0 as a float
HUGER = {"d": 2, "P": ["1" + "0" * 400, "0", "1"], "Q": ["0", "0", "1"]}


@pytest.mark.parametrize("argv", [["census", "--bound", "0.7"]], ids=" ".join)
def test_h_res_on_huge_coefficients_exits_3(map_file, argv):
    # h_res stays finite; the run stops later, at a float overflow
    command, *rest = argv
    proc = run_cli(command, "--map", map_file(HUGER), *rest, timeout=30)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1


def test_compare_on_huge_coefficients_takes_the_exact_log(map_file):
    # sigma2 = 4 * 10^800 is beyond the float range: its log+ comes from the
    # exact numerator and denominator, and equals milnor's moduli height
    path = map_file(HUGER)
    proc = run_cli("compare", "--map", path, timeout=30)
    milnor = run_cli("milnor", "--map", path, timeout=30)
    assert proc.returncode == 0 and milnor.returncode == 0
    (row,) = json.loads(proc.stdout)["rows"]
    assert row["local"][-1][0] == "inf"
    assert row["local"][-1][2] == 922.4203315587381
    assert row["local"][-1][2] == json.loads(milnor.stdout)["moduli_height"]["value"]


def test_preperiodic_on_huge_coefficients(map_file):
    # the preperiodic height bound is about 2,764: its exp overflows a float
    proc = run_cli("preperiodic", "--map", map_file(HUGER), "--bound", "0.7", timeout=30)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["points"] == ["[1:0]"]


def test_height_runs_many_iterations(map_file):
    # d^n (d - 1) is above the float range from n = 1024 on at d = 2
    path = map_file({"d": 2, "P": ["2", "0", "1"], "Q": ["0", "0", "2"]})
    many = run_cli("height", "--map", path, "--point", "[-3:2]", "--iters", "1100", timeout=30)
    few = run_cli("height", "--map", path, "--point", "[-3:2]", "--iters", "60", timeout=30)
    assert many.returncode == 0 and few.returncode == 0
    out_many, out_few = json.loads(many.stdout), json.loads(few.stdout)
    assert out_many["total"]["err"] <= out_few["total"]["err"]
    assert out_many["total"]["value"] == pytest.approx(out_few["total"]["value"], abs=1e-12)


#: calls (without --map) with a NaN or infinite float option: such a bound
#: once reached int(exp(bound)) (exit 1 or 3) or never ended the orbit loop,
#: and -inf or a NaN t-fraction reached stdout as non-JSON -Infinity or NaN
NON_FINITE_CALLS = [
    *(["census", f"--bound={v}"] for v in ("nan", "inf", "-inf")),
    *(["gap", f"--bound={v}"] for v in ("nan", "inf")),
    *(["preperiodic", f"--bound={v}"] for v in ("nan", "inf", "-inf")),
    *(["orbit", "--point", "[2:1]", f"--bound={v}"] for v in ("nan", "inf", "-inf")),
    ["census", "--bound=1.0", "--t-fraction=nan"],
]


@pytest.mark.parametrize("argv", NON_FINITE_CALLS, ids=" ".join)
def test_non_finite_float_option_exits_2(map_file, argv):
    command, *rest = argv
    proc = run_cli(command, "--map", map_file(Z2_MINUS_1), *rest, timeout=10)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "expected a finite number" in proc.stderr and "Traceback" not in proc.stderr


def test_escape_past_the_float_range_of_the_log_norm(map_file):
    # log||F^k(z)|| of z^2 - 1 at [40:1] passes the float range near step
    # 1,024; the per-step growth is still certified there
    proc = run_cli(
        "escape", "--map", map_file(Z2_MINUS_1), "--place", "inf", "--z", "[40:1]",
        "--steps", "1100", timeout=30,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["escapes"] is True


def test_escape_cli(map_file):
    proc = run_cli(
        "escape", "--map", map_file(THREE_Z2), "--place", "3", "--z", "[1/27:1]",
        "--delta", "0.5",
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["escapes"] is True


def test_padic_escape_on_a_rigid_cycle_is_read_off_the_table(map_file):
    # on z^2 + 1/2 the orbit of [1/64:1] stays over [1:0] at 2, a rigid disc
    # of step valuation 1 that the map fixes, so its 20,000 steps are read
    # off the residue table; a residue orbit mod 2^r would carry about
    # 20,000 digits through every step
    z2_plus_half = {"d": 2, "P": ["2", "0", "1"], "Q": ["0", "0", "2"]}
    start = time.perf_counter()
    proc = run_cli(
        "escape", "--map", map_file(z2_plus_half), "--place", "2", "--z", "[1/64:1]",
        "--delta", "0.5", "--steps", "20000", timeout=10,
    )
    wall = time.perf_counter() - start
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["escapes"] is True
    assert wall < 2.0, wall


THREE_Z4 ={"d": 4, "P": ["3", "0", "0", "0", "0"], "Q": ["0", "0", "0", "0", "1"]}


@pytest.mark.parametrize("steps", ["0", "-5"])
def test_escape_steps_below_one_exits_2(map_file, steps):
    proc = run_cli(
        "escape", "--map", map_file(THREE_Z2), "--place", "3", "--z", "[1/27:1]",
        "--steps", steps, timeout=10,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "n_steps must be >= 1" in proc.stderr and "Traceback" not in proc.stderr


# the exact iterates of these orbits have numerators of d^k digits: the
# escape test must read valuations off the residue orbit, not off them
@pytest.mark.parametrize(
    "obj, z, steps",
    [(THREE_Z4, "[1/27:1]", "10"), (THREE_Z2, "[1/243:1]", "200")],
    ids=["3z4-default-steps", "3z2-200-steps"],
)
def test_padic_escape_runs_many_steps(map_file, obj, z, steps):
    start = time.perf_counter()
    proc = run_cli(
        "escape", "--map", map_file(obj), "--place", "3", "--z", z, "--steps", steps,
        timeout=10,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["escapes"] is True
    assert elapsed < 2.0  # interpreter start included


def test_census_csv_writes_warnings_to_stderr(map_file):
    # z^2 + 1/6 counts 72 points here, above the 60-point energy-table cap
    proc = run_cli(
        "census", "--map", map_file(SIXTH), "--bound", "2.0", "--t-fraction", "30",
        "--format", "csv",
    )
    assert proc.returncode == 0
    warnings = [line for line in proc.stderr.splitlines() if line.startswith("warning: ")]
    assert warnings == ["warning: energy table truncated to the first 60 counted points"]


def test_preperiodic_scan_stops_at_the_proven_bound(map_file):
    # the box of height 12 holds about 3.2e10 points; no preperiodic point of
    # z^2 - 1 lies above height 1.0987
    path = map_file(Z2_MINUS_1)
    big = run_cli("preperiodic", "--map", path, "--bound", "12", timeout=10)
    small = run_cli("preperiodic", "--map", path, "--bound", "1.2", timeout=10)
    assert big.returncode == 0 and small.returncode == 0
    out_big, out_small = json.loads(big.stdout), json.loads(small.stdout)
    assert out_big["points"] == out_small["points"] == ["[-1:1]", "[0:1]", "[1:0]", "[1:1]"]
    assert out_big["search_bound"] == 12.0 and out_big["complete_global"] is True


def test_gap_cli(map_file):
    proc = run_cli("gap", "--map", map_file(MONOMIAL), "--bound", "1.1")
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["min_certified"] == pytest.approx(math.log(2), abs=1e-8)
    assert out["observational"] is True


def test_badplaces_cli(map_file):
    half = {"d": 2, "P": ["2", "0", "1"], "Q": ["0", "0", "2"]}
    proc = run_cli("badplaces", "--map", map_file(half))
    out = json.loads(proc.stdout)
    assert out["bad_primes"] == [[2, 2]] and out["s"] == 2


# Res = 3^2 * 8149259477: a full scan of the p + 1 tree neighbours at the
# large prime, or a list of its elementary moves, would take days
LARGE_PRIME_MAP = {"d": 2, "P": ["114", "213", "-513"], "Q": ["875", "-243", "-733"]}


def test_badplaces_on_a_large_resultant_prime(map_file):
    start = time.perf_counter()
    proc = run_cli("badplaces", "--map", map_file(LARGE_PRIME_MAP), timeout=10)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0
    assert elapsed < 2.0  # interpreter start included
    out = json.loads(proc.stdout)
    assert out["bad_primes"] == [[3, 2], [8149259477, 1]] and out["s"] == 3


def test_badplaces_descends_from_a_large_prime(map_file):
    # z^2 + 1 conjugated by z -> 1000003 z + 5 has ord 6 at 1000003 and
    # good reduction after the descent
    from dynheights import HomogeneousLift, MinResCertificate, Mobius, conjugate

    G = conjugate(HomogeneousLift.from_coeffs([1, 0, 1], [0, 0, 1]), Mobius(1000003, 5, 0, 1))
    wire = {
        "d": 2,
        "P": [str(c) for c in G.P.descending()],
        "Q": [str(c) for c in G.Q.descending()],
    }
    proc = run_cli("badplaces", "--map", map_file(wire), timeout=10)
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["bad_primes"] == [] and out["s"] == 1
    (cert,) = out["certificates"]
    assert (cert["p"], cert["ord_start"], cert["ord_min"]) == (1000003, 6, 0)
    rows = [int(e) for row in cert["conjugator"] for e in row]  # an integer matrix
    assert MinResCertificate(1000003, 6, 0, Mobius(*rows)).verify(G)


def test_census_on_a_large_resultant_prime(map_file):
    proc = run_cli("census", "--map", map_file(LARGE_PRIME_MAP), "--bound", "1.1", timeout=10)
    assert proc.returncode == 0


def test_compare_cli(map_file):
    proc = run_cli(
        "compare", "--map", map_file(MONOMIAL, "a.json"), "--map", map_file(Z2_MINUS_1, "b.json")
    )
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert len(out["rows"]) == 2 and out["observational"]


def test_energy_cli(map_file):
    proc = run_cli(
        "energy", "--map", map_file(MONOMIAL), "--points", "[2:1];[3:1]", "--place", "all"
    )
    out = json.loads(proc.stdout)
    assert out["ordered_sum"]["value"] == pytest.approx(2 * math.log(6), abs=1e-9)


def test_manifest_and_reproducibility(map_file, tmp_path):
    mpath = map_file(Z2_MINUS_1)
    man1 = tmp_path / "man1.json"
    man2 = tmp_path / "man2.json"
    args = ["census", "--map", mpath, "--bound", "1.4", "--t-fraction", "0.3"]
    p1 = run_cli("--manifest", str(man1), *args)
    p2 = run_cli("--manifest", str(man2), *args)
    assert p1.returncode == 0 and p2.returncode == 0
    assert p1.stdout == p2.stdout  # byte-identical across runs
    m1 = json.loads(man1.read_text())
    m2 = json.loads(man2.read_text())
    assert m1["output_digest"] == m2["output_digest"]
    assert m1["map_hash"] == m2["map_hash"]
    assert m1["tool_version"]


@pytest.mark.parametrize("where", ["missing", "directory", "not-utf8"])
def test_unreadable_map_file_exits_2(tmp_path, where):
    path = {"missing": tmp_path / "absent.json", "directory": tmp_path}.get(where)
    if path is None:
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xe3\x00\xff")
    proc = run_cli("resultant", "--map", str(path))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1


_Q_Z2 = '"Q": ["0", "0", "1"]'


@pytest.mark.parametrize(
    "text",
    [
        '{"d": 2, "P": "102", ' + _Q_Z2 + "}",  # a string is not an array
        '{"d": 2.5, "P": ["1", "0", "2"], ' + _Q_Z2 + "}",
        '{"d": 1e400, "P": ["1", "0", "2"], ' + _Q_Z2 + "}",
        '{"d": "2", "P": ["1", "0", "2"], ' + _Q_Z2 + "}",
        '{"d": 2, "P": ["1_0", "0", "2"], ' + _Q_Z2 + "}",
        '{"d": 2, "P": [" 2", "0", "2"], ' + _Q_Z2 + "}",
        '{"d": 2, "P": ["\\u0663", "0", "2"], ' + _Q_Z2 + "}",  # ARABIC-INDIC THREE
        '{"d": 2, "P": [1' + "0" * 5000 + ', 0, 2], ' + _Q_Z2 + "}",  # past int()'s limit
    ],
    ids=["P-string", "d-float", "d-inf", "d-string", "underscore", "space", "arabic-indic",
         "long-literal"],
)
def test_map_outside_the_wire_format_exits_2(tmp_path, text):
    path = tmp_path / "m.json"
    path.write_text(text, encoding="utf-8")
    proc = run_cli("resultant", "--map", str(path))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["height", "--point", "[\u0663:1]"],
        ["escape", "--place", "3", "--z", "[1/\u0662\u0667:1]", "--delta", "0.5"],
    ],
)
def test_point_with_non_ascii_digits_exits_2(map_file, argv):
    proc = run_cli(argv[0], "--map", map_file(THREE_Z2), *argv[1:])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1


def test_unwritable_plot_exits_2(map_file, tmp_path):
    svg = tmp_path / "no-such-dir" / "scatter.svg"
    proc = run_cli("census", "--map", map_file(MONOMIAL), "--bound", "1.0", "--plot", str(svg))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: cannot write {svg}: No such file or directory\n"


def test_unwritable_manifest_exits_2(map_file, tmp_path):
    man = tmp_path / "no-such-dir" / "man.json"
    proc = run_cli("--manifest", str(man), "resultant", "--map", map_file(MONOMIAL))
    assert proc.returncode == 2
    assert json.loads(proc.stdout) == {"res": "1"}  # written before the manifest
    assert proc.stderr.splitlines()[-1] == f"error: cannot write {man}: No such file or directory"
    assert "Traceback" not in proc.stderr


def test_plot_svg(map_file, tmp_path):
    svg = tmp_path / "scatter.svg"
    proc = run_cli(
        "census", "--map", map_file(MONOMIAL), "--bound", "1.0", "--plot", str(svg)
    )
    assert proc.returncode == 0
    content = svg.read_text()
    assert content.startswith("<svg") and "circle" in content


# ---------------------------------------------------------------------------
# Pinned stdout digests
# ---------------------------------------------------------------------------

SIXTH = {"d": 2, "P": ["6", "0", "1"], "Q": ["0", "0", "6"]}  # z^2 + 1/6, Res = 2^4 3^4
#: content 2 and a negative leading coefficient: Res of the forms as given is
#: 544, Res of the canonical lift is 34
NONCANON = {"d": 2, "P": ["-4", "0", "2"], "Q": ["0", "2", "6"]}

HALF = {"d": 2, "P": ["2", "0", "1"], "Q": ["0", "0", "2"]}  # z^2 + 1/2
CUBIC = {"d": 3, "P": ["1", "0", "0", "5"], "Q": ["0", "0", "0", "6"]}  # (z^3 + 5)/6, Res = 2^3 3^3
#: (label, map) of the Milnor-chart calls of the digest panel
MILNOR_MAPS = (
    ("z2pz", {"d": 2, "P": ["1", "1", "0"], "Q": ["0", "0", "1"]}),  # z^2 + z
    ("zpinv", {"d": 2, "P": ["1", "0", "1"], "Q": ["0", "1", "0"]}),  # z + 1/z
    ("huge", HUGER),
)

#: (label, map, prime) of the digest panel
DIGEST_MAPS = (("z2m1", Z2_MINUS_1, "2"), ("3z2", THREE_Z2, "3"), ("sixth", SIXTH, "3"))


def _digest_panel(map_file):
    """(label, argv) for every call of the pinned-digest panel."""
    paths = {label: map_file(obj, f"{label}.json") for label, obj, _ in DIGEST_MAPS}
    calls = []
    for label, _, prime in DIGEST_MAPS:
        m = ["--map", paths[label]]
        calls += [
            (f"{label}/resultant", ["resultant", *m]),
            (f"{label}/badplaces", ["badplaces", *m]),
            (f"{label}/minres", ["minres", *m, "--prime", prime]),
            (f"{label}/height", ["height", *m, "--point", "[-3:2]"]),
            (f"{label}/green-inf", ["green", *m, "--x", "[2:1]", "--y", "[-1:3]", "--place", "inf"]),
            (f"{label}/green-p", ["green", *m, "--x", "[2:1]", "--y", "[-1:3]", "--place", prime]),
            (f"{label}/energy", ["energy", *m, "--points", "[0:1];[1:1];[2:1];[-1:2];[1:0]",
                                 "--place", "all"]),
            (f"{label}/census", ["census", *m, "--bound", "1.4", "--t-fraction", "1.0"]),
            (f"{label}/census-csv", ["census", *m, "--bound", "1.4", "--t-fraction", "1.0",
                                     "--format", "csv"]),
            (f"{label}/gap", ["gap", *m, "--bound", "1.1"]),
            (f"{label}/milnor", ["milnor", *m]),
            (f"{label}/preperiodic", ["preperiodic", *m, "--bound", "1.4"]),
            (f"{label}/escape-inf", ["escape", *m, "--place", "inf", "--z", "[40:1]"]),
            (f"{label}/escape-3", ["escape", *m, "--place", "3", "--z", "[1/243:1]",
                                   "--steps", "12"]),
            (f"{label}/orbit", ["orbit", *m, "--point", "[1:2]"]),
        ]
    # a counted set above the energy-table cap: the truncation warning and a
    # capped energy table (z^2 - 1 has h_res = 0 and counts only its cycles)
    for label in ("z2m1", "sixth"):
        m = ["--map", paths[label]]
        cap = ["census", *m, "--bound", "2.0", "--t-fraction", "30"]
        calls += [
            (f"{label}/census-cap", cap),
            (f"{label}/census-cap-csv", [*cap, "--format", "csv"]),
        ]
    m = ["--map", map_file(THREE_Z4, "3z4.json")]
    calls += [
        ("3z4/escape-3", ["escape", *m, "--place", "3", "--z", "[1/27:1]", "--steps", "8"]),
        ("3z4/escape-inf", ["escape", *m, "--place", "inf", "--z", "[40:1]"]),
        ("3z4/height", ["height", *m, "--point", "[2:1]"]),
    ]
    # pairs that are not coprime integer pairs: rational at infinity, and at
    # 3 a non-coprime integer pair (below the radius: exit 2) and scaled ones
    rational = ["--place", "inf", "--z", "[81/2:1/3]"]
    calls += [
        ("z2m1/escape-inf-rational", ["escape", "--map", paths["z2m1"], *rational]),
        ("3z4/escape-inf-rational", ["escape", *m, *rational]),
        ("3z2/escape-3-noncoprime", ["escape", "--map", paths["3z2"], "--place", "3",
                                     "--z", "[18:6]"]),
        ("3z2/escape-3-scaled", ["escape", "--map", paths["3z2"], "--place", "3",
                                 "--z", "[2/243:4]", "--steps", "12"]),
        ("3z4/escape-3-scaled", ["escape", *m, "--place", "3", "--z", "[10/27:5/9]",
                                 "--steps", "8"]),
    ]
    m = ["--map", map_file(NONCANON, "noncanon.json")]
    calls += [
        ("noncanon/resultant", ["resultant", *m]),
        ("noncanon/badplaces", ["badplaces", *m]),
        ("noncanon/height", ["height", *m, "--point", "[-3:2]"]),
        ("noncanon/census", ["census", *m, "--bound", "1.4", "--t-fraction", "1.0"]),
    ]
    calls.append(("compare", ["compare", *(a for label in paths for a in ("--map", paths[label]))]))
    # the Milnor chart: z^2 + z needs s = 1 (0 is fixed), z + 1/z fixes
    # infinity three times, and the 400-digit map has sigma2 = 4 * 10^800
    extra = {label: map_file(obj, f"{label}.json") for label, obj in MILNOR_MAPS}
    calls += [(f"{label}/milnor", ["milnor", "--map", extra[label]]) for label in extra]
    calls += [
        ("z2pz/census", ["census", "--map", extra["z2pz"], "--bound", "1.1",
                         "--t-fraction", "1.0"]),
        ("compare-parabolic", ["compare", "--map", extra["z2pz"], "--map", extra["zpinv"],
                               "--map", map_file(HALF, "half.json")]),
    ]
    # maps whose h_res maximum is not at the identity member of the family
    for label, obj in (("3z4", THREE_Z4), ("cubic", CUBIC)):
        m = ["--map", map_file(obj, f"{label}.json")]
        calls += [
            (f"{label}/census", ["census", *m, "--bound", "1.4", "--t-fraction", "1.0"]),
            (f"{label}/gap", ["gap", *m, "--bound", "1.1"]),
        ]
    return calls


def _main_in_process(argv):
    """(exit code, stdout, stderr) of cli.main in this interpreter."""
    from dynheights import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _run_in_process(argv):
    code, out, _ = _main_in_process(argv)
    return code, hashlib.sha256(out.encode()).hexdigest()


#: exit code and sha256 of stdout per panel call; the first 37 were recorded
#: before the per-map invariants were cached on the lift and conjugation
#: moved to integers, the next 13 (escape, orbit, the non-canonical map) before
#: every lift was made canonical on construction, the census-cap ones before
#: the census became a single scan, the 3z4 ones before the escape test moved
#: onto the local-height orbits, the next five before the Milnor cubic came
#: from one resultant in the multiplier variable, the last five (escapes of
#: pairs that are not coprime integer pairs) before the orbit kernels took
#: coprime integer pairs only.  The ten energy and census JSON digests (not
#: the CSV ones) were re-recorded when the energy table became one
#: closed-form sum per place with a per_place split.  The four 3z4 and cubic
#: census and gap digests, whose h_res maximum is not at the identity, were
#: recorded before the archimedean scan skipped members by their
#: extreme-coefficient bound
PINNED_DIGESTS = {
    "z2m1/resultant": (0, "811ec1753d4fb38ff572ecc90df1450a943644c18eb94ea49321e0a028114f25"),
    "z2m1/badplaces": (0, "fe216fd668d598b136827f8cc6d34f21e18ad4489ec0a61ff9b9153f80307b3f"),
    "z2m1/minres": (0, "468debc4114847885b04c4b87d16aeef2b16ee4aedc0ba0f76fd91fc0af49581"),
    "z2m1/height": (0, "2eb2fdd0a5dfb37f7f66d9129c3f491c83c405e51df540eff1c235fbb039fe67"),
    "z2m1/green-inf": (0, "2eca084d02f8eaec730649efc075969c9d404f52cc597be95303e9fbd5e26f64"),
    "z2m1/green-p": (0, "dd0aa7acb1127ae07b1f8bdfae8408815e521c8e229136b0720db306aa359b33"),
    "z2m1/energy": (0, "87930127b3c3195bd3eefd53004996f403dce93dc098c6d2c7cd1488d7333e7a"),
    "z2m1/census": (0, "22004328c6375345fd12195e87c6ee6f153c30913cbff253147044a111ec5e4a"),
    "z2m1/census-csv": (0, "8141bcf6faac05e8957d0536bf07ca8555d3cb8900b8c57f92e7df8eb4c34443"),
    "z2m1/gap": (0, "145f6407246e01ce100b4e62bde2201d636504810e1fc0f5611fc02e2b985927"),
    "z2m1/milnor": (0, "7515223018190ffffe0a50bf125b631c5e9be5529f0c01374a846a09277b785c"),
    "z2m1/preperiodic": (0, "58f09baf352fd3adab3ae3b460f8b239ea63ffd35cc5892395a3273a85758369"),
    "3z2/resultant": (0, "cb480eae2c102d40ace07f99b2c17c688e803261bc32cc5111bf4d1df3ff6c91"),
    "3z2/badplaces": (0, "605191f1cd61282b2e6bc5b889aa1b7a975189acd03e759d8b643c9f42f89045"),
    "3z2/minres": (0, "986df486e6507ab94ab46faabfd2d00cb7af08996dcb7f04c9c18f52d81423e8"),
    "3z2/height": (0, "2ba3798aaebb681916379f0a7880a2ec7441ac60462d313177541fcd315e5156"),
    "3z2/green-inf": (0, "73e5342774867f51a05802b6e2c73fb8de449b89cb6241a270756834d499b842"),
    "3z2/green-p": (0, "c65c5d00f52a557af4d632d15af2586ce71bc309e96d3e2890fddb1cba7b8897"),
    "3z2/energy": (0, "6c4a38d703b92c8144770ddbaadb103658a625c0eecdd2a2e7d79d82c8cc6901"),
    "3z2/census": (0, "470a7117b00378e806d81ae5e86d9b540d23b31c63962a9b51e17f5e12c98e77"),
    "3z2/census-csv": (0, "69d8e3c3840e3331009a4ee76317fbcd29777dcbc871b876b27b949ed9a944f4"),
    "3z2/gap": (0, "883185b5d83599a0a7c824cb4e693872585bdb95b45877bcb3899840eb0a94dd"),
    "3z2/milnor": (0, "d4fdf3c954ff617eefc0b5b53164b1cbbcbd25aaaf6ad141c081331ad17fc4ee"),
    "3z2/preperiodic": (0, "8920c65c4d4aea283d3959405c3e6bfcdb9edc7ed216560ad09acdfba5c01450"),
    "sixth/resultant": (0, "8906778494768265907b51c0fe61c3b87d1cc49cfab55aa0d418eac53e9479ce"),
    "sixth/badplaces": (0, "a1ffc1bcd4bb7089e1610a5301034fee31e89693bea5dd3e912fb6b295317418"),
    "sixth/minres": (0, "35a495522c989687c80f4d010a499c0dc9bb516fe2cf077b4c8a43ce84cdbb41"),
    "sixth/height": (0, "34c6f5ed20bca47190310607f97dcf928b3344b1d30296ea8f11fe19fed7bf51"),
    "sixth/green-inf": (0, "47d78e57734a1ec9c0276ab35c9530db0e24e3cb7db082601674c8d05afd6e66"),
    "sixth/green-p": (0, "502dad89d0302917649e6ddadfbb3a96c34ad50e18244e9e795845e120668a5d"),
    "sixth/energy": (0, "a36828419f3aff62ee0261500e85a8345e349ecdaf17dedcfd1af2a4c3d9405a"),
    "sixth/census": (0, "b7b0089f5f4e7104b527a9cb2b8dc52acff302115f25dcedd7862b700c2b1d7f"),
    "sixth/census-csv": (0, "4a130bbee5e1c5863fb68e92961bf9df288f6e06073169cc91ac6cd899e9a8e0"),
    "sixth/gap": (0, "2b1702d9755996744cba606a16ab5e1bbf54f3b5361ab5fadcf6693cfc9271fb"),
    "sixth/milnor": (0, "4f4286e83879747a973c6189eb34880d1023954e9f40ab7bcfe953ebe35a8ee6"),
    "sixth/preperiodic": (0, "c3c69c0c9a9e08ac6bc4c44c4f8c29b8d1f8ce2302ba65528a84e7c7404eab01"),
    "compare": (0, "b9c80312d522868967c207bc5d7c3a4cc7dcb9918c17e3b82ba2b14eff47ef0d"),
    "z2m1/escape-inf": (0, "fcc61e45ee7024aec8c3532777db06d786b1fcfa335a382d88eaa4fe4988322a"),
    "z2m1/escape-3": (0, "d60c68833589d71b1435d05f119c216ee8630ded43745c838c7680ad02611bef"),
    "z2m1/orbit": (0, "ac73ff33cc1649d610496a90d701fd85d2c3c4b4d940a89de237cf347cb98744"),
    "3z2/escape-inf": (0, "fcc61e45ee7024aec8c3532777db06d786b1fcfa335a382d88eaa4fe4988322a"),
    "3z2/escape-3": (0, "537e8582f3c2fa20d107fe32d4eb63be956fc7f6235e826a852408316ca3bb99"),
    "3z2/orbit": (0, "6286b5fe7c2499127d4b95f27010b8e283d1e1d7064f98f8a39ef7a7e28d6a58"),
    "sixth/escape-inf": (0, "a81d6b6b11a641c1a21d01cde40186f106cdd671383c3f0c9187cbf12fc39346"),
    "sixth/escape-3": (0, "4adb145d73014152002a6fd543a1ae8723348f5eac76b3e0a5061ec56e4657d7"),
    "sixth/orbit": (0, "c42f787cfbb5d444e8d34dce2aaf294af8b00d494a729565a6f14968c5313db6"),
    "noncanon/resultant": (0, "36b358adcd86300d1431ed4f544a10273f18e91b282b97b4612371ca3afa0aea"),
    "noncanon/badplaces": (0, "68b2c959d13af94e26d3efa4eb9086915876531064abd6bdbbf9404e7788deea"),
    "noncanon/height": (0, "b34ec14f5dfef37c45bad2d66da777aa79d45767f69059e4cc9c7e730b552082"),
    "noncanon/census": (0, "12f2edafb7d530c4c25ce1bd47b11d16b114f8cb3a47811196a2cda965d8337a"),
    "z2m1/census-cap": (0, "7e331a750e43005b45e3673929c71bc62e928ec861eec3e0175e709d253e5cf8"),
    "z2m1/census-cap-csv": (0, "8141bcf6faac05e8957d0536bf07ca8555d3cb8900b8c57f92e7df8eb4c34443"),
    "sixth/census-cap": (0, "909a7cc56c0b85bda4773c78acbe154af1c9d6649d364bf03f3aca47a4252729"),
    "sixth/census-cap-csv": (0, "ca2d22cae547e7fef156253d41054e0c5740d1b739776dbc21bfa0cb292ea6ba"),
    "3z4/escape-3": (0, "a717bc401e3bc59ea97dfee55817908575888053626df857a1e325326fa9e16e"),
    "3z4/escape-inf": (0, "8a2d7f62909e4f0f97a1d206694bec874cb44e437cfe4a4ba148af7a5dbf218d"),
    "3z4/height": (0, "c97919882ba22f5e4e84731fc03a6f80475efd885a9853af7cffe26d115b809d"),
    "z2pz/milnor": (0, "1324aaac24e66c7b6555569a81e94b6a3568b7005daa871d2a7710e2445d8dfc"),
    "zpinv/milnor": (0, "265ed221780a1c486d476959c79fe7c1bd0395ecb412f381fcc07e2bf949c571"),
    "huge/milnor": (0, "7ff5b013fcb2f2442456cdb1634f368e5d25e963c3f557345285acdf083e6fa8"),
    "z2pz/census": (0, "4d3a454e9b2db169f4687deb05b3e372e38dbecbdf089088dde34b84936bef66"),
    "compare-parabolic": (0, "407c8500b7a5692e2b68480a659faaec0d273362a9591469e12dae31fc767e54"),
    "z2m1/escape-inf-rational": (0, "fcc61e45ee7024aec8c3532777db06d786b1fcfa335a382d88eaa4fe4988322a"),
    "3z4/escape-inf-rational": (0, "8a2d7f62909e4f0f97a1d206694bec874cb44e437cfe4a4ba148af7a5dbf218d"),
    "3z2/escape-3-noncoprime": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "3z2/escape-3-scaled": (0, "537e8582f3c2fa20d107fe32d4eb63be956fc7f6235e826a852408316ca3bb99"),
    "3z4/escape-3-scaled": (0, "a717bc401e3bc59ea97dfee55817908575888053626df857a1e325326fa9e16e"),
    "3z4/census": (0, "5173a27f82f02a64cf50df3c5033c832699d4cf19213fc36b574caf007a2f9f2"),
    "3z4/gap": (0, "4c5c43a426914f5bf489ce173467f20f06d1821f20e6c2096ab5993c4f4c5059"),
    "cubic/census": (0, "e0f731c7765cbcb328d33d72ad1895ed43e96294790ee4fa470ab29eaf848a27"),
    "cubic/gap": (0, "ffc742ec8538c2264d620e2dd1d9d0d17c291117e60ea8501a500284720d8fef"),
}


def test_stdout_digests_pinned(map_file):
    got = {label: _run_in_process(argv) for label, argv in _digest_panel(map_file)}
    assert got == PINNED_DIGESTS


def test_main_reuses_one_parser_without_leaking_options(map_file):
    from dynheights import cli

    panel = dict(_digest_panel(map_file))
    # each call follows one whose options differ: --format csv, three and
    # then three other --map files, --steps 12, an explicit --bound
    order = [
        "sixth/census-csv", "sixth/census", "compare", "compare-parabolic", "z2m1/energy",
        "sixth/escape-3", "sixth/escape-inf", "z2m1/orbit", "3z2/census", "3z2/census-csv",
    ]
    for label in order:
        assert _run_in_process(panel[label]) == PINNED_DIGESTS[label], label
    assert cli._build_parser() is cli._build_parser()
    path = map_file(Z2_MINUS_1)
    _, out, err = _main_in_process(["orbit", "--map", path, "--point", "[1:2]", "--bound", "0.5"])
    assert json.loads(out)["height_bound"] == 0.5
    _, out, err = _main_in_process(["orbit", "--map", path, "--point", "[1:2]"])
    (line,) = [ln for ln in err.splitlines() if ln.startswith("manifest: ")]
    assert json.loads(line[len("manifest: "):])["budgets"] == {"budget": 10_000, "bound": None}
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_DIGESTS["z2m1/orbit"][1]


@pytest.mark.parametrize(
    "argv",
    [["green", "--x", "[2:1]", "--y", "[3:1]"], ["energy", "--points", "[2:1];[3:1]"]],
)
def test_iters_below_one_exit_2_at_a_good_prime(map_file, argv):
    # 5 divides neither Res(z^2 - 1) = 1 nor the wedge, so no local height
    # runs there; --iters 0 is refused all the same, as at infinity
    cmd, *rest = argv
    code, out, err = _main_in_process(
        [cmd, "--map", map_file(Z2_MINUS_1), *rest, "--place", "5", "--iters", "0"]
    )
    assert (code, out) == (2, "")
    assert "error: n_iter must be >= 1" in err


def test_census_manifest_counts_the_energy_table(map_file):
    argv = ["census", "--map", map_file(SIXTH), "--bound", "2.0", "--t-fraction", "30"]
    code, out, err = _main_in_process(argv)
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert (code, digest) == PINNED_DIGESTS["sixth/census-cap"]
    for key in ("stats", "energy_pairs", "arch_family", "arch_conjugated"):
        assert key not in out
    (line,) = [ln for ln in err.splitlines() if ln.startswith("manifest: ")]
    manifest = json.loads(line[len("manifest: "):])
    assert manifest["output_digest"] == digest
    energy = json.loads(out)["energy"]
    assert energy["n_points"] == 60  # the energy-table cap
    # one sum per place: infinity, the primes of Res = 2^4 3^4, the good places
    assert [label for label, _ in energy["per_place"]] == ["inf", "2", "3", "good_places"]
    # the h_res family at the primes {2, 3} stays below the cap; 4 of its 272
    # members can beat the running maximum and are conjugated in full
    assert manifest["stats"] == {
        "arch_family": 272,
        "arch_conjugated": 4,
        "energy_pairs": 60 * 59 // 2,
        "energy_terms": 4,
    }


def test_badplaces_manifest_counts_the_descent(map_file):
    code, out, err = _main_in_process(["badplaces", "--map", map_file(THREE_Z2)])
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert (code, digest) == PINNED_DIGESTS["3z2/badplaces"]
    for key in ("stats", "descent_steps", "ord_res_evals"):
        assert key not in out
    (line,) = [ln for ln in err.splitlines() if ln.startswith("manifest: ")]
    manifest = json.loads(line[len("manifest: "):])
    assert manifest["output_digest"] == digest
    # one hole at 3 (both x^2 coefficients vanish), one move z -> 3z to z^2
    assert manifest["stats"] == {"descent_steps": 1, "ord_res_evals": 1}


#: wire-format maps with 1,501- and 2,501-digit entries: the resultant of the
#: cubic has 9,000 digits and the Milnor sigmas of the quadratic 14,703 to
#: 19,602 characters, all past Python's default 4,300-digit int-to-str limit
BIG_CUBIC = {"d": 3, "P": ["1" + "0" * 1500, "0", "0", "1"], "Q": ["0", "0", "3", "1" + "0" * 1500]}
BIG_QUADRATIC = {"d": 2, "P": ["1" + "0" * 2500, "7", "1"], "Q": ["3", "0", "1" + "0" * 2400]}


@pytest.mark.parametrize("command", ["resultant", "milnor"])
def test_integers_past_the_str_digit_limit_print_in_full(map_file, command):
    from dynheights.formats import load_forms

    obj = BIG_CUBIC if command == "resultant" else BIG_QUADRATIC
    path = map_file(obj)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)
    before = limit()
    code, out, err = _main_in_process([command, "--map", path])
    assert code == 0, err
    assert limit() == before  # main runs in-process under the benchmark too
    P, Q = load_forms(path)
    if command == "resultant":
        expected = {"res": sylvester_resultant(P, Q)}
    else:
        inv = milnor_invariants(HomogeneousLift(P, Q))
        expected = {"sigma1": inv.sigma1, "sigma2": inv.sigma2, "sigma3": inv.sigma3}
    if before:
        sys.set_int_max_str_digits(0)
    try:
        got = json.loads(out)
        assert max(len(str(v)) for v in expected.values()) > 4300
        assert {k: got[k] for k in expected} == {k: str(v) for k, v in expected.items()}
    finally:
        if before:
            sys.set_int_max_str_digits(before)
