import contextlib
import hashlib
import io
import json
import math
import subprocess
import sys

import pytest

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


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "dynheights", *args],
        capture_output=True,
        text=True,
        timeout=240,
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


def test_escape_cli(map_file):
    proc = run_cli(
        "escape", "--map", map_file(THREE_Z2), "--place", "3", "--z", "[1/27:1]",
        "--delta", "0.5",
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["escapes"] is True


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
        ]
    calls.append(("compare", ["compare", *(a for label in paths for a in ("--map", paths[label]))]))
    return calls


def _run_in_process(argv):
    from dynheights import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


#: exit code and sha256 of stdout per panel call, recorded before the
#: per-map invariants were cached on the lift and conjugation moved to integers
PINNED_DIGESTS = {
    "z2m1/resultant": (0, "811ec1753d4fb38ff572ecc90df1450a943644c18eb94ea49321e0a028114f25"),
    "z2m1/badplaces": (0, "fe216fd668d598b136827f8cc6d34f21e18ad4489ec0a61ff9b9153f80307b3f"),
    "z2m1/minres": (0, "468debc4114847885b04c4b87d16aeef2b16ee4aedc0ba0f76fd91fc0af49581"),
    "z2m1/height": (0, "2eb2fdd0a5dfb37f7f66d9129c3f491c83c405e51df540eff1c235fbb039fe67"),
    "z2m1/green-inf": (0, "2eca084d02f8eaec730649efc075969c9d404f52cc597be95303e9fbd5e26f64"),
    "z2m1/green-p": (0, "dd0aa7acb1127ae07b1f8bdfae8408815e521c8e229136b0720db306aa359b33"),
    "z2m1/energy": (0, "be62dc2628a8e2662482f92dc26295d39b469047bc6a1fca919d4eb63e8b7688"),
    "z2m1/census": (0, "112f8f77804fa883ef757c0b189bfcda8c92b2df2c51cd5dffd8a07752cab170"),
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
    "3z2/energy": (0, "9429e0b39d87cffe2f9dfca84eee811e6ddb56c10df298f2088d03226fba6f2a"),
    "3z2/census": (0, "75f80945ce6a0f0cec1ee201878d9b6b35c8017d4014f2c22aab93bddf447973"),
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
    "sixth/energy": (0, "9301588a4794c0b3a456bf49957410b41112cea45993ae4d339ba25f78206e9a"),
    "sixth/census": (0, "be68f8ca8a0ece8ada839232bb21f4e952a3364c313000c44497534121c793dd"),
    "sixth/census-csv": (0, "4a130bbee5e1c5863fb68e92961bf9df288f6e06073169cc91ac6cd899e9a8e0"),
    "sixth/gap": (0, "2b1702d9755996744cba606a16ab5e1bbf54f3b5361ab5fadcf6693cfc9271fb"),
    "sixth/milnor": (0, "4f4286e83879747a973c6189eb34880d1023954e9f40ab7bcfe953ebe35a8ee6"),
    "sixth/preperiodic": (0, "c3c69c0c9a9e08ac6bc4c44c4f8c29b8d1f8ce2302ba65528a84e7c7404eab01"),
    "compare": (0, "b9c80312d522868967c207bc5d7c3a4cc7dcb9918c17e3b82ba2b14eff47ef0d"),
}


def test_stdout_digests_pinned(map_file):
    got = {label: _run_in_process(argv) for label, argv in _digest_panel(map_file)}
    assert got == PINNED_DIGESTS
