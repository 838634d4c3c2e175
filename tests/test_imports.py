"""The package runs on the standard library alone, and exports what its users call.

The public names are pinned to a declared list.  Each other check starts a
fresh interpreter.  One imports ``dynheights.cli`` and lists every module the
import added.  One imports it, then runs ``canonical_height``, ``bad_places``,
``green_pairing`` and ``verify_escape`` on maps with bad primes, and checks
that none of ``hashlib`` (which maps OpenSSL), ``datetime`` and ``csv`` was
loaded: the CLI loads those on first use.  One imports the benchmark's
``checks``, which reads two names of the package.  The others block sympy
(``sys.modules["sympy"] = None`` makes any import of it raise ImportError)
and then run the pinned-digest panel of the CLI tests and one round of
each benchmark workload: every resultant there factors by trial division,
every prime is decided by the table or by Miller-Rabin, and no operation
may reach the lazy sympy fallback.
"""

import json
import subprocess
import sys
from pathlib import Path

from test_cli import PINNED_DIGESTS, _digest_panel, map_file  # noqa: F401 (fixture)

BENCH = Path(__file__).resolve().parent.parent / "bench"

_BLOCK_SYMPY = 'import sys\nsys.modules["sympy"] = None\n'


def _run(script: str, stdin: str = "", timeout: float = 240) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", script], input=stdin, capture_output=True, text=True,
        timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_importing_the_cli_loads_only_the_package_and_the_standard_library():
    added = _run(
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import dynheights.cli\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    assert "dynheights.cli" in added
    foreign = [
        m for m in added
        if m != "dynheights" and not m.startswith("dynheights.")
        and m.split(".")[0] not in sys.stdlib_module_names
    ]
    assert foreign == []


#: loaded on first use only (a digest, the CLI manifest, CSV output); hashlib maps libcrypto
CLI_ONLY_MODULES = ["_hashlib", "csv", "datetime", "hashlib"]


def test_the_library_path_loads_no_cli_only_module(tmp_path):
    # z^2 + 1/6 (Res = 2^4 3^4) and a cubic with Res = -1003 = -17 59
    maps = {"sixth": {"d": 2, "P": ["6", "0", "1"], "Q": ["0", "0", "6"]},
            "cubic": {"d": 3, "P": ["7", "-7", "-8", "5"], "Q": ["5", "-2", "-8", "1"]}}
    for name, obj in maps.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
    added = _run(
        "import json, sys\n"
        "from fractions import Fraction\n"
        "before = set(sys.modules)\n"
        "import dynheights.cli\n"
        "from dynheights import Place, bad_places, canonical_height, green_pairing, verify_escape\n"
        "from dynheights.formats import load_map, parse_point\n"
        f"for name in {sorted(maps)!r}:\n"
        f"    F = load_map({str(tmp_path)!r} + '/' + name + '.json')\n"
        "    x, y = parse_point('[3:7]'), parse_point('[-5:2]')\n"
        "    report = bad_places(F)\n"
        "    assert report.s == 3, report\n"
        "    assert canonical_height(F, x, 30).per_place\n"
        "    for v in [Place.archimedean()] + [Place.finite(p) for p in F.resultant_primes]:\n"
        "        green_pairing(F, x, y, v, 30)\n"
        "    verify_escape(F, Place.archimedean(), (Fraction(10**9), 1), 5, 0.1)\n"
        "    verify_escape(F, Place.finite(2), (Fraction(1, 2**20), 1), 5, 0.1)\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    assert "dynheights.cli" in added
    assert [m for m in CLI_ONLY_MODULES if m in added] == []


PUBLIC_NAMES = [
    "BadReductionReport", "BinaryForm", "CensusReport", "CertifiedValue",
    "ComparisonTable", "DEFAULT_ITERS", "DegenerateMapError", "DiagonalPairingError",
    "DuplicatePointsError", "DynheightsError", "EnergyReport", "EscapePreconditionError",
    "EscapeRadius", "GapProbe", "HeightBreakdown", "HomogeneousLift", "InputError",
    "MilnorInvariants", "MinResCertificate", "Mobius", "OracleRadiusError", "OrbitRecord",
    "Place", "ProjPoint", "ResultantHeight", "StepErrorConstant", "UnsupportedDegreeError",
    "apply_map", "bad_places", "canonical_height", "comparison_scatter", "conjugate",
    "energy_sum", "enumerate_points", "escape_radius", "green_pairing", "h_res",
    "height_gap_constant", "height_gap_probe", "hom_local_height", "milnor_invariants",
    "minimal_resultant_oracle", "minimal_resultant_ord", "orbit", "ord_res_at",
    "preperiodic_height_bound", "preperiodic_points", "small_height_census",
    "step_error_constants", "sylvester_resultant", "verify_escape", "weil_height",
]


def test_public_names_are_the_declared_list():
    import dynheights

    assert sorted(dynheights.__all__) == PUBLIC_NAMES
    assert all(hasattr(dynheights, name) for name in PUBLIC_NAMES)


def test_bench_checks_import():
    # checks.py reads minimal_resultant_oracle and height_gap_constant
    got = _run(
        "import json, sys\n"
        f"sys.path.insert(0, {str(BENCH)!r})\n"
        "import checks\n"
        "print(json.dumps([checks.minimal_resultant_oracle.__name__,"
        " checks.height_gap_constant.__name__]))\n"
    )
    assert got == ["minimal_resultant_oracle", "height_gap_constant"]


def test_digest_panel_runs_without_sympy(map_file):
    panel = _digest_panel(map_file)
    got = _run(
        _BLOCK_SYMPY
        + "import contextlib, hashlib, io, json\n"
        "from dynheights import cli\n"
        "got = {}\n"
        "for label, argv in json.load(sys.stdin):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):\n"
        "        code = cli.main(argv)\n"
        "    got[label] = [code, hashlib.sha256(out.getvalue().encode()).hexdigest()]\n"
        "print(json.dumps(got))\n",
        stdin=json.dumps(panel),
    )
    assert {label: tuple(v) for label, v in got.items()} == PINNED_DIGESTS


def test_benchmark_rounds_run_without_sympy(tmp_path):
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    rounds = {}
    for workload in ("badplaces", "heights", "census"):
        out = tmp_path / workload
        workloads.generate(workload, 401, 1, str(out))
        rounds[workload] = str(out / "r00")
    got = _run(
        _BLOCK_SYMPY
        + "import json\n"
        f"sys.path.insert(0, {str(BENCH)!r})\n"
        "import worker\n"
        "got = {}\n"
        "for workload, rdir in json.load(sys.stdin).items():\n"
        "    results = worker.run_round(workload, worker.load_round(workload, rdir))\n"
        "    got[workload] = len(results)\n"
        "    if workload == 'census':\n"
        "        got['census exit codes'] = [code for code, _ in results]\n"
        "print(json.dumps(got))\n",
        stdin=json.dumps(rounds),
    )
    assert got == {"badplaces": 12, "heights": 840, "census": 4, "census exit codes": [0] * 4}
