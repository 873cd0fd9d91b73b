"""Command line behavior: parsing, emission formats, exit codes."""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import rfho
from rfho.cli import MAX_POINTS, _grid, _write_grid, main
from rfho.spectral import Grid


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def rows(csv_text):
    lines = csv_text.strip().splitlines()
    header = lines[0].split(",")
    parsed = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, parsed


class TestHermite:
    def test_json_table(self, capsys):
        code, out = run(capsys, "hermite", "--n", "2")
        assert code == 0
        members = json.loads(out)
        assert [m["n"] for m in members] == [0, 1, 2]
        assert len(members[2]["terms"]) == 2
        assert members[0]["terms"][0]["coeff"] == ["1"]

    def test_fixed_index_table(self, capsys):
        code, out = run(capsys, "hermite", "--n", "4", "--alpha", "3/2")
        assert code == 0
        members = json.loads(out)
        exps = {t["exponent"] for t in members[4]["terms"]}
        assert exps == {"3", "5/4", "-1/2", "-9/4"}

    def test_csv_table(self, capsys):
        code, out = run(capsys, "hermite", "--n", "1", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "n,coeff,sgn,j,m"

    def test_help_describes_out(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["hermite", "--help"])
        assert exc.value.code == 0
        assert "write output to this path" in capsys.readouterr().out

    def test_n_cap(self, capsys):
        code, _ = run(capsys, "hermite", "--n", "21")
        assert code == 2

    def test_bad_rational_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["hermite", "--n", "2", "--alpha", "fast"])
        assert exc.value.code == 2


class TestState:
    def test_ground_sample(self, capsys):
        code, out = run(capsys, "state", "--n", "0", "--alpha", "1", "--grid", "-1:1:3")
        assert code == 0
        header, data = rows(out)
        assert header == ["k", "re", "im"]
        assert len(data) == 3
        k1 = data[2]
        assert k1[0] == 1.0
        assert k1[1] == pytest.approx(math.exp(-2 / 3), abs=1e-15)
        assert k1[2] == 0.0

    def test_odd_member_zero_real_column(self, capsys):
        code, out = run(capsys, "state", "--n", "1", "--alpha", "2", "--grid", "0:1:2")
        assert code == 0
        lines = out.strip().splitlines()[1:]
        assert all(line.split(",")[1] == "0" for line in lines)
        last = lines[-1].split(",")
        assert float(last[2]) == pytest.approx(2 * math.exp(-0.5), abs=1e-15)

    def test_underflowed_ground_writes_no_negative_zero(self, capsys):
        # the negative amplitude times phi0 = 0 would be -0
        code, out = run(capsys, "state", "--n", "1", "--alpha", "1", "--grid=-1e200:1e200:3")
        assert code == 0
        assert out.splitlines()[1] == "-9.9999999999999997e+199,0,0"
        assert "-0\n" not in out and "-0," not in out
        code, out = run(capsys, "state", "--n", "2", "--alpha", "2", "--grid=-50:50:3",
                        "--format", "json")
        assert code == 0
        assert json.loads(out)["re"] == [0.0, 2.0, 0.0]
        assert "-0.0" not in out

    def test_singular_origin_row_omitted(self, capsys):
        code, out = run(capsys, "state", "--n", "2", "--alpha", "1", "--grid", "-1:1:5")
        assert code == 0
        _, data = rows(out)
        assert len(data) == 4
        assert all(r[0] != 0.0 for r in data)

    def test_x_space_gaussian(self, capsys):
        code, out = run(capsys, "state", "--n", "0", "--alpha", "2",
                        "--space", "x", "--grid", "0:1:2")
        assert code == 0
        _, data = rows(out)
        assert data[0][1] == pytest.approx(math.sqrt(2 * math.pi), rel=1e-12)

    def test_divergent_transform_fails_cleanly(self, capsys):
        code = main(["state", "--n", "4", "--alpha", "1", "--space", "x",
                     "--grid", "0:1:2"])
        err = capsys.readouterr().err
        assert code == 1
        assert "integrable" in err

    def test_bad_grid_exits_2(self):
        for bad in ("5:1:10", "0:1:1", "0:1", "a:b:c"):
            with pytest.raises(SystemExit) as exc:
                main(["state", "--n", "0", "--alpha", "1", "--grid", bad])
            assert exc.value.code == 2


class TestEigenvalue:
    def test_classical_plateau(self, capsys):
        code, out = run(capsys, "eigenvalue", "--n", "0", "--alpha", "2",
                        "--grid", "-2:2:5")
        assert code == 0
        _, data = rows(out)
        assert all(r[1] == pytest.approx(0.5) and r[2] == 0.0 for r in data)

    def test_quarter_at_k4(self, capsys):
        code, out = run(capsys, "eigenvalue", "--n", "0", "--alpha", "1",
                        "--grid", "4:5:2")
        assert code == 0
        _, data = rows(out)
        assert data[0][1] == pytest.approx(0.25)

    def test_skewed_value(self, capsys):
        code, out = run(capsys, "eigenvalue", "--n", "0", "--alpha", "1",
                        "--theta", "1", "--grid", "1:2:2")
        assert code == 0
        _, data = rows(out)
        assert data[0][1] == pytest.approx(-0.5, abs=1e-14)
        assert data[0][2] == pytest.approx(1.0, abs=1e-14)

    def test_pole_rows_omitted(self, capsys):
        code, out = run(capsys, "eigenvalue", "--n", "1", "--alpha", "2",
                        "--grid", "-1:1:3")
        assert code == 0
        _, data = rows(out)
        assert [r[0] for r in data] == [-1.0, 1.0]

    def test_large_k_limit(self, capsys):
        # lam_n(k) -> (n + 1/2)|k|^(a/2 - 1): 2.5 * (1e155)^(-1/4) at n = 2, a = 3/2
        code, out = run(capsys, "eigenvalue", "--n", "2", "--alpha", "3/2",
                        "--grid=1e155:2e155:2")
        assert code == 0
        assert out.splitlines()[1] == "1e+155,4.4456985250973071e-39,0"
        _, data = rows(out)
        assert data[0][1] == pytest.approx(2.5 * 1e155 ** -0.25, rel=1e-15, abs=0)

    def test_symmetric_writes_a_literal_zero(self, capsys):
        # the zero imaginary numerator over a negative denominator is 0, not -0
        code, out = run(capsys, "eigenvalue", "--n", "1", "--alpha", "1",
                        "--grid=-1:1:3")
        assert code == 0
        assert out.splitlines()[1] == "-1,1.75,0"


class TestNonGauss:
    def test_flat_at_index2(self, capsys):
        code, out = run(capsys, "nongauss", "--alpha", "2", "--grid", "-2:2:9")
        assert code == 0
        _, data = rows(out)
        assert all(r[1] == 0.0 for r in data)
        # == 0.0 also accepts -0.0, which would print as -0
        assert "-0" not in [field for line in out.splitlines() for field in line.split(",")]

    def test_x_space_low_index(self, capsys):
        # index 1/5 needs the cutoff 29; the deep tail is reported as nan
        code, out = run(capsys, "nongauss", "--alpha", "1/5", "--space", "x",
                        "--grid=-39:39:79")
        assert code == 0
        _, data = rows(out)
        assert len(data) == 79
        assert all(math.isfinite(re) or math.isnan(re) for _, re, _ in data)
        assert all(math.isfinite(re) for x, re, _ in data if abs(x) <= 5)

    def test_positive_below_crossing(self, capsys):
        code, out = run(capsys, "nongauss", "--alpha", "1", "--grid", "0.1:1:4")
        assert code == 0
        _, data = rows(out)
        assert all(r[1] > 0 for r in data)


class TestFactorize:
    def test_equal_orders_scaled_constant(self, capsys):
        code, out = run(capsys, "factorize", "--delta", "2", "--gamma", "2")
        assert code == 0
        assert "scaled remainder: 1/2" in out

    def test_equal_orders_32(self, capsys):
        code, out = run(capsys, "factorize", "--delta", "3/2", "--gamma", "3/2")
        assert code == 0
        assert "1/2*D^(-1/4)" in out

    def test_mixed_orders_show_both(self, capsys):
        code, out = run(capsys, "factorize", "--delta", "1", "--gamma", "2")
        assert code == 0
        assert "forward remainder:" in out and "reverted remainder:" in out
        assert "scaled" not in out
        # x terms appear with opposite signs across the two lines
        fwd, rev = out.strip().splitlines()
        assert "+ x*D^(1)" in fwd and "- x*D^(1)" in rev

    def test_k_space_dump(self, capsys):
        code, out = run(capsys, "factorize", "--delta", "2", "--gamma", "2",
                        "--space", "k")
        assert code == 0
        assert "multiplier c0:" in out

    def test_k_space_integer_theta(self, capsys):
        code = main(["factorize", "--delta", "2", "--gamma", "2",
                     "--space", "k", "--theta", "1/2"])
        assert code == 2

    @pytest.mark.parametrize("argv,message", [
        ("--delta 0 --gamma 2", "orders must be positive"),
        ("--delta 2 --gamma 2 --space k --theta 1/2", "k-space remainders need integer --theta"),
        ("--delta 1 --gamma 2 --theta 1", "--theta applies to k-space remainders only; add --space k"),
    ])
    def test_usage_errors(self, capsys, argv, message):
        assert main(["factorize", *argv.split()]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"rfho factorize: {message}\n"

    def test_json_format(self, capsys):
        code, out = run(capsys, "factorize", "--delta", "2", "--gamma", "2",
                        "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["scaled"] == [{"coeff": "1/2", "xpow": 0, "dorder": "0"}]


class TestValidate:
    def test_full_suite_green(self, capsys):
        code, out = run(capsys, "validate", "--format", "json")
        assert code == 0
        report = json.loads(out)
        primary = [r for r in report if r["kind"] == "primary"]
        info = [r for r in report if r["kind"] == "info"]
        assert len(primary) == 12 and all(r["passed"] for r in primary)
        assert len(info) == 2

    def test_text_report_has_no_fail_lines(self, capsys):
        code, out = run(capsys, "validate")
        assert code == 0
        assert "FAIL" not in out
        assert out.count("INFO") == 2


class TestPlumbing:
    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "table.json"
        code, out = run(capsys, "hermite", "--n", "1", "--out", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())[1]["n"] == 1

    def test_deterministic_bytes(self, capsys):
        _, a = run(capsys, "state", "--n", "2", "--alpha", "3/2", "--grid", "-2:2:9")
        _, b = run(capsys, "state", "--n", "2", "--alpha", "3/2", "--grid", "-2:2:9")
        assert a == b

    # sha256 of stdout, pinned before rf_hermite moved to the lattice
    # recurrence (Python 3.11, numpy 2.4, x86-64); a change in any byte of
    # these outputs must be deliberate and logged
    @pytest.mark.parametrize("argv,digest", [
        ("hermite --n 20",
         "f93428bbccfcaa796275c4112749c438dfce309dafc3c2510e7d8651950a4a9f"),
        ("hermite --n 20 --format csv",
         "f4f551572da0048eb8d83e4629226520272f5a2b8b85a8bf8817d10b9d0a83df"),
        ("hermite --n 20 --alpha 3/2 --format json",
         "cae4f1d097e6a92a40b28dbd385d34bd94977d50c8bbdcf8e0252394ce8b773d"),
        ("hermite --n 20 --alpha 1/5",
         "cd1ce61fe341b5d55a24784b2899909ffc0e296f93e9d17f3a4af98a27a12c43"),
        ("eigenvalue --n 7 --alpha 3/2 --theta=1/2",
         "a3c1938d1e2b2b5981923d73a49cce3b3f422d1f77cf313e0159214b3a0d2cef"),
        # re-pinned when the numeric gates were tightened (only the
        # "(limit ...)" figures changed), when the transform kept every
        # origin node (only the index-3/2 drift, 3.11e-15 -> 3.55e-15), and
        # when the x-space kernel moved to per-panel angle addition (only
        # the index-1 mismatch, 7.51e-16 -> 1.88e-16, and the index-3/2
        # drift, 3.55e-15 -> 4.44e-16), and when the panel centres came
        # from a coarse and a fine angle table summed by einsum (only the
        # index-1 mismatch, 1.88e-16 -> 3.75e-16); the same digest with
        # numpy's AVX512 targets disabled
        ("validate --format json",
         "26b6bf4a0628640ce715970368be725b559920eb9e465e7f34789c6bb3b1b78b"),
        # the text report, pinned before the criteria moved to one decorator
        # (the PASS / INFO / FAIL tags, the names and their order) and
        # re-pinned with the same figures as the JSON report
        ("validate",
         "5c94c1993b39609660caeebd6794d3f4b9ab720bf97f504a762ff2dcc1fb4bbb"),
        # factorize pinned before the k-space remainder was rebuilt from its
        # monomial sums; an x-space --theta of 0 changes nothing
        ("factorize --delta 1 --gamma 2",
         "1fffc98d66c4a66833ce16f796b7bcc2989d1ed8c63e6dcb074198c2f6ed5292"),
        ("factorize --delta 1 --gamma 2 --theta 0",
         "1fffc98d66c4a66833ce16f796b7bcc2989d1ed8c63e6dcb074198c2f6ed5292"),
        ("factorize --delta 3/2 --gamma 1/2 --format json",
         "19bf129140a4d8838cca24fc8028df1581bd38c485c0b71613530355a97a51e6"),
        ("factorize --delta 4/3 --gamma 1/3 --space k --theta=-1 --format json",
         "c94577d0457ea8545a970ee48677053025877d1d7030669df3f86928d2b06ee5"),
        ("factorize --delta 2 --gamma 5/2 --space k --theta=2",
         "325832d260659338dfb1d09477a28921ea6183d02dc753323b42adee0f44ffb1"),
        # k-space grids in json and csv and the hermite table at an index,
        # pinned before KState began to build H_n from (n, alpha) alone
        ("state --n 5 --alpha 2/3 --grid=-3:3:41 --format json",
         "1a3be253bff42e0f1a1ada2c01e985a50befdfcb637a12e25cc279aff2a09d98"),
        ("state --n 4 --alpha 3/2 --grid=-2:2:9",
         "0a4c8817f25733b4d4af7d3efb8b23054cb03aaa9445ed238ebad2e08b42663c"),
        # re-pinned when nongaussianity_k became -expm1(...): last digits only
        ("nongauss --alpha 1/2 --grid=-4:4:17 --format json",
         "9c51282c4241314399e04acaab718812ce02ecb6807d1f0194d7218a07915e21"),
        ("hermite --n 12 --alpha 2/3 --format csv",
         "439cfc193648180efb69732ea7c8a8cd41431b8934b8f0f9b3586b5bc5fd195f"),
        # pinned once the symmetric eigenvalue's zero imaginary part at
        # negative k printed 0 rather than -0
        ("eigenvalue --n 1 --alpha 3/2 --grid=-2:2:5",
         "06fb03549760fe4013ff494de974207e2d171c81e9a61e36c4caf08146a01d57"),
    ])
    def test_pinned_bytes(self, capsys, argv, digest):
        code, out = run(capsys, *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # sha256 over the reprs of the exact objects themselves, pinned before
    # products, derivatives and the ladder step began to reduce each
    # coefficient once; any change to a term, its order or a coefficient's
    # reduced form shows here
    @pytest.mark.parametrize("family,digest", [
        ("rodrigues", "418e3a3f5570f8bc9cd12441810cba46627dda6abcab18837340251532949292"),
        ("ladder_next", "5bed0f8dde5464e044badb66eca76a0cd649fef8edf221fa27a7259baea4c1ae"),
        ("local_eigenvalue", "66e8a26297afca889fa6902a00b3522ad2a61060c95259cc668d0091a80ac06d"),
    ])
    def test_pinned_exact_objects(self, family, digest):
        from rfho.hermite import ladder_next, rf_hermite, rodrigues
        from rfho.spectral import local_eigenvalue

        alphas = ("1/5", "1/2", "2/3", "1", "5/4", "3/2", "7/4", "2")
        objects = {
            "rodrigues": lambda: (rodrigues(n) for n in range(41)),
            "ladder_next": lambda: (ladder_next(rf_hermite(n)) for n in range(31)),
            "local_eigenvalue": lambda: (
                local_eigenvalue(n, a, theta)
                for n in range(21) for a in alphas for theta in (-1, 0, 1, 2, 3)
            ),
        }[family]()
        h = hashlib.sha256()
        for obj in objects:
            h.update(repr(obj).encode())
        assert h.hexdigest() == digest

    def test_csv_roundtrip_precision(self, capsys):
        _, out = run(capsys, "state", "--n", "0", "--alpha", "3/2", "--grid", "0:3:7")
        from rfho.spectral import ground_state
        from fractions import Fraction as F

        state = ground_state(F(3, 2))
        _, data = rows(out)
        for k, re, im in data:
            assert complex(re, im) == state.eval(k)



# one invocation of each grid command per axis; the x-space nongauss grid
# reaches the nan tail, the eigenvalue grid a pole row that is left out
_GRID_CASES = [
    "state --n 3 --alpha 2/3 --grid=-3:3:41",
    "state --n 2 --alpha 3/2 --space x --grid=-4:4:17",
    "eigenvalue --n 1 --alpha 2 --theta=1/2 --grid=-2:2:9",
    "nongauss --alpha 1/2 --grid=-4:4:17",
    "nongauss --alpha 1/2 --space x --grid=-12:12:25",
]


class TestOneWriter:
    @pytest.mark.parametrize("argv", [
        "hermite --n 3",
        "hermite --n 3 --alpha 3/2 --format csv",
        "factorize --delta 3/2 --gamma 3/2",
        "factorize --delta 2 --gamma 5/2 --space k --theta=2 --format json",
        "validate",
        *(f"{g} --format {f}" for g in _GRID_CASES for f in ("csv", "json")),
    ])
    def test_out_gets_the_stdout_bytes(self, capsys, tmp_path, argv):
        target = tmp_path / "out"
        code, out = run(capsys, *argv.split())
        code_out, rest = run(capsys, *argv.split(), "--out", str(target))
        assert code == code_out == 0 and rest == ""
        assert target.read_bytes() == out.encode()

    @pytest.mark.parametrize("argv", _GRID_CASES)
    def test_csv_rows_carry_the_json_columns(self, capsys, argv):
        _, text = run(capsys, *argv.split(), "--format", "csv")
        _, js = run(capsys, *argv.split(), "--format", "json")
        header, table = rows(text)
        obj = json.loads(js)
        assert header == [obj["axis"], "re", "im"]
        columns = list(zip(obj["points"], obj["re"], obj["im"]))
        # float.hex tells -0.0 from 0.0 and matches nan with nan
        assert [[v.hex() for v in row] for row in table] == [[v.hex() for v in row] for row in columns]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_writer_clears_negative_zero(self, capsys, fmt):
        # a library value may be -0.0 (0 / d for d < 0); the writer prints 0
        grid = Grid("k", (-1.0,), (complex(-0.0, -0.0),))
        assert _write_grid(argparse.Namespace(format=fmt, out=None), grid) == 0
        out = capsys.readouterr().out
        if fmt == "csv":
            assert out == "k,re,im\n-1,0,0\n"
        else:
            obj = json.loads(out)
            assert [math.copysign(1.0, obj[c][0]) for c in ("re", "im")] == [1.0, 1.0]


_COLD_START = """
import contextlib, io, sys
import rfho.cli

# perfbench/tracer.py looks these three up in sys.modules when it installs
# its spans, so importing rfho.cli must still load them
assert {"rfho.transform", "rfho.hyper", "rfho.validation"} <= set(sys.modules)

# the series tables stay unbuilt until a series is summed, and mpmath unloaded
from rfho import hyper
specs = [t.f for table in (hyper._TABLE_1, hyper._TABLE_32) for t in table]
specs += [hyper._GAUSS_A, hyper._GAUSS_B]
assert not [s for s in specs if "_steps" in vars(s)]
assert "mpmath" not in sys.modules

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert rfho.cli.main(argv) == 0, argv

for argv in (
    ["hermite", "--n", "4"],
    ["hermite", "--n", "4", "--alpha", "3/2", "--format", "csv"],
    ["factorize", "--delta", "1", "--gamma", "3/2"],
    ["factorize", "--delta", "3/2", "--gamma", "3/2", "--space", "k", "--theta", "1"],
    ["eigenvalue", "--n", "2", "--alpha", "3/2", "--theta", "1/2", "--grid=-1:1:5"],
    ["state", "--n", "3", "--alpha", "1/2", "--space", "k", "--grid=-1:1:5"],
    ["nongauss", "--alpha", "1", "--space", "k", "--grid=-1:1:5"],
):
    run(argv)
    loaded = {"numpy", "mpmath"} & set(sys.modules)
    assert not loaded, (argv, loaded)

run(["state", "--n", "1", "--alpha", "1", "--space", "x", "--grid=0:1:3"])
assert "numpy" in sys.modules
run(["validate"])
assert "mpmath" in sys.modules
"""


class TestColdStart:
    def test_exact_subcommands_load_no_numpy_or_mpmath(self):
        src = str(Path(rfho.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", _COLD_START], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr


class TestInputContract:
    @pytest.mark.parametrize("argv", [
        ["state", "--n", "0", "--alpha", "3"],
        ["state", "--n", "0", "--alpha", "0"],
        ["eigenvalue", "--n", "0", "--alpha", "5/2"],
        ["nongauss", "--alpha", "-1"],
        ["state", "--n", "0", "--alpha", "1", "--grid=-inf:1:3"],
        ["state", "--n", "2000", "--alpha", "1"],
    ])
    def test_out_of_domain_exits_2(self, capsys, argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert captured.err.splitlines()[-1].startswith(f"rfho {argv[0]}: ")

    @pytest.mark.parametrize("argv", [
        ["state", "--n", "1", "--alpha", "3/2", "--grid=1:1.0000000000000002:5"],
        ["state", "--n", "1", "--alpha", "3/2", "--space", "x", "--grid=-1e308:1e308:3"],
        ["eigenvalue", "--n", "1", "--alpha", "3/2", "--grid=1:1.0000000000000002:5"],
        ["nongauss", "--alpha", "1/5", "--grid=-1e308:1e308:3"],
        ["nongauss", "--alpha", "1", "--space", "x", "--grid=1:1.0000000000000002:5"],
    ])
    def test_grid_that_collapses_in_floating_point_exits_2(self, capsys, argv):
        # points that round onto each other, or a span max - min that
        # overflows, are refused before any work
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert captured.err.splitlines()[-1].startswith(f"rfho {argv[0]}: ")

    def test_grid_count_capped_before_allocation(self, capsys):
        tracemalloc.start()
        try:
            with pytest.raises(SystemExit) as exc:
                main(["state", "--n", "0", "--alpha", "1", f"--grid=0:1:{10**12}"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exc.value.code == 2
        assert peak <= 2**20
        assert str(MAX_POINTS) in capsys.readouterr().err
        assert len(_grid(f"0:1:{MAX_POINTS}")) == MAX_POINTS

    @pytest.mark.parametrize("cmd,target", [
        (["hermite", "--n", "2"], "missing/dir/x.json"),
        (["state", "--n", "0", "--alpha", "1"], "."),
    ])
    def test_unwritable_out_exits_2(self, capsys, tmp_path, cmd, target):
        path = str(tmp_path / target)
        code = main([*cmd, "--out", path])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"rfho {cmd[0]}: cannot write {path}: ")

    @pytest.mark.parametrize("cmd", [
        ["nongauss", "--alpha", "1/2"],
        ["state", "--n", "1", "--alpha", "3/2"],
    ])
    def test_x_beyond_reach_exits_1(self, capsys, cmd):
        code = main([*cmd, "--space", "x", "--grid=-1e6:1e6:3"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"rfho {cmd[0]}: ")
        assert "reach" in captured.err

    @pytest.mark.parametrize("cmd", [
        ["state", "--n", "3", "--alpha", "3/2", "--grid=-1e200:1e200:3"],
        ["eigenvalue", "--n", "3", "--alpha", "3/2", "--grid=-1e200:1e200:3"],
        ["nongauss", "--alpha", "3/2", "--grid=-1e200:1e200:3"],
        # k^2/2 - |k|^(5/4)/(5/4) passes 709 from |k| = 39.7
        ["nongauss", "--alpha", "1/2", "--grid=-60:60:5"],
        # expm1 of a finite 5e299 overflows; past |k| = 1.3e154 k^2 is inf
        # itself, and the exponent is refused as not finite
        ["nongauss", "--alpha", "1", "--grid", "1e150:1e160:2"],
        ["nongauss", "--alpha", "1", "--grid", "1e199:1e200:2"],
    ])
    def test_overflow_exits_1(self, capsys, cmd):
        code = main(cmd)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"rfho {cmd[0]}: ")

    @pytest.mark.parametrize("alpha,index", [
        ("1e-400", "1e-400"), ("1e-20", "1e-20"), ("3/70000000000000000000", "4.28571e-20"),
        ("1/10", "1/10"),
    ])
    def test_refusal_names_a_long_index_in_short_form(self, capsys, alpha, index):
        # the exact Fraction of 1e-400 alone is over 400 bytes
        code = main(["state", "--n", "2", "--alpha", alpha, "--space", "x", "--grid=-1:1:3"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and len(captured.err.encode()) < 200
        assert captured.err.startswith(f"rfho state: state n=2 at index {index}: the sliver")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_grid_with_no_regular_point_exits_1(self, capsys, tmp_path, fmt):
        # at index 1e-400 every point divides by float(alpha) = 0 and is
        # left out as singular; no bare header, and no --out file
        argv = ["eigenvalue", "--n", "2", "--alpha", "1e-400", "--grid=-1:1:5", "--format", fmt]
        for extra in ([], ["--out", str(tmp_path / "table")]):
            code = main(argv + extra)
            captured = capsys.readouterr()
            assert code == 1
            assert captured.out == ""
            assert captured.err == "rfho eigenvalue: every grid point is singular; no value to write\n"
        assert not (tmp_path / "table").exists()
