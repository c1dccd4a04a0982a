"""Command-line interface: schemas, golden rows, flag conflicts, exits."""

import csv
import hashlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from relaytree import cli, kernel
from relaytree import simulate as simulate_module
from relaytree.alphabet import TreeSpec
from relaytree.kernel import ErrorPair, Priors, total_error
from relaytree.verify import SUITES, exact_majority_trace


def run_csv(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(out)))
    return code, rows[0], rows[1:]


class TestRecurse:
    def test_majority_m3_trace(self, capsys):
        code, header, rows = run_csv(capsys, [
            "recurse", "--m", "3", "--alpha0", "0.1", "--beta0", "0.1",
            "--levels", "4",
        ])
        assert code == 0
        assert header == [
            "level", "alpha", "beta", "alpha_log2inv", "beta_log2inv",
            "total_log2inv", "thm_lower", "thm_upper",
        ]
        assert [r[0] for r in rows] == ["0", "1", "2", "3", "4"]
        exact = exact_majority_trace(Fraction(1, 10), 3, 4)
        last = rows[4]
        assert float(last[1]) == pytest.approx(float(exact[4]), rel=1e-9, abs=0)
        assert float(last[2]) == pytest.approx(float(exact[4]), rel=1e-9, abs=0)
        # symmetric pair and equal priors: total error equals alpha
        assert float(last[5]) == pytest.approx(-math.log2(float(exact[4])), rel=1e-9, abs=0)
        assert float(last[6]) == pytest.approx(
            16 * (math.log2(10) - math.log2(3)), rel=1e-9, abs=0
        )
        assert float(last[7]) == pytest.approx(16 * math.log2(10), rel=1e-9, abs=0)
        # the root sits inside its own sandwich
        assert float(last[6]) <= float(last[5]) <= float(last[7])

    def test_twelve_significant_digits(self, capsys):
        _, _, rows = run_csv(capsys, [
            "recurse", "--m", "3", "--alpha0", "0.1", "--beta0", "0.1",
            "--levels", "1",
        ])
        assert rows[1][1] == "0.028"
        cell = rows[0][3]
        assert float(cell) == pytest.approx(math.log2(10), rel=1e-11, abs=0)
        digits = cell.replace("-", "").replace(".", "").lstrip("0")
        assert len(digits) <= 12

    def test_biased_tie_suppresses_bound_columns(self, capsys):
        code, _, rows = run_csv(capsys, [
            "recurse", "--m", "4", "--pb", "0.3", "--alpha0", "0.1",
            "--beta0", "0.1", "--levels", "2",
        ])
        assert code == 0
        assert all(r[6] == "" and r[7] == "" for r in rows)

    def test_alternating_m4_even_levels_only(self, capsys):
        code, _, rows = run_csv(capsys, [
            "recurse", "--m", "4", "--rule", "alternating", "--alpha0", "0.1",
            "--beta0", "0.1", "--levels", "4",
        ])
        assert code == 0
        assert rows[0][6] != "" and rows[2][6] != "" and rows[4][6] != ""
        assert rows[1][6] == "" and rows[3][6] == ""

    def test_alternating_m2_has_no_bound_columns(self, capsys):
        # whichever tie direction starts, one of alpha/beta at m=2
        # follows the order that escapes the even-height constant, so
        # the total-error sandwich is not printed there
        for phase_flags in ([], ["--phase", "zero"]):
            code, _, rows = run_csv(capsys, [
                "recurse", "--m", "2", "--rule", "alternating", "--alpha0",
                "0.1", "--beta0", "0.1", "--levels", "4", *phase_flags,
            ])
            assert code == 0
            assert all(r[6] == "" and r[7] == "" for r in rows)

    def test_alternating_m4_bound_contains_trace(self, capsys):
        code, _, rows = run_csv(capsys, [
            "recurse", "--m", "4", "--rule", "alternating", "--phase", "zero",
            "--alpha0", "0.1", "--beta0", "0.1", "--levels", "4",
        ])
        assert code == 0
        assert float(rows[4][6]) <= float(rows[4][5]) <= float(rows[4][7])

    def test_lrt_lower_bound_only(self, capsys):
        code, _, rows = run_csv(capsys, [
            "recurse", "--m", "3", "--rule", "lrt", "--alpha0", "0.05",
            "--beta0", "0.05", "--levels", "2",
        ])
        assert code == 0
        assert all(r[6] != "" and r[7] == "" for r in rows)
        assert float(rows[1][6]) == pytest.approx(
            2 * (math.log2(20) - math.log2(12)), rel=1e-9, abs=0
        )

    @pytest.mark.parametrize("flags", [
        ["--m", "3", "--levels", "1022"],  # the last level before the refusal
        ["--m", "255", "--levels", "145"],
        ["--m", "2", "--levels", "400"],
        ["--m", "4", "--pb", "0.5", "--levels", "1022"],
        ["--m", "2", "--rule", "alternating", "--levels", "400"],
        ["--m", "4", "--rule", "alternating", "--phase", "zero", "--levels", "791"],
        ["--m", "2", "--rule", "lrt", "--levels", "400"],
        ["--m", "3", "--rule", "lrt", "--pi0", "0.3", "--levels", "600"],
        ["--m", "4", "--rule", "lrt", "--levels", "791"],
        ["--m", "255", "--rule", "lrt", "--pi0", "0.3", "--levels", "140"],
    ], ids=["odd-m3", "odd-m255", "even-m2", "even-m4", "alternating-m2", "alternating-m4",
            "lrt-m2", "lrt-m3", "lrt-m4", "lrt-m255"])
    def test_bound_cells_are_the_bound_functions(self, capsys, flags):
        # every printed bound cell is "%.12g" of the theorem's closed form
        # at its own level, empty where none applies: the exact factor
        # lambda^k, or (lambda (lambda + 1))^(k/2) for alternating, times
        # the leaf bits, so the same expression gives the same bits
        a0, b0 = 0.1, 0.2
        code, _, rows = run_csv(capsys, ["recurse", *flags, "--alpha0", "0.1", "--beta0", "0.2"])
        assert code == 0
        opts = dict(zip(flags[::2], flags[1::2]))
        m, rule = int(opts["--m"]), opts.get("--rule", "majority")
        pi0 = float(opts.get("--pi0", 0.5))
        priors = Priors(pi0, 1.0 - pi0)
        lam = (m + 1) // 2
        bits_a, bits_b = -math.log2(a0), -math.log2(b0)
        total0 = total_error(ErrorPair.from_linear(a0, b0), priors).linear
        lo, hi = sorted((priors.pi0, priors.pi1))
        penalty = 2.0 * math.comb(m, lam) * hi / lo**lam
        assert len(rows) == int(opts["--levels"]) + 1
        for k, row in enumerate(rows):
            if rule == "lrt":
                want = ["%.12g" % (lam**k * (-math.log2(total0) - math.log2(penalty))), ""]
            elif rule == "alternating" and (m == 2 or k % 2):
                want = ["", ""]
            else:
                factor = (lam * (lam + 1)) ** (k // 2) if rule == "alternating" else lam**k
                lower = factor * (min(bits_a, bits_b) - math.log2(math.comb(m, lam)))
                upper = factor * (priors.pi0 * bits_a + priors.pi1 * bits_b)
                want = ["%.12g" % lower, "%.12g" % upper]
            assert row[6:] == want, k

    def test_zero_levels(self, capsys):
        code, _, rows = run_csv(capsys, [
            "recurse", "--m", "3", "--alpha0", "0.2", "--beta0", "0.3",
            "--levels", "0",
        ])
        assert code == 0
        assert len(rows) == 1

    # sha256 of the whole CSV: the first three recorded before log C(m, s)
    # was cached per fan-in, at the deepest the benchmark's trace pool
    # runs; the next two before the bounds took the height k, covering
    # the even-row alternating bound and the lambda = 1 rows of m = 2; the
    # last three while every row still went through csv.writer, covering
    # tie-coin tables with two runs per side and bound columns that are
    # empty on every row (biased coin, alternating m = 2) or on one side
    # (lrt)
    @pytest.mark.parametrize("flags, digest", [
        (["--m", "255", "--levels", "140"],
         "78f972ac58cb67ebb2389794141b159134230e5f31f512fb932f0617664b78b1"),
        (["--m", "255", "--rule", "lrt", "--pi0", "0.3", "--levels", "140"],
         "06577b6ccb352c5b5f8198bd506912095dc10480ab439283497be86302f76c06"),
        (["--m", "3", "--levels", "400"],
         "ae20d3f28ff2d3358fd928208388c65e23723e11f2ca42d2542a5575f5e264ee"),
        (["--m", "4", "--rule", "alternating", "--levels", "400"],
         "1cfce28afebcbd4b9b355cb422c6d9ca2e878c209d16a1db0f091166bfc4d3aa"),
        (["--m", "2", "--levels", "5000"],
         "f563205fca06df1b54cd9d10c77b8ad0dd6cb8968c7731e355723da59268a916"),
        (["--m", "4", "--pb", "0.3", "--levels", "400"],
         "1b578366f3b254dae0e0039265f5a679ebe8d151efde1bfb04729e946f816908"),
        (["--m", "2", "--rule", "alternating", "--levels", "400"],
         "b21c9e97d66ae2eece06f38816029beeb520e0661fc960e322a6f7493ba6b514"),
        (["--m", "4", "--rule", "lrt", "--pi0", "0.3", "--levels", "300"],
         "2e1f2ee5b262089686471bac85aae301947984f0eda4c10bd6d00b0047bb54c8"),
    ], ids=["odd_m255", "lrt_m255_pi0.3", "odd_m3", "alternating_m4", "fair_m2",
            "tie_coin_m4_pb0.3", "alternating_m2", "lrt_m4_pi0.3"])
    def test_deep_trace_is_pinned(self, capsys, flags, digest):
        code = cli.run(["recurse", "--alpha0", "0.1", "--beta0", "0.1", *flags])
        out = capsys.readouterr().out
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestRecurseConflicts:
    def conflict(self, capsys, argv, *needles):
        code = cli.run(argv)
        err = capsys.readouterr().err
        assert code == 2
        for needle in needles:
            assert needle in err

    def test_pb_with_lrt(self, capsys):
        self.conflict(capsys, [
            "recurse", "--m", "4", "--rule", "lrt", "--pb", "0.3",
            "--alpha0", "0.1", "--beta0", "0.1", "--levels", "1",
        ], "--pb", "lrt")

    def test_pb_with_odd_m(self, capsys):
        self.conflict(capsys, [
            "recurse", "--m", "3", "--pb", "0.3",
            "--alpha0", "0.1", "--beta0", "0.1", "--levels", "1",
        ], "--pb", "odd")

    @pytest.mark.parametrize("pb", ["0", "1"])
    def test_pb_endpoints_point_to_alternating(self, capsys, pb):
        self.conflict(capsys, [
            "recurse", "--m", "4", "--pb", pb,
            "--alpha0", "0.1", "--beta0", "0.1", "--levels", "1",
        ], "--pb", "(0, 1)", "--rule alternating")

    def test_alternating_with_odd_m(self, capsys):
        self.conflict(capsys, [
            "recurse", "--m", "3", "--rule", "alternating",
            "--alpha0", "0.1", "--beta0", "0.1", "--levels", "1",
        ], "alternating", "odd")

    def test_phase_with_majority(self, capsys):
        self.conflict(capsys, [
            "recurse", "--m", "4", "--phase", "one",
            "--alpha0", "0.1", "--beta0", "0.1", "--levels", "1",
        ], "--phase", "majority")

    def test_phase_with_lrt(self, capsys):
        self.conflict(capsys, [
            "recurse", "--m", "4", "--rule", "lrt", "--phase", "one",
            "--alpha0", "0.1", "--beta0", "0.1", "--levels", "1",
        ], "--phase", "lrt")

    def test_lrt_needs_interior_prior(self, capsys):
        self.conflict(capsys, [
            "recurse", "--m", "3", "--rule", "lrt", "--pi0", "1.0",
            "--alpha0", "0.1", "--beta0", "0.1", "--levels", "1",
        ], "--pi0")

    @pytest.mark.parametrize("m, levels", [
        ("3", "1000000000"),
        ("1000000000", "0"),  # no level, but each row's bounds are O(m)
    ])
    def test_oversized_trace_refused_before_any_per_level_work(
        self, capsys, monkeypatch, m, levels
    ):
        # [rule] * levels alone would take gigabytes here
        def per_level(*args, **kwargs):
            raise AssertionError("per-level work before the work check")

        monkeypatch.setattr(cli, "Schedule", per_level)
        self.conflict(capsys, [
            "recurse", "--m", m, "--alpha0", "0.1", "--beta0", "0.1",
            "--levels", levels,
        ], "--levels", "--m", "work limit")

    def test_work_limit_is_inclusive(self, capsys, monkeypatch):
        monkeypatch.setattr(kernel, "WORK_LIMIT", 5 * 4)
        argv = ["recurse", "--m", "3", "--alpha0", "0.1", "--beta0", "0.1"]
        assert cli.run([*argv, "--levels", "4"]) == 0
        capsys.readouterr()
        self.conflict(capsys, [*argv, "--levels", "5"], "work limit")

    def test_alpha0_out_of_range(self, capsys):
        self.conflict(capsys, [
            "recurse", "--m", "3", "--alpha0", "1.5", "--beta0", "0.1",
            "--levels", "1",
        ], "--alpha0")


class TestExponents:
    def test_golden_m4(self, capsys):
        code, header, rows = run_csv(capsys, [
            "exponents", "--m-min", "2", "--m-max", "5",
        ])
        assert code == 0
        assert header == ["m", "majority_random", "alternating", "upper_bound"]
        by_m = {r[0]: r for r in rows}
        assert float(by_m["4"][1]) == pytest.approx(0.5, abs=1e-12)
        assert float(by_m["4"][2]) == pytest.approx(
            math.log(math.sqrt(24) / 2) / math.log(4), rel=1e-9, abs=0
        )
        assert float(by_m["4"][3]) == pytest.approx(
            math.log(2.5) / math.log(4), rel=1e-9, abs=0
        )
        assert by_m["3"][2] == ""  # no alternating rule at odd fan-in
        assert float(by_m["5"][1]) == float(by_m["5"][3])

    def test_full_table_is_pinned(self, capsys):
        # recorded while every row still went through csv.writer
        assert cli.run(["exponents", "--m-min", "2", "--m-max", "64"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "f09088d1deb73ac553c96bd2cdca93bd3dbfe20e468265ce01d8a090c30a725d")

    def test_range_validation(self, capsys):
        assert cli.run(["exponents", "--m-min", "1", "--m-max", "4"]) == 2
        assert cli.run(["exponents", "--m-min", "4", "--m-max", "65"]) == 2
        assert cli.run(["exponents", "--m-min", "5", "--m-max", "4"]) == 2
        capsys.readouterr()


class TestAlphabet:
    def test_single_row_for_d(self, capsys):
        code, header, rows = run_csv(capsys, ["alphabet", "--m", "3", "--d", "10"])
        assert code == 0
        assert header == [
            "k0", "rho", "varrho", "sigma", "avg_bits", "band_lower", "band_upper",
        ]
        assert len(rows) == 1
        assert rows[0][0] == "3"
        assert rows[0][3] == ""  # sigma undefined at odd fan-in
        assert float(rows[0][4]) == pytest.approx(
            (27 + 9 * math.log2(4) + 3 * math.log2(10)) / 39, rel=1e-9, abs=0
        )

    def test_sweep(self, capsys):
        code, _, rows = run_csv(capsys, ["alphabet", "--m", "2", "--k0-max", "4"])
        assert code == 0
        assert [r[0] for r in rows] == ["1", "2", "3", "4"]
        assert float(rows[0][5]) == 1.5 and float(rows[0][6]) == 2.0
        # deeper counting buys a strictly better guaranteed exponent
        varrho = [float(r[2]) for r in rows]
        assert varrho == sorted(varrho)

    def test_sweep_is_pinned(self, capsys):
        # recorded while every row still went through csv.writer; the
        # sigma column is empty at odd fan-in
        assert cli.run(["alphabet", "--m", "3", "--k0-max", "8"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "b158d20621da3ca8de41e732295987a1f4d2de48bc3b4fd860a7ff51179b04ea")

    def test_flag_conflicts(self, capsys):
        assert cli.run(["alphabet", "--m", "2", "--d", "4", "--k0-max", "3"]) == 2
        assert "conflicts" in capsys.readouterr().err
        assert cli.run(["alphabet", "--m", "2"]) == 2
        assert cli.run(["alphabet", "--m", "2", "--d", "1"]) == 2
        capsys.readouterr()


class TestSampleSize:
    def test_golden_json(self, capsys):
        code = cli.run([
            "samplesize", "--m", "3", "--alpha0", "0.1", "--beta0", "0.1",
            "--epsilon", "1e-6",
        ])
        out = capsys.readouterr().out
        assert code == 0
        got = json.loads(out)
        headroom = math.log2(10) - math.log2(3)
        want = (math.log2(1e6) / headroom) ** (math.log(3) / math.log(2))
        assert got["n_real"] == pytest.approx(want, rel=1e-12, abs=0)
        assert got["k"] == 4
        assert got["n_tree"] == 81

    def test_inapplicable_bound_is_usage_error(self, capsys):
        code = cli.run([
            "samplesize", "--m", "2", "--alpha0", "0.1", "--beta0", "0.1",
            "--epsilon", "1e-6",
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert "m=2" in err
        code = cli.run([
            "samplesize", "--m", "3", "--alpha0", "0.4", "--beta0", "0.4",
            "--epsilon", "1e-6",
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert "bound inapplicable" in err


    def test_huge_m_refused_without_building_the_coefficient(self, capsys, monkeypatch):
        # C(m, m/2) alone takes hours at m = 10^9
        def no_comb(*args):
            raise AssertionError("C(m, lam) was built")

        monkeypatch.setattr(math, "comb", no_comb)
        code = cli.run([
            "samplesize", "--m", "1000000000", "--alpha0", "0.1", "--beta0", "0.1",
            "--epsilon", "1e-6",
        ])
        assert code == 2
        assert "bound inapplicable" in capsys.readouterr().err


class TestDoubleRangeRefusals:
    """Past the largest double a bound or message-cost column is refused
    with exit 2, naming the level or m and k0, rather than a traceback."""

    @pytest.mark.parametrize("argv, needle", [
        # weak leaves: 2^1023 times their 1.74 bits fits, 2^1024 does not
        (["recurse", "--m", "3", "--alpha0", "0.3", "--beta0", "0.3", "--levels", "1030"],
         "level 1024"),
        # 128^146 = 2^1022 fits, but times the 248 bits by which log2 C(255, 128)
        # exceeds log2(10) the lower bound does not
        (["recurse", "--m", "255", "--levels", "160"], "level 146"),
        (["recurse", "--m", "1100", "--rule", "lrt", "--levels", "1"], "m=1100"),
        (["alphabet", "--m", "1000", "--k0-max", "110"], "m=1000, k0=103"),
        # 2^1023 fits, but its product with log2(10) bits does not
        (["recurse", "--m", "3", "--levels", "1023"], "level 1023"),
    ])
    def test_exit_2_names_where(self, capsys, argv, needle):
        if argv[0] == "recurse" and "--alpha0" not in argv:
            argv = [*argv, "--alpha0", "0.1", "--beta0", "0.1"]
        code = cli.run(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert needle in captured.err

    def test_a_refused_sweep_builds_no_row(self, capsys, monkeypatch):
        # avg_bits refuses k0 = 1023 at m = 2 and every depth past it:
        # found by bisection, not by 1,023 rows
        calls, real = [], cli.avg_bits

        def counted(m, k0):
            calls.append(k0)
            return real(m, k0)

        monkeypatch.setattr(cli, "avg_bits", counted)
        code = cli.run(["alphabet", "--m", "2", "--k0-max", "100000000000"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: avg_bits for m=2, k0=1023: m^k0 exceeds double range\n"
        assert len(calls) <= 20


class TestLog2InverseOverflow:
    """A log2(1/p) column that would read inf because a double overflowed
    is refused with exit 2, naming the level and the column.  The check
    runs after the row's bound columns, so the bound refusals keep their
    levels and messages."""

    @pytest.mark.parametrize("argv, message", [
        (["--m", "4", "--pb", "0.3", "--levels", "2000"],
         "level 1023: alpha_log2inv exceeds double range"),
        (["--m", "2", "--rule", "alternating", "--levels", "3000"],
         "level 2045: beta_log2inv exceeds double range"),
        (["--m", "10", "--pb", "0.3", "--levels", "27000"],
         "level 441: alpha_log2inv exceeds double range"),
        # TestDoubleRangeRefusals holds the m = 3 and m = 255 bound refusals
        (["--m", "4", "--rule", "alternating", "--levels", "1170"],
         "level 792: bound factor for m=4 exceeds double range"),
    ], ids=["m4-pb", "m2-alternating", "m10-pb", "m4-alternating-bound"])
    def test_exit_2_names_level_and_column(self, capsys, argv, message):
        code = cli.run(["recurse", *argv, "--alpha0", "0.1", "--beta0", "0.1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_last_level_in_range_prints(self, capsys):
        code, _, rows = run_csv(capsys, [
            "recurse", "--m", "4", "--pb", "0.3", "--alpha0", "0.1", "--beta0", "0.1",
            "--levels", "1022",
        ])
        assert code == 0
        assert len(rows) == 1023
        assert all(math.isfinite(float(x)) for row in rows for x in row[3:6])

    @pytest.mark.parametrize("argv, message", [
        # the level-791 pair's table decides 1 at 3 and 4 ones only, so
        # alpha's log at level 792 is finite but its log2(1/p) overflows
        (["--m", "4", "--pi0", "0.5", "--levels", "792"],
         "level 792: alpha_log2inv exceeds double range"),
        # the table (0, 0, 1) gives alpha' = alpha^2, whose log overflows to -inf
        (["--m", "2", "--pi0", "0.8", "--levels", "2048"],
         "level 2048: alpha_log2inv exceeds double range"),
        # the step at level 2049 refuses that -inf, but the row below it
        # is refused first
        (["--m", "2", "--pi0", "0.8", "--levels", "2100"],
         "level 2048: alpha_log2inv exceeds double range"),
        (["--m", "6", "--pi0", "0.5", "--levels", "572"],
         "level 572: likelihood-ratio rule at m=6: both sides of count 2 "
         "leave double range"),
    ], ids=["m4-log2", "m2-log", "m2-log-before-step", "m6-both-sides"])
    def test_deep_lrt_is_refused(self, capsys, argv, message):
        code = cli.run(["recurse", "--rule", "lrt", *argv, "--alpha0", "0.1", "--beta0", "0.2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_last_lrt_level_in_range_prints(self, capsys):
        code, _, rows = run_csv(capsys, [
            "recurse", "--m", "4", "--rule", "lrt", "--alpha0", "0.1", "--beta0", "0.2",
            "--levels", "791",
        ])
        assert code == 0
        assert rows[-1] == ["791", "0", "0", "6.93359037818e+307", "7.67613936407e+307",
                            "6.93359037818e+307", "-2.40673243063e+238", ""]

    def test_first_refused_level_wins(self, capsys):
        # the bound refusal at level 1023 is found before the trace, which
        # stops below it; a step refusal at level 1024 and the overflow of
        # level 1022 lie either side, and the lower level is named, as with
        # --levels 1022
        argv = ["recurse", "--m", "3", "--rule", "lrt", "--alpha0", "0.01", "--beta0", "0.01"]
        for levels in ("1100", "1022"):
            assert cli.run([*argv, "--levels", levels]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: level 1022: alpha_log2inv exceeds double range\n"

    def test_trace_stops_below_the_first_refused_bound_level(self, capsys, monkeypatch):
        # the bound factor for m = 3 leaves double range at level 1023; the
        # walk steps a level by apply_rule or, on a deep pair, _deep_step
        real, real_deep, steps = kernel.apply_rule, kernel._deep_step, []

        def spy(pair, rule):
            steps.append(rule)
            return real(pair, rule)

        def deep(la, lb, table):
            steps.append(table)
            return real_deep(la, lb, table)

        monkeypatch.setattr(kernel, "apply_rule", spy)
        monkeypatch.setattr(kernel, "_deep_step", deep)
        code = cli.run(["recurse", "--m", "3", "--alpha0", "0.1", "--beta0", "0.2",
                        "--levels", "74999"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: level 1023: bound factor for m=3 exceeds double range\n"
        assert len(steps) == 1022  # levels 1..1022, none at or past 1023

    def test_exact_lrt_zero_prints_inf(self, capsys):
        # pi0 = 0.9 makes the table decide 0 at every count: alpha' = 0
        # and beta' = 1 exactly, and beta's bits print as 0, not -0
        code = cli.run([
            "recurse", "--m", "2", "--rule", "lrt", "--pi0", "0.9", "--alpha0", "0.45",
            "--beta0", "0.45", "--levels", "1",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[-1] == "1,0,1,inf,0,3.32192809489,-4.017921908,"


RECURSE =["recurse", "--m", "3", "--alpha0", "0.1", "--beta0", "0.1", "--levels", "1"]
SIMULATE = ["simulate", "--m", "2", "--height", "1", "--alpha0", "0.1", "--beta0", "0.1",
            "--trials", "10", "--seed", "1"]
SAMPLESIZE = ["samplesize", "--m", "3", "--alpha0", "0.1", "--beta0", "0.1",
              "--epsilon", "1e-6"]


@pytest.mark.parametrize("argv, flag, value", [
    (RECURSE, "--m", "1"),
    (RECURSE, "--levels", "-1"),
    (RECURSE, "--alpha0", "0"),
    (RECURSE, "--alpha0", "nan"),
    (RECURSE, "--beta0", "1"),
    (RECURSE, "--pi0", "1.5"),
    (SIMULATE, "--alpha0", "1"),
    (SIMULATE, "--beta0", "-0.1"),
    (SIMULATE, "--pi0", "-0.5"),
    (SAMPLESIZE, "--m", "0"),
    (SAMPLESIZE, "--alpha0", "inf"),
    (SAMPLESIZE, "--beta0", "0"),
    (SAMPLESIZE, "--epsilon", "0"),
    (SAMPLESIZE, "--epsilon", "1"),
    (["alphabet", "--m", "3", "--d", "10"], "--m", "1"),
    (["alphabet", "--m", "3", "--d", "10"], "--d", "1"),
    (["alphabet", "--m", "2", "--k0-max", "3"], "--k0-max", "0"),
    (["exponents", "--m-min", "2", "--m-max", "4"], "--m-min", "1"),
    (["exponents", "--m-min", "2", "--m-max", "4"], "--m-max", "65"),
])
def test_out_of_domain_number_is_refused(capsys, argv, flag, value):
    # argparse checks every occurrence of a flag, so the appended one is read
    code = cli.run([*argv, flag, value])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"argument {flag}:" in captured.err


class TestSimulate:
    ARGS = [
        "simulate", "--m", "2", "--height", "2", "--alpha0", "0.1",
        "--beta0", "0.1", "--trials", "20000", "--seed", "3",
    ]

    def test_schema_and_agreement(self, capsys):
        code, header, rows = run_csv(capsys, self.ARGS)
        assert code == 0
        assert header == ["estimate", "ci3sigma", "analytic", "zscore"]
        assert len(rows) == 1
        est, ci, analytic, z = (float(x) for x in rows[0])
        # m=2 majority with a fair coin keeps the leaf error exactly
        assert analytic == pytest.approx(0.1, rel=1e-12, abs=0)
        assert abs(z) <= 4.0
        assert est == pytest.approx(analytic, abs=ci * 2)

    def test_row_is_pinned(self, capsys):
        # recorded while every row still went through csv.writer
        assert cli.run(self.ARGS) == 0
        assert capsys.readouterr().out == (
            "estimate,ci3sigma,analytic,zscore\n"
            "0.0995,0.00634979428801,0.1,-0.235702260396\n")

    def test_deterministic_output(self, capsys):
        cli.run(self.ARGS)
        first = capsys.readouterr().out
        cli.run(self.ARGS)
        second = capsys.readouterr().out
        assert first == second

    def test_wide_alphabet_height_must_fit(self, capsys):
        code = cli.run([
            "simulate", "--m", "2", "--height", "3", "--d", "3",
            "--alpha0", "0.1", "--beta0", "0.1", "--trials", "10",
            "--seed", "1",
        ])
        assert code == 2
        assert "multiple of k0" in capsys.readouterr().err

    @pytest.fixture
    def no_per_level_work(self, monkeypatch):
        """Make each piece of a run's per-level work raise: reading the
        schedule, building m**height, the closed form and the run itself."""
        def per_level(*args, **kwargs):
            raise AssertionError("per-level work before the admission check")

        monkeypatch.setattr(kernel.Schedule, "__iter__", per_level)
        monkeypatch.setattr(kernel.Schedule, "__getitem__", per_level)
        monkeypatch.setattr(TreeSpec, "n_leaves", property(per_level))
        monkeypatch.setattr(simulate_module, "propagate", per_level)
        monkeypatch.setattr(simulate_module, "_run", per_level)

    def test_budget_refusal_is_usage_error(self, capsys, monkeypatch):
        # 100 trials x 4 leaves is 400 leaf samples
        monkeypatch.setattr(simulate_module, "DEFAULT_BUDGET", 10)
        code = cli.run([
            "simulate", "--m", "2", "--height", "2", "--alpha0", "0.1",
            "--beta0", "0.1", "--trials", "100", "--seed", "1",
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: simulation needs 100 trials x 2^2 leaves, more leaf samples "
            "than the budget of 10\n")

    def test_budget_flag_is_gone(self, capsys):
        assert cli.run([*self.ARGS, "--budget", "10"]) == 2
        assert "unrecognized arguments: --budget 10" in capsys.readouterr().err

    def test_tall_tree_refused_before_any_per_level_work(self, capsys, no_per_level_work):
        # a schedule, or 2**height written out, would take gigabytes here
        code = cli.run([
            "simulate", "--m", "2", "--height", "1000000000", "--alpha0", "0.1",
            "--beta0", "0.1", "--trials", "1", "--seed", "1",
        ])
        assert code == 2
        assert "budget" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, needles", [
        # every exact C(300000, s) would take over 20 s to build
        (["--m", "300000", "--height", "1"], ("--m 300000", "--height 1", "at most 300000")),
        # --d 700 sums counts for k0 = 2 levels: one decision over 600^2 counts
        (["--m", "600", "--height", "2", "--d", "700"], ("--m 600", "m^k0 = 360000")),
    ])
    def test_wide_fan_in_refused_before_any_per_level_work(
        self, capsys, no_per_level_work, flags, needles
    ):
        code = cli.run(["simulate", *flags, "--alpha0", "0.1", "--beta0", "0.2",
                        "--trials", "1", "--seed", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert "work limit" in err
        assert ("m^k0 =" in err) == ("--d" in flags)
        for needle in needles:
            assert needle in err

    def test_work_limit_is_inclusive(self, capsys, monkeypatch):
        # (height + 1) x (m + 1) = 3 x 3 at m = 2, height 2, above its 4 leaves
        argv = ["simulate", "--m", "2", "--height", "2", "--alpha0", "0.1",
                "--beta0", "0.1", "--trials", "10", "--seed", "1"]
        monkeypatch.setattr(kernel, "WORK_LIMIT", 3 * 3)
        assert cli.run(argv) == 0
        capsys.readouterr()
        monkeypatch.setattr(kernel, "WORK_LIMIT", 3 * 3 - 1)
        assert cli.run(argv) == 2
        err = capsys.readouterr().err
        assert "work limit" in err and "(height / k0 + 1) x (m^k0 + 1)" in err

    def test_tall_tree_refused_by_its_leaf_count(self, capsys, no_per_level_work):
        # 2^30 leaves fit the budget and the deciding tree fits the work
        # limit, but filling every leaf took over 2 minutes for one trial
        code = cli.run(["simulate", "--m", "2", "--height", "30", "--alpha0", "0.1",
                        "--beta0", "0.2", "--trials", "1", "--seed", "1"])
        err = capsys.readouterr().err
        assert code == 2
        for needle in ("--m 2", "--height 30", "1073741824 leaves", "at most 300000"):
            assert needle in err

    def test_leaf_limit_is_inclusive(self, capsys, monkeypatch):
        # 2^4 = 16 leaves at m = 2, height 4, above (4 + 1) x (2 + 1) = 15
        argv = ["simulate", "--m", "2", "--height", "4", "--alpha0", "0.1",
                "--beta0", "0.1", "--trials", "10", "--seed", "1"]
        monkeypatch.setattr(kernel, "WORK_LIMIT", 16)
        assert cli.run(argv) == 0
        capsys.readouterr()
        monkeypatch.setattr(kernel, "WORK_LIMIT", 15)
        assert cli.run(argv) == 2
        assert "16 leaves must be at most 15" in capsys.readouterr().err

    @pytest.mark.parametrize("samples, trials, chunks", [
        # serial: 16 leaves x 4 trials per chunk, 10 trials in 3 chunks
        ({"_CHUNK_SAMPLES": 64}, 10, 3),
    ])
    def test_fill_limit_counts_every_chunk(self, capsys, monkeypatch, samples, trials, chunks):
        # the limit is a serial run's leaf fills, leaves x chunks, as the run makes them
        for name, value in samples.items():
            monkeypatch.setattr(simulate_module, name, value)
        monkeypatch.setattr(simulate_module, "_cores", lambda: 2)
        real, leaf_fills = simulate_module._Streams.words, []

        def counted(streams, uid, start, n):
            if uid < 16:
                leaf_fills.append(uid)
            return real(streams, uid, start, n)

        monkeypatch.setattr(simulate_module._Streams, "words", counted)
        argv = ["simulate", "--m", "2", "--height", "4", "--alpha0", "0.1", "--beta0", "0.1",
                "--trials", str(trials), "--seed", "1"]
        monkeypatch.setattr(kernel, "WORK_LIMIT", 16 * chunks)
        assert cli.run(argv) == 0
        assert len(leaf_fills) == 16 * chunks
        capsys.readouterr()
        monkeypatch.setattr(kernel, "WORK_LIMIT", 16 * chunks - 1)
        assert cli.run(argv) == 2
        err = capsys.readouterr().err
        assert f"--trials {trials} exceeds the work limit" in err
        assert f"its {chunks} chunk(s) of trials x m^height = 16 leaves must be at most" in err

    @pytest.mark.parametrize("cores", [1, 2, 4, 8])
    def test_fill_limit_does_not_depend_on_cores(self, capsys, monkeypatch, cores):
        # one serial chunk of 100,000 trials fills 8 leaves once, within the
        # limit of 16; two or more shards would fill them in 4 or more chunks
        monkeypatch.setattr(simulate_module, "_cores", lambda: cores)
        monkeypatch.setattr(kernel, "WORK_LIMIT", 16)
        assert cli.run(["simulate", "--m", "2", "--height", "3", "--alpha0", "0.1",
                        "--beta0", "0.1", "--trials", "100000", "--seed", "1"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("flags, needles", [
        (["--pb", "0.3"], ("--pb", "odd")),
        (["--rule", "alternating"], ("alternating", "odd")),
    ])
    def test_conflict_names_the_deciding_fan_in(self, capsys, flags, needles):
        # --d 10 sums counts for k0 = 3 levels, so the deciding fan-in is 3^3
        code = cli.run([
            "simulate", "--m", "3", "--height", "3", "--d", "10", "--alpha0", "0.1",
            "--beta0", "0.1", "--trials", "10", "--seed", "1", *flags,
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert "fan-in 27" in err and "--m 27" not in err
        for needle in needles:
            assert needle in err

    def test_flag_warning_when_z_large(self, capsys, monkeypatch):
        from relaytree.simulate import ComparisonReport, SimResult

        def fake(config):
            r = SimResult(5, 10, 0.5, 0.3)
            return ComparisonReport(r, 0.1, 9.0, True)

        monkeypatch.setattr(cli, "compare_to_analytic", fake)
        code = cli.run(self.ARGS)
        err = capsys.readouterr().err
        assert code == 0
        assert "warning" in err and "> 4" in err


class TestVerifySubcommand:
    def test_suite_names_are_the_cli_choices(self):
        # scripts pass these to --suite; each must stay and hold a check
        assert list(SUITES) == ["kernel", "oracle", "bounds", "alphabet", "sim"]
        assert all(SUITES.values())

    @pytest.mark.parametrize("suite", ["alphabet", "bounds"])
    def test_fast_suite_passes(self, capsys, suite):
        code = cli.run(["verify", "--suite", suite])
        out = capsys.readouterr().out
        assert code == 0
        assert "ok" in out and "FAIL" not in out

    def test_failing_check_fails_the_run(self, capsys, monkeypatch):
        monkeypatch.setitem(SUITES, "alphabet", [
            ("forced_failure", lambda: ["synthetic violation"]),
        ])
        code = cli.run(["verify", "--suite", "alphabet"])
        captured = capsys.readouterr()
        assert code == 1
        assert "FAIL alphabet.forced_failure" in captured.out
        assert "synthetic violation" in captured.out
        assert "1 failure(s)" in captured.err

    def test_raising_check_fails_and_the_run_goes_on(self, capsys, monkeypatch):
        def broken():
            raise ValueError("synthetic crash")

        monkeypatch.setitem(SUITES, "alphabet", [("raises", broken), ("passes", lambda: [])])
        code = cli.run(["verify", "--suite", "alphabet"])
        captured = capsys.readouterr()
        assert code == 1
        assert "FAIL alphabet.raises" in captured.out
        assert "ValueError: synthetic crash" in captured.out
        assert "ok   alphabet.passes" in captured.out
        assert "1 failure(s)" in captured.err

    def test_unknown_suite_rejected(self, capsys):
        assert cli.run(["verify", "--suite", "bogus"]) == 2
        capsys.readouterr()

    def test_each_check_line_ends_with_its_wall_time(self, capsys, monkeypatch):
        monkeypatch.setitem(SUITES, "alphabet", [
            ("instant", lambda: []),
            ("forced_failure", lambda: ["synthetic violation"]),
        ])
        cli.run(["verify", "--suite", "alphabet"])
        lines = capsys.readouterr().out.splitlines()
        assert re.fullmatch(r"ok   alphabet\.instant  \d+\.\d s", lines[0])
        assert re.fullmatch(r"FAIL alphabet\.forced_failure  \d+\.\d s", lines[1])


class TestParser:
    def test_one_parser_per_process(self):
        assert cli._build_parser() is cli._build_parser()

    def test_reused_parser_carries_nothing_between_calls(self, capsys):
        # an LRT run with its own prior, the default majority run, a refused
        # value, then a valid run: each prints what it prints with a parser
        # built for it alone
        leaves = ["--alpha0", "0.1", "--beta0", "0.2", "--levels", "3"]
        calls = [
            ["recurse", "--m", "4", "--rule", "lrt", "--pi0", "0.3", *leaves],
            ["recurse", "--m", "4", *leaves],
            ["recurse", "--m", "4", "--pi0", "1.5", *leaves],
            ["recurse", "--m", "6", "--rule", "alternating", *leaves],
        ]

        def outcome(argv):
            code = cli.run(argv)
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        alone = []
        for argv in calls:
            cli._build_parser.cache_clear()
            alone.append(outcome(argv))
        parser = cli._build_parser()
        assert [outcome(argv) for argv in calls] == alone
        assert cli._build_parser() is parser
        assert [code for code, _, _ in alone] == [0, 0, 2, 0]
        assert alone[0][1] != alone[1][1]  # the prior of the first run did not stick

    def test_no_subcommand(self, capsys):
        assert cli.run([]) == 2
        capsys.readouterr()

    def test_unknown_flag(self, capsys):
        assert cli.run(["exponents", "--m-min", "2", "--m-max", "4",
                        "--wat", "1"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_closed_pipe_exits_141_quietly(self, unbuffered):
        # ~110 KB of rows, more than a pipe holds, so the writer must
        # meet the closed pipe; unbuffered, stdout writes straight to the
        # pipe, where one large write cut short would drop its rest quietly
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [sys.executable, "-m", "relaytree.cli", "recurse", "--m", "3",
             "--alpha0", "0.1", "--beta0", "0.1", "--levels", "1000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.readline().startswith(b"level,alpha,beta")
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 141
        assert err == b""

    def test_console_script_installed(self):
        exe = shutil.which("relaytree")
        if exe is None:
            pytest.skip("console script not on PATH")
        proc = subprocess.run(
            [exe, "exponents", "--m-min", "2", "--m-max", "3"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("m,majority_random")
