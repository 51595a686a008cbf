import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from baskets import arith, cli
from baskets.arith import triangular
from baskets.census import enumerate_distributions
from baskets.solver import Solution, feasible, pear_bound, solve

from .conftest import distinct_sets, read_series


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRounding:
    @pytest.mark.parametrize("value,places,expected", [
        (11.465856099730654, 1, "11.5"),
        (0.8721546749775545, 2, "0.87"),
        (2.0, 1, "2.0"),
        (0.5, 2, "0.50"),
        (2.5615528128088303, 1, "2.6"),
        (0.25, 1, "0.3"),   # ties away from zero, not banker's
        (0.15, 1, "0.2"),
    ])
    def test_half_away_from_zero(self, value, places, expected):
        assert cli.round_half_away(value, places) == expected


class TestSolveCommand:
    def test_text_output(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "60")
        assert code == 0
        assert "10 baskets" in out and "6 apples" in out
        assert "surplus 15" in out
        assert "{0, 1, 2, 3, 4, 5, 6, 7, 8, 24}" in out

    def test_single_basket(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "5")
        assert code == 0
        assert "1 baskets" in out and "5 apples" in out
        assert "{5}" in out

    def test_json_fields(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "60", "--format", "json")
        payload = json.loads(out)
        assert payload == {
            "n_input": 60,
            "n_max": 10,
            "apples_per_basket": 6,
            "pear_bound": payload["pear_bound"],
            "efficiency": payload["efficiency"],
            "surplus": 15,
            "canonical": [0, 1, 2, 3, 4, 5, 6, 7, 8, 24],
        }
        assert payload["pear_bound"] == pytest.approx(11.466, abs=1e-3)

    @pytest.mark.parametrize("bad", ["0", "-3", "2.5", "sixty"])
    def test_usage_errors(self, bad):
        with pytest.raises(SystemExit) as err:
            cli.main(["solve", bad])
        assert err.value.code == cli.EXIT_USAGE

    def test_json_round_trip_invariants(self, capsys):
        for n in range(1, 1001):
            code, out, _ = run_cli(capsys, "solve", str(n), "--format", "json")
            assert code == 0
            p = json.loads(out)
            assert p["n_input"] == n
            assert n % p["n_max"] == 0
            assert p["apples_per_basket"] * p["n_max"] == n
            assert p["surplus"] == n - triangular(p["n_max"])
            assert p["pear_bound"] == pear_bound(n)
            assert p["efficiency"] == p["n_max"] / p["pear_bound"]
            counts = p["canonical"]
            assert len(counts) == p["n_max"]
            assert sum(counts) == n
            assert all(b > a for a, b in zip(counts, counts[1:]))


class _Discard(io.TextIOBase):
    def write(self, text):
        return len(text)


class TestCanonicalStreaming:
    """`solve` writes the canonical list in blocks, never as a tuple."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 60, 61, 45, 55, 4949, 4951,
                                   10**6 + 3, 48886437600])
    def test_solve_bytes_match_the_built_list(self, capsys, n):
        # 4949 and 4951 are T(100) - 1 and T(100) + 1
        s = solve(n)
        counts = enumerate_distributions(s.n_max, n, 1)[0].counts
        expected_json = json.dumps({
            "n_input": s.n_input,
            "n_max": s.n_max,
            "apples_per_basket": s.apples_per_basket,
            "pear_bound": s.pear_bound,
            "efficiency": s.efficiency,
            "surplus": s.surplus,
            "canonical": list(counts),
        }) + "\n"
        assert run_cli(capsys, "solve", str(n), "--format", "json")[1] == expected_json
        text = run_cli(capsys, "solve", str(n))[1]
        assert text.splitlines()[-1] == "pears: {" + ", ".join(map(str, counts)) + "}"
        assert text.endswith("}\n")

    @pytest.mark.parametrize("last", [2**16 - 1, 2**16, 2**16 + 1, 2 * 2**16])
    @pytest.mark.parametrize("surplus", [0, 7])
    def test_block_edges(self, last, surplus):
        n = last + 1
        n_input = triangular(n) + surplus
        solution = Solution(n_input=n_input, n_max=n, apples_per_basket=0,
                            pear_bound=0.0, efficiency=0.0, surplus=surplus)
        (first,) = enumerate_distributions(n, n_input, 1)
        expected = ", ".join(map(str, first.counts))
        assert "".join(cli._canonical_chunks(solution)) == expected

    def test_memory_does_not_grow_with_n(self, monkeypatch):
        # n_max = 311220: a built tuple, its list copy and the JSON text peak near 18 MiB
        monkeypatch.setattr(sys, "stdout", _Discard())
        tracemalloc.start()
        try:
            code = cli.main(["solve", "48886437600", "--format", "json"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == cli.EXIT_OK
        assert peak < 8 * 2**20


class TestTableCommand:
    def test_row_values(self, capsys):
        _, out, _ = run_cli(capsys, "table", "60", "60", "--format", "csv")
        assert out.splitlines()[1] == '60,11.5,10,6,0.87,"{0, 1, 2, 3, 4, 5, 6, 7, 8, 24}",plain'

    def test_row_two(self, capsys):
        _, out, _ = run_cli(capsys, "table", "2", "2", "--format", "csv")
        assert out.splitlines()[1] == '2,2.6,2,1,0.78,"{0, 2}",prime'

    def test_row_98_near_perfect(self, capsys):
        _, out, _ = run_cli(capsys, "table", "98", "98", "--format", "csv")
        row = out.splitlines()[1]
        assert row.startswith("98,14.5,14,7,0.96,")
        assert row.endswith(",near_perfect")

    def test_markdown_shape(self, capsys):
        _, out, _ = run_cli(capsys, "table", "1", "3", "--format", "markdown")
        lines = out.splitlines()
        assert lines[0].startswith("| N | Bnd |")
        assert set(lines[1]) <= set("|- ")
        assert len(lines) == 5

    def test_plain_is_default(self, capsys):
        _, out, _ = run_cli(capsys, "table", "1", "3")
        assert "N" in out.splitlines()[0] and "," not in out.splitlines()[0]

    def test_empty_range_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "table", "5", "3")
        assert code == cli.EXIT_USAGE
        assert "range" in err

    def test_rows_past_int32(self, capsys):
        code, out, _ = run_cli(capsys, "table", "2147483647", "2147483648", "--format", "csv")
        assert code == 0
        rows = out.splitlines()[1:]
        assert len(rows) == 2
        assert rows[0].startswith("2147483647,") and rows[0].endswith(",prime")  # 2^31 - 1
        assert rows[1].startswith("2147483648,")

    def test_csv_rows_are_streamed(self, monkeypatch):
        # 3000 rows kept in one list before writing peak near 1.5 MiB; the
        # cached parser is built first so that it is not counted
        cli.build_parser()
        monkeypatch.setattr(sys, "stdout", _Discard())
        tracemalloc.start()
        try:
            code = cli.main(["table", "1", "3000", "--format", "csv"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == cli.EXIT_OK
        assert peak < 0.5 * 2**20


class TestClassifyCommand:
    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "50", "--format", "json")
        payload = json.loads(out)
        assert payload["near_perfect"] is True
        assert payload["display_class"] == "near_perfect"

    def test_text(self, capsys):
        _, out, _ = run_cli(capsys, "classify", "60")
        assert "highly_composite=True" in out
        assert "display_class=highly_composite" in out

    def test_past_int32(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "2147483648", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["n_input"] == 2**31
        assert payload["near_perfect"] is True  # n_max = 2^16

    # N -> (perfect, prime, near_perfect, highly_composite, display_class)
    PINNED = {
        1: (False, False, False, True, "highly_composite"),
        2: (False, True, False, True, "prime"),
        3: (True, True, False, False, "perfect"),
        10: (True, False, False, False, "perfect"),
        45: (False, False, False, False, "plain"),
        50: (False, False, True, False, "near_perfect"),
        55: (True, False, False, False, "perfect"),
        60: (False, False, False, True, "highly_composite"),
        61: (False, True, False, False, "prime"),
        4950: (False, False, True, False, "near_perfect"),
        2147483648: (False, False, True, False, "near_perfect"),
    }

    @pytest.mark.parametrize("n", sorted(PINNED))
    def test_exact_bytes(self, capsys, n):
        # the key order is a compatibility contract (see README), so the
        # whole line is compared, not the parsed object
        perfect, prime, near, hc, display = self.PINNED[n]
        js = {True: "true", False: "false"}
        _, out, _ = run_cli(capsys, "classify", str(n), "--format", "json")
        assert out == (f'{{"n_input": {n}, "perfect": {js[perfect]}, '
                       f'"prime": {js[prime]}, "near_perfect": {js[near]}, '
                       f'"highly_composite": {js[hc]}, '
                       f'"display_class": "{display}"}}\n')
        _, out, _ = run_cli(capsys, "classify", str(n))
        assert out == (f"perfect={perfect}\nprime={prime}\nnear_perfect={near}\n"
                       f"highly_composite={hc}\ndisplay_class={display}\n")


class TestCountCommand:
    def test_explicit_baskets(self, capsys):
        code, out, _ = run_cli(capsys, "count", "60", "--baskets", "10")
        assert code == 0
        expected = sum(1 for _ in distinct_sets(60, 10))
        assert f"count={expected}" in out
        assert "surplus=15" in out

    def test_tight_case(self, capsys):
        _, out, _ = run_cli(capsys, "count", "10", "--baskets", "5")
        assert "count=1" in out and "surplus=0" in out

    def test_pair(self, capsys):
        _, out, _ = run_cli(capsys, "count", "3", "--baskets", "2")
        assert "count=2" in out

    def test_defaults_to_solved_baskets(self, capsys):
        _, out, _ = run_cli(capsys, "count", "60")
        assert "baskets=10" in out

    def test_infeasible_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "count", "60", "--baskets", "12")
        assert code == cli.EXIT_DOMAIN
        assert "error:" in err


class TestPerfectCommand:
    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "perfect", "--limit", "200")
        lines = out.splitlines()
        assert lines[0] == "N=3 baskets=3"
        assert lines[-1] == "9 perfect values <= 200"

    def test_csv(self, capsys):
        _, out, _ = run_cli(capsys, "perfect", "--limit", "200", "--format", "csv")
        lines = out.splitlines()
        assert lines[0] == "N,nmax"
        assert lines[1] == "3,3" and lines[-1] == "171,19"

    # sha256 of the output when perfect_values still returned a list; L = 1 and 2
    # have no perfect value, so csv is the header alone and text "0 perfect values"
    PINNED_SHA256 = {
        (1, "text"): "a18c01ece444361a3726a54eeb24dd22da5fe735d4ab98c855af1ebc05664680",
        (1, "csv"): "a8f7d8712d0175decfe344fafc64fd52b7420bbb97f72a4961a269aed58d1dd8",
        (2, "text"): "dd6e5bf4e7537337acb6e0e66b6ea66c143e48f45312fc05bb879a52af25299e",
        (2, "csv"): "a8f7d8712d0175decfe344fafc64fd52b7420bbb97f72a4961a269aed58d1dd8",
        (3, "text"): "0c92fd8e45a3e164be2dcce804a705539d956e133abf6012951d96f2465d462c",
        (3, "csv"): "f3aff7012c39b5ca89a68cee655bf0a084235f43a322c7a9d4db65ffdb7bfb24",
        (5, "text"): "04780d5509809af1cdab999f456938c193872697b14f3fd940aed01cb8ed43a8",
        (5, "csv"): "f3aff7012c39b5ca89a68cee655bf0a084235f43a322c7a9d4db65ffdb7bfb24",
        (6, "text"): "dcbd28a98b030bc8e2886221e5bd017792098c767c57d2d16a341b111c5ab04b",
        (6, "csv"): "f3aff7012c39b5ca89a68cee655bf0a084235f43a322c7a9d4db65ffdb7bfb24",
        (100, "text"): "47c813fb25e43283809c250192b72fb766235bf0939c89a090742815fbf90530",
        (100, "csv"): "0ccab20e2b64bcf8eb3746f409a0d15dd963fe18a5f819b15bf0dc06a04042f9",
        (10**6, "text"): "0601b80d30b4f7c115201dfe36c3270676e2372df05869e73d11f8580e57a603",
        (10**6, "csv"): "802f31a0a8e4359cc14929df6c498661fb754c40d3b4369a074e7b619fd14a01",
    }

    @pytest.mark.parametrize("limit,fmt", list(PINNED_SHA256))
    def test_pinned_bytes(self, capsys, limit, fmt):
        code, out, _ = run_cli(capsys, "perfect", "--limit", str(limit), "--format", fmt)
        assert code == cli.EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == self.PINNED_SHA256[limit, fmt]

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    def test_memory_does_not_grow_with_limit(self, monkeypatch, fmt):
        # 70,710 lines at 10^10: a built list of the pairs peaks near 9 MB
        monkeypatch.setattr(sys, "stdout", _Discard())
        tracemalloc.start()
        try:
            code = cli.main(["perfect", "--limit", str(10**10), "--format", fmt])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == cli.EXIT_OK
        assert peak < 1_000_000


# sha256 of each file of a 10^7 sweep, the digests that perfbench's sweep
# workload checks
SWEEP_DIGESTS_1E7 = {
    "nmax_sampled.csv": "b777e9a6fc9bedf0b5e9b12c27aedfb5afb069cf954b2466a53bb1e46f1ccb3b",
    "nmax_perfect.csv": "1e3fa5cd7ea76e844b3780b4526dc33c2726bda91a69b9c04b1da0db1755a451",
    "nmax_primes_10k.csv": "9fb57afe74a50075dcd971f90f64ba329316bebbd4e5310685e10cc6a35b6821",
    "nmax_1m_sampled.csv": "8c793f67da5287f9fe82279e14f076d57c199133eba35c0529c255c738ca42d2",
    "nmax_1m_perfect.csv": "2fe31477c3a2cdcefeb5395d0993368a08d3cda6a14dff16a3fdcbd6a9323cab",
    "nmax_primes_1m.csv": "9109a8a7ab8ab84d48be05839d63e6651830a56d23abe087796ff8b30b236300",
}


class TestSweepCommand:
    def test_summary_and_files(self, capsys, tmp_path):
        out_dir = tmp_path / "datasets"
        code, out, _ = run_cli(capsys, "sweep", "--limit", "300",
                               "--stride", "1", "--out", str(out_dir))
        assert code == 0
        assert "records: 300" in out
        assert "perfect values: 12" in out  # largest is 300 = 25*24/2
        rows = read_series(out_dir / "nmax_sampled.csv")
        assert len(rows) == 300

    def test_zero_limit_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["sweep", "--limit", "0"])
        assert err.value.code == cli.EXIT_USAGE

    def test_limit_past_ceiling_is_domain_error(self, capsys, tmp_path):
        out_dir = tmp_path / "datasets"
        code, out, err = run_cli(capsys, "sweep", "--limit", "2147483648",
                                 "--out", str(out_dir))
        assert code == cli.EXIT_DOMAIN
        assert "error:" in err and out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_ten_million_bytes_are_pinned(self, capsys, tmp_path, threads):
        code, out, _ = run_cli(capsys, "sweep", "--limit", "10000000",
                               "--threads", threads, "--out", str(tmp_path))
        assert code == 0
        assert out.splitlines()[:3] == [
            "records: 10000000", "perfect values: 2235", "primes: 664579"]
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in tmp_path.iterdir()}
        assert digests == SWEEP_DIGESTS_1E7

    def test_unwritable_output_is_io_error(self, capsys, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        code, _, err = run_cli(capsys, "sweep", "--limit", "10", "--out", str(blocker))
        assert code == cli.EXIT_IO
        assert "error:" in err


class TestOracleCommand:
    def test_clean_run(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--limit", "100")
        assert code == 0
        assert "0 mismatches" in out

    def test_single_value(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--limit", "1")
        assert code == 0 and "0 mismatches" in out

    def test_guard_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["oracle", "--limit", "10001"])
        assert err.value.code == cli.EXIT_USAGE


class TestArguments:
    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="this interpreter has no int-string digit limit")
    def test_too_many_digits_is_usage_error(self, capsys):
        limit = sys.get_int_max_str_digits()
        text = "9" * (limit + 1)
        with pytest.raises(SystemExit) as err:
            cli.main(["solve", text])
        assert err.value.code == cli.EXIT_USAGE
        message = capsys.readouterr().err
        assert message.splitlines()[-1] == (
            f"baskets solve: error: argument n: {limit + 1} characters exceed the "
            f"{limit}-digit integer limit (sys.get_int_max_str_digits())")

    def test_not_an_integer(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["solve", "12x"])
        assert err.value.code == cli.EXIT_USAGE
        assert capsys.readouterr().err.endswith("argument n: '12x' is not an integer\n")


class TestExitCodes:
    def test_distinct_codes(self):
        assert len({cli.EXIT_OK, cli.EXIT_MISMATCH, cli.EXIT_USAGE,
                    cli.EXIT_DOMAIN, cli.EXIT_IO}) == 5

    def test_programming_error_is_not_a_domain_error(self, monkeypatch):
        def broken_solve(n):
            raise ValueError("bug")

        monkeypatch.setattr(cli, "solve", broken_solve)
        with pytest.raises(ValueError, match="bug"):
            cli.main(["solve", "60"])

    def test_pear_bound_past_float_range_is_a_domain_error(self, capsys):
        code, out, err = run_cli(capsys, "classify", "1" + "0" * 700)
        assert code == cli.EXIT_DOMAIN
        assert out == ""
        assert err == "error: the pear bound exceeds float range for N above about 1.6e616\n"

    @pytest.mark.parametrize("command", ["solve", "classify"])
    def test_rho_budget_is_a_domain_error(self, capsys, monkeypatch, command):
        monkeypatch.setattr(arith, "RHO_STEPS", 64)
        code, out, err = run_cli(capsys, command, str(6 * 1000003 * 1000033))
        assert code == cli.EXIT_DOMAIN
        assert out == ""
        assert err == ("error: cannot factor 1000036000099: Pollard rho found no "
                       "factor in 64 steps\n")


class TestParserReuse:
    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    @pytest.mark.parametrize("first,second,expected", [
        (["count", "60", "--baskets", "5"], ["count", "60"], "baskets=10"),
        (["solve", "60", "--format", "json"], ["solve", "60"], "N=60: 10 baskets"),
        (["solve", "0"], ["solve", "60"], "N=60: 10 baskets"),
    ])
    def test_earlier_parse_leaves_no_trace(self, capsys, monkeypatch,
                                           first, second, expected):
        try:
            cli.main(first)
        except SystemExit as exc:
            assert exc.code == cli.EXIT_USAGE
        capsys.readouterr()
        reused = run_cli(capsys, *second)
        with monkeypatch.context() as m:
            m.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
            fresh = run_cli(capsys, *second)
        assert reused == fresh
        assert reused[0] == cli.EXIT_OK and expected in reused[1]

    def test_import_builds_no_parser(self):
        script = (
            "import argparse\n"
            "calls = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting(self, *args, **kwargs):\n"
            "    calls.append(1)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "import baskets, baskets.cli\n"
            "print(len(calls))\n"
            "baskets.cli.build_parser()\n"
            "print(len(calls) > 0)\n"
        )
        src = str(Path(cli.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                                text=True, check=True, env={**os.environ, "PYTHONPATH": path})
        assert result.stdout == "0\nTrue\n"


def test_feasibility_guard_matches_cli_expectations():
    # count --baskets n is accepted exactly when n baskets are feasible
    assert feasible(10, 60) and not feasible(12, 60)
