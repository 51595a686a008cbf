import json

import pytest

from baskets import cli
from baskets.arith import triangular
from baskets.solver import feasible, pear_bound

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


def test_feasibility_guard_matches_cli_expectations():
    # count --baskets n is accepted exactly when n baskets are feasible
    assert feasible(10, 60) and not feasible(12, 60)
