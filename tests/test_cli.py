import subprocess
import sys

import pytest

from conftest import chained_triangles
from cyclemill import cli, trn
from cyclemill.cli import main

PALEY_ARGS = ["gen", "--kind", "rotational", "--n", "7", "--symbols", "1,2,4"]


def run_cli(args, stdin_text=""):
    proc = subprocess.run(
        [sys.executable, "-m", "cyclemill.cli", *args],
        input=stdin_text,
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture
def paley_file(tmp_path, paley7):
    path = tmp_path / "paley7.trn"
    path.write_text(trn.dumps(paley7))
    return str(path)


class TestGen:
    def test_rotational_paley(self, paley7, capsys):
        assert main(PALEY_ARGS) == 0
        assert capsys.readouterr().out == trn.dumps(paley7)

    def test_seed_required_for_random(self, capsys):
        assert main(["gen", "--kind", "random", "--n", "5"]) == 2

    def test_random_with_seed(self, capsys):
        assert main(["gen", "--kind", "random", "--n", "5", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "5"

    def test_planted_kind(self, capsys):
        assert main(["gen", "--kind", "claim2", "--q", "3", "--seed", "4"]) == 0

    def test_bad_symbols(self, capsys):
        assert main(["gen", "--kind", "rotational", "--n", "7", "--symbols", "1,2,5"]) == 2


class TestPack:
    def test_paley_target_met(self, paley_file, capsys):
        assert main(["pack", "--q", "3", "--k", "2", "--input", paley_file]) == 0
        out = capsys.readouterr().out
        assert out.startswith("status=target_met\nq=3\nk=2\n")

    def test_target_missed_exit_1(self, paley_file, capsys):
        assert main(["pack", "--q", "3", "--k", "3", "--input", paley_file]) == 1

    def test_structured_format(self, paley_file, capsys):
        rc = main(["pack", "--q", "3", "--k", "2", "--input", paley_file, "--format", "structured"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cycles=2" in out and "fallback=false" in out

    def test_round_trip_stdin_vs_file(self, paley_file):
        rc1, gen_out, _ = run_cli(PALEY_ARGS)
        assert rc1 == 0
        rc2, piped, _ = run_cli(["pack", "--q", "3", "--k", "2", "--input", "-"], gen_out)
        rc3, filed, _ = run_cli(["pack", "--q", "3", "--k", "2", "--input", paley_file])
        assert rc2 == rc3 == 0
        assert piped == filed

    def test_bad_file_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.trn"
        bad.write_text("3\n010\n001\n")
        assert main(["pack", "--q", "3", "--k", "1", "--input", str(bad)]) == 2

    def test_budget_flag_accepted(self, paley_file, capsys):
        rc = main(["pack", "--q", "3", "--k", "2", "--input", paley_file, "--budget", "0"])
        assert rc == 0  # greedy alone succeeds

    @pytest.mark.parametrize(
        "args",
        [
            ["pack", "--q", "3", "--k", "2"],
            ["verify", "--q", "3", "--k", "2", "--packing", "out.txt"],
            ["oracle", "--q", "3"],
            ["hamcycle"],
        ],
        ids=lambda args: args[0],
    )
    def test_seed_flag_rejected_where_unused(self, args, paley_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*args, "--input", paley_file, "--seed", "5"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err


class TestVerify:
    def test_valid_packing(self, paley_file, tmp_path, capsys):
        main(["pack", "--q", "3", "--k", "2", "--input", paley_file])
        report = capsys.readouterr().out
        packing_file = tmp_path / "out.txt"
        packing_file.write_text(report)
        rc = main(
            ["verify", "--q", "3", "--k", "2", "--packing", str(packing_file), "--input", paley_file]
        )
        assert rc == 0

    def test_corrupted_packing(self, paley_file, tmp_path, capsys):
        packing_file = tmp_path / "out.txt"
        packing_file.write_text("0 1 3\n3 4 6\n")
        rc = main(
            ["verify", "--q", "3", "--k", "2", "--packing", str(packing_file), "--input", paley_file]
        )
        assert rc == 1
        assert "vertex 3" in capsys.readouterr().out


class TestOracle:
    def test_paley_max(self, paley_file, capsys):
        assert main(["oracle", "--q", "3", "--input", paley_file]) == 0
        assert capsys.readouterr().out.startswith("max=2\n")

    def test_cap_exit_3(self, paley_file, capsys):
        assert main(["oracle", "--q", "3", "--input", paley_file, "--cap", "5"]) == 3


class TestSearch:
    def test_smoke_exhaustive(self, capsys):
        rc = main(
            ["search", "--q", "3", "--k", "1", "--n-min", "3", "--n-max", "4", "--degree-floor", "1"]
        )
        assert rc == 0
        assert "violators=0" in capsys.readouterr().out

    def test_violators_exit_1(self, capsys):
        rc = main(
            ["search", "--q", "3", "--k", "1", "--n-min", "3", "--n-max", "3", "--degree-floor", "0"]
        )
        assert rc == 1

    def test_random_needs_seed(self, capsys):
        rc = main(
            ["search", "--q", "3", "--k", "1", "--n-min", "5", "--n-max", "5",
             "--mode", "random", "--samples", "5"]
        )
        assert rc == 2


class TestClaimCheck:
    def test_fact1(self, capsys):
        rc = main(["claim-check", "--claim", "fact1", "--trials", "50", "--seed", "3"])
        assert rc == 0
        assert "violations=0" in capsys.readouterr().out

    def test_unknown_claim(self, capsys):
        assert main(["claim-check", "--claim", "fact9", "--trials", "5", "--seed", "3"]) == 2


class TestHamcycle:
    def test_paley(self, paley_file, capsys):
        assert main(["hamcycle", "--input", paley_file]) == 0
        cycle = [int(v) for v in capsys.readouterr().out.split()]
        assert sorted(cycle) == list(range(7))

    def test_not_strong_exit_2(self, tmp_path, capsys):
        t4 = tmp_path / "t4.trn"
        t4.write_text("4\n0111\n0011\n0001\n0000\n")
        assert main(["hamcycle", "--input", str(t4)]) == 2


class TestChainedTriangles:
    """A chain of more triangles than the recursion limit, the shape of the
    benchmark's ceiling oracle input: the exact search must not recurse."""

    @pytest.fixture(scope="class")
    def chain(self, tmp_path_factory):
        m = sys.getrecursionlimit() + 1
        path = tmp_path_factory.mktemp("chain") / "chain.trn"
        path.write_text(trn.dumps(chained_triangles(m)))
        return m, str(path)

    def test_oracle_exit_0(self, chain):
        m, path = chain
        code, out, err = run_cli(["oracle", "--q", "3", "--input", path])
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[0] == f"max={m}" and len(lines) == m + 1

    def test_pack_exit_1(self, chain):
        m, path = chain
        code, out, err = run_cli(["pack", "--q", "3", "--k", str(m + 1), "--input", path])
        assert (code, err) == (1, "")
        assert out.startswith(f"status=hypothesis_unmet\nq=3\nk={m + 1}\n")
        assert out.endswith(f"MOVE greedy 0 {m}\n")


class TestInternalError:
    def test_unexpected_exception_exit_4(self, paley_file, monkeypatch, capsys):
        def crash(args):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli, "_cmd_oracle", crash)
        assert main(["oracle", "--q", "3", "--input", paley_file]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal error: RecursionError: maximum recursion depth exceeded\n"
