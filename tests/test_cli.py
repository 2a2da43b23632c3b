"""Command-line behavior: outputs, determinism, exit codes."""

import hashlib
import json
from pathlib import Path

import pytest

from conftest import plant_wrong_scalar
from maclab.cli import main
from maclab.errors import InvariantViolation
from maclab.macdonald import CheckLine


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def readme_commands():
    """The `maclab ...` lines of the README's "Command line" block, as argv."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = section.split("```sh", 1)[1].split("```", 1)[0]
    return [
        line.split("#", 1)[0].split()[1:]
        for line in block.splitlines()
        if line.startswith("maclab ")
    ]


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_command_line(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 0, err
    assert out


class TestCompute:
    def test_E_json(self, capsys):
        rc, out, _ = run(
            capsys, "E", "--n", "3", "--mu", "2,1,0", "--format", "json"
        )
        assert rc == 0
        doc = json.loads(out)
        assert doc["schema"] == "macdonald-lab/1"
        assert doc["mu"] == [2, 1, 0]
        exps = [t["x"] for t in doc["terms"]]
        assert [1, 1, 1] in exps and [2, 1, 0] in exps

    def test_E_latex_mentions_t_not_v(self, capsys):
        rc, out, _ = run(
            capsys, "E", "--n", "3", "--mu", "2,1,0", "--format", "latex"
        )
        assert rc == 0
        assert "t" in out and "v" not in out

    def test_relative_E(self, capsys):
        rc, out, _ = run(
            capsys, "E", "--n", "3", "--mu", "1,0,0", "--z", "2,1,3",
            "--format", "json",
        )
        assert rc == 0
        assert json.loads(out)["z"] == [2, 1, 3]

    def test_count(self, capsys):
        rc, out, _ = run(
            capsys, "count", "--n", "10", "--mu", "4,3,3,3,2,2,1,1,0,0",
            "--what", "naf",
        )
        assert rc == 0
        assert out.strip() == "3189375"

    def test_word_and_inv(self, capsys):
        rc, out, _ = run(capsys, "word", "--n", "3", "--mu", "2,1,0")
        assert rc == 0
        assert out.strip() == "pi pi s1 pi"
        rc, out, _ = run(
            capsys, "inv", "--n", "5", "--mu", "0,4,5,1,4", "--format", "json"
        )
        assert rc == 0
        doc = json.loads(out)
        assert doc["length"] == 23
        assert len(doc["inversions"]) == 23

    def test_fillings_and_walks(self, capsys):
        rc, out, _ = run(
            capsys, "fillings", "--n", "3", "--mu", "2,2,0", "--format", "json"
        )
        assert rc == 0
        assert json.loads(out)["count"] == 4
        rc, out, _ = run(capsys, "walks", "--n", "2", "--mu", "3,0")
        assert rc == 0
        assert out.splitlines() == [
            "pi s1 pi s1 pi",
            "pi s1 pi 1 pi",
            "pi 1 pi s1 pi",
            "pi 1 pi 1 pi",
        ]

    def test_P_and_cst_agree(self, capsys):
        rc1, out1, _ = run(
            capsys, "P", "--n", "3", "--lam", "2,1,0", "--format", "json"
        )
        rc2, out2, _ = run(
            capsys, "P", "--n", "3", "--lam", "2,1,0", "--method", "cst",
            "--format", "json",
        )
        assert rc1 == rc2 == 0
        assert json.loads(out1)["terms"] == json.loads(out2)["terms"]


class TestDeterminism:
    def test_byte_identical_repeats(self, capsys):
        a = run(capsys, "E", "--n", "3", "--mu", "0,2,1", "--format", "json")
        b = run(capsys, "E", "--n", "3", "--mu", "0,2,1", "--format", "json")
        assert a == b
        a = run(capsys, "walks", "--n", "3", "--mu", "1,2,0", "--format", "json")
        b = run(capsys, "walks", "--n", "3", "--mu", "1,2,0", "--format", "json")
        assert a == b


class TestParserReuse:
    CALLS = [
        ["E", "--n", "3", "--mu", "0,2,1", "--z", "2,1,3", "--format", "json"],
        ["P", "--n", "3", "--lam", "2,1,0", "--method", "cst"],
        ["F", "--n", "2", "--mu", "1,0", "--format", "latex"],
        ["count", "--n", "3", "--mu", "2,0,1", "--what", "naf", "--format", "json"],
        ["E", "--n", "3", "--mu", "2,1,0"],
    ]

    def test_no_state_between_calls(self, capsys, monkeypatch):
        # one parser serves every call; each call must see only its argv
        from maclab import cli

        shared = [run(capsys, *argv) for argv in self.CALLS]
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        fresh = [run(capsys, *argv) for argv in self.CALLS]
        assert shared == fresh
        assert [rc for rc, _, _ in shared] == [0, 0, 2, 0, 0]


class TestFConstant:
    def test_only_json_computes_the_constant(self, capsys, monkeypatch):
        from maclab import cli

        argv = ["F", "--n", "4", "--mu", "0,1,0,1", "--format"]
        want = {fmt: run(capsys, *argv, fmt) for fmt in ("plain", "latex")}
        refusal = run(capsys, "F", "--n", "2", "--mu", "1,0", "--format", "latex")

        def refuse(mu):
            raise AssertionError("symmetrization_constant called")

        monkeypatch.setattr(cli.macdonald, "symmetrization_constant", refuse)
        for fmt in ("plain", "latex"):
            assert run(capsys, *argv, fmt) == want[fmt]
            assert want[fmt][0] == 0
        assert refusal[0] == 2
        assert run(capsys, "F", "--n", "2", "--mu", "1,0", "--format", "latex") == refusal
        monkeypatch.undo()
        rc, out, _ = run(capsys, *argv, "json")
        assert rc == 0
        assert "symmetrization_constant" in json.loads(out)


class TestGoldenDigests:
    """SHA-256 of stdout, pinned so that refactors keep the bytes."""

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                "E --n 4 --mu 1,0,3,4 --format json",
                "167410c3c013fc3e33d6904ece07ba0cef98251c0887b61da8c3aadacdcfb3f5",
            ),
            (
                "F --n 3 --mu 1,2,0 --format json",
                "78de366a4fbc4e6826c3fc2cf7526e5879175caab2db226ef014a0b56cc1f8d7",
            ),
            (
                "P --n 4 --lam 3,2,1,0 --method symmetrize --format json",
                "83678c01e9c2f79ae0737ba94f9ab163c6214f4091ba34745c31e9659e88fd39",
            ),
            (
                "E --n 4 --mu 2,0,0,3 --z 4,1,2,3 --format json",
                "a2984ab05df2dd568120a1e869b31bc93212f22ff07089ae75cc0dd1d72ae742",
            ),
            (
                "f --n 4 --mu 3,0,2,0 --format json",
                "03af9426148644ebf3522ddfd8387424a07a2df1053df99b78d06233283fdc48",
            ),
            (
                "P --n 3 --lam 5,1,0 --method cst --format json",
                "2e843bfd2219002a9c38e05906511f86a4cfa5b79a1bb19efe91ecd1c7db261d",
            ),
            (
                "P --n 3 --lam 5,1,0 --method sum-rel --format json",
                "ca90edead52e3ed050854596fd8c1963a9c34de1641e168fb8ac9858a6da1076",
            ),
            (
                "E --n 3 --mu 0,3,4 --format latex",
                "9a0244a96ccc5e2a25cca0538e3b5b3a069ebe41098adf4aa60b8588fa8adfd5",
            ),
            (
                "E --n 3 --mu 0,3,4",
                "c43d858f98c6ecac604cd8f490640b810bb34e3e92efb956d526d6142e1b7ca8",
            ),
            # the verbs whose JSON documents share one header, in json and plain
            (
                "count --n 4 --mu 1,0,3,2 --what aw --format json",
                "e11f09d3acf31d2bc64682182c99ebed946c28dae42c20881af0640bfb55907e",
            ),
            (
                "count --n 4 --mu 1,0,3,2 --what aw",
                "f16c302d5d30e1d3fbe955cf4f637f58a871adeba597922e3baad0aeeb13f656",
            ),
            (
                "count --n 4 --mu 1,0,3,2 --what naf --format json",
                "d1d77f2980095bbe972d35e9ebb2ec3063108087f865e541ff744af41a4ebcf5",
            ),
            (
                "count --n 4 --mu 1,0,3,2 --what naf",
                "ce678067b339bdf19e0ed36e1f3a8c007439b2135a412cfda3ea1169e32dd1fc",
            ),
            (
                "count --n 4 --mu 3,2,1,0 --what cst --format json",
                "84bd4ba0a8ad3e80d04ad5a7c72b1ec6119023fd03377aa61231ab4a6bd1dcc2",
            ),
            (
                "count --n 4 --mu 3,2,1,0 --what cst",
                "913f5d1da2feaf4deeccc9e55cbb350a20f12b3f507e87be85dbb77fdd3cb9bc",
            ),
            (
                "word --n 4 --mu 0,2,1,3 --kind box --format json",
                "0f871c2fe996d72605acaf4f16be81130acdb77de83a65df25bb8db7aac6050f",
            ),
            (
                "word --n 4 --mu 0,2,1,3 --kind box",
                "80728b9c3dd52b9cfb4367243f41f916da327f56b91a724c5af9e173fba588fd",
            ),
            (
                "word --n 4 --mu 0,2,1,3 --kind column --format json",
                "298fd94dbafa93dabc1585b335a8c57a5cf0f512f28536f11cb7d07dc2ba7ae1",
            ),
            (
                "word --n 4 --mu 0,2,1,3 --kind column",
                "0713f189a590efd5db538037f43d93e61c220fb54b7c8ae44c6ccb4a1bcf1517",
            ),
            (
                "inv --n 4 --mu 0,2,1,3 --format json",
                "58d1f1bc09d98941fb73faaea70160072f9c4cb27196bd2d84a2015cd94a4fd9",
            ),
            (
                "inv --n 4 --mu 0,2,1,3",
                "9aeea9a0b78fea86d047eeb61ac1e31b85fee62a85472f56920f892c01122e7c",
            ),
            (
                "fillings --n 3 --mu 1,0,2 --z 2,3,1 --format json",
                "ebca0eef1fb325e7b52c4c57b3c908fe5c2f6dc8e7b0ba8c688a6fc3d73c317f",
            ),
            (
                "fillings --n 3 --mu 1,0,2 --z 2,3,1",
                "b18bf9e182f272b02efb67e541ae8d1eb60238767a27f0107da7210cfb349a9f",
            ),
            (
                "fillings --n 3 --mu 2,0,1 --kind queue --format json",
                "cf4e89630df94646e62f967bc6647897adf419f4d4e3d8b17e3cb3a37aed9454",
            ),
            (
                "fillings --n 3 --mu 2,0,1 --kind queue",
                "562c8bedb2d9ade62bf38f0b4aa5d31eb7a4762ccf12d5722b92866762b428f0",
            ),
            (
                "walks --n 3 --mu 0,2,1 --z 3,1,2 --format json",
                "ee3ed2297e61b330e4a34cdfa165cd2327740c087314704ed28cdfa7c85d0dce",
            ),
            (
                "walks --n 3 --mu 0,2,1 --z 3,1,2",
                "de3d60f2ba6250471b7a3fb58f380def7fa1edce97cd755fc4adc9b2158f5706",
            ),
            (
                "E --n 4 --mu 0,2,1,1 --z 3,1,4,2 --format json",
                "4f14b3c21e14870f85dd4035b689dedfe83da9caf02bf4ca0255c783e066ec02",
            ),
            (
                "P --n 4 --lam 2,1,1,0 --method symmetrize --format json",
                "596699fa8d183c8e241068241c21e8fcdc1cc940b58d74a831b34648eef1b4bc",
            ),
            (
                "F --n 4 --mu 1,0,2,0 --format json",
                "4167bf1391fcefaa97363e18e47c3a8c5aac06cd49c4cfa3954ff1a2dd69e9da",
            ),
            (
                "F --n 4 --mu 0,1,0,1",
                "648ddfdee235f846ebf06205c7b1e29cee066b29b741cf5a46d1132b076c8d85",
            ),
            (
                "F --n 4 --mu 0,1,0,1 --format latex",
                "75ac6c0f22693ac6bf2344566a9afd15a0566a43d4a9f963ee7152b114873e9b",
            ),
            # n = 5, where the orbit walk of sum-rel branches
            (
                "P --n 5 --lam 3,2,1,0,0 --method sum-rel --format json",
                "052a712c4e877b374f6578449de6b7e436a97a6247301d3865fa4d2923f5c34f",
            ),
            (
                "P --n 5 --lam 3,2,1,0,0 --method symmetrize --format json",
                "50239479b56cbb956be719d5c89ee26553900310dfa497c264cd6090d05b6088",
            ),
            (
                "F --n 5 --mu 0,2,1,0,1 --format json",
                "51c9771f8d5754dc8e1adb4d4f84757dfe4c8d390b19437c781e97a0b78c017f",
            ),
            (
                "E --n 5 --mu 2,0,1,0,1 --z 3,1,5,2,4 --format json",
                "ee681b632a536da256bb9e80a887d22a888d8ccd4d22d1bd073c594d57478297",
            ),
            (
                "f --n 5 --mu 0,1,0,2,1 --format json",
                "95ac9bfc9320d08f302c447b4aa0bc725287bcaa0c46581fc4e83fd1b62fe150",
            ),
            # the enumerators: walks with their path geometry, fillings of
            # both kinds, and P by the tableau chains
            (
                "walks --n 3 --mu 0,2,1 --format json",
                "483859d9caf1695d48822887968c51e3871e4d1b787b4a7ba99521c8acb8bd37",
            ),
            (
                "walks --n 4 --mu 1,0,2,0 --z 2,1,4,3 --format json",
                "c645cb9ad7df6b63684fdf4cea232ac183f9baa874ece35a59a10a32af747008",
            ),
            (
                "fillings --n 4 --mu 0,1,2,1 --format json",
                "160c53b67ed1d7c1228c566eae9713bd4671e7781e19ff241808b2e6a13e61ff",
            ),
            (
                "fillings --n 3 --mu 2,2,0 --kind queue",
                "86c7e7eb1d390039f4d68345244e4d3db4c10966bfe687da2ab4907715dd7299",
            ),
            (
                "P --n 4 --lam 2,1,1,0 --method cst --format json",
                "cbca6b048fcf010c9759e8f3b728797b68fddd5aeb49f984348c97bf42882d7c",
            ),
            # n = 6 and the tableau route at n = 5, which no benchmark
            # workload reaches
            (
                "E --n 6 --mu 2,1,3,0,4,1 --format json",
                "99041a653ff1e3eb2d201d67a3c5d315e657c8568496bd49a21c66d373a9494e",
            ),
            (
                "P --n 5 --lam 3,1,1,1,0 --method cst --format json",
                "a5c032afdd64ad260fd7d0ec535153b896a2606e950d22716130242fcfa27086",
            ),
            (
                "P --n 5 --lam 5,3,2,1,0 --method cst --format json",
                "7a2baf553d721593a1c45aa3f9f95672d28e04b2b8b65b989852f3da01eb2eea",
            ),
        ],
    )
    def test_stdout_digest(self, capsys, argv, digest):
        rc, out, _ = run(capsys, *argv.split())
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestExitCodes:
    def test_malformed_length(self, capsys):
        rc, _, err = run(capsys, "E", "--n", "3", "--mu", "2,1")
        assert rc == 2
        assert "length" in err

    def test_malformed_value(self, capsys):
        rc, _, err = run(capsys, "E", "--n", "3", "--mu", "2,-1,0")
        assert rc == 2

    @pytest.mark.parametrize("lam", ["0,2,1", "2,-1,0"])
    def test_P_cst_validates_like_the_other_methods(self, capsys, lam):
        rc, out, err = run(
            capsys, "P", "--n", "3", "--lam", lam, "--method", "cst", "--format", "json"
        )
        assert rc == 2
        assert out == ""
        assert err.startswith("error:")

    def test_P_methods_share_one_error(self, capsys):
        errs = set()
        for method in ("sum-rel", "symmetrize", "cst"):
            rc, _, err = run(capsys, "P", "--n", "3", "--lam", "0,2,1", "--method", method)
            assert rc == 2
            errs.add(err)
        assert errs == {"error: (0, 2, 1) is not weakly decreasing\n"}

    def test_verify_pass(self, capsys):
        rc, out, _ = run(capsys, "verify", "--suite", "golden", "--n", "3")
        assert rc == 0
        assert "checks passed" in out

    @pytest.mark.parametrize("n, want", [("1", "1/1"), ("2", "2/2"), ("3", "5/5")])
    def test_verify_golden_scales_with_n(self, capsys, n, want):
        # goldens of size 2 run from n = 2, of size 3 from n = 3; the NAF
        # count runs at every n
        rc, out, _ = run(capsys, "verify", "--suite", "golden", "--n", n)
        assert rc == 0
        assert out.strip() == f"{want} checks passed"

    def test_verify_all_small(self, capsys):
        rc, out, _ = run(capsys, "verify", "--suite", "all", "--n", "2")
        assert rc == 0
        total = out.strip().split("/")
        assert total[0] == total[1].split()[0]

    def test_latex_fails_loudly_on_odd_half_powers(self, capsys):
        # F_mu carries t^(1/2) factors, which have no q,t rendering
        rc, _, err = run(
            capsys, "F", "--n", "2", "--mu", "1,0", "--format", "latex"
        )
        assert rc == 2
        assert err.strip() != ""

    def test_failed_check_with_odd_v_exits_one(self, capsys, monkeypatch):
        # at even n every Y_i eigenvalue carries an odd power of t^(1/2):
        # a wrong one is a failed check, its difference shown in q and v
        plant_wrong_scalar(monkeypatch, "eigen")
        rc, out, err = run(capsys, "verify", "--suite", "eigen", "--n", "2")
        assert rc == 1
        assert "FAIL Y_2 E_(0, 0): difference (-q + 1)/(v)\n" in err
        assert err.count("FAIL ") == 20
        assert out.strip() == "0/20 checks passed"

    def test_failed_haction_check_exits_one(self, capsys, monkeypatch):
        # d_mu times q: the lines with D E_mu fail, and the detail is the
        # difference of the two sides as joined polynomials
        from maclab import macdonald
        from maclab.hecke import apply_operator_word
        from maclab.ratfunc import RF_T, RatFunc, one_minus

        ed = macdonald.eigen_data((1, 0, 0), 1)
        plant_wrong_scalar(monkeypatch, "haction")
        rc, out, err = run(capsys, "verify", "--suite", "haction", "--n", "3")
        assert rc == 1
        assert err.count("FAIL ") == 28
        assert out.strip() == "78/106 checks passed"
        E = macdonald.compute_E((1, 0, 0)).poly
        Es = macdonald.compute_E((0, 1, 0)).poly
        got = apply_operator_word(["T1"], Es).scale(RatFunc.v_power(1))
        want = E.scale(ed.d_mu * RatFunc.q_power(1))
        want = want - Es.scale(one_minus(RF_T) / one_minus(ed.a_simu))
        diff = (got - want)._readable()
        assert f"FAIL t^1/2 T_1 E_(0, 1, 0): difference {diff}\n" in err
        line = f"FAIL t^1/2 tau_1 E_(0, 1, 0) = D E_(1, 0, 0): difference {diff}\n"
        assert line in err

    def test_failed_kz_check_exits_one(self, capsys, monkeypatch):
        # the increasing f_nu of each orbit doubled: lines that relate it
        # to another f_nu fail
        from maclab import macdonald
        from maclab.hecke import apply_operator_word
        from maclab.ratfunc import RatFunc

        plant_wrong_scalar(monkeypatch, "kz")
        rc, out, err = run(capsys, "verify", "--suite", "kz", "--n", "3")
        assert rc == 1
        assert err.count("FAIL ") == 40
        assert out.strip() == "65/105 checks passed"
        f = macdonald.compute_f((0, 2, 0)).poly
        got = apply_operator_word(["T2"], f).scale(RatFunc.v_power(1))
        want = macdonald.compute_f((0, 0, 2)).poly
        diff = (got - (want + want))._readable()
        assert f"FAIL t^1/2 T_2 f_(0, 2, 0) = f_(0, 0, 2): difference {diff}\n" in err

    def test_verify_failure_exits_one(self, capsys, monkeypatch):
        from maclab import cli

        monkeypatch.setattr(
            cli.verify,
            "run_suite",
            lambda name, n: [CheckLine("made-up", False, "boom")],
        )
        rc, out, err = run(capsys, "verify", "--suite", "eigen", "--n", "2")
        assert rc == 1
        assert "FAIL made-up" in err
        assert "0/1" in out

    @pytest.mark.parametrize(
        "error",
        [
            InvariantViolation("broken"),
            ValueError("stray"),
            TypeError("stray"),
            RecursionError("too deep"),
        ],
    )
    def test_bug_exits_three(self, capsys, monkeypatch, error):
        # a failed invariant or any other unexpected exception is a bug,
        # not bad input
        from maclab import cli

        def fail(mu):
            raise error

        monkeypatch.setattr(cli.macdonald, "compute_E", fail)
        rc, out, err = run(capsys, "E", "--n", "3", "--mu", "2,1,0")
        assert rc == 3
        assert out == ""
        assert err.startswith("internal error:")

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_verify_rejects_nonpositive_n(self, capsys, n):
        rc, out, err = run(capsys, "verify", "--suite", "eigen", "--n", n)
        assert rc == 2
        assert out == ""
        assert "--n" in err

    def test_verify_haction_counts_each_check_once(self, capsys):
        rc, out, _ = run(capsys, "verify", "--suite", "haction", "--n", "4")
        assert rc == 0
        assert out.strip() == "282/282 checks passed"

    def test_verify_empty_suite_fails(self, capsys):
        # haction has no index i with 1 <= i <= n - 1 at n = 1
        rc, out, err = run(capsys, "verify", "--suite", "haction", "--n", "1")
        assert rc == 1
        assert "passed" not in out
        assert "no checks" in err
