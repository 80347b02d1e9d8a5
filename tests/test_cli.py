import io
import json
import os

import pytest

from equihom import characters, cli
from equihom.cli import make_parser, run
from equihom.complexes import KINDS, SimplicialComplex, matching_complex, pcycle_complex
from equihom.homology import equivariant_decomposition


def invoke(argv):
    buf = io.StringIO()
    code = run(argv, out=buf)
    return code, buf.getvalue()


def test_formula_fp_text():
    code, out = invoke(["formula", "fp", "--p", "3", "--format", "text"])
    assert code == 0
    assert out.strip() == "s[3]"


def test_formula_json_schema():
    code, out = invoke(["formula", "odd-parts", "--k", "2", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["basis"] == "schur"
    assert data["degree"] == 7
    assert {tuple(t["partition"]) for t in data["terms"]} == {(5, 1, 1), (3, 3, 1)}
    assert all(t["coeff"] == "1" for t in data["terms"])


def test_verify_table_passes():
    code, out = invoke(["verify-table"])
    assert code == 0
    assert out.strip().endswith("12/12 rows match")


def test_equivariant_json():
    code, out = invoke(
        ["equivariant", "--complex", "matching", "--p", "3", "--n", "4",
         "--degree", "0", "--format", "json"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["degrees"] == [
        {"i": 0, "betti": 3, "specht": [{"partition": [3, 1], "mult": 1}]}
    ]


def test_homology_output():
    code, out = invoke(["homology", "--complex", "matching", "--p", "2", "--n", "5"])
    assert code == 0
    assert "b~_1 = 6" in out


def test_build_and_dump():
    code, out = invoke(["build", "--complex", "pcycle", "--p", "5", "--n", "5"])
    assert code == 0 and "(1, 6)" in out
    code, out = invoke(["dump", "--complex", "matching", "--p", "3", "--n", "4"])
    assert code == 0
    cx = SimplicialComplex.from_text(out)
    assert cx.f_vector() == matching_complex(3, 4).f_vector()


def test_dump_boundary_matrix():
    code, out = invoke(
        ["dump", "--complex", "matching", "--p", "2", "--n", "4", "--boundary", "1"]
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "6 3"
    triples = [tuple(int(x) for x in line.split()) for line in lines[1:]]
    assert len(triples) == 6  # three disjoint edges, two endpoints each
    assert all(v in (-1, 1) for _, _, v in triples)
    code, _ = invoke(
        ["dump", "--complex", "matching", "--p", "2", "--n", "4", "--boundary", "9"]
    )
    assert code == 2


def test_verify_conjecture_small():
    code, out = invoke(["verify-conjecture", "--p", "2", "--k", "2"])
    assert code == 0 and "equals the prediction" in out
    code, out = invoke(["verify-conjecture", "--p", "3", "--k", "1"])
    assert code == 0
    code, out = invoke(["verify-conjecture", "--p", "5", "--k", "2"])
    assert code == 0 and "equals the prediction" in out


def test_cross_check_quick():
    code, out = invoke(["cross-check", "--quick"])
    assert code == 0
    assert out.strip().endswith("all cross-checks passed")
    assert "FAIL" not in out


def test_usage_errors_exit_2(capsys, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        run(["homology", "--complex", "nosuch", "--p", "3", "--n", "4"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["nosuch-command"])
    assert exc.value.code == 2
    # domain errors are reported as usage problems, not tracebacks
    code, _ = invoke(["build", "--complex", "pcycle", "--p", "4", "--n", "6"])
    assert code == 2
    negative_n = "error: n must be nonnegative\n"
    # an out-of-range degree is refused before any homology is computed
    monkeypatch.setattr(
        cli, "equivariant_decomposition", lambda cx: pytest.fail("decomposed")
    )
    for argv, err in (
        *((["build", "--complex", kind, "--p", "3", "--n", "-2"], negative_n)
          for kind in KINDS),
        (["formula", "euler-poincare", "--p", "3", "--n", "-1"], negative_n),
        *((["equivariant", "--complex", "matching", "--p", "3", "--n", "5",
            "--degree", degree], f"error: degree {degree} out of range -1..0\n")
          for degree in ("7", "-2")),
    ):
        capsys.readouterr()
        code, out = invoke(argv)
        assert code == 2 and out == ""
        assert capsys.readouterr().err == err


def test_size_guard_requires_allow_large():
    code, _ = invoke(["build", "--complex", "quillen", "--p", "3", "--n", "10"])
    assert code == 2


def test_determinism_and_thread_invariance():
    base = None
    for threads in ("1", "4", "16"):
        code, out = invoke(
            ["--threads", threads, "equivariant", "--complex", "matching",
             "--p", "3", "--n", "7", "--format", "json"]
        )
        assert code == 0
        if base is None:
            base = out
        assert out == base
    again = invoke(
        ["--threads", "1", "equivariant", "--complex", "matching",
         "--p", "3", "--n", "7", "--format", "json"]
    )[1]
    assert again == base


@pytest.mark.parametrize(
    "kind, p, n", [("matching", 3, 7), ("pcycle", 5, 7), ("quillen", 3, 5)]
)
def test_cache_dir_round_trip(tmp_path, monkeypatch, kind, p, n):
    argv = ["--cache-dir", str(tmp_path), "equivariant", "--complex", kind,
            "--p", str(p), "--n", str(n), "--format", "json"]
    code, first = invoke(argv)
    assert code == 0
    (entry,) = [name for name in os.listdir(tmp_path) if name.startswith(kind)]
    # the second run must read the entry, not build
    builder = KINDS[kind].builder
    real_builder = getattr(cli, builder)
    monkeypatch.setattr(cli, builder, lambda *a, **k: pytest.fail("entry not read"))
    loaded = []
    monkeypatch.setattr(
        cli, "equivariant_decomposition",
        lambda cx: loaded.append(cx) or equivariant_decomposition(cx),
    )
    code, second = invoke(argv)
    assert code == 0 and second == first
    if kind == "pcycle":
        assert loaded[0].deflation == pcycle_complex(p, n).deflation
    # corrupt complex cache entries are rebuilt
    monkeypatch.setattr(cli, builder, real_builder)
    (tmp_path / entry).write_text("garbage")
    code, third = invoke(argv)
    assert code == 0 and third == first


def test_truncated_cache_entry_is_rebuilt(tmp_path):
    path = tmp_path / "matching_p3_n7_v2.complex"

    def truncate():
        # keep the hash and shape lines, half the facets and the label line
        lines = path.read_text().split("\n")
        facets = lines[2:-2]
        path.write_text("\n".join(lines[:2] + facets[: len(facets) // 2] + lines[-2:]))

    for command, expected in (("homology", "b~_1 = 36"), ("equivariant", "H~_1: betti 36")):
        argv = ["--cache-dir", str(tmp_path), command, "--complex", "matching",
                "--p", "3", "--n", "7"]
        assert invoke(argv)[0] == 0
        truncate()
        code, out = invoke(argv)
        assert code == 0 and expected in out


def test_cache_dir_does_not_leak_into_the_next_run(tmp_path, monkeypatch):
    monkeypatch.delenv("EQUIHOM_CACHE_DIR", raising=False)
    entry = "matching_p3_n4_v2.complex"
    code, _ = invoke(["--cache-dir", str(tmp_path), "equivariant", "--complex",
                      "matching", "--p", "3", "--n", "4"])
    assert code == 0 and os.listdir(tmp_path) == [entry]
    code, _ = invoke(["equivariant", "--complex", "matching", "--p", "3", "--n", "5"])
    assert code == 0 and os.listdir(tmp_path) == [entry]
    # character tables are computed, never written to disk
    characters.character_table.cache_clear()
    code, _ = invoke(["--cache-dir", str(tmp_path), "cross-check", "--quick"])
    assert code == 0 and os.listdir(tmp_path) == [entry]


@pytest.mark.parametrize(
    "argv",
    [
        ["chain", "--p", "0", "--n", "3", "--r", "1"],
        ["euler-poincare", "--p", "0", "--n", "3"],
        ["top-prediction", "--p", "0"],
        ["top-prediction", "--p", "1"],
    ],
    ids=["chain", "euler-poincare", "top-prediction-0", "top-prediction-1"],
)
def test_formula_rejects_p_below_2(argv, capsys):
    code, out = invoke(["formula", *argv])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == "error: p must be at least 2\n"


@pytest.mark.parametrize(
    "error", [ArithmeticError("multiplicity 1/2"), KeyError("x")],
    ids=["ArithmeticError", "KeyError"],
)
def test_internal_errors_exit_3(monkeypatch, capsys, error):
    def broken(cx):
        raise error

    monkeypatch.setattr(cli, "equivariant_decomposition", broken)
    code, out = invoke(["equivariant", "--complex", "matching", "--p", "3", "--n", "4"])
    assert code == 3 and out == ""
    assert capsys.readouterr().err.startswith("internal error: ")


def test_memory_error_exits_3(monkeypatch, capsys):
    def exhausted(p, n):
        raise MemoryError("boundary matrix")

    monkeypatch.setattr(cli, "matching_complex", exhausted)
    code, out = invoke(["build", "--complex", "matching", "--p", "3", "--n", "4"])
    assert code == 3 and out == ""
    assert capsys.readouterr().err == "internal error: MemoryError: boundary matrix\n"


def test_parser_prog_name():
    parser = make_parser()
    assert parser.prog == "equihom"
