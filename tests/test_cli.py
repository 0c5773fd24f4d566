import itertools
import json
import subprocess
import sys
from math import comb

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from momentangle import cli
from momentangle.allday import bubenik_series
from momentangle.cli import main
from momentangle.complexes import serialize_complex, skeleton_complex


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "momentangle", *args],
        capture_output=True,
        text=True,
    )


def test_analyze_K1(fixtures_dir):
    res = run_cli("analyze", str(fixtures_dir / "K1.sc"))
    assert res.returncode == 0
    assert "MF(K): (3,4) (1,2,3) (1,2,4)" in res.stdout
    assert "MF-complex: yes" in res.stdout
    assert "shifted(identity): yes" in res.stdout


def test_analyze_K2_witness(fixtures_dir):
    res = run_cli("analyze", str(fixtures_dir / "K2.sc"))
    assert res.returncode == 0
    assert "MF-complex: no (witness face (1,4))" in res.stdout


def test_analyze_K3(fixtures_dir):
    res = run_cli("analyze", str(fixtures_dir / "K3.sc"))
    assert res.returncode == 0
    assert "MF-complex: yes" in res.stdout
    assert "shifted(identity): no" in res.stdout
    assert "shifted(any): no" in res.stdout


def test_analyze_json(fixtures_dir):
    res = run_cli("analyze", str(fixtures_dir / "K1.sc"), "--json")
    doc = json.loads(res.stdout)
    assert doc["is_mf_complex"] is True
    assert doc["missing_faces"] == [[3, 4], [1, 2, 3], [1, 2, 4]]
    assert doc["shifted_ordering"] == [1, 2, 3, 4]


def test_decompose_K1_text(fixtures_dir):
    res = run_cli("decompose", str(fixtures_dir / "K1.sc"))
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert lines[0] == "Z_K ~ S^3 v 2S^5 v 2S^6"
    assert "S^3: w~(3,4)" in lines
    assert "S^6: [w~(1,2,3), a~4]" in lines
    assert not any(line.startswith("FLAG") for line in lines)


def test_decompose_skeleton42_flagged(fixtures_dir):
    res = run_cli("decompose", str(fixtures_dir / "skel42.sc"))
    assert res.returncode == 1
    assert "FLAG dim 6: enumeration=4 series=4 porter=3" in res.stdout


def test_decompose_spheres(fixtures_dir):
    res = run_cli(
        "decompose", str(fixtures_dir / "tri.sc"),
        "--target", "spheres", "--dims", "1,1,1", "--max-dim", "8",
    )
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert lines[0] == "Z_K ~ S^5 v 3S^6 v 6S^7 v 10S^8 (truncated)"
    assert "S^6: [w(1,2,3), a2]" in lines


def test_decompose_spheres_requires_dims(fixtures_dir):
    res = run_cli("decompose", str(fixtures_dir / "tri.sc"), "--target", "spheres")
    assert res.returncode == 3


def test_loop_homology_K1(fixtures_dir):
    res = run_cli("loop-homology", str(fixtures_dir / "K1.sc"), "--max-degree", "6")
    assert res.returncode == 0
    assert "u(1,2,3) degree 4" in res.stdout
    assert "b1*b2 + b2*b1 = 0" in res.stdout
    assert "graded dimensions (degrees 0..6): 1 4 7 8 10 18 32" in res.stdout
    assert "kernel generator series (degrees 0..6): 0 0 1 0 2 2 0" in res.stdout


def test_loop_homology_json(fixtures_dir):
    res = run_cli(
        "loop-homology", str(fixtures_dir / "K1.sc"), "--max-degree", "5", "--json"
    )
    doc = json.loads(res.stdout)
    assert doc["graded_dimensions"] == [1, 4, 7, 8, 10, 18]
    assert doc["kernel_generator_series"] == [0, 0, 1, 0, 2, 2]


@pytest.mark.parametrize(
    "fixture,dims",
    [("K1.sc", "1,1,1,1"), ("K1.sc", "1,2,1,2"), ("K3.sc", "1,1,1,1,1"),
     ("tri.sc", "1,2,1"), ("pair.sc", "1,1")],
)
def test_sphere_loop_homology_kernel_counts_decomposition(fixtures_dir, capsys, fixture, dims):
    # H_*(ΩS^{m+1}) is polynomial for every m, so the kernel series of the
    # sphere-target presentation counts the decomposition's spheres: degree
    # d against dimension d + 1.
    path = str(fixtures_dir / fixture)
    D = 9
    assert main(["loop-homology", path, "--target", "spheres", "--dims", dims,
                 "--max-degree", str(D), "--json"]) == 0
    kernel = json.loads(capsys.readouterr().out)["kernel_generator_series"]
    assert main(["decompose", path, "--target", "spheres", "--dims", dims,
                 "--max-dim", str(D + 1), "--json"]) == 0
    spheres = {s["dimension"]: s["count"]
               for s in json.loads(capsys.readouterr().out)["summands"]}
    assert kernel == [spheres.get(d + 1, 0) for d in range(D + 1)]


def test_loop_homology_has_no_convention_option(fixtures_dir):
    res = run_cli("loop-homology", str(fixtures_dir / "K1.sc"), "--target", "spheres",
                  "--dims", "1,1,1,1", "--convention", "polynomial-all")
    assert res.returncode == 2
    assert "unrecognized arguments: --convention" in res.stderr


def test_analyze_has_no_shift_search_bound_option(fixtures_dir):
    res = run_cli("analyze", str(fixtures_dir / "K1.sc"), "--shift-search-bound", "8")
    assert res.returncode == 2
    assert "unrecognized arguments: --shift-search-bound" in res.stderr


def test_analyze_decides_shiftedness_beyond_eight_vertices(tmp_path):
    # A star centred at 5 on 9 vertices: the centre dominates, the leaves
    # dominate each other.
    star = tmp_path / "star9.sc"
    star.write_text("vertices: 9\n" + "".join(f"face: 5 {j}\n" for j in range(1, 10) if j != 5))
    res = run_cli("analyze", str(star))
    assert res.returncode == 0
    assert "shifted(any): yes (ordering 5 1 2 3 4 6 7 8 9)" in res.stdout


def test_loop_homology_deep_degree(fixtures_dir, capsys):
    # Two vertices and no edge: the normal words alternate b1, b2, so the
    # count reaches degree 1100 without a recursion 1100 calls deep.
    code = main(["loop-homology", str(fixtures_dir / "pair.sc"),
                 "--max-degree", "1100", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["graded_dimensions"] == [1] + [2] * 1100
    assert doc["kernel_generator_series"] == [0, 0, 1] + [0] * 1098


def test_allday_check_bubenik():
    res = run_cli("allday", "--dims", "2,2,2", "--check-bubenik", "--max-degree", "8")
    assert res.returncode == 0
    assert "d^2=0: ok" in res.stdout
    assert "homology == Bubenik closed form: ok" in res.stdout


def test_allday_deep_degree_is_budgeted():
    # 2^(d+1) - 1 words through degree d: the default budget runs out long
    # before degree 1200, and nothing recurses on the way.
    res = run_cli("allday", "--dims", "1,1", "--max-degree", "1200")
    assert res.returncode == 3
    assert "budget exhausted" in res.stderr
    assert "Traceback" not in res.stderr


def test_allday_failed_certificate_is_precondition_error(monkeypatch, capsys,
                                                         corrupted_model):
    # The CLI prints "d^2=0: ok" only after homology_series has certified
    # it; a model that fails the certificate exits 3 with the witness.
    monkeypatch.setattr(cli, "build_fat_wedge_model",
                        lambda dims, max_degree: corrupted_model)
    code = main(["allday", "--dims", "1,1,1", "--max-degree", "6"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "does not square to zero, witness" in captured.err


def test_allday_check_bubenik_refuses_two_spheres_before_building(capsys):
    # The closed form's precondition is reported, not the word budget that
    # the homology through degree 30 would exhaust first.
    argv = ["allday", "--dims", "1,1", "--max-degree", "30", "--check-bubenik",
            "--budget-words", "100000000"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: closed form requires at least 3 spheres, got 2; "
        "for n = 2 the loop homology is the free tensor algebra\n")


@pytest.mark.parametrize("model", ["fat-wedge", "product"])
def test_allday_builds_only_the_faces_it_reads(capsys, model):
    # 30 vertices: the 2^30 faces of the simplex are counted in closed form,
    # C(30, k) in degree 2k - 1 (the fat wedge has no top face, degree 59),
    # and only the 465 generators of degree <= 3 are built.
    assert main(["allday", "--dims", ",".join(["1"] * 30), "--model", model,
                 "--max-degree", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    counts = {2 * k - 1: comb(30, k) for k in range(1, 31 if model == "product" else 30)}
    assert lines[0] == "generator degrees: " + " ".join(f"{d}:{c}" for d, c in counts.items())
    assert lines[2] == "homology series (degrees 0..2): 1 30 465"


def test_allday_product_model():
    res = run_cli("allday", "--dims", "1,1", "--model", "product", "--max-degree", "6")
    assert res.returncode == 0
    assert "d^2=0: ok" in res.stdout


def test_porter():
    res = run_cli("porter", "4", "2")
    assert res.returncode == 0
    assert res.stdout.splitlines()[0] == "Z_K ~ 4S^5 v 3S^6"


def test_porter_prints_one_line_per_dimension(capsys):
    # 1,066,495 spheres in 8 dimensions: one line each for the records.
    assert main(["porter", "16", "8"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 9
    assert lines[1] == "11440S^17: <porter>" and lines[8] == "6435S^24: <porter>"


@pytest.mark.parametrize("args", [
    ("4", "2", "--target", "spheres", "--dims", "1,1,1,1", "--max-dim", "1"),
    ("3", "1", "--max-dim", "4"),
], ids=["spheres-below-base", "cp-below-top"])
def test_porter_bound_below_every_sphere(capsys, args):
    assert main(["porter", *args]) == 0
    assert capsys.readouterr().out == "Z_K ~ contractible (truncated)\n"


def test_allday_convention_reaches_the_closed_form(capsys):
    argv = ["allday", "--dims", "1,1,1", "--max-degree", "6", "--check-bubenik", "--json"]
    main(argv)
    default = json.loads(capsys.readouterr().out)["bubenik_series"]
    main([*argv, "--convention", "polynomial-all"])
    poly = json.loads(capsys.readouterr().out)["bubenik_series"]
    assert poly == list(bubenik_series((1, 1, 1), False, 6).coeffs) != default


def test_check_flagged(fixtures_dir):
    res = run_cli("check", str(fixtures_dir / "skel42.sc"))
    assert res.returncode == 1
    assert "dim 6: enumeration=4 series=4 porter=3 -> mismatch" in res.stdout
    assert "verdict: mismatch" in res.stdout


def test_check_clean(fixtures_dir):
    res = run_cli("check", str(fixtures_dir / "K1.sc"), "--max-dim", "6")
    assert res.returncode == 0
    assert "verdict: all routes agree" in res.stdout


@pytest.mark.parametrize("target", [(), ("--target", "spheres", "--dims", "1,1,1,1")],
                         ids=["cp", "spheres"])
@pytest.mark.parametrize("sub", ["decompose", "check"])
def test_max_dim_zero_is_empty(fixtures_dir, sub, target):
    res = run_cli(sub, str(fixtures_dir / "K1.sc"), "--max-dim", "0", *target)
    assert res.returncode == 0
    assert res.stderr == ""
    expected = {
        "decompose": "Z_K ~ contractible (truncated)\n",
        "check": "verdict: all routes agree\n",
    }
    assert res.stdout == expected[sub]


def test_json_output_is_deterministic(fixtures_dir):
    args = ("decompose", str(fixtures_dir / "K1.sc"), "--json")
    assert run_cli(*args).stdout == run_cli(*args).stdout


def test_json_text_matches_json_dumps_on_the_goldens(fixtures_dir):
    goldens = sorted((fixtures_dir.parent / "golden").glob("*.json"))
    assert len(goldens) == 14
    for path in goldens:
        doc = json.loads(path.read_text())
        assert cli.json_text(doc) == json.dumps(doc, indent=2), path.name


# Quotes, backslashes, control and non-ASCII characters (astral ones too,
# which encode as surrogate pairs) next to anything hypothesis draws.
json_strings = st.text(st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7fé€😀'),
                                 st.characters()))
json_docs = st.recursive(
    st.none() | st.booleans() | st.integers() | json_strings,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(json_strings, inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(json_docs)
def test_json_text_matches_json_dumps(doc):
    assert cli.json_text(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("doc", [
    {}, [], [[]], {"": {}}, [{}, [], [[], {}]], {"a": [True, 1, False, 0, None]},
    [1, True, 0, False], {"\x00\"\\é": "😀\n"},
])
def test_json_text_examples(doc):
    assert cli.json_text(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("doc", [1.5, [0.0], {"x": [1, {"y": 2.0}]}, (1, 2)])
def test_json_text_refuses_other_types(doc):
    with pytest.raises(TypeError):
        cli.json_text(doc)


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.sc"
    bad.write_text("vertices: 3\nface: 9\n")
    res = run_cli("analyze", str(bad))
    assert res.returncode == 2
    assert "error" in res.stderr


@pytest.mark.parametrize("sub", ["analyze", "decompose"])
@pytest.mark.parametrize(
    "doc",
    [
        '{"vertices": 3, "faces": 5}',
        '{"vertices": 3, "faces": [[1, "a"]]}',
        '{"vertices": 3, "faces": [[1.5, 2]]}',
        '{"vertices": 3, "faces": [[1, true]]}',
        '{"vertices": 3, "faces": [7]}',
        '{"vertices": true, "faces": []}',
        '{"vertices": 3, "faces": [[1, 5]]}',
        '{"vertices": 3, "faces": [[1, 1]]}',
        '{"vertices": 3, "faces": [[]]}',
        "vertices: 3\nface: 1 5\n",
        "vertices: 3\nface: 1 1\n",
        "vertices: 3\nface:\n",
    ],
    ids=["faces-int", "face-str", "face-float", "face-bool", "face-int", "vertices-bool",
         "face-out-of-range", "face-repeat", "face-empty",
         "line-face-out-of-range", "line-face-repeat", "line-face-empty"],
)
def test_malformed_json_complex_is_parse_error(tmp_path, sub, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(doc)
    res = run_cli(sub, str(bad))
    assert res.returncode == 2
    assert res.stderr.startswith("error: ")
    assert "Traceback" not in res.stderr
    assert res.stdout == ""


def test_missing_file_exit_code(tmp_path):
    res = run_cli("analyze", str(tmp_path / "absent.sc"))
    assert res.returncode == 2


def test_precondition_exit_code(fixtures_dir):
    # K2 is not an MF-complex, so the decomposition precondition fails
    res = run_cli("decompose", str(fixtures_dir / "K2.sc"))
    assert res.returncode == 3
    assert "error" in res.stderr


def test_budget_exit_code(fixtures_dir):
    res = run_cli("decompose", str(fixtures_dir / "K1.sc"), "--budget-words", "2")
    assert res.returncode == 3
    assert "budget" in res.stderr


@pytest.mark.parametrize(
    "args",
    [
        ("loop-homology", "K1.sc", "--max-degree", "-1"),
        ("decompose", "K1.sc", "--max-dim", "-1"),
        ("allday", "--dims", "1,1", "--max-degree", "-1"),
        ("decompose", "K1.sc", "--budget-words", "-1"),
    ],
    ids=["loop-homology", "decompose", "allday", "budget-words"],
)
def test_negative_bound_is_usage_error(fixtures_dir, args):
    args = [str(fixtures_dir / a) if a.endswith(".sc") else a for a in args]
    res = run_cli(*args)
    assert res.returncode == 2
    assert "must be >= 0" in res.stderr
    assert "Traceback" not in res.stderr
    assert res.stdout == ""


def exit_code(argv):
    """``main``'s exit code, including argparse's ``SystemExit``."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "args",
    [
        *[(sub, "K1.sc", "--target", "spheres", "--dims", "1,x")
          for sub in ("decompose", "loop-homology", "check")],
        ("porter", "4", "2", "--target", "spheres", "--dims", "1,x", "--max-dim", "8"),
        ("allday", "--dims", "1,x"),
        *[(sub, "K1.sc", "--dims", "1,1,1,1") for sub in ("decompose", "loop-homology", "check")],
        ("porter", "4", "2", "--target", "cp", "--dims", "1,1,1,1"),
        ("allday", "--dims", "1,1,1", "--model", "product", "--check-bubenik"),
        ("allday", "--dims", "1,1,1", "--convention", "polynomial-all"),
    ],
    ids=[*(f"malformed-dims-{sub}"
           for sub in ("decompose", "loop-homology", "check", "porter", "allday")),
         *(f"cp-dims-{sub}" for sub in ("decompose", "loop-homology", "check", "porter")),
         "product-check-bubenik", "convention-without-check-bubenik"],
)
def test_usage_error(fixtures_dir, capsys, args):
    args = [str(fixtures_dir / a) if a.endswith(".sc") else a for a in args]
    assert exit_code(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: " in captured.err
    assert "Traceback" not in captured.err


SUBCOMMANDS = ("decompose", "check", "loop-homology", "porter", "allday", "analyze")


def _csv(ms):
    return ",".join(map(str, ms))


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_fuzz_exit_codes_keep_the_contract(tmp_path, data):
    # Random small complexes and option sets: every run ends in 0, 1, 2 or 3,
    # and nothing but argparse's SystemExit(2) escapes ``main``; an internal
    # error (exit 4) fails the test.  The complex has as faces the subsets of
    # 1..n that contain none of the drawn sets, written in the line grammar
    # or as a JSON document, whose faces may also be malformed.
    n = data.draw(st.integers(1, 5), "n")
    non_faces = data.draw(st.lists(st.sets(st.integers(1, n), min_size=2), max_size=4)
                          if n > 1 else st.just([]), "non-faces")
    faces = [f for k in range(1, n + 1) for f in itertools.combinations(range(1, n + 1), k)
             if not any(s <= set(f) for s in non_faces)]
    if data.draw(st.booleans(), "JSON"):
        path = tmp_path / "K.json"
        doc_faces = data.draw(st.one_of(
            st.just([list(f) for f in faces]),
            st.sampled_from([[[1, True]], "1 2", [[]], [[0]], [[1, 1]], [[n + 1]]])),
            "JSON faces")
        path.write_text(json.dumps({"vertices": n, "faces": doc_faces}))
    else:
        path = tmp_path / "K.sc"
        path.write_text(f"vertices: {n}\n"
                        + "".join("face: " + " ".join(map(str, f)) + "\n" for f in faces))
    sub = data.draw(st.sampled_from(SUBCOMMANDS), "subcommand")
    target = data.draw(st.sampled_from(["spheres", None, "cp"]), "target")
    dims = data.draw(st.one_of(
        st.lists(st.integers(1, 3), min_size=n, max_size=n).map(_csv),
        st.lists(st.integers(0, 3), min_size=1, max_size=n + 1).map(_csv),
        st.just("1,x"), st.none()), "dims")
    bound = str(data.draw(st.integers(0, 6), "bound"))
    budget = str(data.draw(st.sampled_from([20_000, 50, 0]), "budget"))
    if sub == "analyze":
        argv = [sub, str(path)]
    elif sub == "allday":
        argv = [sub, "--max-degree", bound, "--budget-words", budget]
        argv += data.draw(st.sampled_from([[], ["--model", "product"], ["--check-bubenik"]]),
                          "allday options")
    else:
        if sub == "porter":
            argv = [sub, str(n), str(data.draw(st.integers(0, n), "k")), "--max-dim", bound]
        else:
            bound_option = "--max-degree" if sub == "loop-homology" else "--max-dim"
            argv = [sub, str(path), bound_option, bound, "--budget-words", budget]
        if target is not None:
            argv += ["--target", target]
    if sub != "analyze" and dims is not None:
        argv += ["--dims", dims]
    assert exit_code(argv) in (0, 1, 2, 3)


def test_internal_error_exits_4_with_one_line(monkeypatch, capsys):
    def broken(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "porter_fnk", broken)
    assert exit_code(["porter", "4", "2"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal: RuntimeError: boom\n"


def test_main_is_callable_in_process(fixtures_dir, capsys):
    code = main(["porter", "3", "1"])
    out = capsys.readouterr().out
    assert code == 0 and out.splitlines()[0] == "Z_K ~ S^5"


def test_closed_pipe_keeps_exit_code_without_traceback(tmp_path):
    # About 200 KB of relations, more than a pipe buffer holds, so the writer
    # is still writing when the reader closes after one line (``| head -1``).
    path = tmp_path / "skel_12_8.sc"
    path.write_text(serialize_complex(skeleton_complex(12, 8)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "momentangle", "loop-homology", str(path), "--max-degree", "1"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert first == "generators:\n"
    assert err == ""
