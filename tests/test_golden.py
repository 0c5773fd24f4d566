"""Byte-identity of CLI reports against outputs recorded in ``tests/golden``.

Each case runs ``momentangle.cli.main`` in process and compares its exit
code and the exact text it prints on stdout with the recorded file.
"""

import contextlib
import io
import pathlib

import pytest

from momentangle import cli
from momentangle.cli import main

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
GOLDEN = pathlib.Path(__file__).parent / "golden"

SPHERES = ("--target", "spheres")

# (golden file name, expected exit code, subcommand, fixture or None, further
# arguments)
CASES = [
    *(
        (f"decompose_{name}{suffix}", code, "decompose", f"{name}.sc", extra)
        for name, code in (("K1", 0), ("K3", 0), ("tri", 0), ("skel42", 1))
        for suffix, extra in ((".txt", ()), (".json", ("--json",)))
    ),
    ("decompose_spheres_K1_1111.txt", 0, "decompose", "K1.sc",
     (*SPHERES, "--dims", "1,1,1,1", "--max-dim", "10")),
    ("decompose_spheres_K3_11111.txt", 0, "decompose", "K3.sc",
     (*SPHERES, "--dims", "1,1,1,1,1", "--max-dim", "8")),
    ("decompose_spheres_pair_11.txt", 0, "decompose", "pair.sc",
     (*SPHERES, "--dims", "1,1", "--max-dim", "6")),
    ("decompose_spheres_K1_1212.json", 0, "decompose", "K1.sc",
     (*SPHERES, "--dims", "1,2,1,2", "--max-dim", "10", "--json")),
    ("check_skel42.txt", 1, "check", "skel42.sc", ()),
    ("check_skel42.json", 1, "check", "skel42.sc", ("--json",)),
    ("check_spheres_K1_1212.txt", 0, "check", "K1.sc",
     (*SPHERES, "--dims", "1,2,1,2", "--max-dim", "8")),
    ("porter_4_2.txt", 0, "porter", None, ("4", "2")),
    ("porter_4_2.json", 0, "porter", None, ("4", "2", "--json")),
    ("porter_spheres_4_2_1212.json", 0, "porter", None,
     ("4", "2", *SPHERES, "--dims", "1,2,1,2", "--max-dim", "8", "--json")),
    ("analyze_K3.txt", 0, "analyze", "K3.sc", ()),
    ("loop_homology_K3.txt", 0, "loop-homology", "K3.sc", ("--max-degree", "11")),
    ("allday_product_121.json", 0, "allday", None,
     ("--dims", "1,2,1", "--model", "product", "--max-degree", "6", "--json")),
    ("allday_fat_wedge_112_bubenik.txt", 1, "allday", None,
     ("--dims", "1,1,2", "--max-degree", "10", "--check-bubenik")),
    ("allday_fat_wedge_2222.json", 0, "allday", None,
     ("--dims", "2,2,2,2", "--max-degree", "8", "--json")),
    ("allday_fat_wedge_2222_d16.json", 0, "allday", None,
     ("--dims", "2,2,2,2", "--max-degree", "16", "--json")),
    ("allday_fat_wedge_312_d14.json", 0, "allday", None,
     ("--dims", "3,1,2", "--max-degree", "14", "--json")),
    ("allday_product_121_d12.json", 0, "allday", None,
     ("--dims", "1,2,1", "--model", "product", "--max-degree", "12", "--json")),
]


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("name,code,sub,fixture,extra", CASES, ids=[c[0] for c in CASES])
def test_cli_output_matches_golden(name, code, sub, fixture, extra):
    inputs = [str(FIXTURES / fixture)] if fixture is not None else []
    got_code, got = run([sub, *inputs, *extra])
    assert got_code == code
    assert got == (GOLDEN / name).read_text()


def test_calls_in_one_process_share_one_parser():
    # One parser serves every call; what one call parses must not leak into
    # the next, so a loop-homology call follows a decompose call and repeats.
    cli.build_parser.cache_clear()
    by_name = {case[0]: case for case in CASES}
    for name in ("loop_homology_K3.txt", "decompose_spheres_K1_1111.txt",
                 "loop_homology_K3.txt"):
        _, code, sub, fixture, extra = by_name[name]
        assert run([sub, str(FIXTURES / fixture), *extra]) == (code, (GOLDEN / name).read_text())
    assert cli.build_parser.cache_info().misses == 1
