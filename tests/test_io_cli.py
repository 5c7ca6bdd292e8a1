import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import planedec
from planedec.decomposition import ConstraintSpec, Decomposition, EdgeInMatching
from planedec.io import (DecompositionDocument, FormatError, emit_planar_code,
                         emit_rotation_text, parse_planar_code,
                         parse_rotation_text, PLANAR_CODE_BE_HEADER,
                         PLANAR_CODE_HEADER, PLANAR_CODE_LE_HEADER)
from planedec.plane_graph import cycle_graph

import instances

C4_TEXT = "1: 2 4\n2: 1 3\n3: 2 4\n4: 3 1\nouter: 1 2\n"


def test_planar_code_c4():
    data = PLANAR_CODE_HEADER + bytes([4, 2, 4, 0, 1, 3, 0, 2, 4, 0, 3, 1, 0])
    (g,) = parse_planar_code(data)
    assert g.n == 4 and g.m == 4
    assert g.boundary_walk.vertices == (1, 2, 3, 4)


def test_planar_code_empty_body():
    assert list(parse_planar_code(PLANAR_CODE_HEADER)) == []


def test_planar_code_k2():
    data = PLANAR_CODE_HEADER + bytes([2, 2, 0, 1, 0])
    (g,) = parse_planar_code(data)
    assert g.n == 2 and g.m == 1


def test_planar_code_errors():
    with pytest.raises(FormatError):
        list(parse_planar_code(b"garbage"))
    with pytest.raises(FormatError):
        list(parse_planar_code(PLANAR_CODE_HEADER + bytes([3, 2, 0, 1])))
    with pytest.raises(FormatError):
        list(parse_planar_code(PLANAR_CODE_HEADER + bytes([2, 9, 0, 1, 0])))


def test_planar_code_round_trip():
    g = cycle_graph(5)
    (back,) = parse_planar_code(emit_planar_code([g]))
    assert back.rotation == g.rotation


def test_planar_code_large_form_round_trip():
    """The 100 x 100 grid (n = 10^4) travels in the large form; a small
    graph beside it keeps the single-byte form."""
    g = instances.grid(100, 100)
    data = emit_planar_code([cycle_graph(5), g])
    assert data.startswith(PLANAR_CODE_LE_HEADER)
    small, back = parse_planar_code(data)
    assert small.rotation == cycle_graph(5).rotation
    assert back.rotation == g.rotation


@pytest.mark.parametrize("header,order", [(PLANAR_CODE_LE_HEADER, "little"),
                                          (PLANAR_CODE_BE_HEADER, "big")])
def test_planar_code_large_form_byte_order(header, order):
    entries = [4, 2, 4, 0, 1, 3, 0, 2, 4, 0, 3, 1, 0]
    data = header + b"\0" + b"".join(e.to_bytes(2, order) for e in entries)
    (g,) = parse_planar_code(data)
    assert g.rotation == parse_rotation_text(C4_TEXT).rotation
    with pytest.raises(FormatError):
        list(parse_planar_code(data[:-1]))


def test_rotation_text_c4():
    g = parse_rotation_text(C4_TEXT)
    assert g.n == 4 and g.outer == (1, 2)
    again = parse_rotation_text(emit_rotation_text(g))
    assert again.rotation == g.rotation and again.outer == g.outer


def test_rotation_text_errors():
    with pytest.raises(FormatError):
        parse_rotation_text("1: 2\n2: \nouter: 1 2\n")  # asymmetric
    with pytest.raises(FormatError):
        parse_rotation_text("1: 2\n2: 1\n")  # missing outer
    with pytest.raises(FormatError):
        parse_rotation_text("1: 2\n1: 2\n2: 1\nouter: 1 2\n")


def test_document_round_trip():
    g = cycle_graph(4)
    spec = ConstraintSpec.parse("1001,1001",
                                side_conditions=[EdgeInMatching(4, 1)])
    dec = Decomposition.of(arcs=[(1, 2), (4, 3)], matching=[(4, 1)])
    doc = DecompositionDocument.for_graph(g, dec, path=(1, 2, 3, 4), spec=spec,
                                          trace=["Claim5"])
    back = DecompositionDocument.from_json(doc.to_json())
    assert back.to_json() == doc.to_json()
    assert back.decomposition() == dec
    assert back.spec == spec


def test_document_rejects_unknown_fields():
    with pytest.raises(FormatError):
        DecompositionDocument.from_json(json.dumps(
            {"graph": "00", "arcs": [], "matching": [], "surprise": 1}))


def run_cli(args, stdin=b""):
    # the child must import the same planedec as the tests, whether or not
    # PYTHONPATH names it (pytest's own pythonpath setting is not inherited)
    src = str(Path(planedec.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "planedec.cli", *args],
                          input=stdin, capture_output=True, env=env)


def test_cli_decompose_theorem(tmp_path):
    proc = run_cli(["decompose", "--goal", "theorem"], stdin=C4_TEXT.encode())
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert {"graph", "arcs", "matching"} <= set(doc)
    # pipe the document back into verify
    p = tmp_path / "doc.json"
    p.write_bytes(proc.stdout)
    proc2 = run_cli(["verify", str(p)], stdin=C4_TEXT.encode())
    assert proc2.returncode == 0 and proc2.stdout.strip() == b"pass"


def test_cli_round_trip_past_n_255(tmp_path):
    """The 20 x 20 grid (n = 400): the document's graph hash takes the
    word form of the canonical code, and the document verifies."""
    text = emit_rotation_text(instances.grid(20, 20)).encode()
    proc = run_cli(["decompose", "--goal", "theorem"], stdin=text)
    assert proc.returncode == 0, proc.stderr
    p = tmp_path / "doc.json"
    p.write_bytes(proc.stdout)
    proc2 = run_cli(["verify", str(p)], stdin=text)
    assert proc2.returncode == 0 and proc2.stdout.strip() == b"pass"


PATH_AND_LONE_VERTEX = "1: 2\n2: 1 3\n3: 2\n4:\nouter: 1 2\n"


def test_cli_decompose_theorem_on_two_components():
    """A 3-vertex path beside a lone vertex: decomposed like decompose_21
    and ``planedec color`` do; a configuration goal still needs a connected
    graph."""
    proc = run_cli(["decompose", "--goal", "theorem"],
                   stdin=PATH_AND_LONE_VERTEX.encode())
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert sorted(map(tuple, doc["arcs"])) == [(2, 1), (3, 2)]
    proc = run_cli(["decompose", "--goal", "M0", "--path", "1,2,3,4"],
                   stdin=PATH_AND_LONE_VERTEX.encode())
    assert proc.returncode == 1
    assert json.loads(proc.stderr)["failures"] == [["connected", "2 components"]]


def test_cli_verify_cycle_fails(tmp_path):
    doc = {"graph": "00",
           "arcs": [[1, 2], [2, 3], [3, 4], [4, 1]], "matching": []}
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    proc = run_cli(["verify", str(p)], stdin=C4_TEXT.encode())
    assert proc.returncode == 1
    err = json.loads(proc.stderr)
    assert "cycle" in err["detail"]


def test_cli_decompose_configuration_goal():
    proc = run_cli(["decompose", "--goal", "M0", "--path", "1,2,3,4"],
                   stdin=C4_TEXT.encode())
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["path"] == [1, 2, 3, 4]
    assert doc["spec"]["a"] == "1001"


def test_cli_oracle_exists_and_count():
    proc = run_cli(["oracle", "--path", "1,2,3,4", "--a", "1001", "--b", "1001",
                    "--mode", "exists"], stdin=C4_TEXT.encode())
    assert proc.returncode == 0 and proc.stdout.strip() == b"true"
    proc = run_cli(["oracle", "--path", "1,2,3,4", "--a", "0000", "--b", "0000",
                    "--mode", "exists"], stdin=C4_TEXT.encode())
    assert proc.returncode == 1


def test_cli_enumerate_check():
    proc = run_cli(["enumerate", "--max-n", "5", "--check"])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.decode().splitlines()
    assert any(line.startswith("n=5\t7") for line in lines)


def test_cli_enumerate_leaves_stderr_empty():
    proc = run_cli(["enumerate", "--max-n", "5"])
    assert proc.returncode == 0
    assert proc.stderr == b""
    assert proc.stdout.decode().splitlines()[-1] == "n=5\t7"


@pytest.mark.parametrize("max_n", ["0", "-1"])
def test_cli_enumerate_rejects_max_n_below_one(max_n):
    proc = run_cli(["enumerate", "--max-n", max_n])
    assert proc.returncode == 1
    assert proc.stdout == b""
    err = json.loads(proc.stderr)
    assert err["kind"] == "PlaneGraphError" and "at least 1" in err["error"]


def test_cli_family():
    proc = run_cli(["family", "--max-n", "7", "--tag", "R"])
    assert proc.returncode == 0
    tags = [json.loads(line)["tag"] for line in proc.stdout.splitlines()]
    assert tags.count("R1") == 1 and tags.count("R2") == 1


def test_cli_color():
    proc = run_cli(["color"], stdin=C4_TEXT.encode())
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["valid"] and out["max_defect"] <= 1


W6_TEXT = ("1: 2 3 4 5 6 7\n2: 3 1 7\n3: 4 1 2\n4: 5 1 3\n5: 6 1 4\n"
           "6: 7 1 5\n7: 2 1 6\nouter: 2 3\n")


def test_cli_color_rejects_a_graph_with_triangles():
    """The wheel W6 is a plane graph, but not triangle-free: bad input, not
    a counterexample."""
    proc = run_cli(["color"], stdin=W6_TEXT.encode())
    assert proc.returncode == 1 and proc.stdout == b""
    err = json.loads(proc.stderr)
    assert err["kind"] == "PlaneGraphError"
    assert "triangle-free" in err["error"]


def test_cli_usage_error_exit_2():
    proc = run_cli(["decompose", "--goal", "M0"], stdin=C4_TEXT.encode())
    assert proc.returncode == 2


def test_cli_determinism():
    a = run_cli(["decompose", "--goal", "theorem"], stdin=C4_TEXT.encode())
    b = run_cli(["decompose", "--goal", "theorem"], stdin=C4_TEXT.encode())
    assert a.stdout == b.stdout
