import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
from dataclasses import asdict, replace
from itertools import chain
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from coset_radon import cli, exactla, geodesics, groups, radon, verify
from coset_radon.cli import load_group, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


def test_group_text(capsys):
    code, out, _ = run(capsys, "group", "C2xC6")
    assert code == 0
    assert "order 12" in out
    assert "invariant factors: [2, 6]" in out


def test_group_json(capsys):
    code, payload, _ = run_json(capsys, "group", "D4")
    assert code == 0
    assert payload["order"] == 8
    assert payload["abelian"] is False
    assert payload["invariant_factors"] is None
    assert "elapsed_ms" in payload


def test_geodesics_counts(capsys):
    code, payload, _ = run_json(capsys, "geodesics", "C6")
    assert code == 0
    assert payload["count"] == 5
    assert payload["order"] == 6
    for geo in payload["geodesics"]:
        assert sorted(geo["coset"]) == geo["coset"]
        assert geo["rep"] == geo["coset"][0]


def test_geodesics_json_parses(capsys):
    code, payload, _ = run_json(capsys, "geodesics", "S4")
    assert code == 0
    assert payload["count"] == len(payload["geodesics"]) > 0
    assert all(type(v) is int for geo in payload["geodesics"] for v in geo["coset"])


def test_geodesics_maximal_variant(capsys):
    code, payload, _ = run_json(capsys, "geodesics", "C12", "--variant", "maximal")
    assert code == 0
    assert payload["count"] == 1
    assert payload["geodesics"][0]["coset"] == list(range(12))


def test_radon_injective_group(capsys):
    code, payload, _ = run_json(capsys, "radon", "C3xC3")
    assert code == 0
    assert payload["injective"] is True
    assert payload["frobenius_complement"] is False
    assert payload["method"] == "modular-full-rank"
    assert (payload["rows"], payload["rank"], payload["kernel_dim"]) == (12, 9, 0)


def test_radon_deficient_group_with_kernel(capsys):
    code, payload, _ = run_json(capsys, "radon", "C6", "--kernel")
    assert code == 0
    assert payload["kernel_dim"] == 2
    assert payload["kernel"] == [
        ["1", "0", "-1", "-1", "0", "1"],
        ["0", "1", "1", "0", "-1", "-1"],
    ]


def test_radon_maximal_variant(capsys):
    code, payload, _ = run_json(capsys, "radon", "C12", "--variant", "maximal")
    assert code == 0
    assert payload["kernel_dim"] == 11
    assert payload["frobenius_complement"] is None


def test_radon_matrix_csv(capsys, tmp_path):
    out_csv = tmp_path / "m.csv"
    code, _, _ = run_json(capsys, "radon", "C4", "--matrix-csv", str(out_csv))
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "0,1,2,3"
    assert sorted(lines[1:]) == ["0,1,0,1", "1,0,1,0"]


def test_radon_matrix_csv_on_a_centre_certified_group(capsys, tmp_path, monkeypatch):
    # the centre certifies S4 without a system, so the system is built for
    # the CSV alone
    built, build = [], radon._build_system
    monkeypatch.setattr(radon, "_build_system", lambda *a: built.append(1) or build(*a))
    out_csv = tmp_path / "m.csv"
    code, payload, _ = run_json(capsys, "radon", "S4", "--matrix-csv", str(out_csv))
    assert code == 0 and payload["method"] == "modular-full-rank"
    assert built == [1]
    run_json(capsys, "radon", "S4", "--kernel")
    assert built == [1]
    with open(out_csv, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == [str(j) for j in range(24)]
    matrix = radon.build_system(groups.from_name("S4"), "prime").matrix
    assert [tuple(map(int, row)) for row in rows] == list(matrix)


@pytest.mark.parametrize(
    "argv, listed, built",
    [
        (["C96", "--variant", "maximal", "--kernel"], 1, 1),
        (["C96", "--variant", "maximal"], 1, 0),
        (["Dic64", "--kernel"], 1, 1),
        (["Dic64"], 0, 0),
        (["S4", "--variant", "maximal", "--kernel"], 1, 0),
        (["C97", "--kernel"], 1, 1),
        (["C97"], 1, 0),
    ],
)
def test_radon_lists_a_family_once_and_builds_rows_only_for_a_kernel(
    capsys, monkeypatch, argv, listed, built
):
    # the verdict reads no row; a deficient --kernel builds the system, on
    # the family the verdict listed
    calls = {"listed": 0, "built": 0}
    family, build = geodesics._family_subgroups, radon._build_system

    def counting(key, fn):
        return lambda *a: calls.__setitem__(key, calls[key] + 1) or fn(*a)

    for mod in (geodesics, radon):
        monkeypatch.setattr(mod, "_family_subgroups", counting("listed", family))
    monkeypatch.setattr(radon, "_build_system", counting("built", build))
    code, payload, _ = run_json(capsys, "radon", *argv)
    assert code == 0 and ("kernel" in payload) == ("--kernel" in argv)
    assert calls == {"listed": listed, "built": built}


def test_json_deterministic_modulo_timing(capsys):
    _, a, _ = run_json(capsys, "radon", "D5")
    _, b, _ = run_json(capsys, "radon", "D5")
    a.pop("elapsed_ms")
    b.pop("elapsed_ms")
    assert a == b


def test_spectral_abelian(capsys):
    code, payload, _ = run_json(capsys, "spectral", "C12")
    assert code == 0
    assert payload["factors"] == [12]
    assert payload["faithful_count"] == 4
    assert payload["kernel_matches_faithful"] is True
    assert payload["char_sum_exact"] is True
    assert payload["fourier_ok"] is True
    assert payload["plancherel_defect"] < 1e-9


def test_spectral_on_the_trivial_group(capsys, tmp_path):
    # C1 has no geodesics, so its one function is in the kernel
    code, payload, err = run_json(capsys, "spectral", "C1")
    assert (code, err) == (0, "")
    assert payload["kernel_dim"] == payload["faithful_count"] == 1
    assert payload["kernel_matches_faithful"] is True
    assert payload["fourier_ok"] is True and payload["char_sum_exact"] is True
    code, out, _ = run(capsys, "spectral", "C1")
    assert code == 0 and "kernel dim 1 (= faithful count)" in out
    path = tmp_path / "rep.json"
    path.write_text(json.dumps({"dim": 1, "images": {"0": [[[1, 1, 0, 1]]]}, "unitary": True}))
    code, payload, err = run_json(capsys, "spectral", "C1", "--rep", str(path))
    assert (code, err) == (0, "")
    assert payload["kernel_dim"] == payload["predicted_kernel_dim"] == 1
    assert payload["projections_ok"] is True and payload["char_sum_exact"] is True
    assert payload["dichotomies"] == [
        {"dim": 1, "fixed_span_dim": 0, "kernel_dim": 1, "dichotomy_ok": True}
    ]
    code, out, _ = run(capsys, "spectral", "C1", "--rep", str(path))
    assert code == 0 and "kernel dim 1, predicted from fixed-point-free reps: 1" in out
    # the transform itself is still refused on C1
    code, out, err = run(capsys, "radon", "C1")
    assert (code, out) == (2, "")
    assert err == "error: the trivial group has no geodesics\n"


def test_spectral_tolerance_flag(capsys):
    code, payload, _ = run_json(capsys, "spectral", "C6", "--tolerance", "1e-6")
    assert code == 0
    assert payload["tolerance"] == 1e-6


def test_spectral_nonabelian_needs_rep(capsys):
    code, out, err = run(capsys, "spectral", "D4")
    assert code == 2
    assert "not abelian" in err


def test_spectral_builtin_q8(capsys):
    code, payload, _ = run_json(capsys, "spectral", "Dic2", "--rep", "builtin:q8")
    assert code == 0
    assert payload["rep_dims"] == [1, 1, 1, 1, 2]
    assert payload["char_sum_exact"] is True
    assert payload["projections_ok"] is True
    assert payload["kernel_dim"] == payload["predicted_kernel_dim"] == 4
    assert all(d["dichotomy_ok"] for d in payload["dichotomies"])


def test_spectral_rep_from_file(capsys, tmp_path):
    from coset_radon import groups, spectral

    rep = spectral.quaternion_rep_set(groups.make_dicyclic(2))[-1]
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(spectral.rep_to_dict(rep)))
    code, payload, _ = run_json(capsys, "spectral", "Dic2", "--rep", str(path))
    assert code == 0
    assert payload["rep_dims"] == [2]
    # a single irreducible is not a complete set
    assert payload["char_sum_exact"] is False
    assert payload["projections_ok"] is True


def test_spectral_builtin_q8_on_a_relabelled_table(capsys, tmp_path):
    # the quaternion reps are placed by reading generators off the table, so
    # any labelling of Dic2 gives Dic2's answer
    _, want, _ = run_json(capsys, "spectral", "Dic2", "--rep", "builtin:q8")
    code, got, _ = run_json(
        capsys, "spectral", _relabelled_file(tmp_path, "Dic2"), "--rep", "builtin:q8"
    )
    assert code == 0
    for payload in (want, got):
        del payload["group"], payload["elapsed_ms"]
    assert got == want


def test_flow_constant(capsys):
    code, payload, _ = run_json(capsys, "flow", "constant:5")
    assert code == 0
    assert payload["size"] == 5
    assert payload["injective"] is True
    assert payload["stationary"] == 5
    assert set(payload["periods"]) == {2}


def test_flow_group_rule(capsys):
    code, payload, _ = run_json(capsys, "flow", "group:C6")
    assert code == 0
    assert payload["flow"] == "group:C6"
    assert payload["rank"] == 4
    assert payload["injective"] is False


def test_flow_walks_pair_space_once(capsys, monkeypatch):
    from coset_radon import flows

    walks = []
    walk = flows.flow_orbits

    def counted(flow):
        walks.append(flow.label)
        return walk(flow)

    monkeypatch.setattr(flows, "flow_orbits", counted)
    code, payload, _ = run_json(capsys, "flow", "group:S5")
    assert code == 0 and payload["injective"] is True
    assert walks == ["group:S5"]


def test_flow_from_file(capsys, tmp_path):
    from coset_radon import flows, groups

    flow = flows.group_flow(groups.make_dihedral(3))
    path = tmp_path / "flow.json"
    path.write_text(json.dumps({"size": flow.size, "table": [list(r) for r in flow.table]}))
    code, payload, _ = run_json(capsys, "flow", f"file:{path}")
    assert code == 0
    assert payload["size"] == 6
    assert payload["injective"] is True


def test_flow_axiom_violation_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"size": 2, "table": [[0, 1], [0, 1]]}))
    code, _, err = run(capsys, "flow", f"file:{path}")
    assert code == 2
    assert "error" in err


def test_group_from_table_file(capsys, tmp_path):
    path = tmp_path / "klein.json"
    path.write_text(json.dumps({"order": 4, "table": [
        [0, 1, 2, 3],
        [1, 0, 3, 2],
        [2, 3, 0, 1],
        [3, 2, 1, 0],
    ]}))
    code, payload, _ = run_json(capsys, "group", f"file:{path}")
    assert code == 0
    assert payload["order"] == 4
    assert payload["invariant_factors"] == [2, 2]


def test_group_from_semidirect_file(capsys, tmp_path):
    action = [[(pow(2, k, 7) * x) % 7 for x in range(7)] for k in range(3)]
    path = tmp_path / "frob21.json"
    path.write_text(json.dumps({"semidirect": {
        "normal": "C7", "acting": "C3", "action": action,
    }}))
    code, payload, _ = run_json(capsys, "radon", f"file:{path}")
    assert code == 0
    assert payload["order"] == 21
    assert payload["injective"] is True


def test_verify_suite_passes(capsys):
    code, payload, _ = run_json(capsys, "verify", "bound")
    assert code == 0
    assert payload["passed"] is True
    assert payload["failed"] == 0
    assert payload["total"] > 0


def test_verify_respects_max_order(capsys):
    code, payload, _ = run_json(capsys, "verify", "abelian", "--max-order", "12")
    assert code == 0
    assert all("C" in c["group"] for c in payload["cases"])


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "nonsense")
    assert code == 2
    assert "unknown suite" in err


@pytest.mark.parametrize("argv", [
    ("group", "C\u0663"), ("group", "C\uff13"), ("group", "D\u00b2"),
    ("flow", "constant:1_0"), ("flow", "constant:+5"), ("flow", "constant:\u0665"),
    ("flow", "constant: 5"), ("flow", "constant:5 "), ("flow", "constant:"),
])
def test_specs_take_ascii_digits_only(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("error: ")


def test_specs_keep_leading_zeros(capsys):
    assert run_json(capsys, "group", "C003")[1]["order"] == 3
    assert run_json(capsys, "flow", "constant:005")[1]["size"] == 5


def test_unparseable_group_exits_2(capsys):
    code, _, err = run(capsys, "radon", "Qx")
    assert code == 2
    assert "error" in err


def test_size_cap_exits_3(capsys):
    code, _, err = run(capsys, "radon", "S8")
    assert code == 3
    assert "error" in err


def test_flow_above_order_cap_exits_3(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("COSET_RADON_MAX_ORDER", "10")
    path = tmp_path / "flow.json"
    path.write_text(json.dumps({"size": 11, "table": [[a] * 11 for a in range(11)]}))
    for spec in ("constant:100000", "constant:11", f"file:{path}"):
        code, out, err = run(capsys, "flow", spec)
        assert code == 3 and out == ""
        assert err.count("\n") == 1 and "above the cap of 10" in err


def test_astronomical_order_exits_3_with_one_line(capsys):
    code, _, err = run(capsys, "group", "S2000")
    assert code == 3
    assert err.count("\n") == 1 and "more than 2^19052" in err


def test_factor_past_the_int_digit_limit_exits_3_with_one_line(capsys):
    code, _, err = run(capsys, "group", "C" + "9" * 5000)
    assert code == 3
    assert err.count("\n") == 1 and "5000-digit parameter" in err


def test_missing_subcommand_exits_nonzero(capsys):
    assert main([]) != 0
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "group" in out and "verify" in out


def test_group_file_order_mismatch(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"order": 3, "table": [[0, 1], [1, 0]]}))
    code, _, err = run(capsys, "group", f"file:{path}")
    assert code == 2
    assert "order" in err


# not UTF-8, and nested past the json module's recursion limit
_UNDECODABLE = b"\xff\xfe{}"
_DEEP = b"[" * 100_000 + b"]" * 100_000
# an integer past the digits int() reads from a string
_LONG_INT = b"[" + b"1" * 5000 + b"]"
# C2's trivial rep with two image keys that are not element ids
_EXTRA_IMAGE_KEYS = {
    "dim": 1,
    "images": {"0": [[[1, 1, 0, 1]]], "1": [[[1, 1, 0, 1]]], "7": [[[1, 1, 0, 1]]],
               "banana": 3},
    "unitary": True,
}


@pytest.mark.parametrize(
    "argv, data",
    [
        (["group", "file:{path}"], {"semidirect": {"normal": "C7", "action": []}}),
        (["flow", "constant:abc"], None),
        (["flow", "bogus:3"], None),
        (["flow", "file:{path}"], {"size": 3}),
        (["spectral", "C4", "--rep", "{missing}"], None),
        (["verify", "abelian", "--max-order", "-3"], None),
        (["group", "file:{path}"], {"table": 5}),
        (["group", "file:{path}"], {"table": [5]}),
        (["group", "file:{path}"], {"table": [[False]]}),
        (["group", "file:{path}"],
         {"semidirect": {"normal": "C7", "acting": "C3", "action": 5}}),
        (["group", "file:{path}"],
         {"semidirect": {"normal": 5, "acting": "C3", "action": []}}),
        (["flow", "file:{path}"], {"size": 2, "table": [[0, "x"], [1, 1]]}),
        (["flow", "file:{path}"], {"size": "2", "table": [[0, 0], [1, 1]]}),
        (["flow", "file:{path}"], {"size": 2, "table": 5}),
        (["spectral", "C2", "--rep", "{path}"],
         {"dim": 1, "images": {"0": [[[1, 1, 0, 1]]], "1": [[[-1, 0, 0, 1]]]},
          "unitary": True}),
        (["spectral", "C2", "--rep", "{path}"],
         {"dim": 1, "images": {"0": [[[1, 1]]], "1": [[[-1, 1]]]}, "unitary": True}),
        (["spectral", "C2", "--rep", "{path}"],
         {"dim": 1, "images": [[[[1, 1, 0, 1]]], [[[-1, 1, 0, 1]]]], "unitary": True}),
        (["spectral", "C2", "--rep", "{path}"],
         {"dim": 0, "images": {"0": [], "1": []}, "unitary": True}),
        (["spectral", "C2", "--rep", "{path}"],
         {"dim": 1, "images": {"0": [[[1, 1, 0, 1]]], "1": [[[-1, 1, 0, 1]]]},
          "unitary": "false"}),
        (["group", "file:{path}"], _UNDECODABLE),
        (["flow", "file:{path}"], _UNDECODABLE),
        (["spectral", "Dic2", "--rep", "{path}"], _UNDECODABLE),
        (["group", "file:{path}"], _DEEP),
        (["flow", "file:{path}"], _DEEP),
        (["spectral", "Dic2", "--rep", "{path}"], _DEEP),
        (["group", "file:{path}"],
         {"semidirect": {"normal": "file:{path}", "acting": "C2", "action": [[0]]}}),
        (["radon", "C4", "--matrix-csv", "{missing}/x.csv"], None),
        (["spectral", "C4", "--tolerance", "nan"], None),
        (["spectral", "C4", "--tolerance", "inf"], None),
        (["spectral", "C4", "--tolerance", "-1"], None),
        (["spectral", "Dic2", "--rep", "builtin:q8", "--tolerance", "nan"], None),
        (["verify", "maximal", "--max-order", "0"], None),
        (["verify", "maximal", "--max-order", "-5"], None),
        (["verify", "flows", "--max-order", "1"], None),
        (["verify", "spectral-abelian", "--max-order", "1"], None),
        (["verify", "products", "--max-order", "3"], None),
        (["group", "file:{path}"], {"order": 2.0, "table": [[0, 1], [1, 0]]}),
        (["group", "file:{path}"], {"order": True, "table": [[0]]}),
        (["group", "file:{path}"], _LONG_INT),
        (["group", "file:{missing}\x00"], None),
        (["group", "file:{missing}\nx"], None),
        (["group"], None),
        (["verify", "abelian", "--max-order", "abc"], None),
        (["group", "file:{path}"],
         {"semidirect": {"normal": "C7", "acting": "C3", "action": [[0, 1, 2, 3, 4, 5, 6]]}}),
        (["group", "D0"], None),
        (["group", "S0"], None),
        (["group", "A0"], None),
        (["spectral", "C2", "--rep", "{path}"], _EXTRA_IMAGE_KEYS),
    ],
    ids=["semidirect-without-acting", "flow-size-not-int", "flow-unknown-kind",
         "flow-file-without-table",
         "missing-rep-file", "suite-with-no-cases", "table-not-a-list",
         "row-not-a-list", "boolean-cell", "action-not-a-list", "normal-not-a-spec",
         "flow-string-cell", "flow-string-size", "flow-table-not-a-list",
         "rep-zero-denominator", "rep-two-entry-cell", "rep-images-a-list",
         "rep-dim-zero", "rep-unitary-a-string", "group-file-undecodable",
         "flow-file-undecodable", "rep-file-undecodable", "group-file-deep",
         "flow-file-deep", "rep-file-deep", "semidirect-includes-itself",
         "matrix-csv-unwritable", "tolerance-nan", "tolerance-inf",
         "tolerance-negative", "rep-route-tolerance-nan", "maximal-max-order-0",
         "maximal-max-order-negative", "flows-max-order-1",
         "spectral-abelian-max-order-1", "products-with-no-cases",
         "table-order-a-float", "table-order-a-boolean", "group-file-long-int",
         "path-with-nul", "path-with-newline", "group-without-spec",
         "max-order-not-an-int", "action-of-the-wrong-length", "dihedral-0",
         "symmetric-0", "alternating-0", "rep-image-key-not-an-id"],
)
def test_malformed_input_exits_2_with_one_line(capsys, tmp_path, argv, data):
    path = tmp_path / "input.json"
    if isinstance(data, bytes):
        path.write_bytes(data)
    else:
        path.write_text(json.dumps(data).replace("{path}", str(path)))
    argv = [a.format(path=path, missing=tmp_path / "missing.json") for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err
    assert "(1, 3)" not in err  # no acting pair that does not exist


@pytest.mark.parametrize("cap, message", [
    ("abc", "COSET_RADON_MAX_ORDER must be an integer, got 'abc'"),
    ("0", "COSET_RADON_MAX_ORDER must be positive, got 0"),
])
def test_unusable_order_cap_exits_2_with_one_line(capsys, monkeypatch, cap, message):
    monkeypatch.setenv("COSET_RADON_MAX_ORDER", cap)
    code, out, err = run(capsys, "group", "C6")
    assert (code, out, err) == (2, "", f"error: {message}\n")


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv,code", [
    (["radon", "C6", "--json"], 0),
    (["radon", "C6"], 0),
    (["verify", "bound", "--json"], 0),
], ids=["radon-json", "radon-text", "verify-json"])
def test_closed_pipe_ends_output_not_the_command(capsys, argv, code):
    with contextlib.redirect_stdout(_ClosedPipe()):
        assert main(argv) == code
    assert capsys.readouterr().err == ""


def test_closed_pipe_leaves_no_traceback_in_a_child(tmp_path):
    import coset_radon

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(coset_radon.__file__)))
    with open(tmp_path / "err.txt", "w+b") as err:
        child = subprocess.Popen(
            [sys.executable, "-m", "coset_radon.cli", "radon", "Dic63", "--kernel", "--json"],
            stdout=subprocess.PIPE, stderr=err, env=env,
        )
        child.stdout.close()  # the reader is gone before the first write
        assert child.wait(timeout=120) == 0
        err.seek(0)
        assert err.read() == b""


@pytest.mark.parametrize("suite", ["catalog", "bound", "subgroup-monotone"])
def test_fixed_corpus_suite_refuses_max_order(capsys, suite):
    code, out, err = run(capsys, "verify", suite, "--max-order", "3")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "fixed corpus" in err


def test_radon_builds_system_and_kernel_once(capsys, monkeypatch):
    from coset_radon import radon

    # the verdict builds its system through radon._build_system, on the
    # family it listed for the centre, and computes the kernel from its own
    # echelon basis, through radon._kernel, which the public radon.kernel
    # reaches by the same route
    calls = {"_build_system": 0, "_kernel": 0}

    def counting(name):
        original = getattr(radon, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(radon, name, wrapper)

    counting("_build_system")
    counting("_kernel")
    eliminations, lifts = [], []
    eliminate, lift = exactla.echelon_mod, exactla.lift_nullspace
    monkeypatch.setattr(
        exactla, "echelon_mod", lambda *args: eliminations.append(1) or eliminate(*args)
    )
    monkeypatch.setattr(
        exactla, "lift_nullspace", lambda *args: lifts.append(1) or lift(*args)
    )
    code, payload, _ = run_json(capsys, "radon", "Dic3", "--kernel")
    assert code == 0
    assert payload["method"] == "exact-elimination"
    assert len(payload["kernel"]) == payload["kernel_dim"] == 4
    assert calls == {"_build_system": 1, "_kernel": 1}
    assert eliminations == lifts == [1]


def test_json_key_sets_from_records(capsys):
    # the radon, case and dichotomy fields are read off InjectivityVerdict,
    # SuiteCase and FixedSpaceReport, so a field added to one of them shows
    # up here; main adds elapsed_ms to every command's payload, once
    verdict = {
        "group", "variant", "order", "rows", "rank", "kernel_dim", "injective",
        "frobenius_complement", "method", "elapsed_ms",
    }
    keys = {
        ("group", "D4"): {
            "group", "order", "abelian", "cyclic", "invariant_factors", "elapsed_ms",
        },
        ("geodesics", "C6"): {
            "group", "order", "variant", "count", "geodesics", "elapsed_ms",
        },
        ("radon", "Dic3"): verdict,
        ("radon", "Dic3", "--kernel"): verdict | {"kernel"},
        ("spectral", "C6"): {
            "group", "order", "factors", "exponent", "characters", "faithful_count",
            "faithful_indices", "kernel_dim", "kernel_matches_faithful",
            "char_sum_exact", "fourier_ok", "plancherel_defect", "tolerance",
            "elapsed_ms",
        },
        ("spectral", "Dic2", "--rep", "builtin:q8"): {
            "group", "order", "rep_dims", "char_sum_exact", "projections_ok",
            "dichotomies", "kernel_dim", "predicted_kernel_dim", "elapsed_ms",
        },
        ("flow", "group:C6"): {
            "flow", "size", "orbits", "stationary", "periods", "projections", "rows",
            "rank", "kernel_dim", "injective", "method", "elapsed_ms",
        },
        ("verify", "catalog"): {
            "suite", "total", "failed", "passed", "cases", "elapsed_ms",
        },
    }
    payloads = {}
    for argv, expected in keys.items():
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0
        assert out.count('"elapsed_ms"') == 1, argv
        payloads[argv] = json.loads(out)
        assert set(payloads[argv]) == expected, argv
    cases = payloads["verify", "catalog"]["cases"]
    assert cases
    for case in cases:
        assert set(case) == {"group", "expected", "computed", "pass"}
    reports = payloads["spectral", "Dic2", "--rep", "builtin:q8"]["dichotomies"]
    assert len(reports) == 5
    for report in reports:
        assert set(report) == {"dim", "fixed_span_dim", "kernel_dim", "dichotomy_ok"}


def test_main_builds_its_parser_at_most_once(capsys, monkeypatch):
    builds = []
    init = cli._Parser.__init__

    def counting(self, *args, **kwargs):
        builds.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting)
    assert run(capsys, "group", "C2")[0] == 0
    assert run(capsys, "radon", "C3", "--json")[0] == 0
    assert builds.count("coset-radon") <= 1


# text and JSON output of one or more queries per command, frozen from the
# CLI; a deliberate change of output regenerates tests/cli_outputs.json
with open(os.path.join(os.path.dirname(__file__), "cli_outputs.json"), encoding="utf-8") as fh:
    _FROZEN = json.load(fh)

# the Plancherel defect is a float sum over numpy's complex roots of unity,
# whose last bits may differ between platforms; every other value is exact
_PLANCHEREL = re.compile(r'("plancherel_defect": |plancherel defect )[^,)\n]+')


@pytest.mark.parametrize("query", sorted(_FROZEN))
def test_output_matches_the_frozen_output(capsys, query):
    argv = query.split()
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    lines = out.splitlines(keepends=True)
    assert sum(line.startswith('  "elapsed_ms": ') for line in lines) == 1
    out = "".join(line for line in lines if not line.startswith('  "elapsed_ms": '))
    code, text, _ = run(capsys, *argv)
    assert code == 0
    frozen = _FROZEN[query]
    assert _PLANCHEREL.sub(r"\1*", out) == _PLANCHEREL.sub(r"\1*", frozen["json"])
    assert _PLANCHEREL.sub(r"\1*", text) == _PLANCHEREL.sub(r"\1*", frozen["text"])


def test_a_failing_suite_exits_1(capsys, monkeypatch):
    catalog = verify.SUITES["catalog"]
    report = catalog()
    first, *rest = report.cases

    def one_case_wrong():
        wrong = replace(first, computed="wrong")
        return replace(report, cases=(wrong, *rest))

    monkeypatch.setitem(verify.SUITES, "catalog", one_case_wrong)
    n = report.total
    code, out, err = run(capsys, "verify", "catalog")
    assert (code, err) == (1, "")
    assert out == (
        f"suite catalog: {n - 1}/{n} cases passed\n"
        f"  FAIL {first.group}: expected {first.expected!r}, got 'wrong'\n"
    )
    code, payload, err = run_json(capsys, "verify", "catalog")
    assert (code, err) == (1, "")
    assert payload["passed"] is False
    assert (payload["failed"], payload["total"]) == (1, n)
    assert [c["pass"] for c in payload["cases"]] == [False] + [True] * (n - 1)


@pytest.mark.parametrize("suite", ["abelian", "lemma-prime", "spectral-abelian", "flows"])
def test_sweep_bound_above_the_cap_exits_3_before_any_build(capsys, monkeypatch, suite):
    monkeypatch.setenv("COSET_RADON_MAX_ORDER", "200")
    builds = []

    def counting(build):
        def counted(t, recipe):
            builds.append(recipe)
            return build(t, recipe)

        return counted

    # named tables are wrapped, tables from outside proven: count both
    monkeypatch.setattr(groups, "_build", counting(groups._build))
    monkeypatch.setattr(groups, "_wrap", counting(groups._wrap))
    code, out, err = run(capsys, "verify", suite, "--max-order", "100000")
    assert (code, out, builds) == (3, "", [])
    assert err == "error: max order 100000 is above the cap of 200\n"


@pytest.mark.parametrize("suite", ["products", "maximal"])
def test_fixed_list_suites_take_a_bound_above_the_cap(capsys, monkeypatch, suite):
    # these suites only filter a fixed list of groups by the bound, so a
    # bound above the cap is no error
    monkeypatch.setenv("COSET_RADON_MAX_ORDER", "200")
    code, payload, _ = run_json(capsys, "verify", suite, "--max-order", "100000")
    assert code == 0 and payload["passed"] is True


@pytest.mark.parametrize("name, dim", [("S4", 0), ("C2", 1), ("C240", 64)])
def test_kernel_json_matches_the_json_encoder_byte_for_byte(capsys, name, dim):
    # the kernel rows are joined by hand and spliced into json's own dump
    code, out, _ = run(capsys, "radon", name, "--kernel", "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["kernel"]) == payload["kernel_dim"] == dim
    assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"


# --- kernel output against the formatter that read Fraction vectors ---------


def _reference_kernel_rows(kb):
    """The kernel's entry strings as the CLI once wrote them, from
    kb.vectors: one str() per distinct Fraction object, each looked up by
    identity."""
    entries = chain.from_iterable
    shared = dict(zip(map(id, entries(kb.vectors)), entries(kb.vectors)))
    text = {key: str(v) for key, v in shared.items()}.__getitem__
    return [list(map(text, map(id, vec))) for vec in kb.vectors]


def _reference_outputs(spec, variant):
    """The JSON, without elapsed_ms, and the text that `radon SPEC --variant
    VARIANT --kernel` prints, written from a fresh verdict by the reference
    formatter."""
    g = load_group(spec)
    verdict = radon.is_injective(g, variant)
    kb = radon.kernel(radon.build_system(g, variant))
    rows = _reference_kernel_rows(kb)
    payload = {"group": g.recipe, **asdict(verdict), "kernel": rows}
    lines = [
        f"group {g.recipe} ({variant}): "
        f"{'injective' if verdict.injective else 'noninjective'}",
        f"  order {verdict.order}, rows {verdict.rows}, rank {verdict.rank}, "
        f"kernel dim {verdict.kernel_dim} [{verdict.method}]",
    ]
    if verdict.frobenius_complement is not None:
        lines.append(f"  frobenius complement: {verdict.frobenius_complement}")
    lines.append(f"  kernel basis ({kb.dim} vector{'s' * (kb.dim != 1)}):")
    lines.extend("    [" + ", ".join(vec) + "]" for vec in rows)
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    return text, "\n".join(lines) + "\n"


def _kernel_outputs(capsys, spec, variant):
    """What `radon SPEC --variant VARIANT --kernel` prints, as JSON with
    the elapsed_ms line dropped and as text."""
    argv = ["radon", spec, "--variant", variant, "--kernel"]
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    lines = out.splitlines(keepends=True)
    assert sum(line.startswith('  "elapsed_ms": ') for line in lines) == 1
    out = "".join(line for line in lines if not line.startswith('  "elapsed_ms": '))
    code, text, _ = run(capsys, *argv)
    assert code == 0
    return out, text


def _relabelled_file(tmp_path, name):
    """A file: spec for a randomly relabelled table of the named group: its
    element x renamed perm[x]."""
    table = load_group(name).table
    perm = np.random.default_rng(1).permutation(len(table))
    out = np.empty_like(table)
    out[np.ix_(perm, perm)] = perm[table]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"table": out.tolist()}))
    return f"file:{path}"


def test_kernel_output_matches_the_reference_formatter(capsys, tmp_path):
    specs = [g.recipe for g in verify.groups_upto(32) if g.order > 1]
    cases = [(spec, variant) for spec in specs for variant in radon.VARIANTS]
    cases.append((_relabelled_file(tmp_path, "Dic15"), "prime"))
    deficient = 0
    for spec, variant in cases:
        expected = _reference_outputs(spec, variant)
        assert _kernel_outputs(capsys, spec, variant) == expected
        deficient += '"injective": false' in expected[0]
    assert deficient > 50


@pytest.mark.parametrize("name, variant", [("Dic15", "prime"), ("C12", "maximal")])
def test_fallback_kernel_output_matches_the_reference_formatter(
    capsys, monkeypatch, name, variant
):
    # a wrong lift is caught, and the output comes from rational_nullspace
    expected = _reference_outputs(name, variant)
    lift, nullspace, fallbacks = exactla.lift_nullspace, exactla.rational_nullspace, []

    def wrong(kernel, p):
        # the first entry of the first vector, and its scaled value, plus 1
        codes, values, scaled = lift(kernel, p)
        scaled[0, 0] += 1
        values = (*values, values[codes[0, 0]] + 1)
        codes[0, 0] = len(values) - 1
        return codes, values, scaled

    def counting(rows, ncols):
        fallbacks.append(ncols)
        return nullspace(rows, ncols)

    monkeypatch.setattr(exactla, "lift_nullspace", wrong)
    monkeypatch.setattr(exactla, "rational_nullspace", counting)
    assert _kernel_outputs(capsys, name, variant) == expected
    assert len(fallbacks) == 2  # once for the JSON run, once for the text


def test_a_kernel_of_one_vector_is_singular_in_text(capsys):
    _, out, _ = run(capsys, "radon", "C2", "--kernel")
    assert "  kernel basis (1 vector):\n    [1, -1]\n" in out
    _, out, _ = run(capsys, "radon", "C3", "--kernel")
    assert "(2 vectors)" in out


def test_a_verdict_without_a_kernel_builds_no_vectors(capsys, monkeypatch, tmp_path):
    # a family's verdict is |G| - m_0, from the spectrum or from the rank
    # mod P of its rows, so on a group system only the zero-average cases of
    # the maximal suite, which read a kernel, lift one or fall back; a flow
    # still proves its deficit by its kernel
    within, lifts, deficits, make = [], [], [], radon._make_verdict

    def deciding(n, variant, rows, rank):
        deficits.append(variant in radon.VARIANTS and rank < n)
        return make(n, variant, rows, rank)

    def entering(function, label):
        def wrapper(*args):
            within.append(label(*args))
            try:
                return function(*args)
            finally:
                within.pop()

        return wrapper

    def recording(function):
        def wrapper(*args):
            lifts.append(tuple(within))
            return function(*args)

        return wrapper

    monkeypatch.setattr(
        radon, "_kernel",
        entering(radon._kernel, lambda sys: "flow" if sys.group is None else "group"),
    )
    monkeypatch.setattr(
        verify, "_zero_average_cyclic_case",
        entering(verify._zero_average_cyclic_case, lambda n: "zero-average"),
    )
    monkeypatch.setattr(radon, "_make_verdict", deciding)
    for name in ("lift_nullspace", "rational_nullspace"):
        monkeypatch.setattr(exactla, name, recording(getattr(exactla, name)))
    for argv in (
        ["radon", "C360"],
        ["radon", _relabelled_file(tmp_path, "Dic63"), "--json"],
        ["radon", "C96", "--variant", "maximal"],
        ["spectral", "C12"],
        *(["verify", suite] for suite in verify.SUITES),
    ):
        assert run(capsys, *argv)[0] == 0
    assert sum(deficits) > 100
    assert lifts.count(("zero-average", "group")) == 29  # C2 ... C30
    assert ("flow",) in lifts
    assert all(ctx in (("zero-average", "group"), ("flow",)) for ctx in lifts)


# --- the failure contract under fuzzed input ---------------------------------

# the keys the group, flow and --rep readers look up, so that random objects
# get past the first missing-key check
_FILE_KEYS = (
    "order", "table", "semidirect", "normal", "acting", "action", "size", "dim",
    "images", "unitary", "0", "1",
)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 6) | st.integers() | st.floats()
    | st.text(max_size=6) | st.sampled_from(["C2", "C3", "S3", "file:"]),
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.sampled_from(_FILE_KEYS) | st.text(max_size=3), inner, max_size=4),
    max_leaves=30,
)
_SPECS = (
    st.text()
    | st.text(alphabet="CDSAicx0123456789 -:", max_size=12)
    | st.text().map("file:".__add__)
)


def _contract_holds(argv):
    """Run main with the order cap lowered to 64, and check the exit code,
    the one stderr line of a failure and the absence of a traceback."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"COSET_RADON_MAX_ORDER": "64"}):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2, 3), (argv, code)
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), (argv, lines)
    assert "Traceback" not in out.getvalue() + err.getvalue()


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.json"


@pytest.mark.parametrize(
    "argv",
    [["group", "file:{path}"], ["flow", "file:{path}"], ["spectral", "C2", "--rep", "{path}"]],
    ids=["group-file", "flow-file", "rep-file"],
)
@given(data=_JSON_VALUES)
@example(data=_EXTRA_IMAGE_KEYS)
@settings(max_examples=100, deadline=None)
def test_fuzzed_files_keep_the_failure_contract(fuzz_file, argv, data):
    fuzz_file.write_text(json.dumps(data))
    _contract_holds([a.format(path=fuzz_file) for a in argv])


@given(spec=_SPECS)
@settings(max_examples=200, deadline=None)
def test_fuzzed_group_specs_keep_the_failure_contract(spec):
    _contract_holds(["group", spec])
