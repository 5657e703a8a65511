import ast
import hashlib
import importlib
import json
import os
import re
import subprocess
import sys
import time
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import trivec.cli
import trivec.covariants
import trivec.spectra
from trivec.classify import classify
from trivec.cli import (_format_scalar, build_report, main, parse_state,
                        state_document)
from trivec.exterior import AltTensor, canonical_state, slocc_apply
from trivec.invariants import eight_i, quartic_d, seven_j
from trivec.oracle import random_invertible
from trivec.scalars import GaussianRational

# the package exports the function ``classify``, which shadows the module name
classify_module = importlib.import_module("trivec.classify")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_state(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def ghz_doc():
    return {
        "format": 1, "dimension": 6, "degree": 3, "scalar_mode": "rational",
        "amplitudes": [
            {"indices": [1, 2, 3], "re": "1", "im": "0"},
            {"indices": [4, 5, 6], "re": "1", "im": "0"},
        ],
    }


def test_classify_ghz(tmp_path, capsys):
    path = write_state(tmp_path, "ghz.json", ghz_doc())
    code, out, _ = run_cli(capsys, "classify", "--input", path)
    assert code == 0
    rep = json.loads(out)
    assert rep["classification"]["label"] == "GHZ"
    assert rep["invariants"]["quartic_d"]["re"] == "1"
    assert rep["spectrum"]["constraints"][0]["saturated"] is False


def test_classify_is_byte_deterministic(tmp_path, capsys):
    path = write_state(tmp_path, "ghz.json", ghz_doc())
    _, out1, _ = run_cli(capsys, "classify", "--input", path)
    _, out2, _ = run_cli(capsys, "classify", "--input", path)
    assert out1 == out2


def test_classify_rejects_repeated_index(tmp_path, capsys):
    doc = ghz_doc()
    doc["amplitudes"][0]["indices"] = [1, 1, 2]
    path = write_state(tmp_path, "bad.json", doc)
    code, _, err = run_cli(capsys, "classify", "--input", path)
    assert code == 2
    assert "indices" in err


def test_classify_rejects_duplicate_set(tmp_path, capsys):
    doc = ghz_doc()
    doc["amplitudes"].append({"indices": [2, 1, 3], "re": "1", "im": "0"})
    path = write_state(tmp_path, "dup.json", doc)
    code, _, err = run_cli(capsys, "classify", "--input", path)
    assert code == 2
    assert "duplicate" in err


def test_classify_rejects_top_level_list(tmp_path, capsys):
    path = write_state(tmp_path, "list.json", [ghz_doc()])
    code, _, err = run_cli(capsys, "classify", "--input", path)
    assert code == 2
    assert "document: must be a JSON object" in err


def test_classify_rejects_non_object_amplitude(tmp_path, capsys):
    doc = ghz_doc()
    doc["amplitudes"][1] = [4, 5, 6]
    path = write_state(tmp_path, "entry.json", doc)
    code, _, err = run_cli(capsys, "classify", "--input", path)
    assert code == 2
    assert "amplitudes[1]: must be an object" in err


def test_classify_rejects_boolean_index(tmp_path, capsys):
    doc = ghz_doc()
    doc["amplitudes"][0]["indices"] = [True, 2, 3]
    path = write_state(tmp_path, "bool.json", doc)
    code, _, err = run_cli(capsys, "classify", "--input", path)
    assert code == 2
    assert "amplitudes[0].indices" in err


def test_classify_rejects_non_finite_float(tmp_path, capsys):
    for part, text in (("re", "nan"), ("im", "inf"), ("re", "-inf")):
        doc = ghz_doc()
        doc["scalar_mode"] = "float"
        doc["amplitudes"][1][part] = text
        path = write_state(tmp_path, "nonfinite.json", doc)
        code, _, err = run_cli(capsys, "classify", "--input", path)
        assert code == 2, text
        assert "amplitudes[1]" in err


@pytest.mark.parametrize("field,value", [
    ("format", True), ("format", 1.0), ("format", "1"),
    ("degree", 3.0), ("degree", "3")])
def test_format_and_degree_must_be_json_integers(tmp_path, capsys, field,
                                                 value):
    # true, 1.0 and 3.0 compare equal to the integers they stand for
    doc = ghz_doc()
    doc[field] = value
    path = write_state(tmp_path, "fields.json", doc)
    code, out, err = run_cli(capsys, "classify", "--input", path)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {field}: "), err


@pytest.mark.parametrize("mode", ["rational", "float"])
@pytest.mark.parametrize("value", [None, [1], {"re": "1"}, True, False])
def test_scalars_that_are_neither_strings_nor_numbers_exit_2(tmp_path, capsys,
                                                             mode, value):
    # in a float file too: no TypeError, and true is not read as 1.0
    doc = ghz_doc()
    doc["scalar_mode"] = mode
    doc["amplitudes"][1]["re"] = value
    state = write_state(tmp_path, "state.json", doc)
    psi = write_state(tmp_path, "psi.json", {"amplitudes": [
        {"indices": [0, 0, 0], "re": "1"}, {"indices": [1, 1, 1], "im": value}]})
    embed_mode = "exact" if mode == "rational" else "float"
    for argv in (("classify", "--input", state), ("rdm", "--input", state),
                 ("random", "--slocc-of", state),
                 ("embed", "--type", "qubit3", "--input", psi, "--mode", embed_mode)):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: amplitudes[1]: bad scalar"), argv


def test_scalars_may_be_json_numbers(tmp_path, capsys):
    for mode, value in (("rational", 2), ("rational", 0.5), ("float", 2), ("float", 0.5)):
        doc = ghz_doc()
        doc["scalar_mode"] = mode
        doc["amplitudes"][1]["re"] = value
        code, out, _ = run_cli(capsys, "classify", "--input",
                               write_state(tmp_path, "num.json", doc))
        assert code == 0, (mode, value)
        assert json.loads(out)["classification"]["label"] == "GHZ"
    # a JSON integer past the double range is a bad float, not a traceback
    doc["amplitudes"][1]["re"] = 10 ** 400
    code, out, err = run_cli(capsys, "classify", "--input",
                             write_state(tmp_path, "num.json", doc))
    assert (code, out) == (2, "")
    assert err.startswith("error: amplitudes[1]: bad scalar")


def test_huge_decimal_exponents_exit_2_at_once(tmp_path, capsys):
    # Fraction("1e999999999") would build a billion-digit integer
    doc = ghz_doc()
    doc["amplitudes"][1]["re"] = "1e999999999"
    state = write_state(tmp_path, "state.json", doc)
    psi = write_state(tmp_path, "psi.json", {"amplitudes": [
        {"indices": [0, 0, 0], "re": "1e-999999999"}]})
    for argv, field in ((("classify", "--input", state), "amplitudes[1]: bad scalar"),
                        (("embed", "--type", "qubit3", "--input", psi),
                         "amplitudes[0]: bad scalar"),
                        (("canonical", "--dim", "9", "--class", "family1",
                          "--params", "1e999999999,2,4,8"), "params: ")):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0, argv
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: " + field) and "4300" in err, argv
    for text in ("1e4301", "-1E-4301", "1e+0_4301", "1e-" + "9" * 5000):
        with pytest.raises(ValueError, match="decimal exponent"):
            trivec.cli._long_fraction(text)
    # the bound itself is read
    code, out, _ = run_cli(capsys, "canonical", "--dim", "9", "--class", "family1",
                           "--params", "1e4300,2,4,8")
    assert code == 0
    assert json.loads(out)["amplitudes"][0]["re"] == "1" + "0" * 4300


def test_random_slocc_of_never_writes_a_file_the_reader_refuses(tmp_path, capsys):
    doc = ghz_doc()
    doc["scalar_mode"] = "float"
    doc["amplitudes"][0]["re"], doc["amplitudes"][1]["re"] = "1e308", "-1e308"
    path = write_state(tmp_path, "big.json", doc)
    refused = []
    for seed in range(1, 10):
        moved = str(tmp_path / "moved.json")
        code, out, err = run_cli(capsys, "random", "--slocc-of", path,
                                 "--seed", str(seed), "--out", moved)
        if code == 2:
            assert out == "" and err.startswith("error: slocc-of: "), seed
            refused.append(seed)
        else:
            code, _, err = run_cli(capsys, "classify", "--input", moved)
            assert code in (0, 3) and err == "", seed
    # seed 5 moves an amplitude past the double range
    assert 5 in refused


def test_float_states_at_the_edges_of_the_double_range(tmp_path, capsys):
    for value in ("1e-300", "1e200"):
        doc = ghz_doc()
        doc["scalar_mode"] = "float"
        for amp in doc["amplitudes"]:
            amp["re"] = value
        path = write_state(tmp_path, "edge.json", doc)
        code, out, _ = run_cli(capsys, "classify", "--input", path)
        assert code == 0, value
        rep = json.loads(out)
        assert rep["classification"]["label"] == "GHZ"
        assert rep["invariants"]["quartic_d"]["zero"] is False
        assert rep["spectrum"]["occupations_descending"] == [0.5] * 6
        code, out, _ = run_cli(capsys, "rdm", "--input", path)
        assert code == 0, value
        assert json.loads(out)["pinning"]["class_label"] == "GHZ"


def test_embed_rejects_malformed_documents(tmp_path, capsys):
    entry = {"indices": [0, 0, 0], "re": "1", "im": "0"}
    for doc, field in (([entry], "document: must be a JSON object"),
                       ({"amplitudes": [[0, 0, 0]]},
                        "amplitudes[0]: must be an object"),
                       ({"amplitudes": [dict(entry, indices=[True, 0, 0])]},
                        "amplitudes[0].indices")):
        path = write_state(tmp_path, "psi.json", doc)
        code, _, err = run_cli(capsys, "embed", "--type", "qubit3",
                               "--input", path)
        assert code == 2
        assert field in err
    # a label that is a list, an object or a float is named, not a
    # traceback, and a float equal to an allowed label is not read as it
    for kind, idx in (("qubit3", [[0], 0, 0]), ("qutrit3", [{"a": 1}, 1, 1]),
                      ("qubit3", [0, 0, {}]), ("qutrit3", [1, [2], 3]),
                      ("qutrit3", [1.0, 2, 3]), ("qubit3", [1.0, 0, 1])):
        first = dict(entry, indices=[0, 0, 0] if kind == "qubit3" else [1, 1, 1])
        path = write_state(tmp_path, "psi.json",
                           {"amplitudes": [first, dict(entry, indices=idx)]})
        code, out, err = run_cli(capsys, "embed", "--type", kind, "--input", path)
        assert (code, out) == (2, ""), idx
        assert "amplitudes[1].indices" in err, idx


def test_nonincreasing_indices_normalized():
    doc = ghz_doc()
    doc["amplitudes"][0]["indices"] = [3, 2, 1]
    p, mode = parse_state(doc)
    assert p.coefficient((1, 2, 3)) == -1


def test_state_document_roundtrip():
    p = canonical_state(7, "X")
    doc = state_document(p, "rational")
    q, mode = parse_state(doc)
    assert q == p and mode == "rational"


def test_long_exact_amplitudes_round_trip(tmp_path, capsys):
    # 4401 digits: past the int string-conversion limit of Fraction(str)
    p = canonical_state(6, "GHZ").scale(10 ** 4400)
    doc = state_document(p, "rational")
    assert len(doc["amplitudes"][0]["re"]) > sys.get_int_max_str_digits()
    q, mode = parse_state(doc)
    assert q == p and mode == "rational"
    q, _ = parse_state(json.loads(json.dumps(doc)))
    assert q == p
    path = write_state(tmp_path, "big.json", doc)
    code, out, err = run_cli(capsys, "classify", "--input", path)
    assert (code, err) == (0, "")
    assert json.loads(out)["classification"]["label"] == "GHZ"
    # the long form reads integers and p/q only; anything else keeps its error
    for bad in ("1" * 5000 + "x", "1/0" + "0" * 5000):
        doc["amplitudes"][0]["re"] = bad
        with pytest.raises(trivec.cli.CliError, match=r"amplitudes\[0\]: bad scalar"):
            parse_state(doc)
    # a JSON number literal that long is an input error, not a traceback
    path = tmp_path / "number.json"
    path.write_text(json.dumps(ghz_doc()).replace('"re": "1"', '"re": ' + "1" * 5000, 1))
    code, out, err = run_cli(capsys, "classify", "--input", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: input: ")


def test_deeply_nested_json_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "nested.json"
    path.write_text("[" * 100000 + "]" * 100000)
    for argv in (("classify",), ("embed", "--type", "qubit3"),
                 ("embed", "--type", "qutrit3")):
        code, out, err = run_cli(capsys, *argv, "--input", str(path))
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: input: invalid JSON"), argv


def test_fraction_strings_read_like_fraction():
    # integer and p/q strings skip Fraction's parser; every string keeps
    # Fraction's value, and its error type and text
    integers = ("0", "-0", "+17", "007", " 5 ", "5\n", "\uff15")
    for text in integers + ("-6/8", "+3/9", "\t-3/4 ", "1\u0663/\u0664", "1.5", "-2e3",
                            ".5", "1_000", "7/" + "3" * 600, "1e4300", "-2.5E-4300",
                            "1e+04_300"):
        got = trivec.cli._long_fraction(text)
        assert got == Fraction(text), text
        assert type(got) is (int if text in integers else Fraction), text
    for text in ("3/0", "-3/0", "3 / 4", "3/-4", "--1", "0x10", "", "abc"):
        with pytest.raises((ValueError, ZeroDivisionError)) as want:
            Fraction(text)
        with pytest.raises(want.type, match=f"^{re.escape(str(want.value))}$"):
            trivec.cli._long_fraction(text)


def test_long_numbers_convert_like_int_and_str():
    # 10^5 digits, with the limit lifted so that int and str can referee
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        digits = "9" + "8071236459" * 9999 + "000000001"
        assert len(digits) == 10 ** 5
        for text in (digits, "-" + digits, "+" + digits, digits + "/" + digits[:50001],
                     "-0000" + digits[:777] + "/3"):
            want = Fraction(text)
            got = trivec.cli._long_fraction(text)
            assert got == want
            assert trivec.cli._exact_str(got) == (str(want.numerator) if want.denominator == 1
                                                  else str(want))
        for n in (10 ** 99999, -(10 ** 99999), 2 ** 5000 - 1, 10 ** 480):
            assert trivec.cli._exact_str(n) == str(n)
            assert trivec.cli._long_fraction(str(n)) == n
    finally:
        sys.set_int_max_str_digits(limit)


def test_canonical_and_classify_roundtrip(tmp_path, capsys):
    for dim, label in ((6, "W"), (7, "X"), (8, "XVI")):
        path = str(tmp_path / f"{label}.json")
        code, _, _ = run_cli(capsys, "canonical", "--dim", str(dim),
                             "--class", label, "--out", path)
        assert code == 0
        code, out, _ = run_cli(capsys, "classify", "--input", path)
        assert code == 0
        assert json.loads(out)["classification"]["label"] == label


def test_canonical_family_with_params(tmp_path, capsys):
    path = str(tmp_path / "fam1.json")
    code, _, _ = run_cli(capsys, "canonical", "--dim", "9", "--class",
                         "family1", "--params", "1,2,4,8", "--out", path)
    assert code == 0
    code, out, _ = run_cli(capsys, "classify", "--input", path)
    assert code == 0
    rep = json.loads(out)
    assert rep["classification"]["label"] == "family1"
    assert rep["classification"]["rank_T"] == 80


def test_canonical_rejects_bad_params(capsys):
    code, _, err = run_cli(capsys, "canonical", "--dim", "9", "--class",
                           "family1", "--params", "2,1,1,3")
    assert code == 2
    assert "constraint" in err


def test_canonical_rejects_a_zero_denominator(capsys):
    code, out, err = run_cli(capsys, "canonical", "--dim", "9", "--class",
                             "family1", "--params", "1,2,4,1/0")
    assert (code, out) == (2, "")
    assert err.startswith("error: params: ")


@pytest.mark.parametrize("label", ["familyx", "family", "family99", "family0"])
def test_canonical_bad_family_label_names_class(capsys, label):
    # the label is at fault, not the parameters
    code, out, err = run_cli(capsys, "canonical", "--dim", "9", "--class",
                             label, "--params", "1")
    assert (code, out) == (2, "")
    assert err.startswith("error: class: unknown nine-dimensional label"), err


@pytest.mark.parametrize("dim,label,params", [
    ("6", "GHZ", "1,2"), ("7", "X", "1"), ("8", "XV", "7")])
def test_canonical_params_below_nine_modes_name_params(tmp_path, capsys, dim,
                                                       label, params):
    # no class below nine modes has parameters; they were dropped unread
    path = tmp_path / "state.json"
    code, out, err = run_cli(capsys, "canonical", "--dim", dim, "--class",
                             label, "--params", params, "--out", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: params: "), err
    assert not path.exists()


def test_canonical_bad_label_below_nine_modes_names_class(capsys):
    code, out, err = run_cli(capsys, "canonical", "--dim", "8", "--class",
                             "XXIV", "--params", "1")
    assert (code, out) == (2, "")
    assert err.startswith("error: class: "), err


@pytest.mark.parametrize("command", ["canonical", "random", "embed"])
def test_an_out_file_that_cannot_be_written_names_out(tmp_path, capsys,
                                                      command):
    psi = write_state(tmp_path, "psi.json", {"amplitudes": [
        {"indices": [0, 0, 0], "re": "1"}, {"indices": [1, 1, 1], "re": "1"}]})
    argv = {"canonical": ["--dim", "6", "--class", "GHZ"],
            "random": ["--dim", "6"],
            "embed": ["--type", "qubit3", "--input", psi]}[command]
    code, out, err = run_cli(capsys, command, *argv, "--out", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: out: cannot write "), err


@pytest.mark.parametrize("command", ["canonical", "random", "embed"])
def test_out_file_holds_the_bytes_of_stdout(tmp_path, capsys, command):
    psi = write_state(tmp_path, "psi.json", {"amplitudes": [
        {"indices": [0, 0, 0], "re": "1"}, {"indices": [1, 1, 1], "re": "1"}]})
    argv = {"canonical": ["canonical", "--dim", "9", "--class", "family1",
                          "--params", "1,2,4,8"],
            "random": ["random", "--dim", "7", "--seed", "3"],
            "embed": ["embed", "--type", "qubit3", "--input", psi]}[command]
    code, shown, _ = run_cli(capsys, *argv)
    assert code == 0
    path = tmp_path / "out.json"
    code, out, _ = run_cli(capsys, *argv, "--out", str(path))
    assert code == 0
    if command == "embed":
        shown = json.dumps(json.loads(shown)["embedded"], sort_keys=True,
                           indent=2) + "\n"
        assert json.loads(out)["embedded"] == {"written_to": str(path)}
    else:
        assert out == ""
    assert path.read_text() == shown


@pytest.mark.parametrize("command", ["canonical", "random"])
@pytest.mark.parametrize("dim", ["5", "12"])
def test_dimension_outside_6_to_9_names_dim(capsys, command, dim):
    # --dim 5 used to write a file that classify refuses, --dim 12 raised
    argv = [command, "--dim", dim] + (["--class", "GHZ"] if command == "canonical" else [])
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: dim: ")


def test_canonical_q1_report(tmp_path, capsys):
    path = str(tmp_path / "q1.json")
    run_cli(capsys, "canonical", "--dim", "9", "--class", "family6",
            "--params", "1", "--out", path)
    code, out, _ = run_cli(capsys, "classify", "--input", path)
    assert code == 0
    rep = json.loads(out)
    assert rep["classification"]["label"] == "family6"
    assert rep["classification"]["rank_T"] == 56
    js = [rep["invariants"][k]["re"] for k in ("J12", "J18", "J24", "J30")]
    assert js == ["1", "1", "111", "584"]


def test_random_deterministic(tmp_path, capsys):
    code, out1, _ = run_cli(capsys, "random", "--dim", "7", "--seed", "5")
    assert code == 0
    _, out2, _ = run_cli(capsys, "random", "--dim", "7", "--seed", "5")
    assert out1 == out2


def test_random_slocc_of_preserves_class(tmp_path, capsys):
    path = write_state(tmp_path, "ghz.json", ghz_doc())
    moved = str(tmp_path / "moved.json")
    code, _, _ = run_cli(capsys, "random", "--slocc-of", path, "--seed", "1",
                         "--out", moved)
    assert code == 0
    code, out, _ = run_cli(capsys, "classify", "--input", moved)
    assert code == 0
    assert json.loads(out)["classification"]["label"] == "GHZ"


def test_embed_qubit_ghz(tmp_path, capsys):
    psi = {"amplitudes": [
        {"indices": [0, 0, 0], "re": "1", "im": "0"},
        {"indices": [1, 1, 1], "re": "1", "im": "0"},
    ]}
    path = write_state(tmp_path, "psi.json", psi)
    code, out, _ = run_cli(capsys, "embed", "--type", "qubit3",
                           "--input", path)
    assert code == 0
    rep = json.loads(out)
    assert rep["classification"] == {"dimension": 6, "label": "GHZ"}


def test_embed_qubit_w(tmp_path, capsys):
    psi = {"amplitudes": [
        {"indices": [0, 0, 1], "re": "1", "im": "0"},
        {"indices": [0, 1, 0], "re": "1", "im": "0"},
        {"indices": [1, 0, 0], "re": "1", "im": "0"},
    ]}
    path = write_state(tmp_path, "w.json", psi)
    code, out, _ = run_cli(capsys, "embed", "--type", "qubit3",
                           "--input", path)
    assert code == 0
    assert json.loads(out)["classification"]["label"] == "W"


def test_embed_qutrit_normal_form(tmp_path, capsys):
    amps = []
    for trip in ((1, 1, 1), (2, 2, 2), (3, 3, 3)):
        amps.append({"indices": list(trip), "re": "1", "im": "0"})
    path = write_state(tmp_path, "psi0.json", {"amplitudes": amps})
    code, out, _ = run_cli(capsys, "embed", "--type", "qutrit3",
                           "--input", path)
    assert code == 0
    rep = json.loads(out)
    assert rep["classification"]["dimension"] == 9
    assert rep["qutrit_family_separation"]["D36"]["zero"] is True
    assert rep["qutrit_family_separation"]["D21"]["zero"] is True


def test_embed_rejects_bad_labels(tmp_path, capsys):
    psi = {"amplitudes": [{"indices": [0, 0, 2], "re": "1", "im": "0"}]}
    path = write_state(tmp_path, "bad.json", psi)
    code, _, err = run_cli(capsys, "embed", "--type", "qubit3",
                           "--input", path)
    assert code == 2


def test_rdm_report(tmp_path, capsys):
    path = write_state(tmp_path, "ghz.json", ghz_doc())
    code, out, _ = run_cli(capsys, "rdm", "--input", path)
    assert code == 0
    rep = json.loads(out)
    assert rep["occupations_descending"] == [0.5] * 6
    assert rep["pinning"]["class_label"] == "GHZ"


def test_selfcheck(capsys):
    code, out, err = run_cli(capsys, "selfcheck")
    assert code == 0
    rep = json.loads(out)
    assert rep["passed"] is True
    assert "ok" in err


def test_mode_mismatch(tmp_path, capsys):
    path = write_state(tmp_path, "ghz.json", ghz_doc())
    code, _, err = run_cli(capsys, "classify", "--input", path,
                           "--mode", "float")
    assert code == 2


def _moved(dim, label):
    return slocc_apply(random_invertible(dim, 5), canonical_state(dim, label))


@pytest.mark.parametrize("dim,label,real", [
    (6, "GHZ", False), (6, "GHZ", True), (6, "W", False), (7, "VII", False),
    (7, "X", False)])
@pytest.mark.parametrize("to_float", [False, True])
def test_build_report_classifies_once(monkeypatch, dim, label, real, to_float):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("classify6", "classify7", "quartic_d"):
        monkeypatch.setattr(classify_module, name,
                            counted(name, getattr(classify_module, name)))
    # a report must not evaluate D again through the CLI's own namespace
    monkeypatch.setattr(trivec.cli, "quartic_d",
                        counted("quartic_d", classify_module.quartic_d),
                        raising=False)
    p = _moved(dim, label)
    if to_float:
        p = p.to_float()
    report = build_report(p, "float" if to_float else "rational", real=real)
    assert report["spectrum"] is not None
    assert calls[f"classify{dim}"] == 1
    assert calls["classify6" if dim == 7 else "classify7"] == 0
    assert calls["quartic_d"] == (1 if dim == 6 else 0)


@pytest.mark.parametrize("source", ["XV", "XXIII", "embedded 7:X"])
@pytest.mark.parametrize("mode", ["rational", "gaussian", "float"])
def test_eight_mode_report_builds_covariants_once(monkeypatch, source, mode):
    invariants_module = importlib.import_module("trivec.invariants")
    if source.startswith("embedded"):
        # support 7: classify8 delegates and the report computes I itself
        p = AltTensor(8, 3, dict(canonical_state(7, "X").masks()))
    elif mode == "gaussian":
        # unmoved: Gaussian-rational covariants of a moved state are slow
        p = canonical_state(8, source)
    else:
        p = _moved(8, source)
    if mode == "gaussian":
        z = GaussianRational(Fraction(3, 5), Fraction(4, 5))
        p = AltTensor(8, 3, {m: v * z for m, v in p.masks().items()})
    elif mode == "float":
        p = p.to_float()
    want = _format_scalar(eight_i(p), "float" if mode == "float" else "rational")
    calls = Counter()
    original = classify_module.eight_covariants

    def counted(q):
        calls["eight_covariants"] += 1
        return original(q)

    monkeypatch.setattr(classify_module, "eight_covariants", counted)
    monkeypatch.setattr(invariants_module, "eight_covariants", counted)
    report = build_report(p, "float" if mode == "float" else "rational")
    assert calls["eight_covariants"] == 1
    field = report["invariants"]["eight_i"]
    assert (field["re"], field["im"]) == want


_GAUSS = GaussianRational(Fraction(3, 5), Fraction(4, 5))


def _report_state(dim, label, mode, moved=True):
    p = _moved(dim, label) if moved else canonical_state(dim, label)
    if mode == "gaussian":
        p = AltTensor(dim, 3, {m: v * _GAUSS for m, v in p.masks().items()})
    elif mode == "float":
        p = p.to_float()
    return p


def _count_kappa_maps(monkeypatch):
    calls = Counter()
    original = trivec.covariants.kappa_map

    def counted(p, degrees):
        calls[tuple(degrees)] += 1
        return original(p, degrees)

    monkeypatch.setattr(trivec.covariants, "kappa_map", counted)
    monkeypatch.setattr(classify_module, "kappa_map", counted)
    return calls


# the real split needs real amplitudes, so it has no Gaussian-rational case
@pytest.mark.parametrize("label,real,mode", [
    (label, False, mode) for label in ("GHZ", "W", "Bisep")
    for mode in ("rational", "gaussian", "float")] + [
    (label, True, mode) for label in ("GHZ", "GHZ-")
    for mode in ("rational", "float")])
def test_six_mode_report_builds_k_once(monkeypatch, label, real, mode):
    p = _report_state(6, label, mode)
    arith = "float" if mode == "float" else "rational"
    want = _format_scalar(quartic_d(p), arith)
    calls = _count_kappa_maps(monkeypatch)
    report = build_report(p, arith, real=real)
    # K is the (1,) map; the rank triple also needs the (2,) map once
    assert calls == {(1,): 1, (2,): 1}
    field = report["invariants"]["quartic_d"]
    assert (field["re"], field["im"]) == want
    if real:
        want_label = "GHZ-" if label == "GHZ-" else "GHZ+"
        assert report["classification"]["label"] == want_label


@pytest.mark.parametrize("label", ["IV", "VII", "X"])
@pytest.mark.parametrize("mode", ["rational", "gaussian", "float"])
def test_seven_mode_report_builds_m_and_n_once(monkeypatch, label, mode):
    p = _report_state(7, label, mode)
    arith = "float" if mode == "float" else "rational"
    want = _format_scalar(seven_j(p), arith)
    calls = _count_kappa_maps(monkeypatch)
    report = build_report(p, arith)
    # M is the (1,) map, N the (1, 1) one
    assert calls == {(1,): 1, (1, 1): 1}
    assert report["classification"]["label"] == label
    field = report["invariants"]["seven_j"]
    assert (field["re"], field["im"]) == want


@pytest.mark.parametrize("dim,label", [(7, "X"), (8, "XV"), (8, "embedded 7:X")])
@pytest.mark.parametrize("mode", ["rational", "gaussian", "float"])
def test_build_report_leaves_invariants_to_the_classifier(monkeypatch, dim,
                                                          label, mode):
    invariants_module = importlib.import_module("trivec.invariants")
    if label.startswith("embedded"):
        p = AltTensor(8, 3, dict(_report_state(7, "X", mode).masks()))
    else:
        # Gaussian-rational eight-mode covariants of a moved state are slow
        p = _report_state(dim, label, mode, moved=dim == 7 or mode != "gaussian")
    name = "seven_j" if dim == 7 else "eight_i"
    arith = "float" if mode == "float" else "rational"
    want = _format_scalar(getattr(invariants_module, name)(p), arith)
    calls = Counter()

    def counted(where, fn):
        def wrapper(*args, **kwargs):
            calls[where] += 1
            return fn(*args, **kwargs)
        return wrapper

    for fname in ("seven_j", "eight_i"):
        monkeypatch.setattr(trivec.cli, fname,
                            counted("cli", getattr(invariants_module, fname)),
                            raising=False)
    monkeypatch.setattr(classify_module, name,
                        counted("classify", getattr(classify_module, name)))
    report = build_report(p, arith)
    assert calls == {"classify": 1}
    field = report["invariants"][name]
    assert (field["re"], field["im"]) == want


@pytest.mark.parametrize("dim,label", [(6, "W"), (7, "IX")])
@pytest.mark.parametrize("mode", ["rational", "float"])
@pytest.mark.parametrize("command", ["classify", "rdm"])
def test_report_builds_the_one_matrix_once(monkeypatch, tmp_path, capsys,
                                           dim, label, mode, command):
    calls = []
    build = trivec.spectra.one_matrix

    def counted(p):
        calls.append(p)
        return build(p)

    monkeypatch.setattr(trivec.spectra, "one_matrix", counted)
    monkeypatch.setattr(trivec.cli, "one_matrix", counted)
    p = _moved(dim, label)
    path = write_state(tmp_path, "s.json",
                       state_document(p.to_float() if mode == "float" else p, mode))
    code, out, _ = run_cli(capsys, command, "--input", path)
    assert code == 0
    rep = json.loads(out)
    assert (rep["spectrum"] if command == "classify" else rep)["constraints"]
    assert len(calls) == 1


def test_moved_family1_report_is_unchanged(tmp_path, capsys):
    # the benchmark's slowest nine-mode input; the exact rank of its 84 x 84
    # T runs on rows and columns with their gcds divided out
    p = slocc_apply(random_invertible(9, 1),
                    canonical_state(9, "family1", (1, 2, 4, 8)))
    path = write_state(tmp_path, "f1.json", state_document(p, "rational"))
    code, out, _ = run_cli(capsys, "classify", "--input", path)
    assert code == 0
    rep = json.loads(out)["classification"]
    assert (rep["label"], rep["rank_T"]) == ("family1", 80)
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "dd3fdc282a1ed0d144595789ba476987c3396846567997512d4d72752d73f429")


def test_rdm_pinning_label_is_the_class_label(tmp_path, capsys):
    for dim, label in ((6, "W"), (7, "VII"), (7, "X")):
        p = _moved(dim, label)
        path = write_state(tmp_path, f"s{dim}{label}.json",
                           state_document(p, "rational"))
        code, out, _ = run_cli(capsys, "rdm", "--input", path)
        assert code == 0
        pinning = json.loads(out)["pinning"]
        assert pinning["class_label"] == classify(p).label == label


def test_repeated_main_calls_match_fresh_runs(tmp_path, capsys, monkeypatch):
    # main builds its parser once per process; a run of different commands,
    # errors among them, must answer as a fresh interpreter does each time
    monkeypatch.setenv("COLUMNS", "80")
    ghz = write_state(tmp_path, "ghz.json", ghz_doc())
    seven = write_state(tmp_path, "seven.json",
                        state_document(canonical_state(7, "IX"), "rational"))
    float8 = write_state(tmp_path, "float8.json",
                         state_document(canonical_state(8, "XV").to_float(), "float"))
    runs = [
        ["classify", "--input", ghz],
        ["rdm", "--input", seven],
        ["classify"],
        ["classify", "--input", ghz, "--real"],
        ["classify", "--input", float8, "--mode", "exact"],
        ["classify", "--input", seven],
        ["canonical", "--dim", "7", "--class", "IV"],
        ["frobnicate"],
        ["random", "--slocc-of", seven, "--seed", "3"],
        ["classify", "--input", str(tmp_path / "missing.json")],
        ["rdm", "--input", float8],
    ]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(trivec.cli.__file__))]
        + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    for argv in runs:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        got = (code, *capsys.readouterr())
        fresh = subprocess.run([sys.executable, "-m", "trivec.cli"] + argv,
                               env=env, capture_output=True, text=True, timeout=120)
        assert got == (fresh.returncode, fresh.stdout, fresh.stderr), argv


@pytest.mark.parametrize("dim,label,params,factor", [
    (6, "GHZ", (), 10 ** 400), (6, "GHZ", (), Fraction(1, 10 ** 400)),
    (7, "X", (), 10 ** 400), (7, "X", (), Fraction(1, 10 ** 400)),
    # J12..Delta132 print with more digits than str() of an int allows
    (9, "family1", (1, 2, 4, 8), 10 ** 400)],
    ids=["6-GHZ-1e400", "6-GHZ-1e-400", "7-X-1e400", "7-X-1e-400", "9-family1-1e400"])
def test_exact_states_beyond_the_double_range(tmp_path, capsys, dim, label,
                                              params, factor):
    # an exact state meets a power of two only in the float copy that the
    # pinning analysis rotates; its invariants stay exact, and scale by
    # factor^degree
    p = canonical_state(dim, label, params)
    runs = {}
    for name, q in (("unit", p), ("scaled", p.scale(factor))):
        path = write_state(tmp_path, f"{name}.json", state_document(q, "rational"))
        for command in ("classify", "rdm"):
            code, out, err = run_cli(capsys, command, "--input", path)
            assert (code, err) == (0, ""), (name, command)
            runs[name, command] = json.loads(out)
    unit, scaled = runs["unit", "classify"], runs["scaled", "classify"]
    assert scaled["classification"] == unit["classification"]
    assert scaled["classification"]["label"] == label
    assert scaled["spectrum"] == unit["spectrum"]
    assert runs["scaled", "rdm"] == runs["unit", "rdm"]
    assert scaled["invariants"].keys() == unit["invariants"].keys()
    for name, field in unit["invariants"].items():
        got = scaled["invariants"][name]
        assert (got["degree"], got["zero"]) == (field["degree"], field["zero"])
        power = factor ** field["degree"]
        for part in ("re", "im"):
            assert _read_exact(got[part]) == _read_exact(field[part]) * power, name


def _read_exact(text):
    """The Fraction a report field prints, however many digits it has."""
    num, _, den = text.partition("/")
    return Fraction(int(Decimal(num)), int(Decimal(den or "1")))


def test_every_name_the_bench_tracer_wraps_exists():
    # the tracer looks each name up with getattr when a traced run starts;
    # a renamed function would otherwise pass every other test
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    tables = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id in ("SPANNED", "COUNTED"):
                    tables[target.id] = ast.literal_eval(node.value)
    names = [(mod, fn) for mod, fns in tables["SPANNED"].items() for fn in fns]
    names += list(tables["COUNTED"].values())
    names += [("scalars", "matrix_is_exact"), ("scalars", "GaussianRational")]
    assert len(names) > 20
    for mod, fn in names:
        assert callable(getattr(importlib.import_module(f"trivec.{mod}"), fn, None)), \
            f"trivec.{mod}.{fn}"


def test_embed_of_amplitudes_beyond_the_double_range(tmp_path, capsys):
    # exact zero tests never read the float size of the state, and a float
    # state is classified at unit size, however large or small it is
    for mode, value in (("exact", "1e400"), ("exact", "1e-400"),
                        ("float", "1e200"), ("float", "1e-8")):
        psi = {"amplitudes": [{"indices": [0, 0, 0], "re": value},
                              {"indices": [1, 1, 1], "re": value}]}
        path = write_state(tmp_path, "psi.json", psi)
        code, out, err = run_cli(capsys, "embed", "--type", "qubit3",
                                 "--input", path, "--mode", mode)
        assert (code, err) == (0, ""), value
        assert json.loads(out)["classification"]["label"] == "GHZ"


def test_cli_start_up_leaves_dataclasses_and_the_oracle_unimported():
    # a command imports only what it runs: no dataclass records, and the
    # oracle only inside the random and selfcheck commands
    src = os.path.dirname(os.path.dirname(trivec.cli.__file__))
    code = ("import sys, trivec.cli; print(sorted(m for m in "
            "('dataclasses', 'inspect', 'trivec.oracle') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert (out.returncode, out.stdout, out.stderr) == (0, "[]\n", "")
