import copy
import gzip
import json
import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest

import lamptwist.cli as cli
import lamptwist.finite as finite
import lamptwist.fileformat as fileformat
from lamptwist.group import GroupParams, Torsion
from lamptwist.automorphism import WreathAutomorphism
from lamptwist.fileformat import automorphism_from_dict, automorphism_to_dict, certificate_to_dict
from lamptwist.reidemeister import (
    PreimageTemplate,
    SurjectivityCertificate,
    default_test_points,
    finite_reidemeister_automorphism,
    restriction_surjectivity,
    template_preimage,
)
from lamptwist.finite import OracleCheck
from lamptwist.matrix import MAX_RANK, det, mat_sub
from reference import identity_descent

GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.fixture(autouse=True)
def in_tmp_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def save_huge_determinant(path):
    """A rank-2 file whose matrix has determinant 10^6000 - 1, past Python's int printing."""
    fileformat.save(path, {
        "schema": 1, "modulus": 5, "rank": 2, "matrix": [[10**3000, 1], [1, 10**3000]],
        "u": [{"coeff": 1, "point": [0, 0]}], "cocycle": [[], []],
    })


def save_swapped_axes(path):
    """Rank 4, M swaps axes 0, 1 and axes 2, 3, c_i = (i + 1) D[0]: all six pairs clash."""
    m = ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))
    origin = Torsion.delta(5, 4, (0,) * 4)
    cocycle = [origin.scaled(i + 1) for i in range(4)]
    aut = WreathAutomorphism(GroupParams(5, 4), m, origin, cocycle)
    fileformat.save(path, automorphism_to_dict(aut))


class TestClassify:
    def test_finite_case_writes_file(self, capsys, tmp_path):
        code, out, err = run(capsys, "classify", "5", "1")
        assert code == 0 and err == ""
        assert "Z_5 wr Z^1: admits finite, R = 2" in out
        assert "automorphism file: automorphism-n5-k1.json" in out
        aut = automorphism_from_dict(fileformat.load(tmp_path / "automorphism-n5-k1.json"))
        assert aut.validate().ok

    def test_infinite_case(self, capsys, tmp_path):
        code, out, _ = run(capsys, "classify", "2", "3")
        assert code == 0
        assert out == "Z_2 wr Z^3: R-infinity (modulus is even)\n"
        assert not list(tmp_path.iterdir())

    def test_rank_parity_case(self, capsys):
        code, out, _ = run(capsys, "classify", "9", "3")
        assert code == 0
        assert "R-infinity (modulus divisible by 3 and rank odd)" in out

    def test_no_write(self, capsys, tmp_path):
        code, out, _ = run(capsys, "classify", "5", "1", "--no-write")
        assert code == 0
        assert "admits finite" in out and "automorphism file" not in out
        assert not list(tmp_path.iterdir())

    def test_out_path(self, capsys, tmp_path):
        code, out, _ = run(capsys, "classify", "9", "2", "--out", "block.json")
        assert code == 0 and "automorphism file: block.json" in out
        assert (tmp_path / "block.json").exists()

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "classify", "5", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "classify"
        assert payload["always_infinite"] is False
        assert payload["reidemeister"] == 4
        assert payload["automorphism_file"] == "automorphism-n5-k2.json"

    def test_json_infinite(self, capsys):
        code, out, _ = run(capsys, "classify", "6", "1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["always_infinite"] is True
        assert payload["reidemeister"] is None

    def test_bad_modulus(self, capsys):
        code, _, err = run(capsys, "classify", "1", "1")
        assert code == 1 and err.startswith("error:")


class TestConstruct:
    def test_writes_and_reports(self, capsys, tmp_path):
        code, out, _ = run(capsys, "construct", "7", "2")
        assert code == 0
        assert "Z_7 wr Z^2: constructed automorphism, R = 4" in out
        assert (tmp_path / "automorphism-n7-k2.json").exists()

    def test_always_infinite_pair_rejected(self, capsys, tmp_path):
        code, _, err = run(capsys, "construct", "2", "1")
        assert code == 1
        assert "infinite Reidemeister number" in err
        assert not list(tmp_path.iterdir())

    def test_json(self, capsys):
        code, out, _ = run(capsys, "construct", "9", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["reidemeister"] == "3"


class TestReidemeister:
    def test_certified_pipeline(self, capsys):
        run(capsys, "construct", "5", "1")
        code, out, _ = run(capsys, "reidemeister", "automorphism-n5-k1.json")
        assert code == 0
        assert out == "R_quotient = 2\ncertificate = certified\nR = 2\n"

    def test_infinite_quotient(self, capsys, tmp_path):
        aut = WreathAutomorphism.identity(GroupParams(5, 2))
        fileformat.save(tmp_path / "ident.json", automorphism_to_dict(aut))
        code, out, _ = run(capsys, "reidemeister", "ident.json")
        assert code == 0
        assert "R_quotient = infinite" in out
        assert "certificate = skipped" in out
        assert "R = infinite" in out

    def test_unknown_exits_three(self, capsys, tmp_path):
        aut = WreathAutomorphism(
            GroupParams(9, 1), ((-1,),), Torsion(9, 1, [((0,), 1), ((1,), 3)])
        )
        fileformat.save(tmp_path / "wide.json", automorphism_to_dict(aut))
        code, out, _ = run(capsys, "reidemeister", "wide.json")
        assert code == 3
        assert "certificate = unknown" in out and "R = unknown" in out

    def test_emit_certificate_roundtrip(self, capsys, tmp_path):
        run(capsys, "construct", "7", "1")
        code, _, _ = run(
            capsys, "reidemeister", "automorphism-n7-k1.json", "--emit-certificate", "cert.json"
        )
        assert code == 0
        code, out, _ = run(capsys, "verify", "cert.json")
        assert code == 0
        assert "certificate ok (3 witnesses)" in out
        assert "witness (0,) ok" in out

    def test_invalid_automorphism_rejected(self, capsys, tmp_path):
        data = automorphism_to_dict(
            WreathAutomorphism(GroupParams(5, 1), ((-1,),), Torsion.delta(5, 1, (0,), 2))
        )
        data["matrix"] = [[2]]
        fileformat.save(tmp_path / "bad.json", data)
        code, _, err = run(capsys, "reidemeister", "bad.json")
        assert code == 1 and "error:" in err

    @pytest.mark.parametrize(
        "argv", [["reidemeister"], ["oracle", "5", "1", "2", "--aut"]],
        ids=["reidemeister", "oracle"],
    )
    def test_huge_determinant_refused_in_one_line(self, capsys, tmp_path, argv):
        save_huge_determinant(tmp_path / "huge.json")
        line = run_hostile(capsys, *argv, "huge.json")
        assert line == "error: matrix determinant is ~10^6000, not +-1"

    def test_refusal_names_one_clash(self, capsys, tmp_path):
        save_swapped_axes(tmp_path / "swap.json")
        line = run_hostile(capsys, "reidemeister", "swap.json")
        assert line == "error: cocycle values on axes 0 and 1 do not commute"

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "reidemeister", "nope.json")
        assert code == 1 and "error:" in err

    def test_json(self, capsys):
        run(capsys, "construct", "25", "2")
        code, out, _ = run(capsys, "reidemeister", "automorphism-n25-k2.json", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "command": "reidemeister",
            "quotient": "4",
            "certificate": "certified",
            "reidemeister": "4",
        }

    @pytest.mark.parametrize(
        "name",
        ["n7-k1", "n49-k1", "n49-k2", "n49-k2-no-witness", "n25-k3", "n35-k3"],
    )
    def test_box_solver_golden(self, capsys, tmp_path, name):
        # verdicts without an orbit template, captured when a box solver still
        # added witnesses to their certificates: the reidemeister runs must not
        # change, and the stored certificate, box witnesses and `radius` field
        # included, must still verify as captured
        with gzip.open(GOLDEN / f"reidemeister-box-{name}.json.gz", "rt", encoding="utf-8") as fh:
            case = json.load(fh)
        (tmp_path / "aut.json").write_text(case["automorphism"], encoding="utf-8")
        for step in case["runs"]:
            if step["argv"][0] == "reidemeister":
                assert run(capsys, *step["argv"]) == (step["rc"], step["stdout"], step["stderr"])
        emitted = json.loads((tmp_path / "cert.json").read_text(encoding="utf-8"))
        assert emitted["witnesses"] == [] and emitted["status"] == "unknown"
        assert (tmp_path / "cert.json").read_text(encoding="utf-8") == case["emitted_certificate"]
        for step in case["emitted_verify"]:
            assert run(capsys, *step["argv"]) == (step["rc"], step["stdout"], step["stderr"])
        (tmp_path / "cert.json").write_text(case["certificate"], encoding="utf-8")
        for step in case["runs"]:
            if step["argv"][0] == "verify":
                assert run(capsys, *step["argv"]) == (step["rc"], step["stdout"], step["stderr"])

    @pytest.mark.parametrize("command", ["construct", "reidemeister"])
    def test_radius_option_rejected(self, capsys, command):
        run(capsys, "construct", "5", "1")
        argv = {"construct": ["5", "1"], "reidemeister": ["automorphism-n5-k1.json"]}[command]
        code, out, err = run(capsys, command, *argv, "--radius", "8")
        assert code == 1 and out == ""
        assert "unrecognized arguments: --radius 8" in err


class TestVerify:
    def test_tampered_witness_rejected(self, capsys, tmp_path):
        run(capsys, "construct", "5", "1")
        run(capsys, "reidemeister", "automorphism-n5-k1.json", "--emit-certificate", "c.json")
        data = fileformat.load(tmp_path / "c.json")
        data["witnesses"][0]["preimage"][0]["coeff"] += 1
        fileformat.save(tmp_path / "c.json", data)
        code, out, _ = run(capsys, "verify", "c.json")
        assert code == 2
        assert "problem:" in out and "certificate rejected" in out

    def test_radius_field_is_ignored(self, capsys, tmp_path):
        run(capsys, "construct", "5", "1")
        run(capsys, "reidemeister", "automorphism-n5-k1.json", "--emit-certificate", "c.json")
        clean = run(capsys, "verify", "c.json")
        data = fileformat.load(tmp_path / "c.json")
        data["radius"] = "eight"
        fileformat.save(tmp_path / "c.json", data)
        assert run(capsys, "verify", "c.json") == clean == (0, clean[1], "")

    @pytest.mark.parametrize("witnesses", ["kept", "dropped"])
    def test_unknown_status_with_template_rejected(self, capsys, tmp_path, witnesses):
        # the template exists, so the certificate must say certified; every witness replays
        run(capsys, "construct", "5", "2")
        run(capsys, "reidemeister", "automorphism-n5-k2.json", "--emit-certificate", "c.json")
        data = fileformat.load(tmp_path / "c.json")
        assert data["template"] is not None and len(data["witnesses"]) == 5
        data["status"] = "unknown"
        if witnesses == "dropped":
            data["witnesses"] = []
        fileformat.save(tmp_path / "c.json", data)
        code, out, err = run(capsys, "verify", "c.json")
        assert code == 2 and err == ""
        problem = "problem: certificate status is unknown, but its automorphism has a template"
        assert [line for line in out.splitlines() if line.startswith("problem:")] == [problem]
        assert out.endswith("certificate rejected\n")

    def test_wrong_schema(self, capsys, tmp_path):
        fileformat.save(tmp_path / "x.json", {"schema": 1, "extra": True})
        code, _, err = run(capsys, "verify", "x.json")
        assert code == 1 and "error:" in err

    @staticmethod
    def order_six(coeff, lengths):
        """n = 13, M of order 6, u = 4 D[0]: 1 - 4^6 = 0 mod 13, so no template exists.

        Returns the automorphism and a template with coeff `coeff` that holds
        inverses for the orbit lengths `lengths` only.
        """
        n, k, origin = 13, 3, (0, 0, 0)
        matrix = ((0, -1, 0), (1, -1, 0), (0, 0, -1))
        aut = WreathAutomorphism(GroupParams(n, k), matrix, Torsion.delta(n, k, origin, 4))
        inverses = {t: pow(1 - coeff**t, -1, n) for t in lengths}
        return aut, PreimageTemplate(coeff, origin, 6, inverses)

    @classmethod
    def order_six_forgery(cls):
        """A template with coeff 2, which has every inverse, claimed for `order_six`.

        The forgery carries the true preimages at the test points, whose
        orbits have lengths 1, 2 and 3.
        """
        aut, partial = cls.order_six(4, (1, 2, 3))
        witnesses = {z: template_preimage(aut, partial, z) for z in default_test_points(3)}
        _, claimed = cls.order_six(2, (1, 2, 3, 6))
        return certificate_to_dict(SurjectivityCertificate(aut, True, witnesses, claimed))

    def test_partial_template_gives_no_preimage_off_its_lengths(self):
        # (1, 0, 1) has orbit length 6, whose inverse the partial template lacks
        aut, partial = self.order_six(4, (1, 2, 3))
        with pytest.raises(ValueError, match=r"no preimage for generator at \(1, 0, 1\)"):
            template_preimage(aut, partial, (1, 0, 1))

    @pytest.mark.parametrize(
        "forgery, problem",
        [
            ("order-six", "certificate carries an orbit template, but no inverse of"
                          " (1 - c^t) mod 13 for orbit lengths [6]; template incomplete"),
            ("moved-point", "template point is (3,), expected (0,)"),
            ("other-coeff", "template coeff is 3, expected 2"),
        ],
    )
    def test_forged_template_rejected(self, capsys, tmp_path, forgery, problem):
        # every witness replays; only the template does not belong to the automorphism
        if forgery == "order-six":
            data = self.order_six_forgery()
        else:
            run(capsys, "construct", "5", "1")
            run(capsys, "reidemeister", "automorphism-n5-k1.json", "--emit-certificate", "c.json")
            data = fileformat.load(tmp_path / "c.json")
            if forgery == "moved-point":
                data["template"]["point"] = [3]
            else:
                data["template"].update(coeff=3, inverses={"1": 2, "2": 3})
        fileformat.save(tmp_path / "c.json", data)
        code, out, _ = run(capsys, "verify", "c.json")
        assert code == 2
        assert f"problem: {problem}\n" in out
        assert out.endswith("certificate rejected\n")


def write_golden_inputs(tmp_path):
    """The automorphism and certificate files that the `cli-*` golden runs read."""
    certified = finite_reidemeister_automorphism(9, 2)
    auts = {
        "fin.json": certified,
        "ident.json": WreathAutomorphism.identity(GroupParams(5, 2)),
        "wide.json": WreathAutomorphism(
            GroupParams(9, 1), ((-1,),), Torsion(9, 1, [((0,), 1), ((1,), 3)])
        ),
        "nonunit.json": WreathAutomorphism(
            GroupParams(6, 1), ((-1,),), Torsion.delta(6, 1, (0,), 2)
        ),
    }
    for name, aut in auts.items():
        fileformat.save(tmp_path / name, automorphism_to_dict(aut))
    cert = certificate_to_dict(restriction_surjectivity(certified))
    fileformat.save(tmp_path / "cert.json", cert)
    cert["witnesses"][0]["preimage"][0]["coeff"] += 1
    fileformat.save(tmp_path / "tampered.json", cert)


class TestGoldenOutput:
    @pytest.mark.parametrize(
        "name, argv, expected_code",
        [
            ("classify-r-infinity", ["classify", "2", "3"], 0),
            ("classify-finite", ["classify", "5", "1"], 0),
            ("classify-no-write", ["classify", "9", "2", "--no-write"], 0),
            ("construct", ["construct", "25", "2"], 0),
            ("reidemeister-certified", ["reidemeister", "fin.json"], 0),
            ("reidemeister-skipped", ["reidemeister", "ident.json"], 0),
            ("reidemeister-unknown", ["reidemeister", "wide.json"], 3),
            ("validate-valid", ["validate", "fin.json"], 0),
            ("validate-invalid", ["validate", "nonunit.json"], 2),
            ("verify-accepted", ["verify", "cert.json"], 0),
            ("verify-rejected", ["verify", "tampered.json"], 2),
        ],
    )
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_golden_output(self, capsys, tmp_path, name, argv, expected_code, fmt):
        # byte-for-byte captures of every non-oracle subcommand's stdout
        write_golden_inputs(tmp_path)
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert code == expected_code and err == ""
        with gzip.open(GOLDEN / f"cli-{name}.{fmt}.gz", "rt", encoding="utf-8") as fh:
            assert out == fh.read()


def run_hostile(capsys, *argv):
    """A hostile file must end in exit 1 with one `error:` line, and quickly."""
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 2.0
    assert code == 1 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    return lines[0]


class TestHostileCertificate:
    @pytest.fixture
    def cert(self, capsys, tmp_path):
        run(capsys, "construct", "5", "1")
        run(capsys, "reidemeister", "automorphism-n5-k1.json", "--emit-certificate", "c.json")
        return fileformat.load(tmp_path / "c.json")

    def test_missing_template_coeff(self, capsys, tmp_path, cert):
        del cert["template"]["coeff"]
        fileformat.save(tmp_path / "c.json", cert)
        assert "'coeff'" in run_hostile(capsys, "verify", "c.json")

    def test_missing_automorphism(self, capsys, tmp_path, cert):
        del cert["automorphism"]
        fileformat.save(tmp_path / "c.json", cert)
        assert "'automorphism'" in run_hostile(capsys, "verify", "c.json")

    def test_huge_template_order_rejected_before_divisors(self, capsys, tmp_path, cert):
        cert["template"]["order"] = 10**16
        fileformat.save(tmp_path / "c.json", cert)
        assert "template order" in run_hostile(capsys, "verify", "c.json")

    # an orbit length is keyed exactly as str(t) writes it; int() alone takes more
    @pytest.mark.parametrize("key", [" +0_2", "02", "x"])
    def test_non_canonical_inverses_key(self, capsys, tmp_path, cert, key):
        inverses = cert["template"]["inverses"]
        inverses[key] = inverses.pop("2")
        fileformat.save(tmp_path / "c.json", cert)
        assert "template inverses key" in run_hostile(capsys, "verify", "c.json")

    @pytest.mark.parametrize("notes", ["abc", [1]])
    def test_notes_not_a_list_of_strings(self, capsys, tmp_path, cert, notes):
        cert["notes"] = notes
        fileformat.save(tmp_path / "c.json", cert)
        assert "notes" in run_hostile(capsys, "verify", "c.json")

    def test_bad_status(self, capsys, tmp_path, cert):
        cert["status"] = "bogus"
        fileformat.save(tmp_path / "c.json", cert)
        assert run_hostile(capsys, "verify", "c.json") == "error: bad certificate status 'bogus'"

    def test_certified_without_template_rejected(self, capsys, tmp_path, cert):
        cert["template"] = None
        fileformat.save(tmp_path / "c.json", cert)
        code, out, err = run(capsys, "verify", "c.json")
        assert code == 2 and err == ""
        assert "problem: certified certificate carries no orbit template\n" in out
        assert out.endswith("certificate rejected\n")

    def test_invalid_embedded_automorphism_rejected(self, capsys, tmp_path, cert):
        cert["automorphism"]["matrix"] = [[2]]
        cert.update(status="unknown", template=None, witnesses=[])
        fileformat.save(tmp_path / "c.json", cert)
        code, out, err = run(capsys, "verify", "c.json")
        assert (code, out, err) == (
            2, "problem: matrix determinant is 2, not +-1\ncertificate rejected\n", ""
        )

    @pytest.mark.parametrize(
        "text, message",
        [('{"schema": 1,', "invalid JSON in c.json"), ("[1, 2]", "must be an object")],
        ids=["not-json", "array"],
    )
    def test_not_a_json_object(self, capsys, tmp_path, text, message):
        (tmp_path / "c.json").write_text(text, encoding="utf-8")
        assert message in run_hostile(capsys, "verify", "c.json")


class TestRepeatedEntries:
    # of two equal JSON keys `json` keeps the last, and a dict of witnesses the last one
    # per point: a false claim before a true one would never be replayed
    @pytest.fixture
    def cert(self, capsys, tmp_path):
        run(capsys, "construct", "5", "2")
        run(capsys, "reidemeister", "automorphism-n5-k2.json", "--emit-certificate", "c.json")
        return fileformat.load(tmp_path / "c.json")

    @staticmethod
    def false_witness(cert):
        """A copy of the (-1, 0) witness that claims the preimage 1*D[7,7]."""
        witness = next(w for w in cert["witnesses"] if w["point"] == [-1, 0])
        return {**witness, "preimage": [{"coeff": 1, "point": [7, 7]}]}

    def test_false_witness_before_true_one(self, capsys, tmp_path, cert):
        false = self.false_witness(cert)
        alone = [false if w["point"] == [-1, 0] else w for w in cert["witnesses"]]
        fileformat.save(tmp_path / "c.json", {**cert, "witnesses": alone})
        code, out, _ = run(capsys, "verify", "c.json")
        assert code == 2 and out.endswith("certificate rejected\n")  # the claim is false

        cert["witnesses"].insert(0, false)
        fileformat.save(tmp_path / "c.json", cert)
        assert run_hostile(capsys, "verify", "c.json") == "error: repeated witness point (-1, 0)"

    @pytest.mark.parametrize("point", [[0], [0, 0, 0]], ids=["short", "long"])
    def test_witness_point_of_the_wrong_length(self, capsys, tmp_path, cert, point):
        # refused at load, where replay would have met it in `Torsion.delta`
        cert["witnesses"].append({"point": point, "preimage": []})
        fileformat.save(tmp_path / "c.json", cert)
        assert run_hostile(capsys, "verify", "c.json") == (
            f"error: witness point {tuple(point)} has length {len(point)}, expected rank 2"
        )

    def test_repeated_witnesses_key(self, capsys, tmp_path, cert):
        # the false array comes first, where a parser keeping the first value would read it
        false = json.dumps([self.false_witness(cert)])
        text = fileformat.dumps(cert)
        text = text.replace('"witnesses":', f'"witnesses": {false}, "witnesses":')
        (tmp_path / "c.json").write_text(text, encoding="utf-8")
        assert run_hostile(capsys, "verify", "c.json") == (
            "error: repeated key 'witnesses' in a JSON object"
        )

    @pytest.mark.parametrize("command", ["validate", "reidemeister"])
    def test_repeated_modulus_key(self, capsys, tmp_path, command):
        run(capsys, "construct", "5", "2")
        text = (tmp_path / "automorphism-n5-k2.json").read_text(encoding="utf-8")
        text = text.replace('"modulus": 5', '"modulus": 7,\n  "modulus": 5')
        (tmp_path / "a.json").write_text(text, encoding="utf-8")
        assert run_hostile(capsys, command, "a.json") == (
            "error: repeated key 'modulus' in a JSON object"
        )


DELETED = object()
HOSTILE_VALUES = (DELETED, None, [], {}, "x", 10**30, -1, 1.5, True, "é" * 3000)


def json_paths(node, path=()):
    """The path to every key and list index under a parsed JSON value."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield path + (key,)
        yield from json_paths(child, path + (key,))


def mutated(data, path, value):
    """A copy of data whose value at path is replaced, or deleted for DELETED."""
    data = copy.deepcopy(data)
    *parents, last = path
    target = data
    for key in parents:
        target = target[key]
    if value is DELETED:
        del target[last]
    else:
        target[last] = copy.deepcopy(value)
    return data


def hostile_fault(capsys, *argv):
    """None when argv ends in exit 1 with one `error:` line of under 200 bytes in UTF-8,
    or in exit 0, 2 or 3 without a traceback, within 2 s; otherwise (exit code, stderr,
    seconds)."""
    start = time.perf_counter()
    try:
        code, out, err = run(capsys, *argv)
    except Exception as exc:  # a traceback in the CLI
        code, out, err = None, "", repr(exc)
    seconds = time.perf_counter() - start
    lines = err.splitlines()
    refused = code == 1 and out == "" and len(lines) == 1 and lines[0].startswith("error:")
    refused = refused and len(err.encode()) < 200
    answered = code in (0, 2, 3) and "Traceback" not in err
    if seconds >= 2.0 or not (refused or answered):
        return code, err, round(seconds, 2)
    return None


class TestHostileWalk:
    # every key and list index of a real file, replaced by each hostile value in turn
    @pytest.mark.parametrize(
        "name, commands",
        [
            ("automorphism-n5-k2.json",
             [["validate"], ["reidemeister"], ["oracle", "5", "1", "2", "--aut"]]),
            ("c.json", [["verify"]]),
        ],
        ids=["automorphism", "certificate"],
    )
    def test_every_field_refused_or_answered(self, capsys, tmp_path, name, commands):
        run(capsys, "construct", "5", "2")
        run(capsys, "reidemeister", "automorphism-n5-k2.json", "--emit-certificate", "c.json")
        original = fileformat.load(tmp_path / name)
        bad = []
        for path in json_paths(original):
            for value in HOSTILE_VALUES:
                fileformat.save(tmp_path / "m.json", mutated(original, path, value))
                for argv in commands:
                    fault = hostile_fault(capsys, *argv, "m.json")
                    if fault:
                        value_name = "deleted" if value is DELETED else repr(value)
                        bad.append((argv[0], path, value_name, *fault))
        assert bad == []

    # the rank changed together with the matrix, the cocycle or both, with `u` stale
    # or resized, so some fields agree with the rank and the rest of the file does not
    @pytest.mark.parametrize("rank", [1, 3, 4])
    def test_rank_changed_with_other_fields(self, capsys, tmp_path, rank):
        run(capsys, "construct", "5", "2")
        original = fileformat.load(tmp_path / "automorphism-n5-k2.json")
        matrix = [[-1 if i == j else 0 for j in range(rank)] for i in range(rank)]
        u = [{"coeff": 2, "point": [0] * rank}]
        zero = [[] for _ in range(rank)]
        term = [[{"coeff": 1, "point": [0] * rank}] for _ in range(rank)]
        changes = [
            {"matrix": matrix}, {"matrix": matrix, "u": u},
            {"cocycle": zero}, {"cocycle": term}, {"cocycle": term, "u": u},
            {"matrix": matrix, "cocycle": zero}, {"matrix": matrix, "cocycle": term},
            {"matrix": matrix, "cocycle": term, "u": u},
        ]
        bad = []
        for change in changes:
            fileformat.save(tmp_path / "m.json", {**original, "rank": rank, **change})
            for argv in (["validate"], ["reidemeister"], ["oracle", "5", "1", "2", "--aut"]):
                fault = hostile_fault(capsys, *argv, "m.json")
                if fault:
                    bad.append((argv[0], sorted(change), *fault))
        assert bad == []


class TestNestedJson:
    # the JSON decoder recurses once per level of nesting
    @pytest.mark.parametrize(
        "text",
        ["[" * 200000 + "]" * 200000, '{"a":' * 200000 + "0" + "}" * 200000],
        ids=["arrays", "objects"],
    )
    @pytest.mark.parametrize(
        "argv",
        [["validate"], ["reidemeister"], ["verify"], ["oracle", "3", "2", "1", "--aut"]],
        ids=["validate", "reidemeister", "verify", "oracle"],
    )
    def test_deep_nesting_is_a_schema_error(self, capsys, tmp_path, argv, text):
        (tmp_path / "deep.json").write_text(text, encoding="utf-8")
        assert "nested too deeply" in run_hostile(capsys, *argv, "deep.json")


class TestIntegerFields:
    # a bool, float or str where the schema has an integer is a schema error, not coerced
    @pytest.mark.parametrize(
        "command, path, value",
        [
            pytest.param("reidemeister", ("modulus",), 5.5, id="modulus-float"),
            pytest.param("reidemeister", ("modulus",), "5", id="modulus-str"),
            pytest.param("reidemeister", ("rank",), True, id="rank-bool"),
            pytest.param("reidemeister", ("schema",), True, id="schema-bool"),
            pytest.param("reidemeister", ("schema",), 1.0, id="schema-float"),
            pytest.param("reidemeister", ("matrix", 0, 0), -1.0, id="matrix-entry-float"),
            pytest.param("reidemeister", ("u", 0, "coeff"), "2", id="u-coeff-str"),
            pytest.param("reidemeister", ("u", 0, "point", 0), False, id="u-point-bool"),
            pytest.param("verify", ("schema",), True, id="certificate-schema-bool"),
            pytest.param("verify", ("automorphism", "modulus"), 5.0, id="certificate-modulus-float"),
            pytest.param("verify", ("template", "coeff"), 2.9, id="template-coeff-float"),
            pytest.param("verify", ("template", "order"), "2", id="template-order-str"),
            pytest.param("verify", ("template", "point", 0), 0.0, id="template-point-float"),
            pytest.param("verify", ("template", "inverses", "1"), 1.0, id="template-inverse-float"),
            pytest.param("verify", ("witnesses", 0, "point", 0), True, id="witness-point-bool"),
            pytest.param("verify", ("witnesses", 0, "preimage", 0, "coeff"), 1.5,
                         id="witness-coeff-float"),
        ],
    )
    def test_non_integer_is_a_schema_error(self, capsys, tmp_path, command, path, value):
        run(capsys, "construct", "5", "1")
        run(capsys, "reidemeister", "automorphism-n5-k1.json", "--emit-certificate", "c.json")
        name = "c.json" if command == "verify" else "automorphism-n5-k1.json"
        data = fileformat.load(tmp_path / name)
        *parents, field = path
        target = data
        for key in parents:
            target = target[key]
        target[field] = value
        fileformat.save(tmp_path / name, data)
        assert "must be an integer" in run_hostile(capsys, command, name)


class TestValidate:
    def test_integer_point_is_a_schema_error(self, capsys, tmp_path):
        run(capsys, "construct", "5", "1")
        data = fileformat.load(tmp_path / "automorphism-n5-k1.json")
        data["u"][0]["point"] = 0
        fileformat.save(tmp_path / "a.json", data)
        assert "malformed" in run_hostile(capsys, "validate", "a.json")

    def test_valid_file(self, capsys):
        run(capsys, "construct", "5", "3")
        code, out, _ = run(capsys, "validate", "automorphism-n5-k3.json")
        assert code == 0
        assert "matrix_unimodular = true" in out
        assert "u_is_unit = true" in out
        assert "cocycle_consistent = true" in out
        assert out.rstrip().endswith("valid")

    def test_large_rank_is_fast(self, capsys, tmp_path):
        # the cocycle check compares every pair of axes; rank 150 has 11175 pairs
        aut = WreathAutomorphism.identity(GroupParams(5, 150))
        fileformat.save(tmp_path / "rank150.json", automorphism_to_dict(aut))
        start = time.perf_counter()
        code, out, _ = run(capsys, "validate", "rank150.json")
        assert time.perf_counter() - start < 5.0
        assert code == 0 and out.rstrip().endswith("\nvalid")

    def test_huge_prime_modulus_is_fast(self, capsys, tmp_path):
        n = 10**18 + 3  # prime
        aut = WreathAutomorphism(GroupParams(n, 1), ((-1,),), Torsion.delta(n, 1, (0,), 2))
        fileformat.save(tmp_path / "prime.json", automorphism_to_dict(aut))
        start = time.perf_counter()
        code, out, _ = run(capsys, "validate", "prime.json")
        assert time.perf_counter() - start < 2.0
        assert code == 0 and out.rstrip().endswith("\nvalid")

    def test_modulus_with_two_large_primes_is_refused(self, capsys, tmp_path):
        n = (10**9 + 7) * (10**9 + 9)
        aut = WreathAutomorphism(GroupParams(n, 1), ((-1,),), Torsion.delta(n, 1, (0,), 2))
        fileformat.save(tmp_path / "semiprime.json", automorphism_to_dict(aut))
        assert "cannot factor" in run_hostile(capsys, "validate", "semiprime.json")

    def test_invalid_file(self, capsys, tmp_path):
        data = automorphism_to_dict(
            WreathAutomorphism(GroupParams(6, 1), ((-1,),), Torsion.delta(6, 1, (0,), 2))
        )
        fileformat.save(tmp_path / "nonunit.json", data)
        code, out, _ = run(capsys, "validate", "nonunit.json")
        assert code == 2
        assert "u_is_unit = false" in out
        assert "failure:" in out
        assert out.rstrip().endswith("invalid")

    def test_huge_determinant_by_magnitude(self, capsys, tmp_path):
        save_huge_determinant(tmp_path / "huge.json")
        code, out, _ = run(capsys, "validate", "huge.json")
        assert code == 2
        assert "\nfailure: matrix determinant is ~10^6000, not +-1\ninvalid\n" in out

    def test_first_non_commuting_pair_only(self, capsys, tmp_path):
        save_swapped_axes(tmp_path / "swap.json")
        code, out, _ = run(capsys, "validate", "swap.json")
        assert code == 2
        failures = [line for line in out.splitlines() if line.startswith("failure:")]
        assert failures == ["failure: cocycle values on axes 0 and 1 do not commute"]

    def test_json(self, capsys):
        run(capsys, "construct", "7", "1")
        code, out, _ = run(capsys, "validate", "automorphism-n7-k1.json", "--format", "json")
        assert code == 0
        assert json.loads(out)["valid"] is True


class TestRankBound:
    # past MAX_RANK the O(k^3) checks take minutes and the matrices exhaust memory
    def identity_file(self, path, rank):
        fileformat.save(path, {
            "schema": 1, "modulus": 5, "rank": rank,
            "matrix": [[int(i == j) for j in range(rank)] for i in range(rank)],
            "u": [{"coeff": 1, "point": [0] * rank}],
            "cocycle": [[] for _ in range(rank)],
        })

    @pytest.mark.parametrize(
        "argv", [["classify", "5", "{k}", "--no-write"], ["construct", "5", "{k}"],
                 ["oracle", "3", "1", "{k}"]],
        ids=["classify", "construct", "oracle"],
    )
    def test_rank_argument_refused(self, capsys, argv):
        argv = [arg.format(k=MAX_RANK + 1) for arg in argv]
        assert f"rank {MAX_RANK + 1} exceeds" in run_hostile(capsys, *argv)

    @pytest.mark.parametrize(
        "argv", [["validate"], ["reidemeister"], ["oracle", "5", "1", str(MAX_RANK + 1), "--aut"]],
        ids=["validate", "reidemeister", "oracle"],
    )
    def test_rank_in_file_refused(self, capsys, tmp_path, argv):
        self.identity_file(tmp_path / "big.json", MAX_RANK + 1)
        assert f"rank {MAX_RANK + 1} exceeds" in run_hostile(capsys, *argv, "big.json")

    def test_rank_in_certificate_refused(self, capsys, tmp_path):
        self.identity_file(tmp_path / "big.json", MAX_RANK + 1)
        fileformat.save(tmp_path / "c.json", {
            "schema": 1, "kind": "surjectivity-certificate",
            "automorphism": fileformat.load(tmp_path / "big.json"),
            "status": "unknown", "template": None, "witnesses": [], "notes": [],
        })
        assert f"rank {MAX_RANK + 1} exceeds" in run_hostile(capsys, "verify", "c.json")

    def test_r_infinity_classify_builds_no_matrix(self, capsys):
        start = time.perf_counter()
        code, out, _ = run(capsys, "classify", "4", "1000000", "--no-write")
        assert time.perf_counter() - start < 2.0
        assert (code, out) == (0, "Z_4 wr Z^1000000: R-infinity (modulus is even)\n")

    def test_file_at_the_bound_loads(self, tmp_path):
        self.identity_file(tmp_path / "edge.json", MAX_RANK)
        aut = automorphism_from_dict(fileformat.load(tmp_path / "edge.json"))
        assert aut.params.rank == len(aut.matrix) == MAX_RANK


class TestModelRefusal:
    # the model compares its rank with the bound before it lists any box point
    @pytest.mark.parametrize("argv", [["3", "1", "10000000"], ["3", "2", str(MAX_RANK + 1)]])
    def test_rank_checked_before_the_box(self, capsys, argv):
        line = run_hostile(capsys, "oracle", *argv)
        assert line == f"error: rank {argv[2]} exceeds the supported maximum {MAX_RANK}"

    @pytest.mark.parametrize(
        "argv",
        [
            ["3", "1" + "0" * 30, "200"],  # a point count of 6001 digits
            [str(10**100 + 267), "60", "1"],  # an order of 6002 digits
            ["3", "1000000", "200"],  # a point count of 1201 digits
            ["3", "2", "1", "--budget", str(-(10**200))],
        ],
        ids=["box-points", "order", "long-points", "long-budget"],
    )
    def test_huge_figures_stay_short(self, capsys, argv):
        line = run_hostile(capsys, "oracle", *argv)
        assert len(line) < 200 and "Exceeds the limit" not in line
        assert "points; the model order exceeds any budget" in line or " exceeds budget " in line

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["2", "8", "2"], "box 8^2 has 64 points; the model order exceeds any budget"),
            (["3", "2", "1", "--budget", "0"], "|G| = 3^2 * 2 = 18 exceeds budget 0"),
            (
                ["3", str(10**50), "1"],
                f"box {10**50}^1 has {10**50} points; the model order exceeds any budget",
            ),
            (
                [str(10**50), "1", "1"],
                f"|G| = {10**50}^1 * 1 = {10**50} exceeds budget 1000000",
            ),
        ],
        ids=["box", "budget", "box-51-digits", "order-51-digits"],
    )
    def test_lines_under_200_characters_unchanged(self, capsys, argv, line):
        assert run_hostile(capsys, "oracle", *argv) == f"error: {line}"


class TestLongNumbers:
    # an error line gives a number of over 40 digits by its order of magnitude when
    # the line would reach 200 characters; argparse's own line is cut below 200
    HUGE, NEG = "1" + "0" * 300, "-1" + "0" * 300

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["classify", "5", HUGE, "--no-write"],
             "error: rank ~10^300 exceeds the supported maximum 200"),
            (["classify", NEG, "1"], "error: modulus must be at least 2, got ~-10^300"),
            (["oracle", NEG, "2", "1"], "error: modulus must be at least 2, got ~-10^300"),
            (["classify", "5", NEG], "error: rank must be at least 1, got ~-10^300"),
            (["oracle", "3", NEG, "1"], "error: box must be at least 1, got ~-10^300"),
            (["oracle", "3", "2", "1", "--check", "projection", "--divisor", HUGE],
             "error: divisor ~10^300 must be a nontrivial divisor of 3"),
            (["oracle", "3", "2", "1" + "0" * 5000], None),
            (["oracle", "3", "2", "1", "1" + "0" * 5000], None),
        ],
        ids=["classify-rank", "classify-modulus", "oracle-modulus", "classify-negative-rank",
             "oracle-box", "oracle-divisor", "argparse-rank", "argparse-extra"],
    )
    def test_one_short_line(self, capsys, argv, line):
        assert hostile_fault(capsys, *argv) is None
        code, out, err = run(capsys, *argv)
        # under 200 characters with the newline
        assert code == 1 and out == "" and len(err.splitlines()) == 1 and len(err) < 200
        if line is not None:
            assert err == f"{line}\n"

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["classify", "5"], "error: the following arguments are required: k"),
            (["classify", "5", "x"], "error: argument k: invalid int value: 'x'"),
            ([], "error: the following arguments are required: subcommand"),
        ],
    )
    def test_argparse_failure_is_one_error_line(self, capsys, argv, line):
        assert run(capsys, *argv) == (1, "", f"{line}\n")

    def test_help_unchanged(self, capsys):
        code, out, err = run(capsys, "oracle", "--help")
        assert code == 0 and out.startswith("usage: lamptwist oracle [-h]") and err == ""

    def test_long_factor_line_is_short(self, capsys):
        code, _, err = run(capsys, "classify", str(10**300 + 7), "2", "--no-write")
        assert code == 1 and err.startswith("error: cannot factor ~10^3") and len(err) < 200

    @pytest.mark.parametrize(
        "argv",
        [["validate"], ["reidemeister"], ["verify"], ["oracle", "5", "2", "1", "--aut"]],
        ids=["validate", "reidemeister", "verify", "oracle"],
    )
    def test_integer_literal_past_the_digit_limit(self, capsys, tmp_path, argv):
        # int() refuses the literal inside json.load; the limit itself stays in place
        text = fileformat.dumps({
            "schema": 1, "modulus": 5, "rank": 1, "matrix": [[-1]],
            "u": [{"coeff": 1, "point": [0]}], "cocycle": [[]],
        }).replace('"point": [\n        0', '"point": [\n        1' + "0" * 5000)
        (tmp_path / "a.json").write_text(text, encoding="utf-8")
        limit = sys.get_int_max_str_digits()
        assert run_hostile(capsys, *argv, "a.json") == (
            f"error: invalid JSON in a.json: an integer has over {limit} digits"
        )
        assert sys.get_int_max_str_digits() == limit

    def test_count_longer_than_str_prints_in_full(self, capsys, tmp_path):
        # det(I - M) has 8599 digits, twice as many as str() prints
        b = 10**4299 + 7
        matrix = [[3, b, 1], [b, -1, 0], [1, 0, 0]]
        fileformat.save(tmp_path / "a.json", {
            "schema": 1, "modulus": 5, "rank": 3, "matrix": matrix,
            "u": [{"coeff": 2, "point": [0, 0, 0]}], "cocycle": [[], [], []],
        })
        assert run(capsys, "validate", "a.json")[0] == 0
        code, out, err = run(capsys, "reidemeister", "a.json", "--emit-certificate", "c.json")
        assert code == 3 and err == ""
        quotient, *rest = out.splitlines()
        assert rest == ["certificate = unknown", "R = unknown"]
        digits = quotient.removeprefix("R_quotient = ")
        assert len(digits) == 8599 and digits.isdigit()
        value = 0
        for i in range(0, len(digits), 1000):  # int() parses no more than 4300 digits at once
            chunk = digits[i : i + 1000]
            value = value * 10 ** len(chunk) + int(chunk)
        identity = [[int(i == j) for j in range(3)] for i in range(3)]
        assert value == abs(det(mat_sub(identity, matrix)))

        # a false witness replays to a torsion element with an 8599-digit coordinate
        cert = fileformat.load(tmp_path / "c.json")
        false = {"point": [0, 0, 0], "preimage": [{"coeff": 1, "point": [0, 10**4299, 0]}]}
        fileformat.save(tmp_path / "c.json", {**cert, "witnesses": [*cert["witnesses"], false]})
        code, out, err = run(capsys, "verify", "c.json")
        assert code == 2 and err == "" and out.endswith("\ncertificate rejected\n")
        problem = next(line for line in out.splitlines() if line.startswith("problem: "))
        assert problem.startswith("problem: witness at (0, 0, 0) replays to ")
        assert len(problem) > 8599


class TestLongStrings:
    # an error line that echoes a long string is cut to under 200 bytes in UTF-8
    LONG = "x" * 3000

    @staticmethod
    def short_line(capsys, *argv):
        line = run_hostile(capsys, *argv)
        assert len(f"{line}\n".encode()) < 200 and line.endswith("...")
        return line

    @pytest.mark.parametrize(
        "argv",
        [
            ["oracle", "3", "2", "1", "--check", LONG],
            ["reidemeister", LONG],
            ["classify", "5", "2", "--out", os.path.join("nonexistent", LONG)],
            ["oracle", "3", "2", "é" * 3000],
        ],
        ids=["check-name", "missing-file", "unwritable-out", "argparse-non-ascii"],
    )
    def test_argument_echoed_in_one_short_line(self, capsys, argv):
        self.short_line(capsys, *argv)

    def test_cut_keeps_the_first_195_bytes(self, capsys):
        line = self.short_line(capsys, "oracle", "3", "2", "1", "--check", self.LONG)
        assert line == f"error: unknown check '{self.LONG}"[:195] + "..."

    # "é" is two bytes: a line of 198 bytes stays whole, one of 200 keeps its first 195
    # bytes, and a cut that would split a character keeps 194
    @pytest.mark.parametrize(
        "value, kept",
        [("é" * 79, None), ("é" * 80, 195), ("x" + "é" * 80, 194)],
        ids=["198-bytes", "cut", "cut-before-a-character"],
    )
    def test_cut_counts_bytes(self, capsys, value, kept):
        line = f"error: argument k: invalid int value: '{value}'"
        code, out, err = run(capsys, "oracle", "3", "2", value)
        assert code == 1 and out == "" and len(err.encode()) < 200
        if kept is None:
            assert len(line.encode()) == 198 and err == f"{line}\n"
        else:
            assert err == line.encode()[:kept].decode() + "...\n"

    def test_undecodable_file_name(self, capsys, tmp_path):
        # bytes of a file name that are not UTF-8 reach the line as lone surrogates;
        # they count as the backslash escapes stderr writes for them
        name = "\udcff" * 100 + ".json"
        (tmp_path / name).write_text("{", encoding="utf-8")
        line = self.short_line(capsys, "verify", name)
        assert line.startswith("error: invalid JSON in \\udcff\\udcff")

    @pytest.mark.parametrize("field", ["kind", "status"])
    def test_certificate_field(self, capsys, tmp_path, field):
        run(capsys, "construct", "5", "1")
        run(capsys, "reidemeister", "automorphism-n5-k1.json", "--emit-certificate", "c.json")
        cert = fileformat.load(tmp_path / "c.json")
        fileformat.save(tmp_path / "c.json", {**cert, field: self.LONG})
        self.short_line(capsys, "verify", "c.json")

    def test_torsion_term(self, capsys, tmp_path):
        run(capsys, "construct", "5", "1")
        aut = fileformat.load(tmp_path / "automorphism-n5-k1.json")
        fileformat.save(tmp_path / "m.json", {**aut, "u": [self.LONG]})
        assert self.short_line(capsys, "validate", "m.json").startswith("error: bad torsion term")


class TestOracle:
    def test_tbft_text(self, capsys):
        code, out, _ = run(capsys, "oracle", "3", "2", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "oracle: 4 pass, 0 fail"
        assert all(line.startswith("CHECK tbft n=3;m=2;k=1") for line in lines[:-1])
        assert all(" PASS " in line for line in lines[:-1])

    def test_projection_needs_divisor(self, capsys):
        code, _, err = run(capsys, "oracle", "15", "2", "1", "--check", "projection")
        assert code == 1 and "--divisor" in err

    def test_divisor_must_divide(self, capsys):
        for divisor in ("4", "15"):  # d = n divides, but the projection would be trivial
            line = run_hostile(
                capsys, "oracle", "15", "2", "1", "--check", "projection", "--divisor", divisor
            )
            assert "divisor" in line

    def test_unknown_check_name(self, capsys):
        code, _, err = run(capsys, "oracle", "3", "2", "1", "--check", "bogus")
        assert code == 1 and "unknown check" in err

    @pytest.mark.parametrize("check", [",", "", " , "])
    def test_empty_check_list(self, capsys, check):
        # a run that checks nothing must not report success
        line = run_hostile(capsys, "oracle", "3", "2", "1", "--check", check)
        assert line.startswith("error: no check given")

    def test_projection(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "15", "2", "1", "--check", "projection", "--divisor", "5"
        )
        assert code == 0
        assert "CHECK projection-diagram" in out
        assert "CHECK projection-bound" in out
        assert " FAIL " not in out

    def test_restriction_and_shift(self, capsys):
        code, out, _ = run(capsys, "oracle", "3", "2", "1", "--check", "restriction,shift")
        assert code == 0
        assert "CHECK restriction-bound" in out
        assert "CHECK shift-count" in out

    def test_aut_file(self, capsys):
        run(capsys, "construct", "5", "1")
        code, out, _ = run(
            capsys, "oracle", "5", "2", "1", "--aut", "automorphism-n5-k1.json"
        )
        assert code == 0
        assert out.strip().splitlines() == [
            "CHECK tbft n=5;m=2;k=1;aut=descended(u=2*D[0],M=[-1]) PASS 2 2",
            "oracle: 1 pass, 0 fail",
        ]

    def test_json(self, capsys):
        code, out, _ = run(capsys, "oracle", "3", "2", "1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert len(payload["checks"]) == 4

    def test_budget_guard(self, capsys):
        code, _, err = run(capsys, "oracle", "7", "3", "2", "--budget", "100")
        assert code == 1 and "budget" in err

    def test_default_budget(self, capsys):
        code, _, err = run(capsys, "oracle", "7", "3", "2")
        assert code == 1 and err.endswith("exceeds budget 1000000\n")

    def test_cocycle_obstruction_is_one_error_line(self, capsys, tmp_path):
        # the cocycle of tests/test_finite.py::TestDescend::test_cocycle_obstruction
        aut = WreathAutomorphism(
            GroupParams(3, 1),
            ((1,),),
            Torsion.delta(3, 1, (0,)),
            [Torsion.delta(3, 1, (0,))],
        )
        fileformat.save(tmp_path / "obstructed.json", automorphism_to_dict(aut))
        line = run_hostile(capsys, "oracle", "3", "2", "1", "--aut", "obstructed.json")
        assert "cocycle obstruction" in line

    def test_huge_box_refused_before_enumeration(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "oracle", "3", "1000", "10")
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")

    @pytest.mark.parametrize(
        "name, argv",
        [
            ("3-2-2-tbft-shift-restriction", ["3", "2", "2", "--check", "tbft,shift,restriction"]),
            (
                "25-2-1-tbft-projection-d5",
                ["25", "2", "1", "--check", "tbft,projection", "--divisor", "5"],
            ),
            ("7-3-1-shift", ["7", "3", "1", "--check", "shift"]),
            # orders 50 and 64: every element is a shift sample
            ("5-2-1-shift", ["5", "2", "1", "--check", "shift"]),
            ("2-2-2-shift", ["2", "2", "2", "--check", "shift"]),
            # the whole catalog on the model of order 2500
            ("5-4-1-tbft-restriction", ["5", "4", "1", "--check", "tbft,restriction"]),
        ],
    )
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_golden_output(self, capsys, name, argv, fmt):
        # byte-for-byte captures of the oracle's stdout, which must not change
        code, out, err = run(capsys, "oracle", *argv, "--format", fmt)
        assert code == 0 and err == ""
        with gzip.open(GOLDEN / f"oracle-{name}.{fmt}.gz", "rt", encoding="utf-8") as fh:
            assert out == fh.read()

    def test_out_of_memory_is_one_error_line(self, capsys, monkeypatch):
        def exhausted(group):
            raise MemoryError

        monkeypatch.setattr("lamptwist.finite.FiniteWreathGroup.ensure_tables", exhausted)
        line = run_hostile(capsys, "oracle", "3", "2", "1")
        assert "|G| = 18" in line and "memory" in line

    @staticmethod
    def spy_counts(monkeypatch):
        """Record every row that `finite._partitions` counts as (modulus, generator images)."""
        counted = []
        real = finite._partitions

        def spy(group, images):
            counted.extend((group.modulus, tuple(row)) for row in images)
            return real(group, images)

        monkeypatch.setattr(finite, "_partitions", spy)
        return counted

    def test_base_partition_counted_once(self, capsys, monkeypatch, tmp_path):
        # every check takes the automorphism's own partition from one count,
        # and tbft's ordinary classes join that count
        aut = WreathAutomorphism(GroupParams(9, 1), ((-1,),), Torsion.delta(9, 1, (1,), 2))
        fileformat.save(tmp_path / "f.json", automorphism_to_dict(aut))
        counted = self.spy_counts(monkeypatch)
        checks = "tbft,shift,restriction,projection"
        code, out, _ = run(
            capsys, "oracle", "9", "2", "1", "--aut", "f.json", "--check", checks, "--divisor", "3"
        )
        assert code == 0
        for name in ("tbft", "shift-count", "restriction-bound", "projection-bound"):
            assert f"CHECK {name} " in out
        group = finite.FiniteWreathGroup(9, 2, 1)
        images = finite.descend_automorphism(aut, group).images
        identity = identity_descent(group).images
        assert counted.count((9, images)) == 1
        assert counted.count((9, identity)) == 1

        counted.clear()
        argv = ["oracle", "9", "2", "1", "--aut", "f.json", "--check", "restriction"]
        code, out, _ = run(capsys, *argv)
        assert code == 0 and "CHECK restriction-bound " in out
        assert counted == [(9, images)]  # no ordinary classes without tbft

    def test_conjugacy_counted_once_per_catalog_run(self, capsys, monkeypatch):
        counted = self.spy_counts(monkeypatch)
        code, out, _ = run(capsys, "oracle", "9", "2", "1", "--check", "tbft")
        assert code == 0 and out.count("CHECK tbft ") > 2
        identity = identity_descent(finite.FiniteWreathGroup(9, 2, 1)).images
        assert counted.count((9, identity)) == 1
        assert len(counted) == len(set(counted)) == out.count("CHECK tbft ")

    def test_projection_model_built_once(self, capsys, monkeypatch):
        # the catalog's automorphisms all project to the same Z_5 model
        built = []
        real = finite.FiniteWreathGroup.__init__

        def spy(self, modulus, *args, **kwargs):
            built.append(modulus)
            real(self, modulus, *args, **kwargs)

        monkeypatch.setattr(finite.FiniteWreathGroup, "__init__", spy)
        argv = ["oracle", "25", "2", "1", "--check", "projection", "--divisor", "5"]
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out.count("CHECK projection-") > 2
        assert built == [25, 5]

    def test_failing_check_exits_two(self, capsys, monkeypatch):
        broken = OracleCheck("tbft", "n=3;m=2;k=1", False, 9, 8)
        monkeypatch.setattr("lamptwist.finite.verify_tbft_finite", lambda f, base, ordinary: broken)
        code, out, _ = run(capsys, "oracle", "3", "2", "1")
        assert code == 2
        assert "oracle: 0 pass, 4 fail" in out


class TestHarness:
    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        capsys.readouterr()

    def test_missing_subcommand(self, capsys):
        assert cli.main([]) == 1
        capsys.readouterr()

    def test_deterministic_output(self, capsys):
        first = run(capsys, "classify", "25", "3", "--no-write")
        second = run(capsys, "classify", "25", "3", "--no-write")
        assert first == second
        run(capsys, "construct", "9", "2")
        a = run(capsys, "reidemeister", "automorphism-n9-k2.json", "--format", "json")
        b = run(capsys, "reidemeister", "automorphism-n9-k2.json", "--format", "json")
        assert a == b

    def test_parser_is_built_once_and_reused(self, capsys):
        argvs = [
            ["classify", "5", "2", "--no-write"],
            ["construct", "5", "1"],
            ["classify", "x", "1"],
            ["oracle", "--help"],
            ["--help"],
            ["--help"],
        ]
        fresh = []
        for argv in argvs:
            cli.build_parser.cache_clear()
            fresh.append(run(capsys, *argv))
        reused = [run(capsys, *argv) for argv in argvs]
        assert reused == fresh
        assert [code for code, _, _ in fresh] == [0, 0, 1, 0, 0, 0]
        assert cli.build_parser() is cli.build_parser()


NUMPY_FREE_SCRIPT = """
import json, sys
import lamptwist.cli as cli

loaded = []
for argv in json.loads(sys.argv[1]):
    code = cli.main(argv)
    loaded.append([
        argv[0], code, *(m in sys.modules for m in ("numpy", "lamptwist.finite", "numpy.ma"))
    ])
print(json.dumps(loaded))
"""

# what the interpreter loads before lamptwist (through a site .pth, say) is not the package's
HEAVY_MODULES_SCRIPT = """
import json, sys

def heavy():
    return sorted(m for m in ("dataclasses", "inspect") if m in sys.modules)

bare = heavy()
import lamptwist.cli as cli

loaded = []
for argv in json.loads(sys.argv[1]):
    code = cli.main(argv)
    loaded.append([argv[0], code, heavy()])
print(json.dumps({"bare": bare, "loaded": loaded}))
"""

PACKAGE_IMPORT_SCRIPT = """
import json, sys
import lamptwist

submodules = sorted(name for name in sys.modules if name.startswith("lamptwist."))
numpy_loaded = "numpy" in sys.modules
from lamptwist.finite import BudgetExceeded, DescentError

print(json.dumps({
    "submodules": submodules,
    "numpy": numpy_loaded,
    "input_errors": [issubclass(e, ValueError) for e in (BudgetExceeded, DescentError)],
}))
"""


# reidemeister and automorphism know no file format: json and fileformat load with the front end
REIDEMEISTER_IMPORT_SCRIPT = """
import sys

bare = sorted(m for m in ("json", "lamptwist.fileformat") if m in sys.modules)
import lamptwist.reidemeister

loaded = sorted(m for m in ("json", "lamptwist.fileformat") if m in sys.modules)
import json
print(json.dumps({"bare": bare, "loaded": loaded}))
"""


def run_fresh(cwd, script, *args):
    """Run `script` in a fresh interpreter that imports this checkout of lamptwist."""
    src = pathlib.Path(cli.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, cwd=cwd, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TestStartup:
    def test_only_oracle_loads_numpy(self, tmp_path):
        argvs = [
            ["classify", "5", "1", "--out", "a.json"],
            ["construct", "5", "2", "--out", "b.json"],
            ["reidemeister", "b.json", "--emit-certificate", "c.json"],
            ["verify", "c.json"],
            ["validate", "a.json"],
            ["oracle", "3", "2", "1"],
        ]
        loaded = run_fresh(tmp_path, NUMPY_FREE_SCRIPT, json.dumps(argvs))
        assert loaded == [
            ["classify", 0, False, False, False],
            ["construct", 0, False, False, False],
            ["reidemeister", 0, False, False, False],
            ["verify", 0, False, False, False],
            ["validate", 0, False, False, False],
            ["oracle", 0, True, True, False],
        ]

    def test_oracle_skips_numpy_ma(self, tmp_path):
        # np.unique imports numpy.ma on first use; the oracle counts distinct labels without it
        argvs = [
            ["oracle", "3", "2", "1", "--check", "tbft,shift,restriction"],
            ["oracle", "25", "2", "1", "--check", "projection", "--divisor", "5"],
        ]
        loaded = run_fresh(tmp_path, NUMPY_FREE_SCRIPT, json.dumps(argvs))
        assert loaded == [["oracle", 0, True, True, False]] * 2

    def test_numpy_free_commands_skip_dataclasses_and_inspect(self, tmp_path):
        argvs = [
            ["classify", "5", "1", "--out", "a.json"],
            ["construct", "5", "2", "--out", "b.json"],
            ["reidemeister", "b.json", "--emit-certificate", "c.json"],
            ["verify", "c.json"],
            ["validate", "a.json"],
        ]
        got = run_fresh(tmp_path, HEAVY_MODULES_SCRIPT, json.dumps(argvs))
        assert got["loaded"] == [[argv[0], 0, got["bare"]] for argv in argvs]

    def test_reidemeister_loads_no_file_format(self, tmp_path):
        got = run_fresh(tmp_path, REIDEMEISTER_IMPORT_SCRIPT)
        assert got["loaded"] == got["bare"]

    def test_package_import_loads_no_submodule(self, tmp_path):
        got = run_fresh(tmp_path, PACKAGE_IMPORT_SCRIPT)
        assert got["submodules"] == []
        assert got["numpy"] is False
        assert got["input_errors"] == [True, True]
