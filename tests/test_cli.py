import gzip
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

import lamptwist.cli as cli
import lamptwist.finite as finite
import lamptwist.fileformat as fileformat
from lamptwist.group import GroupParams, Torsion
from lamptwist.automorphism import WreathAutomorphism, automorphism_from_dict, automorphism_to_dict
from lamptwist.reidemeister import (
    PreimageTemplate,
    SurjectivityCertificate,
    certificate_to_dict,
    default_test_points,
    template_preimage,
)
from lamptwist.finite import OracleCheck

GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.fixture(autouse=True)
def in_tmp_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_finite_case_writes_file(self, capsys, tmp_path):
        code, out, err = run(capsys, "classify", "5", "1")
        assert code == 0 and err == ""
        assert "Z_5 wr Z^1: admits finite, R = 2" in out
        assert "automorphism file: automorphism-n5-k1.json" in out
        aut = automorphism_from_dict(fileformat.load(tmp_path / "automorphism-n5-k1.json"))
        assert aut.is_valid

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

    def test_wrong_schema(self, capsys, tmp_path):
        fileformat.save(tmp_path / "x.json", {"schema": 1, "extra": True})
        code, _, err = run(capsys, "verify", "x.json")
        assert code == 1 and "error:" in err

    @staticmethod
    def order_six_forgery():
        """n = 13, M of order 6, u = 4 D[0]: 1 - 4^6 = 0 mod 13, so no template exists.

        The forgery claims one with coeff 2, which has every inverse, and
        carries the true preimages at the test points, whose orbits have
        lengths 1, 2 and 3.
        """
        n, k, origin = 13, 3, (0, 0, 0)
        matrix = ((0, -1, 0), (1, -1, 0), (0, 0, -1))
        aut = WreathAutomorphism(GroupParams(n, k), matrix, Torsion.delta(n, k, origin, 4))

        def template(coeff, lengths):
            return PreimageTemplate(
                coeff, origin, 6, tuple((t, pow(1 - coeff**t, -1, n)) for t in lengths)
            )

        partial = template(4, (1, 2, 3))
        witnesses = {z: template_preimage(aut, partial, z) for z in default_test_points(k)}
        forged = SurjectivityCertificate(aut, True, witnesses, template(2, (1, 2, 3, 6)))
        return certificate_to_dict(forged)

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

    def test_json(self, capsys):
        run(capsys, "construct", "7", "1")
        code, out, _ = run(capsys, "validate", "automorphism-n7-k1.json", "--format", "json")
        assert code == 0
        assert json.loads(out)["valid"] is True


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

    def test_base_partition_counted_once(self, capsys, monkeypatch, tmp_path):
        # every check takes the automorphism's own partition from one count
        aut = WreathAutomorphism(GroupParams(9, 1), ((-1,),), Torsion.delta(9, 1, (1,), 2))
        fileformat.save(tmp_path / "f.json", automorphism_to_dict(aut))
        counted = []
        real = finite.twisted_classes

        def spy(group, fin):
            counted.append((group.modulus, fin.table.tobytes()))
            return real(group, fin)

        monkeypatch.setattr(finite, "twisted_classes", spy)
        checks = "tbft,shift,restriction,projection"
        code, out, _ = run(
            capsys, "oracle", "9", "2", "1", "--aut", "f.json", "--check", checks, "--divisor", "3"
        )
        assert code == 0
        for name in ("tbft", "shift-count", "restriction-bound", "projection-bound"):
            assert f"CHECK {name} " in out
        table = finite.descend_automorphism(aut, finite.FiniteWreathGroup(9, 2, 1)).table
        assert counted.count((9, table.tobytes())) == 1

    def test_failing_check_exits_two(self, capsys, monkeypatch):
        broken = OracleCheck("tbft", "n=3;m=2;k=1", False, 9, 8)
        monkeypatch.setattr(
            "lamptwist.finite.verify_tbft_finite", lambda g, f, base: broken
        )
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
    loaded.append([argv[0], code, "numpy" in sys.modules, "lamptwist.finite" in sys.modules])
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
            ["classify", 0, False, False],
            ["construct", 0, False, False],
            ["reidemeister", 0, False, False],
            ["verify", 0, False, False],
            ["validate", 0, False, False],
            ["oracle", 0, True, True],
        ]

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

    def test_package_import_loads_no_submodule(self, tmp_path):
        got = run_fresh(tmp_path, PACKAGE_IMPORT_SCRIPT)
        assert got["submodules"] == []
        assert got["numpy"] is False
        assert got["input_errors"] == [True, True]
