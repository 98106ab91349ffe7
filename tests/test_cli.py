"""CLI contract: JSON output shapes, determinism, exit codes."""

import contextlib
import errno
import functools
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import realgw
from realgw import schemas, signs
from realgw.cli import (
    _PARAM_KEYS, EXIT_CHECK_FAILED, INT_DIGITS, MAX_INT_DIGITS, _parse_seed_range, integer, main,
)
from realgw.graphs import BOUND_CAPS, MAX_SEEDS, CongruenceResult
from realgw.multicover import MAX_C1B, MAX_DIGITS, MAX_GENUS
from realgw.signs import PREDICATES
from realgw.verify import ALL_CHECKS, IdentityReport


def stdin_of(data):
    """A stand-in for ``sys.stdin`` holding ``data`` (text is written as
    UTF-8); the CLI reads its ``buffer``, as it does a real stdin."""
    raw = data.encode("utf-8") if isinstance(data, str) else data
    return io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8")


def run_cli(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", stdin_of(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCoeffAndDim:
    def test_coeff_example(self, capsys):
        code, out, _ = run_cli(capsys, ["coeff", "--h", "2", "--c1b", "0", "--g", "1", "--conv", "sinh"])
        assert code == 0
        assert json.loads(out) == {"value": "1/24"}

    def test_coeff_sin(self, capsys):
        code, out, _ = run_cli(capsys, ["coeff", "--h", "2", "--c1b", "0", "--g", "1", "--conv", "sin"])
        assert code == 0
        assert json.loads(out) == {"value": "-1/24"}

    def test_coeff_rejects_odd_c1b(self, capsys):
        code, _, err = run_cli(capsys, ["coeff", "--h", "1", "--c1b", "1", "--g", "0"])
        assert code == 1
        assert "even" in json.loads(err)["error"]

    def test_dim_example(self, capsys):
        code, out, _ = run_cli(capsys, ["dim", "--g", "0", "--ell", "1", "--n", "3", "--c1b", "4"])
        assert code == 0
        assert json.loads(out) == {"dim": 6}

    def test_dim_rejects_even_n(self, capsys):
        code, _, err = run_cli(capsys, ["dim", "--g", "0", "--ell", "0", "--n", "4", "--c1b", "0"])
        assert code == 1
        assert "odd" in json.loads(err)["error"]


class TestSign:
    def test_basic_predicate(self, capsys):
        code, out, _ = run_cli(capsys, ["sign", "cvc-parity", "--params", "g=0,k=1,d=1"])
        assert code == 0
        doc = json.loads(out)
        assert doc["preserves"] is False and doc["sign"] == -1
        assert "odd" in doc["condition"]

    def test_variant_predicate(self, capsys):
        code, out, _ = run_cli(
            capsys, ["sign", "union-determinant", "--params", "g1=1,g2=0,k=1,d1=0,d2=0,variant=canonical"]
        )
        assert code == 0
        assert json.loads(out)["preserves"] is True

    def test_unknown_predicate(self, capsys):
        code, _, err = run_cli(capsys, ["sign", "nope", "--params", ""])
        assert code == 1
        assert "unknown predicate" in json.loads(err)["error"]

    def test_missing_param(self, capsys):
        code, _, err = run_cli(capsys, ["sign", "cvc-parity", "--params", "g=0"])
        assert code == 1
        assert "k" in json.loads(err)["error"]

    def test_unknown_param(self, capsys):
        code, _, err = run_cli(capsys, ["sign", "cvc-parity", "--params", "g=0,k=1,d=0,zz=3"])
        assert code == 1
        assert "zz" in json.loads(err)["error"]

    def test_relspin_requires_hypothesis(self, capsys):
        code, _, err = run_cli(
            capsys, ["sign", "relspin", "--params", "degv=2,variant=spin-vs-canonical"]
        )
        assert code == 1
        assert "4Z" in json.loads(err)["error"]

    def test_forget_boundary(self, capsys):
        code, out, _ = run_cli(capsys, ["sign", "forget-boundary", "--params", "side=minus"])
        assert code == 0
        assert json.loads(out)["sign"] == -1


P, C = signs.Route.PROJECTION, signs.Route.CANONICAL

RS_P = signs.RelSpinVariant.RELSPIN_VS_PROJECTION
RS_C = signs.RelSpinVariant.RELSPIN_VS_CANONICAL
S_C = signs.RelSpinVariant.SPIN_VS_CANONICAL

# (predicate id, a valid --params text, its wrapper, the same arguments).
VALID_SIGN_CALLS = [
    ("cvc-parity", "g=-2,k=3,d=-5", signs.cvc_parity, (-2, 3, -5)),
    ("conj-pullback-parity", "g=1,k=2,d=3", signs.conj_pullback_parity, (1, 2, 3)),
    ("union-determinant", "g1=2,g2=-1,k=3,d1=4,d2=-7,variant=canonical",
     signs.union_determinant, (2, -1, 3, 4, -7, C)),
    ("doublet-determinant", "g=0,k=2,d2=3", signs.doublet_determinant, (0, 2, 3, P)),
    ("conj-node-determinant", "k=3,variant=Canonical", signs.conj_node_determinant, (3, C)),
    ("e-node-determinant", "variant=canonical,g=1,k=3,d=-4",
     signs.e_node_determinant, (1, 3, -4, C)),
    ("union-induced", "g1=2,g2=0,d1=1,d2=3,variant=canonical",
     signs.union_induced, (2, 0, 1, 3, C)),
    ("doublet-induced", "g=4,d2=-2", signs.doublet_induced, (4, -2, P)),
    ("conj-node-induced", "", signs.conj_node_induced, (P,)),
    ("e-node-induced", "g=-1,d=5,variant=canonical", signs.e_node_induced, (-1, 5, C)),
    ("relspin", "degv=10,variant=relspin-vs-canonical", signs.relspin_determinant, (10, RS_C)),
    ("union-moduli", "n=5,g1=3,g2=-2,c1b1=4,c1b2=-6,variant=canonical",
     signs.union_moduli, (5, 3, -2, 4, -6, C)),
    ("doublet-moduli", "g=2,sminus=3,c1lphib=-1", signs.doublet_moduli, (2, 3, P, -1)),
    ("doublet-moduli", "g=2,sminus=3,variant=canonical", signs.doublet_moduli, (2, 3, C, None)),
    ("conj-node-moduli", "variant=canonical", signs.conj_node_moduli, (C,)),
    ("e-node-moduli", "g=3,c1b=-6,variant=canonical", signs.e_node_moduli, (3, -6, C)),
    ("relspin-moduli", "c1b=8,variant=spin-vs-canonical,orientable=Yes",
     signs.relspin_moduli, (8, S_C, True)),
    ("relspin-moduli", "c1b=8,variant=spin-vs-canonical,orientable=1",
     signs.relspin_moduli, (8, S_C, True)),
    ("relspin-moduli", "c1b=4,variant=relspin-vs-projection", signs.relspin_moduli, (4, RS_P, False)),
    ("forget-boundary", "side=minus,variant=canonical", signs.forget_boundary_sign, ("minus", C)),
    ("forget-boundary", "side=PLUS", signs.forget_boundary_sign, ("plus", P)),
]


class TestSignRegistry:
    def test_readme_lists_the_registry(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        listing = readme.split("Predicate ids for `sign`:", 1)[1].split(".", 1)[0]
        assert re.findall(r"`([a-z-]+)`", listing) == list(PREDICATES)

    def test_every_predicate_has_a_valid_call(self):
        assert {call[0] for call in VALID_SIGN_CALLS} == set(PREDICATES)

    @pytest.mark.parametrize("predicate", list(PREDICATES))
    def test_every_params_key_is_exercised(self, predicate):
        # A key is its kernel parameter's name, so renaming the parameter
        # renames the key: the valid calls must then fail to name it.
        kernel = PREDICATES[predicate].__wrapped__
        names = kernel.__code__.co_varnames[: kernel.__code__.co_argcount]
        keys = [_PARAM_KEYS.get(name, name.replace("_", "")) for name in names]
        assert len(set(keys)) == len(keys)
        given = {chunk.split("=", 1)[0] for _, params, _, _ in VALID_SIGN_CALLS
                 for chunk in params.split(",") if chunk}
        assert set(keys) <= given

    @pytest.mark.parametrize("predicate,params,wrapper,args", VALID_SIGN_CALLS)
    def test_valid_call_equals_wrapper(self, capsys, predicate, params, wrapper, args):
        assert PREDICATES[predicate] is wrapper
        code, out, err = run_cli(capsys, ["sign", predicate, "--params", params])
        assert (code, err) == (0, "")
        comparison = wrapper(*args)
        assert json.loads(out) == {
            "preserves": comparison.preserves,
            "sign": comparison.sign,
            "condition": comparison.condition,
        }

    @pytest.mark.parametrize(
        "predicate,params,error",
        [
            # parameters are read in call order; the first bad one is named
            ("doublet-moduli", "variant=middle,c1lphib=x", "doublet-moduli needs --params g=<int>"),
            ("doublet-moduli", "g=0,sminus=1,variant=middle,c1lphib=x",
             "doublet-moduli: variant must be 'projection' or 'canonical', got 'middle'"),
            ("doublet-moduli", "g=0,sminus=1,c1lphib=x", "doublet-moduli: c1lphib must be an integer, got 'x'"),
            ("forget-boundary", "variant=middle", "forget-boundary needs --params side=..."),
            ("forget-boundary", "side=up,variant=middle",
             "forget-boundary: side must be 'plus' or 'minus', got 'up'"),
            ("forget-boundary", "side=Minus,variant=middle",
             "forget-boundary: variant must be 'projection' or 'canonical', got 'middle'"),
            ("relspin", "degv=2", "relspin needs --params variant=..."),
            ("relspin-moduli", "c1b=4,variant=spin-vs-canonical,orientable=Maybe",
             "relspin-moduli: orientable must be 'true', '1', 'yes', 'false', '0' or 'no', got 'Maybe'"),
            # every choice is read by one reader: a mixed-case spelling is
            # taken (the next parameter is then the one named), and a bad
            # value is named as typed, with every spelling allowed
            ("doublet-moduli", "g=0,sminus=1,variant=CanOnical,c1lphib=x",
             "doublet-moduli: c1lphib must be an integer, got 'x'"),
            ("forget-boundary", "side=UP", "forget-boundary: side must be 'plus' or 'minus', got 'UP'"),
            ("forget-boundary", "side=pLus,variant=Middle",
             "forget-boundary: variant must be 'projection' or 'canonical', got 'Middle'"),
            ("relspin", "degv=2,variant=Spin",
             "relspin: variant must be 'relspin-vs-projection', 'relspin-vs-canonical' "
             "or 'spin-vs-canonical', got 'Spin'"),
            ("relspin-moduli", "c1b=4,variant=Spin-Vs-Canonical,orientable=Maybe",
             "relspin-moduli: orientable must be 'true', '1', 'yes', 'false', '0' or 'no', got 'Maybe'"),
            ("relspin-moduli", "c1b=4,variant=spin-vs-canonical,orientable=YES,zz=1",
             "relspin-moduli: unknown params ['zz']"),
            # unknown keys come before the wrapper's own domain errors
            ("cvc-parity", "g=0,k=0,d=0,zz=1", "cvc-parity: unknown params ['zz']"),
            ("cvc-parity", "g=0,k=0,d=0", "cvc-parity: k must be >= 1, got 0"),
            # a value a kernel refuses is named by its --params key too
            ("e-node-determinant", "g=0,k=-2,d=0", "e-node-determinant: k must be >= 1, got -2"),
            ("doublet-moduli", "g=1,sminus=-1,c1lphib=0", "doublet-moduli: sminus must be >= 0, got -1"),
            ("relspin", "degv=3,variant=relspin-vs-projection", "relspin: degv must be even, got 3"),
            ("relspin", "degv=2,variant=spin-vs-canonical",
             "relspin: degv must be in 4Z for spin-vs-canonical, got 2"),
            ("union-moduli", "n=2,g1=0,g2=0,c1b1=0,c1b2=0",
             "union-moduli: n must be odd and positive, got 2"),
            ("union-moduli", "n=3,g1=0,g2=0,c1b1=1,c1b2=0", "union-moduli: c1b1 must be even, got 1"),
            ("union-moduli", "n=3,g1=0,g2=0,c1b1=0,c1b2=1", "union-moduli: c1b2 must be even, got 1"),
            ("e-node-moduli", "g=0,c1b=3", "e-node-moduli: c1b must be even, got 3"),
            ("relspin-moduli", "c1b=3,variant=relspin-vs-canonical",
             "relspin-moduli: c1b must be even, got 3"),
            # a key given twice is named before any parameter is read
            ("cvc-parity", "g=0,g=1,k=1,d=1", "--params gives 'g' twice"),
            ("cvc-parity", "zz=1,k=x,zz=2", "--params gives 'zz' twice"),
        ],
    )
    def test_read_order(self, capsys, predicate, params, error):
        code, out, err = run_cli(capsys, ["sign", predicate, "--params", params])
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": error}

    @pytest.mark.parametrize(
        "predicate,params",
        [("doublet-moduli", "g=1,sminus=0"), ("relspin-moduli", "c1b=4,variant=spin-vs-canonical")],
    )
    def test_following_the_refusal_hint_exits_zero(self, capsys, predicate, params):
        # a kernel that needs an argument its caller left out names the --params key
        code, out, err = run_cli(capsys, ["sign", predicate, "--params", params])
        assert (code, out) == (1, "")
        hint = re.fullmatch(r".*; pass --params (\w+=\S+)", json.loads(err)["error"]).group(1)
        params += "," + hint.replace("=<int>", "=2")
        code, out, err = run_cli(capsys, ["sign", predicate, "--params", params])
        assert (code, err) == (0, "")

    def test_valid_calls_stdout_bytes(self, capsys):
        # pinned while the CLI built each sign document by hand
        out = ""
        for predicate, params, _, _ in VALID_SIGN_CALLS:
            code, text, err = run_cli(capsys, ["sign", predicate, "--params", params])
            assert (code, err) == (0, "")
            out += text
        raw = out.encode()
        assert (len(raw), hashlib.sha256(raw).hexdigest()[:16]) == (1842, "0cb20543eb200857")

    def test_printed_keys_are_the_comparison_fields(self, capsys):
        code, out, _ = run_cli(capsys, ["sign", "conj-node-induced"])
        assert code == 0
        assert list(json.loads(out)) == sorted(signs.Comparison._fields)


# 100,000 keys, the last one given twice.
MANY_KEYS = json.dumps(dict.fromkeys(map(str, range(100_000)), 0))[:-1] + ', "99999": 1}'


class TestTransformInvert:
    GW_DOC = '{"c1B":0,"convention":"sinh","gw":{"0":"1","2":"-1/24"}}'

    def test_invert(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, ["invert"], stdin=self.GW_DOC, monkeypatch=monkeypatch)
        assert code == 0
        doc = json.loads(out)
        assert doc["E"] == {"0": "1", "1": "0", "2": "0"}
        assert doc["integral"] is True and doc["violations"] == []

    def test_round_trip_bytes(self, capsys, monkeypatch):
        code, inverted, _ = run_cli(capsys, ["invert"], stdin=self.GW_DOC, monkeypatch=monkeypatch)
        assert code == 0
        code, transformed, _ = run_cli(capsys, ["transform"], stdin=inverted, monkeypatch=monkeypatch)
        assert code == 0
        original = json.loads(self.GW_DOC)
        normalized = dict(original)
        normalized["gw"] = {"0": "1", "1": "0", "2": "-1/24"}
        assert transformed == json.dumps(normalized, sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("command,key,out_key", [("transform", "E", "gw"), ("invert", "gw", "E")])
    def test_empty_genus_map_needs_max_genus(self, capsys, monkeypatch, command, key, out_key):
        # a map with no genera names no genus: without max_genus it is refused
        doc = {"c1B": 0, "convention": "sinh", key: {}}
        code, out, err = run_cli(capsys, [command], stdin=json.dumps(doc), monkeypatch=monkeypatch)
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "empty entries require an explicit max_genus"}
        doc["max_genus"] = 2
        code, out, _ = run_cli(capsys, [command], stdin=json.dumps(doc), monkeypatch=monkeypatch)
        assert code == 0
        assert json.loads(out)[out_key] == {"0": "0", "1": "0", "2": "0"}

    def test_nonintegral_violations_reported(self, capsys, monkeypatch):
        doc = '{"c1B":0,"convention":"sinh","gw":{"0":"1/3"}}'
        code, out, _ = run_cli(capsys, ["invert"], stdin=doc, monkeypatch=monkeypatch)
        assert code == 0
        parsed = json.loads(out)
        assert parsed["integral"] is False
        assert parsed["violations"] == [[0, "1/3"]]

    def test_malformed_json_position(self, capsys, monkeypatch):
        code, _, err = run_cli(capsys, ["invert"], stdin="{oops", monkeypatch=monkeypatch)
        assert code == 1
        doc = json.loads(err)
        assert doc["line"] == 1 and doc["column"] >= 1

    def test_missing_key(self, capsys, monkeypatch):
        code, _, err = run_cli(capsys, ["invert"], stdin='{"c1B":0}', monkeypatch=monkeypatch)
        assert code == 1
        assert "convention" in json.loads(err)["error"]

    def test_zero_denominator(self, capsys, monkeypatch):
        doc = '{"c1B":0,"convention":"sinh","E":{"0":"1","2":"1/0"}}'
        code, out, err = run_cli(capsys, ["transform"], stdin=doc, monkeypatch=monkeypatch)
        assert (code, out) == (1, "")
        assert json.loads(err) == {
            "error": "E['2'] must be a rational p/q or p in ASCII digits, "
                     "with a nonzero q and no whitespace, got '1/0'"}

    def test_document_checked_once(self, capsys, monkeypatch):
        # the whole document passes schemas.check once, each value once; the
        # vector is then built without from_string_map's second check of
        # its genus map
        paths, check = [], schemas.check

        def watch(doc, schema, where=""):
            paths.append(where)
            return check(doc, schema, where)

        monkeypatch.setattr(schemas, "check", watch)
        code, out, _ = run_cli(capsys, ["invert"], stdin=self.GW_DOC, monkeypatch=monkeypatch)
        assert code == 0
        assert json.loads(out)["E"] == {"0": "1", "1": "0", "2": "0"}
        values = [path for path in paths if path.startswith("gw[")]
        assert paths.count("") == 1 and "genus map" not in paths
        assert values and len(values) == len(set(values))
        realgw.multicover.InvariantVector.from_string_map({"0": "1"}, 0)
        assert "genus map" in paths

    @pytest.mark.parametrize(
        "argv,stdin",
        [
            pytest.param(["invert"], '{"c1B":0,"convention":"sinh","gw":{"0":0.1}}', id="float-value"),
            pytest.param(["invert"], '{"c1B":0,"convention":"sinh","gw":{"0":3}}', id="int-value"),
            pytest.param(["invert"], '{"c1B":0,"convention":"sinh","gw":{"0":true}}', id="bool-value"),
            pytest.param(["invert"], '{"c1B":false,"convention":"sinh","gw":{"0":"1"}}', id="bool-c1B"),
            pytest.param(["invert"], '{"c1B":0.0,"convention":"sinh","gw":{"0":"1"}}', id="float-c1B"),
            pytest.param(["invert"], '{"c1B":0,"convention":5,"gw":{"0":"1"}}', id="int-convention"),
            pytest.param(["invert"], '{"c1B":0,"convention":"sinh","gw":{"0":"1"},"max_genus":1.5}', id="float-max_genus"),
            pytest.param(["invert"], '{"c1B":0,"convention":"sinh","gw":{"0":"1"},"max_genus":true}', id="bool-max_genus"),
            pytest.param(["invert"], '{"c1B":0,"convention":"sinh","gw":{"0":"1"},"max_genus":-1}', id="negative-max_genus"),
            pytest.param(["invert"], '{"c1B":0,"convention":"sinh","gw":{"\u0663":"\u0661/\u0662"}}', id="unicode-digits"),
            pytest.param(["invert"], '{"c1B":0,"convention":"sinh","gw":{"\u0663":"1"}}', id="unicode-key"),
            pytest.param(["invert"], '{"c1B":0,"convention":"sinh","gw":{"0":"\u0661/\u0662"}}', id="unicode-value"),
            pytest.param(["invert"], '{"c1B":0,"convention":"sinh","gw":{"+1":"1"}}', id="signed-key"),
            pytest.param(["invert"], '{"c1B":0,"convention":"sinh","gw":{"3":"1","03":"5"}}', id="duplicate-genus"),
            pytest.param(["invert"], '{"c1B":0,"convention":"sinh","gw":{"0":" 1/2 "}}', id="padded-value"),
            pytest.param(["invert"], '{"c1B":0,"convention":"sinh","gw":{"0":"1/2\\n"}}', id="newline-value"),
            pytest.param(["transform"], '{"c1B":0,"convention":"sin","E":{"0":"\\t1"}}', id="tab-value"),
            pytest.param(["invert"], '{"c1B":0,"convention":"SINH","gw":{"0":"1"}}', id="upper-case-convention"),
            pytest.param(["transform"], '{"c1B":0,"convention":"Sin","E":{"0":"1"}}', id="mixed-case-convention"),
            pytest.param(["transform"], f'{{"c1B":0,"convention":"sinh","E":{{}},"max_genus":{MAX_GENUS + 1}}}', id="max_genus-past-cap"),
            pytest.param(["transform"], f'{{"c1B":0,"convention":"sinh","E":{{"{MAX_GENUS + 1}":"1"}}}}', id="key-past-cap"),
            pytest.param(["invert"], '{"c1B":0,"convention":"sinh","gw":{"0":"1"},"integral":"yes","violations":7}', id="integral-and-violations"),
            pytest.param(["coeff", "--h", "0", "--c1b", "0", "--g", str(MAX_GENUS + 1)], None, id="coeff-g-past-cap"),
        ],
    )
    def test_rejects_inexact_or_oversized_input(self, capsys, monkeypatch, argv, stdin):
        code, out, err = run_cli(capsys, argv, stdin=stdin, monkeypatch=monkeypatch)
        assert code == 1 and out == ""
        assert json.loads(err)["error"]

    @pytest.mark.parametrize(
        "argv,stdin,key",
        [
            pytest.param(["transform"], '{"c1B":0,"convention":"sinh","E":{"1":"1","1":"5"}}',
                         "1", id="E_1-twice"),
            pytest.param(["transform"], '{"c1B":0,"convention":"sinh","E":{"0":"1"},"E":{"0":"2"}}',
                         "E", id="E-twice"),
            pytest.param(["invert"], '{"c1B":0,"convention":"sin","convention":"sinh","gw":{"0":"1"}}',
                         "convention", id="convention-twice"),
            # the first key, in order of first appearance, that is given twice
            pytest.param(["transform"], '{"a":1,"b":1,"b":2,"a":2}', "a", id="first-appearance"),
            pytest.param(["transform"], MANY_KEYS, "99999", id="100000-keys"),
        ],
    )
    def test_repeated_json_key(self, capsys, monkeypatch, argv, stdin, key):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, argv, stdin=stdin, monkeypatch=monkeypatch)
        assert time.perf_counter() - start < 5  # found in time linear in the keys
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": f"input document gives the key {key!r} twice"}

    def test_transform_reads_file(self, capsys, tmp_path):
        path = tmp_path / "counts.json"
        path.write_text('{"c1B":0,"convention":"sinh","E":{"0":"1"}}')
        code, out, _ = run_cli(capsys, ["transform", "--in", str(path)])
        assert code == 0
        assert json.loads(out)["gw"] == {"0": "1"}

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, ["transform", "--in", "/nonexistent.json"])
        assert code == 1
        assert json.loads(err) == {
            "error": "cannot read input: [Errno 2] No such file or directory: '/nonexistent.json'"
        }
        for command in ("transform", "invert", "graph-check"):
            code, out, err = run_cli(capsys, [command, "--in", str(tmp_path)])
            assert (code, out) == (1, ""), command
            assert json.loads(err) == {
                "error": f"cannot read input: [Errno 21] Is a directory: {str(tmp_path)!r}"
            }, command

    @pytest.mark.parametrize("command", ["transform", "graph-check"])
    @pytest.mark.parametrize("opening", ["[", '{"a":'])
    def test_deeply_nested_json(self, capsys, tmp_path, command, opening):
        path = tmp_path / "nested.json"
        path.write_text(opening * 100_000)
        code, out, err = run_cli(capsys, [command, "--in", str(path)])
        assert (code, out) == (1, "")
        assert err.count("\n") == 1
        assert json.loads(err) == {"error": "input document is nested too deeply"}

    def test_coeff_conv_ignores_case(self, capsys):
        code, out, _ = run_cli(capsys, ["coeff", "--h", "2", "--c1b", "0", "--g", "1", "--conv", "SIN"])
        assert code == 0
        assert json.loads(out) == {"value": "-1/24"}
        code, out, _ = run_cli(capsys, ["coeff", "--h", "2", "--c1b", "0", "--g", "1", "--conv", "sInH"])
        assert code == 0
        assert json.loads(out) == {"value": "1/24"}
        # refused in the wording of every choice, the value as typed
        code, out, err = run_cli(capsys, ["coeff", "--h", "2", "--c1b", "0", "--g", "1", "--conv", "Cosh"])
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "--conv must be 'sinh' or 'sin', got 'Cosh'"}


def run_in_process(argv, stdin):
    """main(argv) with stdin fed from a string; returns (code, stdout, stderr).
    Usable inside @given, where function-scoped fixtures are not."""
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, stdin_of(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


THOUSAND_DIGITS = "9" * 999 + "8"


class TestC1bCap:
    """|c1B| is capped at ``MAX_C1B``: past it ``coeff``, ``transform`` and
    ``invert`` exit 1 before any coefficient table is built, and the error
    shows at most 60 characters of the value."""

    @pytest.mark.parametrize(
        "argv,c1b",
        [
            pytest.param(["coeff", "--h", "0", "--g", "128", "--c1b"], MAX_C1B + 2, id="coeff-above"),
            pytest.param(["coeff", "--h", "0", "--g", "128", "--c1b"], -MAX_C1B - 2, id="coeff-below"),
            pytest.param(["coeff", "--h", "0", "--g", "128", "--c1b"], int(THOUSAND_DIGITS),
                         id="coeff-1000-digits"),
            pytest.param(["transform"], MAX_C1B + 2, id="transform-above"),
            pytest.param(["invert"], -MAX_C1B - 2, id="invert-below"),
            pytest.param(["transform"], int(THOUSAND_DIGITS), id="transform-1000-digits"),
            pytest.param(["invert"], -int(THOUSAND_DIGITS), id="invert-1000-digits"),
        ],
    )
    def test_past_the_cap(self, monkeypatch, argv, c1b):
        def refuse(*args):
            raise AssertionError("a coefficient table was looked up")

        monkeypatch.setattr(realgw.multicover, "_table", refuse)
        if argv[0] == "coeff":
            argv, stdin = argv + [str(c1b)], ""
        else:
            key = "E" if argv[0] == "transform" else "gw"
            stdin = json.dumps({"c1B": c1b, "convention": "sinh", "max_genus": 128, key: {"0": "1"}})
        code, out, err = run_in_process(argv, stdin)
        assert (code, out) == (1, "")
        error = json.loads(err)["error"]
        shown = error.rsplit(", got ", 1)[1]
        assert error.startswith("c1B must be")
        assert shown == str(c1b) if len(str(c1b)) <= 60 else shown == str(c1b)[:60] + "..."

    COUNTS = {str(h): str((-1) ** h * (h + 1)) for h in range(MAX_GENUS + 1)}

    @pytest.mark.parametrize(
        "c1b,counts",
        [
            pytest.param(MAX_C1B, COUNTS, id=str(MAX_C1B)),
            pytest.param(-MAX_C1B, COUNTS, id=str(-MAX_C1B)),
            # zero entries up to the cap: the transform's cold column index
            # is built over them, and the round trip gives them back
            pytest.param(0, {"0": "1", str(MAX_GENUS): "0"}, id="0-sparse"),
        ],
    )
    @pytest.mark.parametrize("conv", ["sinh", "sin"])
    def test_at_the_cap(self, monkeypatch, conv, c1b, counts):
        # empty coefficient tables, as in a new CLI process
        monkeypatch.setattr(realgw.multicover, "_TABLES", {})
        monkeypatch.setattr(realgw.multicover, "_COLUMNS", {})
        code, out, err = run_in_process(
            ["coeff", "--h", "128", "--c1b", str(c1b), "--g", "128", "--conv", conv], "")
        assert (code, err) == (0, "") and json.loads(out)["value"]
        doc = json.dumps({"c1B": c1b, "convention": conv, "E": counts})
        code, gw, err = run_in_process(["transform"], doc)
        assert (code, err) == (0, "")
        code, out, err = run_in_process(["invert"], gw)
        assert (code, err) == (0, "")
        back = json.loads(out)
        dense = {str(h): counts.get(str(h), "0") for h in range(MAX_GENUS + 1)}
        assert back["E"] == dense and back["integral"] is True


class TestEmbeddedGenusCap:
    """``coeff --h`` is capped at ``MAX_GENUS``: past it ``coeff`` exits 1
    before any coefficient table is built, and the error shows at most 60
    characters of h (a 100-digit h used to compute, then fail at output)."""

    @pytest.mark.parametrize("h", [MAX_GENUS + 1, 10**100, int(THOUSAND_DIGITS)],
                             ids=["129", "100-digits", "1000-digits"])
    def test_past_the_cap(self, h):
        def sizes():
            return {key: len(table) for key, table in realgw.multicover._TABLES.items()}

        before = sizes()
        shown = str(h) if len(str(h)) <= 60 else str(h)[:60] + "..."
        error = f"genus h must be <= {MAX_GENUS}, got {shown}"
        code, out, err = run_in_process(["coeff", "--h", str(h), "--c1b", "0", "--g", "128"], "")
        assert (code, out, json.loads(err)) == (1, "", {"error": error})
        with pytest.raises(ValueError) as info:
            realgw.multicover.multicover_coefficient(h, 0, 0)
        assert str(info.value) == error
        assert sizes() == before

    def test_below_zero_reads_as_before(self):
        code, out, err = run_in_process(["coeff", "--h", "-1", "--c1b", "0", "--g", "0"], "")
        assert (code, out, json.loads(err)) == (1, "", {"error": "genus h must be >= 0, got -1"})


SMALL_PRIMES = math.prod(q for q in range(3, 200, 2) if all(q % r for r in range(3, q, 2)))


@functools.cache
def _primes(digits: int, count: int) -> tuple[int, ...]:
    """The ``count`` least odd numbers of ``digits`` digits with no odd
    factor below 200 that pass Fermat's test to bases 2, 3, 5 and 7:
    primes, distinct, so pairwise coprime."""
    found, n = [], 10 ** (digits - 1) + 1
    while len(found) < count:
        if math.gcd(n, SMALL_PRIMES) == 1 and all(pow(b, n - 1, n) == 1 for b in (2, 3, 5, 7)):
            found.append(n)
        n += 2
    return tuple(found)


def _tower_at_the_bound(excess: int = 0) -> dict[str, str]:
    """Every even genus 0..MAX_GENUS holds n/p, p distinct 46-digit primes,
    so all denominators are in one parity tower.  With L their product and
    n = (10**MAX_DIGITS - 1) // L + excess, L * n is just below the bound
    for ``excess`` 0 and at or above it for 1."""
    tower = range(0, MAX_GENUS + 1, 2)
    primes = _primes(46, len(tower))
    n = (10**MAX_DIGITS - 1) // math.prod(primes) + excess
    return {str(h): f"{n}/{p}" for h, p in zip(tower, primes)}


class TestDigitBudget:
    """A genus map is refused, exit 1 with an error naming the digit
    budget, when a value has more than ``MAX_DIGITS`` characters or its
    lcm(denominators) * max |numerator| reaches 10**MAX_DIGITS: no
    document that is accepted fails at output on the ``INT_DIGITS`` limit
    for writing an int."""

    @pytest.mark.parametrize("digits", [80, 60])
    @pytest.mark.parametrize("command,key", [("transform", "E"), ("invert", "gw")])
    def test_unit_fractions_over_primes(self, command, key, digits):
        # 129 values 1/p: before the budget, 80-digit primes failed at
        # output and 60-digit ones wrote half a megabyte
        values = {str(h): f"1/{p}" for h, p in enumerate(_primes(digits, MAX_GENUS + 1))}
        doc = json.dumps({"c1B": 0, "convention": "sinh", key: values})
        code, out, err = run_in_process([command], doc)
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == (
            "genus map over the digit budget: lcm(denominators) * "
            f"max |numerator| must be below 10**{MAX_DIGITS}"
        )

    def test_over_the_bound_builds_no_table(self):
        def sizes():
            return {key: len(table) for key, table in realgw.multicover._TABLES.items()}

        before = sizes()
        # a pairing no other test uses, so that a table built for it would show
        doc = {"c1B": 2 * MAX_GENUS + 2, "convention": "sin", "E": _tower_at_the_bound(1)}
        code, out, err = run_in_process(["transform"], json.dumps(doc))
        assert (code, out) == (1, "") and "digit budget" in json.loads(err)["error"]
        assert sizes() == before

    @pytest.mark.parametrize(
        "value", ["9" * (MAX_DIGITS + 1), "7" * 4400, "1/" + "0" * 4398 + "3"],
        ids=["one-over", "past-cpython-limit", "zero-padded"],
    )
    def test_long_value_refused_before_parsing(self, monkeypatch, value):
        def refuse(text):
            raise AssertionError("a value was parsed")

        monkeypatch.setattr(realgw.multicover, "Fraction", refuse)
        doc = {"c1B": 0, "convention": "sinh", "E": {"0": value}}
        code, out, err = run_in_process(["transform"], json.dumps(doc))
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == (
            f"genus 0 value has {len(value)} characters, over the digit budget of {MAX_DIGITS}"
        )

    @pytest.mark.parametrize(
        "values",
        [{"0": "9" * MAX_DIGITS}, {"0": "-1/" + "9" * (MAX_DIGITS - 3)}, _tower_at_the_bound()],
        ids=["largest-integer", "longest-fraction", "one-tower"],
    )
    def test_at_the_bound(self, values):
        doc = {"c1B": 0, "convention": "sinh", "E": values}
        code, out, err = run_in_process(["transform"], json.dumps(doc))
        assert (code, err) == (0, "")
        gw = {genus: Fraction(value) for genus, value in json.loads(out)["gw"].items()}
        assert gw["0"] == Fraction(values["0"])  # GW_0 = E_0

    @pytest.mark.parametrize("c1b", [MAX_C1B, -MAX_C1B])
    @pytest.mark.parametrize("conv", ["sinh", "sin"])
    @pytest.mark.parametrize("command,key,out_key", [("transform", "E", "gw"), ("invert", "gw", "E")])
    @pytest.mark.parametrize(
        "values", [_tower_at_the_bound(), {"0": "9" * MAX_DIGITS, str(MAX_GENUS): "0"}],
        ids=["one-tower", "largest-integer"],
    )
    def test_worst_cases_at_the_cap(self, values, command, key, out_key, conv, c1b):
        # the largest outputs measured: the whole lcm in every output of one
        # tower, or the largest integer, times the coefficients of the
        # largest |c1B|
        doc = {"c1B": c1b, "convention": conv, key: values}
        code, out, err = run_in_process([command], json.dumps(doc))
        assert (code, err) == (0, "")
        outputs = [Fraction(v) for v in json.loads(out)[out_key].values()]
        assert outputs[1] == 0 and outputs[0] != 0
        digits = max(len(str(part)) for v in outputs for part in v.as_integer_ratio())
        assert MAX_DIGITS < digits < INT_DIGITS

    def test_library_reads_the_same_budget(self):
        with pytest.raises(ValueError, match="digit budget"):
            realgw.multicover.InvariantVector.from_string_map(_tower_at_the_bound(1), 0)
        vec = realgw.multicover.InvariantVector.from_string_map(_tower_at_the_bound(), 0)
        assert vec.max_genus == MAX_GENUS


class TestCoverStdoutDigest:
    """Byte-identical cover output: one digest over the stdout of
    ``transform``, ``invert`` and ``coeff`` at three genus sizes, three
    pairings and both conventions."""

    # sha256 over the stdout of every call below, in loop order, computed
    # with the per-genus ``_table`` lookups that ``_compose`` made before it
    # read ``_TABLES`` directly: the output bytes must not depend on that.
    DIGEST = "349bdb3eb30d07e90f1e4a448dcd0abedb37058c794fdf26ed1c8f72e9e5486c"

    def test_stdout_digest(self):
        digest = hashlib.sha256()
        for max_genus in (12, 46, MAX_GENUS):
            # dense, with denominators 1, 7, 24 and 5760 and both signs
            values = {
                str(h): f"{(-1) ** h * (h + 1)}/{(1, 7, 24, 5760)[h % 4]}"
                for h in range(max_genus + 1)
            }
            for c1b in (-4, 0, 8):
                for conv in ("sinh", "sin"):
                    doc = {"c1B": c1b, "convention": conv}
                    calls = [
                        (["transform"], json.dumps({**doc, "E": values})),
                        (["invert"], json.dumps({**doc, "gw": values})),
                    ]
                    calls += [
                        (["coeff", "--h", str(h), "--c1b", str(c1b), "--g", str(g),
                          "--conv", conv], "")
                        for h in (0, 5) for g in (max_genus // 2, max_genus)
                    ]
                    for argv, stdin in calls:
                        code, out, err = run_in_process(argv, stdin)
                        assert (code, err) == (0, "")
                        digest.update(out.encode())
        assert digest.hexdigest() == self.DIGEST


# The p/q contract of `realgw schema invariants`, written out here so that
# the generator does not share the library's pattern.
P_Q = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")
GENUS_KEY = re.compile(r"0|[1-9][0-9]*")

p_q_strings = st.fractions(min_value=-99, max_value=99, max_denominator=99).map(
    lambda q: f"{q.numerator}/{q.denominator}"
)
whitespace = st.text(st.sampled_from(" \t\n\r\u00a0\u2003"), max_size=2)


@st.composite
def invariants_documents(draw):
    """A document `transform` and `invert` accept; 'values' stands for the
    genus map, stored under 'E' or 'gw' when the command is known."""
    max_genus = draw(st.integers(0, 6))
    values = draw(st.dictionaries(st.integers(0, max_genus).map(str), p_q_strings, max_size=4))
    doc = {
        "c1B": 2 * draw(st.integers(-4, 4)),
        "convention": draw(st.sampled_from(["sinh", "sin"])),
        "values": values,
    }
    # an empty map names no genus, so it needs max_genus
    if not values or draw(st.booleans()):
        doc["max_genus"] = max_genus
    return doc


# Each mutation breaks the invariants schema in exactly one place:
# (where, new value).
schema_violations = st.one_of(
    st.tuples(st.just("value"), st.one_of(st.floats(), st.booleans(), st.none(), st.integers())),
    st.tuples(
        st.just("value"),
        st.tuples(whitespace, p_q_strings, whitespace)
        .filter(lambda parts: parts[0] or parts[2])
        .map("".join),
    ),
    st.tuples(st.just("value"), st.text(max_size=6).filter(lambda t: not P_Q.fullmatch(t))),
    st.tuples(
        st.just("key"),
        st.one_of(
            st.sampled_from(["+1", "-1", "\u0663", "\uff11", " 1", "1 ", "1.0", ""]),
            st.text(max_size=3).filter(lambda k: not GENUS_KEY.fullmatch(k)),
        ),
    ),
    st.tuples(
        st.just("c1B"),
        st.one_of(
            st.integers().map(lambda n: 2 * n + 1),
            st.floats(), st.booleans(), st.none(),
            st.integers(-4, 4).map(lambda n: str(2 * n)),
        ),
    ),
    st.tuples(
        st.just("max_genus"),
        st.one_of(st.booleans(), st.floats(), st.integers(max_value=-1)),
    ),
    st.tuples(
        st.just("convention"),
        st.one_of(
            st.sampled_from(["SINH", "Sinh", "SIN", "sIn", "cosh", " sinh", "sin\n"]),
            st.text(max_size=5).filter(lambda t: t not in ("sinh", "sin")),
            st.integers(), st.none(),
        ),
    ),
    st.tuples(
        st.just("integral"),
        st.one_of(st.sampled_from(["yes", "true", 0, 1, None, []]), st.floats()),
    ),
    st.tuples(
        st.just("violations"),
        st.sampled_from(
            [7, "[]", {}, None, [[0]], [["0", "1/3"]], [[0, "1/3", 1]], [[0, 1]], [[True, "1/3"]]]
        ),
    ),
)


class TestSchemaViolations:
    @given(invariants_documents(), schema_violations)
    @settings(max_examples=100, deadline=None)
    def test_transform_and_invert_exit_one(self, doc, violation):
        where, bad = violation
        for command, key in (("transform", "E"), ("invert", "gw")):
            valid = {k: v for k, v in doc.items() if k != "values"}
            valid[key] = dict(doc["values"])
            code, _, _ = run_in_process([command], json.dumps(valid))
            assert code == 0

            broken = dict(valid, **{key: dict(valid[key])})
            if where == "value":
                broken[key][max(broken[key], default="0")] = bad
            elif where == "key":
                broken[key][bad] = "1"
            else:
                broken[where] = bad
            code, out, err = run_in_process([command], json.dumps(broken))
            assert code == 1 and out == ""
            assert json.loads(err)["error"]


def _draft7_validator():
    jsonschema = pytest.importorskip("jsonschema")
    return jsonschema.Draft7Validator(schemas.INVARIANTS_SCHEMA)


class TestInvariantsSchema:
    """`realgw schema invariants` read with Python's ``jsonschema`` package
    (Python ``re`` semantics): it must reject what the CLI rejects and
    accept what the CLI writes."""

    @given(invariants_documents(), schema_violations)
    @settings(max_examples=100, deadline=None)
    def test_violations_fail_the_schema(self, doc, violation):
        """Each violation fails ``schemas.check`` and ``Draft7Validator``
        alike, except an integral float such as ``2.0``: JSON Schema counts
        it as an integer, and only ``check`` rejects it."""
        validator = _draft7_validator()
        where, bad = violation
        integral_float = where in ("c1B", "max_genus") and type(bad) is float and bad.is_integer()
        for key in ("E", "gw"):
            valid = {k: v for k, v in doc.items() if k != "values"}
            valid[key] = dict(doc["values"])
            assert validator.is_valid(valid)
            schemas.check(valid, schemas.INVARIANTS_SCHEMA)
            broken = dict(valid, **{key: dict(valid[key])})
            if where == "value":
                broken[key][max(broken[key], default="0")] = bad
            elif where == "key":
                broken[key][bad] = "1"
            else:
                broken[where] = bad
            assert not validator.is_valid(broken) or integral_float, broken
            with pytest.raises(ValueError):
                schemas.check(broken, schemas.INVARIANTS_SCHEMA)

    @pytest.mark.parametrize(
        "violations",
        [[["x", 5, None]], [[0]], [[0, "1/3", 1]], [[0, 1]], [["0", "1/3"]], [[0, "1/3\n"]]],
    )
    def test_malformed_violation_entries(self, violations):
        validator = _draft7_validator()
        doc = {"c1B": 0, "convention": "sinh", "E": {"0": "1/3"}}
        assert validator.is_valid(dict(doc, violations=[[0, "1/3"]]))
        assert not validator.is_valid(dict(doc, violations=violations))
        schemas.check(dict(doc, violations=[[0, "1/3"]]), schemas.INVARIANTS_SCHEMA)
        with pytest.raises(ValueError, match=r"^violations\[0\]"):
            schemas.check(dict(doc, violations=violations), schemas.INVARIANTS_SCHEMA)
        code, out, err = run_in_process(["transform"], json.dumps(dict(doc, violations=violations)))
        assert (code, out) == (1, "") and json.loads(err)["error"].startswith("violations[0]")

    @pytest.mark.parametrize(
        "doc",
        [
            {"c1B": 2.0, "convention": "sinh", "values": {"0": "1"}},
            {"c1B": 0, "convention": "sin", "max_genus": 1.0, "values": {"0": "1"}},
            {"c1B": 0, "convention": "sinh", "max_genus": 1, "values": {"3": "1"}},
            {"c1B": 0, "convention": "sinh", "values": {}},
            {"c1B": 0, "convention": "sinh", "values": {"0": "9" * (MAX_DIGITS + 1)}},
            {"c1B": 0, "convention": "sinh", "values": {"0": "1/" + "3" * 1600, "1": "5" * 1500}},
        ],
        ids=["integral-float-c1B", "integral-float-max_genus", "key-above-max_genus",
             "empty-map-without-max_genus", "value-over-the-digit-budget",
             "map-over-the-digit-budget"],
    )
    def test_rules_draft7_cannot_state(self, doc):
        """The documents the CLI rejects that pass ``Draft7Validator``: an
        integral float where an integer is due (``schemas.check``), a genus
        key above the document's ``max_genus``, an empty genus map without
        ``max_genus`` and a genus map over the digit budget (all three
        ``InvariantVector``)."""
        validator = _draft7_validator()
        for command, key in (("transform", "E"), ("invert", "gw")):
            sent = {k: v for k, v in doc.items() if k != "values"}
            sent[key] = doc["values"]
            assert validator.is_valid(sent)
            code, out, err = run_in_process([command], json.dumps(sent))
            assert (code, out) == (1, "") and json.loads(err)["error"]

    @pytest.mark.parametrize(
        "doc",
        [
            {"c1B": 0, "convention": "sinh", "max_genus": MAX_GENUS + 1, "values": {"0": "1"}},
            {"c1B": MAX_C1B + 2, "convention": "sinh", "values": {"0": "1"}},
            {"c1B": -MAX_C1B - 2, "convention": "sin", "values": {"0": "1"}},
            {"c1B": 0, "convention": "sinh", "values": {"0": "1", "00": "2"}},
            {"c1B": 0, "convention": "sinh", "values": {"007": "1"}},
            {"c1B": 0, "convention": "sinh", "values": {"01": "1"}},
            {"c1B": 0, "convention": "sinh", "values": {str(MAX_GENUS + 1): "1"}},
            {"c1B": 0, "convention": "sinh", "values": {"200": "1"}},
            {"c1B": 0, "convention": "sinh"},
            {"c1B": 0, "convention": "sinh", "values": {"0": "1/0"}},
            {"c1B": 0, "convention": "sin", "values": {"0": "1", "2": "1/00"}},
            {"c1B": 2, "convention": "sinh", "values": {"1": "-3/000"}},
        ],
    )
    def test_cli_rejections_fail_the_schema(self, doc):
        validator = _draft7_validator()
        for command, key in (("transform", "E"), ("invert", "gw")):
            sent = {k: v for k, v in doc.items() if k != "values"}
            if "values" in doc:
                sent[key] = doc["values"]
            code, out, _ = run_in_process([command], json.dumps(sent))
            assert code == 1 and out == ""
            assert not validator.is_valid(sent), sent

    @pytest.mark.parametrize("cap", [0, 1, 9, 10, 99, 100, 128, 199, 200, 999])
    def test_genus_key_pattern_of_a_cap(self, cap):
        pattern = schemas._genus_key_pattern(cap)
        assert [i for i in range(1201) if re.search(pattern, str(i))] == list(range(cap + 1))
        for key in ("00", "01", "+1", "1\n"):
            assert not re.search(pattern, key)

    def test_genus_bound_is_max_genus(self):
        schema = schemas.INVARIANTS_SCHEMA
        assert schema["properties"]["max_genus"]["maximum"] == MAX_GENUS
        (pattern,) = schema["properties"]["gw"]["patternProperties"]
        assert schema["properties"]["E"]["patternProperties"].keys() == {pattern}
        canonical = [str(g) for g in range(1000)]
        assert [k for k in canonical if re.search(pattern, k)] == canonical[: MAX_GENUS + 1]
        for key in ("00", "01", "0128", "+1", "1\n"):
            assert not re.search(pattern, key)
        validator = _draft7_validator()
        assert validator.is_valid(
            {"c1B": 0, "convention": "sin", "max_genus": MAX_GENUS, "gw": {str(MAX_GENUS): "1"}}
        )

    def test_description_states_the_digit_budget(self):
        description = schemas.INVARIANTS_SCHEMA["description"]
        assert f"no value longer than {MAX_DIGITS} characters" in description
        assert f"|numerator| below 10^{MAX_DIGITS}." in description

    def test_c1b_bound_is_max_c1b(self):
        c1b = schemas.INVARIANTS_SCHEMA["properties"]["c1B"]
        assert (c1b["minimum"], c1b["maximum"]) == (-MAX_C1B, MAX_C1B)
        validator = _draft7_validator()
        for bound in (MAX_C1B, -MAX_C1B):
            assert validator.is_valid({"c1B": bound, "convention": "sinh", "gw": {"0": "1"}})

    @pytest.mark.parametrize(
        "gw", [{"0": "1/3"}, {"0": "1", "2": "-1/7", "3": "5/2"}, {"1": "1/2", "4": "3"}]
    )
    @pytest.mark.parametrize("convention", ["sinh", "sin"])
    def test_outputs_with_violations_pass(self, gw, convention):
        validator = _draft7_validator()
        code, out, _ = run_in_process(
            ["invert"], json.dumps({"c1B": 2, "convention": convention, "gw": gw})
        )
        inverted = json.loads(out)
        assert code == 0 and inverted["violations"]
        assert validator.is_valid(inverted), inverted
        code, out, _ = run_in_process(["transform"], out)
        assert code == 0 and validator.is_valid(json.loads(out))


VALID_GRAPH = {
    "n": 5,
    "a": [5],
    "phi": "tau",
    "vertices": [{"genus": 0, "theta": 1, "flags": [{"b": 0, "p": 0, "sminus": False}]}],
    "edges": [{"kind": "real", "degree": 1, "ends": [0, 0]}],
}


class TestGraphCheck:
    def test_seed_sweep(self, capsys):
        code, out, _ = run_cli(capsys, ["graph-check", "--seeds", "1..40"])
        assert code == 0
        doc = json.loads(out)
        assert doc["checked"] == 40 and doc["passed"] == 40 and doc["failed"] == 0
        assert doc["first_counterexample"] is None

    def test_bounds_parsing(self, capsys):
        code, out, _ = run_cli(
            capsys, ["graph-check", "--seeds", "1..10", "--bounds", "max_vertices=2,max_n=5"]
        )
        assert code == 0
        assert json.loads(out)["passed"] == 10

    @pytest.mark.parametrize(
        "seeds",
        ["5..1", "0", "1..x", "many", "\u0661..\u0663", "\u0663", "1_000",
         "1..1_000", "3..-5", "+1..5", " 1..5", "1..2..3", "..5", "1..",
         f"1..{MAX_SEEDS + 1}", f"{MAX_SEEDS + 1}", f"7..{MAX_SEEDS + 7}", "1.." + "9" * 40],
    )
    def test_bad_seed_range(self, capsys, seeds):
        code, out, err = run_cli(capsys, ["graph-check", "--seeds", seeds])
        assert code == 1 and out == ""
        assert "--seeds" in json.loads(err)["error"]

    def test_seed_range_limit(self):
        assert len(_parse_seed_range(f"1..{MAX_SEEDS}")) == MAX_SEEDS
        assert len(_parse_seed_range(f"{MAX_SEEDS}")) == MAX_SEEDS
        assert _parse_seed_range("0..0") == range(0, 1)
        assert _parse_seed_range("10000001..10001000") == range(10000001, 10001001)
        with pytest.raises(ValueError, match="ASCII digits"):
            _parse_seed_range("-3..5")

    def test_oversized_range_generates_no_graph(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a graph was generated")

        monkeypatch.setattr(realgw.graphs, "generate_random_graph", refuse)
        code, out, err = run_cli(capsys, ["graph-check", "--seeds", f"1..{MAX_SEEDS + 1}"])
        assert code == 1 and out == ""
        assert str(MAX_SEEDS) in json.loads(err)["error"]

    def test_counterexample_exit_code(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(
            realgw.graphs, "congruence_identity_check",
            lambda graph: CongruenceResult(holds=False, lhs=1, rhs=0, genus=0, degree=1),
        )
        code, out, _ = run_cli(capsys, ["graph-check", "--seeds", "1..3"])
        assert code == EXIT_CHECK_FAILED == 3
        doc = json.loads(out)
        assert doc["failed"] == 3 and doc["first_counterexample"]["seed"] == 1
        # pinned while graph_to_json_dict built the graph document by hand
        raw = out.encode()
        assert (len(raw), hashlib.sha256(raw).hexdigest()[:16]) == (2688, "ec4edbb510ceb577")
        graph = realgw.graphs.graph_from_json_dict(doc["first_counterexample"]["graph"])
        assert graph == realgw.graphs.generate_random_graph(1)
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(VALID_GRAPH))
        code, out, _ = run_cli(capsys, ["graph-check", "--in", str(path)])
        assert code == 3 and json.loads(out)["holds"] is False

    @pytest.mark.parametrize(
        "extra", [["--seeds", "5..1"], ["--seeds", "1..1000"], ["--bounds", ""]]
    )
    def test_in_refuses_seeds_and_bounds(self, capsys, tmp_path, extra):
        # --in checks the file alone; a seed range or bound given with it
        # would otherwise go unread.
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(VALID_GRAPH))
        code, out, err = run_cli(capsys, ["graph-check", "--in", str(path), *extra])
        assert code == 1 and out == ""
        assert json.loads(err) == {
            "error": "--in checks one graph; it takes no --seeds or --bounds"
        }

    @pytest.mark.parametrize(
        "path,value",
        [
            (("n",), 5.0),
            (("a", 0), "5"),
            (("vertices", 0, "genus"), 0.5),
            (("vertices", 0, "theta"), True),
            (("edges", 0, "degree"), 1.5),
            (("edges", 0, "ends", 0), 0.0),
            (("edges", 0, "ends", 1), "0"),
            (("edges", 0, "ends"), [0, 0, 0]),
            (("vertices", 0, "flags", 0, "b"), 0.0),
            (("vertices", 0, "flags", 0, "p"), False),
            (("vertices", 0, "flags", 0, "sminus"), "no"),
        ],
        ids=lambda x: ".".join(map(str, x)) if isinstance(x, tuple) else repr(x),
    )
    def test_graph_document_exact_types(self, capsys, tmp_path, path, value):
        doc = json.loads(json.dumps(VALID_GRAPH))
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        file = tmp_path / "graph.json"
        file.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, ["graph-check", "--in", str(file)])
        assert code == 1 and out == ""
        assert str(path[-1]) in json.loads(err)["error"]

    @pytest.mark.parametrize(
        "key,raw",
        [("vertices", json.dumps("x" * 10**6)), ("n", "[" * 900 + "]" * 900)],
        ids=["megabyte-string", "deep-array"],
    )
    def test_long_value_short_message(self, capsys, tmp_path, key, raw):
        # the error shows a bounded prefix of the value: stderr does not grow with it
        path = tmp_path / "graph.json"
        path.write_text(json.dumps({**VALID_GRAPH, key: None}).replace("null", raw))
        code, out, err = run_cli(capsys, ["graph-check", "--in", str(path)])
        assert (code, out) == (1, "") and len(err.encode()) < 300
        assert json.loads(err)["error"].startswith(f"{key} must be a JSON ")

    @pytest.mark.parametrize("name", sorted(BOUND_CAPS))
    def test_oversized_bound_generates_no_graph(self, capsys, monkeypatch, name):
        def refuse(*args, **kwargs):
            raise AssertionError("a graph was generated")

        monkeypatch.setattr(realgw.graphs, "generate_random_graph", refuse)
        cap = BOUND_CAPS[name]
        code, out, err = run_cli(
            capsys, ["graph-check", "--seeds", "1..3", "--bounds", f"{name}={cap + 1}"]
        )
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == f"bound {name}={cap + 1} exceeds its cap {cap}"

    @pytest.mark.parametrize(
        "bounds",
        [
            "max_vertices=3,max_n=7",
            "max_vertices=8,max_real_edges=6,max_conj_edges=6,max_edge_degree=9,max_n=11",
            ",".join(f"{name}={cap}" for name, cap in BOUND_CAPS.items()),
        ],
        ids=["readme", "benchmark-large", "all-caps"],
    )
    def test_bounds_within_caps(self, capsys, bounds):
        code, out, _ = run_cli(capsys, ["graph-check", "--seeds", "1..5", "--bounds", bounds])
        assert code == 0 and json.loads(out)["passed"] == 5

    def test_unknown_bound(self, capsys):
        code, _, err = run_cli(capsys, ["graph-check", "--seeds", "1..2", "--bounds", "max_cats=1"])
        assert code == 1
        assert "max_cats" in json.loads(err)["error"]

    @pytest.mark.parametrize(
        "bounds,key",
        # a repeat is named before any value is read, even a padded one
        [("max_n=3,max_n=9", "max_n"), ("max_n=3,max_n= 3", "max_n"),
         ("max_cats=1,max_cats=2", "max_cats")],
    )
    def test_repeated_bound(self, capsys, monkeypatch, bounds, key):
        def refuse(*args, **kwargs):
            raise AssertionError("a graph was generated")

        monkeypatch.setattr(realgw.graphs, "generate_random_graph", refuse)
        code, out, err = run_cli(capsys, ["graph-check", "--seeds", "1..3", "--bounds", bounds])
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": f"--bounds gives {key!r} twice"}

    def test_bounds_error_text(self, capsys):
        # the infeasible-bounds error carries the GraphBounds repr
        code, out, err = run_cli(capsys, ["graph-check", "--bounds", "max_vertices=0"])
        assert (code, out) == (1, "")
        assert err == (
            '{"error": "infeasible bounds: GraphBounds(max_vertices=0, max_vertex_genus=3, '
            "max_real_edges=4, max_conj_edges=4, max_edge_degree=7, max_n=9, "
            'max_multidegree_len=3, max_multidegree_entry=6, max_flag_label=4)"}\n'
        )
        code, out, err = run_cli(capsys, ["graph-check", "--bounds", "foo=1"])
        assert (code, out) == (1, "")
        assert err == (
            '{"error": "unknown bound \'foo\'; known: max_conj_edges, max_edge_degree, '
            "max_flag_label, max_multidegree_entry, max_multidegree_len, max_n, "
            'max_real_edges, max_vertex_genus, max_vertices"}\n'
        )

    @pytest.mark.parametrize(
        "text,key",
        [
            # "phi" given twice, "tau" then "eta"
            ('{"phi": "tau", ' + json.dumps({**VALID_GRAPH, "phi": "eta"})[1:], "phi"),
            (json.dumps(VALID_GRAPH).replace('"b": 0', '"b": 0, "b": 1'), "b"),
        ],
        ids=["phi-twice", "flag-b-twice"],
    )
    def test_repeated_json_key(self, capsys, tmp_path, text, key):
        path = tmp_path / "graph.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, ["graph-check", "--in", str(path)])
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": f"input document gives the key {key!r} twice"}

    def test_explicit_graph_document(self, capsys, tmp_path):
        doc = {
            "n": 5,
            "a": [5],
            "phi": "tau",
            "vertices": [
                {"genus": 0, "theta": 1, "flags": [{"b": 0, "p": 0, "sminus": False}]}
            ],
            "edges": [{"kind": "real", "degree": 1, "ends": [0, 0]}],
        }
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, ["graph-check", "--in", str(path)])
        assert code == 0
        parsed = json.loads(out)
        assert parsed["holds"] is True
        assert (parsed["genus"], parsed["degree"]) == (0, 1)
        # the printed keys are the CongruenceResult fields, sorted
        assert list(parsed) == sorted(CongruenceResult._fields)
        assert out == '{\n  "degree": 1,\n  "genus": 0,\n  "holds": true,\n  "lhs": 1,\n  "rhs": 1\n}\n'

    def test_explicit_graph_domain_error(self, capsys, tmp_path):
        doc = {
            "n": 5,
            "a": [5],
            "phi": "tau",
            "vertices": [
                {"genus": 0, "theta": 1, "flags": [{"b": 0, "p": 0, "sminus": False}]}
            ],
            "edges": [{"kind": "real", "degree": 2, "ends": [0, 0]}],
        }
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, ["graph-check", "--in", str(path)])
        assert code == 1
        assert "degree" in json.loads(err)["error"]


class TestVerifyAndSchema:
    def test_single_identity(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "binomial_parity"])
        assert code == 0
        reports = json.loads(out)
        assert reports[0]["identity"] == "binomial_parity"
        assert reports[0]["holds"] is True

    def test_failed_identity_exit_code(self, capsys, monkeypatch):
        monkeypatch.setitem(
            realgw.verify.ALL_CHECKS, "binomial_parity",
            lambda: IdentityReport("binomial_parity", 1, False, ((0, 0),)),
        )
        code, out, _ = run_cli(capsys, ["verify", "binomial_parity"])
        assert code == EXIT_CHECK_FAILED
        assert json.loads(out)[0]["failures"] == [[0, 0]]

    def test_mutated_kernel_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(
            realgw.verify, "cvc_parity_exponent", lambda g, k, d: (1 - g) * k + d
        )
        code, out, _ = run_cli(capsys, ["verify", "doublet_vs_cvc"])
        assert code == EXIT_CHECK_FAILED
        assert json.loads(out)[0]["holds"] is False

    def test_unknown_identity(self, capsys):
        code, _, err = run_cli(capsys, ["verify", "nope"])
        assert code == 1
        assert "unknown identity" in json.loads(err)["error"]

    def test_verify_all_stdout_bytes(self, capsys):
        # pinned while the convention exponents were one record per (g, c1B, n)
        code, out, err = run_cli(capsys, ["verify", "--all"])
        assert (code, err) == (0, "")
        raw = out.encode()
        assert (len(raw), hashlib.sha256(raw).hexdigest()[:16]) == (876, "b71bebecff0d2bd7")

    def test_printed_keys_are_the_report_fields(self, capsys):
        assert schemas.REPORT_SCHEMA["required"] == list(IdentityReport._fields)
        code, out, _ = run_cli(capsys, ["verify", "binomial_parity"])
        assert code == 0
        assert list(json.loads(out)[0]) == sorted(IdentityReport._fields)

    def test_invariants_schema_bytes(self, capsys):
        # pinned while schemas wrote the size caps out by hand
        code, out, _ = run_cli(capsys, ["schema", "invariants"])
        assert (code, hashlib.sha256(out.encode()).hexdigest()[:16]) == (0, "42bfa7801682a363")

    @pytest.mark.parametrize("kind", ["graph", "invariants", "report"])
    def test_schema_stable(self, capsys, kind):
        code1, out1, _ = run_cli(capsys, ["schema", kind])
        code2, out2, _ = run_cli(capsys, ["schema", kind])
        assert code1 == code2 == 0
        assert out1 == out2
        assert json.loads(out1)["$schema"].startswith("http://json-schema.org")


class TestExitCodes:
    def test_usage_error_is_two(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_required_flag_is_two(self, capsys):
        assert main(["coeff", "--h", "1"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv,error",
        [
            (["graph-check", "--in", ""], "cannot read input: "),
            (["transform", "--in", ""], "cannot read input: "),
            (["invert", "--in", ""], "cannot read input: "),
            (["verify", ""], "unknown identity ''; known: "),
            (["verify", "", "--all"], "pass either --all or one identity id, not both"),
        ],
        ids=lambda value: " ".join(value) if isinstance(value, list) else None,
    )
    def test_empty_value_is_a_value(self, capsys, monkeypatch, argv, error):
        # "" names no file and no identity: it is not an option left out,
        # so no seed sweep, stdin read or full suite runs in its place
        stdin = '{"c1B":0,"convention":"sinh","E":{"0":"1"},"gw":{"0":"1"}}'
        code, out, err = run_cli(capsys, argv, stdin=stdin, monkeypatch=monkeypatch)
        assert (code, out) == (1, "")
        assert json.loads(err)["error"].startswith(error)

    def test_failed_write(self, capsys, monkeypatch):
        # a write that fails is not worded as a read
        class BrokenPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", BrokenPipe())
        assert main(["graph-check", "--seeds", "1..3"]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": f"cannot write output: [Errno {errno.EPIPE}] Broken pipe"
        }

    def test_determinism_in_process(self, capsys):
        first = run_cli(capsys, ["coeff", "--h", "3", "--c1b", "2", "--g", "4"])
        second = run_cli(capsys, ["coeff", "--h", "3", "--c1b", "2", "--g", "4"])
        assert first == second


class TestUndecodableInput:
    """A document that is not UTF-8 is refused before it is parsed, in
    realgw's words and at the offset of its first bad byte, whether it
    comes from ``--in``, ``--in /dev/stdin`` or plain stdin, and whatever
    encoding the locale gives stdin."""

    DOCS = {
        "first-byte": (b"\xff{}", 0),
        "inside-a-string": (b'{"c1B":0,"convention":"si\xffn","E":{"0":"1"}}', 25),
        "cut-sequence": ('{"c1B":0,"convention":"sinh","E":{"0":"\u00e9'.encode()[:-1], 39),
    }

    @staticmethod
    def refusal(offset):
        return json.dumps({"error": f"cannot read input: not UTF-8 at byte {offset}"}) + "\n"

    @pytest.mark.parametrize("command", ["transform", "invert", "graph-check"])
    @pytest.mark.parametrize("doc", sorted(DOCS))
    def test_file(self, capsys, tmp_path, command, doc):
        data, offset = self.DOCS[doc]
        (tmp_path / "doc.json").write_bytes(data)
        code_out_err = run_cli(capsys, [command, "--in", str(tmp_path / "doc.json")])
        assert code_out_err == (1, "", self.refusal(offset))

    @pytest.mark.parametrize("command", ["transform", "invert"])
    @pytest.mark.parametrize("doc", sorted(DOCS))
    def test_stdin_in_process(self, capsys, monkeypatch, command, doc):
        data, offset = self.DOCS[doc]
        code_out_err = run_cli(capsys, [command], stdin=data, monkeypatch=monkeypatch)
        assert code_out_err == (1, "", self.refusal(offset))

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
    @pytest.mark.parametrize("encoding", [None, "utf-8:strict", "latin-1"])
    @pytest.mark.parametrize("argv", [["transform"], ["graph-check", "--in", "/dev/stdin"]],
                             ids=["stdin", "dev-stdin"])
    @pytest.mark.parametrize("doc", sorted(DOCS))
    def test_stdin_in_a_process(self, argv, encoding, doc):
        data, offset = self.DOCS[doc]
        env = _child_env()
        env.pop("PYTHONIOENCODING", None)
        if encoding is not None:
            env["PYTHONIOENCODING"] = encoding
        proc = subprocess.run([sys.executable, "-m", "realgw", *argv], input=data, env=env,
                              capture_output=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, b"", self.refusal(offset).encode())

    def test_utf8_text_is_read(self, capsys, monkeypatch):
        # a non-ASCII character that is valid UTF-8 reaches the schema, shown escaped
        stdin = '{"c1B":0,"convention":"s\u00efnh","E":{"0":"1"}}'.encode()
        code, out, err = run_cli(capsys, ["transform"], stdin=stdin, monkeypatch=monkeypatch)
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "convention must be 'sinh' or 'sin', got 's\u00efnh'"}


COMMANDS = ("coeff", "dim", "sign", "transform", "invert", "graph-check", "verify", "schema")
# stdout, stderr and exit code of ``main`` on each argv and COLUMNS value,
# captured at commit 4b79e15 (each subcommand's arguments built eagerly);
# CPython 3.10.13, 3.11.7, 3.12.1 and 3.13.0 printed the same bytes.
USAGE_PINS = json.loads((Path(__file__).parent / "cli_usage_pins.json").read_text())


class TestUsagePins:
    """Help and usage errors read as they did when every subcommand's
    arguments were built in every process."""

    def test_pins_cover_every_help(self):
        pinned = {(tuple(pin["argv"]), pin["columns"]) for pin in USAGE_PINS}
        helps = [("-h",), ("--help",)] + [(command, "-h") for command in COMMANDS]
        assert {(argv, columns) for argv in helps for columns in (80, 1000)} <= pinned
        helps_printed = [pin for pin in USAGE_PINS if pin["argv"][-1:] == ["-h"]]
        assert all(pin["code"] == 0 and pin["stdout"] for pin in helps_printed)

    @pytest.mark.parametrize(
        "pin", USAGE_PINS, ids=lambda pin: f"{' '.join(pin['argv']) or '(none)'}@{pin['columns']}"
    )
    def test_output_matches_the_pin(self, capsys, monkeypatch, pin):
        monkeypatch.setenv("COLUMNS", str(pin["columns"]))
        assert run_cli(capsys, pin["argv"]) == (pin["code"], pin["stdout"], pin["stderr"])


class TestIntegers:
    """Every CLI integer is an optional '-' then ASCII digits; '+3',
    spaces, underscores and Unicode digits are rejected."""

    @pytest.mark.parametrize(
        "text,value",
        [("0", 0), ("-0", 0), ("7", 7), ("-8", -8), ("007", 7), ("9" * 30, int("9" * 30))],
    )
    def test_accepted(self, text, value):
        assert integer(text) == value

    @pytest.mark.parametrize(
        "text", ["", "-", "+3", " 3", "3 ", "1_0", "\u0661", "-\u0662", "3.0", "0x10", "--3", "1e3"]
    )
    def test_rejected(self, text):
        with pytest.raises(ValueError, match=f"^g must be an integer, got {re.escape(repr(text))}$"):
            integer(text, "g")

    def test_digit_limit(self):
        assert integer("-" + "9" * INT_DIGITS) == -int("9" * INT_DIGITS)
        with pytest.raises(ValueError, match=rf"^--h must have at most {INT_DIGITS} digits, got '9{{59}}\.\.\.$"):
            integer("9" * (INT_DIGITS + 1), "--h")

    @pytest.mark.parametrize(
        "argv,name",
        [
            (["sign", "cvc-parity", "--params", "g=\u0661,k=1,d=1"], "g"),
            (["sign", "cvc-parity", "--params", "g=0,k=1_0,d=1"], "k"),
            (["sign", "cvc-parity", "--params", "g=0,k=1,d=+3"], "d"),
            (["sign", "doublet-moduli", "--params", "g=1,sminus=0,c1lphib=\u0663"], "c1lphib"),
            (["graph-check", "--seeds", "1..2", "--bounds", "max_n=1_1"], "max_n"),
            (["graph-check", "--seeds", "1..2", "--bounds", "max_n=\u0667"], "max_n"),
            (["graph-check", "--seeds", "1..2", "--bounds", "max_vertices=+2"], "max_vertices"),
            # keys and values are read exactly as written: no padding is stripped
            (["sign", "cvc-parity", "--params", "g= 3,k=1,d=1"], "g"),
            (["graph-check", "--seeds", "1..2", "--bounds", "max_n= 7"], "max_n"),
        ],
    )
    def test_params_and_bounds_reject(self, capsys, argv, name):
        code, out, err = run_cli(capsys, argv)
        assert code == 1 and out == ""
        assert f"{name} must be an integer" in json.loads(err)["error"]

    @pytest.mark.parametrize(
        "argv,error",
        [
            (["sign", "cvc-parity", "--params", "g =0,k=1,d=1"],
             "cvc-parity needs --params g=<int>"),
            (["sign", "cvc-parity", "--params", "g=0, k=1,d=1"],
             "cvc-parity needs --params k=<int>"),
            (["graph-check", "--seeds", "1..2", "--bounds", " max_n = 7 "],
             "unknown bound ' max_n '"),
        ],
    )
    def test_padded_keys_reject(self, capsys, argv, error):
        code, out, err = run_cli(capsys, argv)
        assert code == 1 and out == ""
        assert json.loads(err)["error"].startswith(error)

    @pytest.mark.parametrize(
        "argv",
        [
            ["coeff", "--h", "\u0662", "--c1b", "0", "--g", "1"],
            ["coeff", "--h", "2", "--c1b", "+0", "--g", "1"],
            ["coeff", "--h", "2", "--c1b", "0", "--g", "1_0"],
            ["dim", "--g", "0", "--ell", "1", "--n", "\u0663", "--c1b", "4"],
            ["dim", "--g", " 0", "--ell", "1", "--n", "3", "--c1b", "4"],
        ],
    )
    def test_options_reject(self, capsys, argv):
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == ""
        assert "invalid integer value" in err

    def test_negative_values(self, capsys):
        code, out, _ = run_cli(capsys, ["sign", "cvc-parity", "--params", "g=0,k=1,d=-8"])
        assert code == 0 and "ind=(1-g)k+d=-7" in json.loads(out)["condition"]
        code, out, _ = run_cli(capsys, ["coeff", "--h", "2", "--c1b", "-4", "--g", "1"])
        assert code == 0 and json.loads(out) == {"value": "-1/24"}
        code, out, _ = run_cli(capsys, ["dim", "--g", "0", "--ell", "1", "--n", "3", "--c1b", "-4"])
        assert code == 0 and json.loads(out) == {"dim": -2}



def _at_the_cap(value: int) -> int:
    """The largest integer of at most ``MAX_INT_DIGITS`` digits that is
    ``value`` mod 8: it keeps every parity rule a kernel states (even, odd,
    a multiple of 4, a residue mod 8) and every lower bound."""
    return 10**MAX_INT_DIGITS - 8 + value % 8


class TestIntegerCap:
    """``sign`` and ``dim`` read integers of at most ``MAX_INT_DIGITS``
    digits.  Every kernel and ``virtual_dimension`` is a polynomial of
    degree <= 4 in its inputs, so at the cap every printed integer stays
    under ``INT_DIGITS``; past it, the command exits 1 before
    any kernel runs, naming the parameter and showing at most 60 characters."""

    @pytest.mark.parametrize("predicate,params,wrapper,args", VALID_SIGN_CALLS)
    def test_sign_at_the_cap(self, capsys, predicate, params, wrapper, args):
        chunks = [chunk.split("=", 1) for chunk in params.split(",") if chunk]
        params = ",".join(
            f"{key}={value if key in ('variant', 'side', 'orientable') else _at_the_cap(int(value))}"
            for key, value in chunks
        )
        args = [_at_the_cap(a) if type(a) is int else a for a in args]
        code, out, err = run_cli(capsys, ["sign", predicate, "--params", params])
        assert (code, err) == (0, "")
        comparison = wrapper(*args)
        assert json.loads(out) == {
            "preserves": comparison.preserves,
            "sign": comparison.sign,
            "condition": comparison.condition,
        }

    def test_dim_at_the_cap(self, capsys):
        g, ell, n, c1b = (_at_the_cap(v) for v in (0, 1, 3, 4))
        argv = ["dim", "--g", str(g), "--ell", str(ell), "--n", str(n), "--c1b", str(c1b)]
        code, out, err = run_cli(capsys, argv)
        descriptor = signs.ModuliDescriptor(g, ell, n, c1b)
        assert (code, err) == (0, "")
        assert json.loads(out) == {"dim": signs.virtual_dimension(descriptor)}

    @pytest.mark.parametrize(
        "argv,name,value",
        [
            (["sign", "cvc-parity", "--params", "g={},k=1,d=1"], "cvc-parity: g", 10**MAX_INT_DIGITS),
            (["sign", "cvc-parity", "--params", "g={0},k={0},d=1"], "cvc-parity: g", 10**3000 - 1),
            (["sign", "union-moduli", "--params", "n=3,g1=0,g2=0,c1b1={},c1b2=0"],
             "union-moduli: c1b1", -(10**MAX_INT_DIGITS)),
            (["dim", "--g", "{}", "--ell", "0", "--n", "3", "--c1b", "0"], "--g", 10**MAX_INT_DIGITS),
            (["dim", "--g", "{0}", "--ell", "0", "--n", "{0}", "--c1b", "0"], "--g", 10**3000 - 1),
            (["dim", "--g", "0", "--ell", "0", "--n", "3", "--c1b", "{}"], "--c1b", -(10**MAX_INT_DIGITS + 2)),
        ],
        ids=["sign-1001-digits", "sign-3000-digits", "sign-negative", "dim-1001-digits",
             "dim-3000-digits", "dim-negative"],
    )
    def test_past_the_cap(self, capsys, monkeypatch, argv, name, value):
        def refuse(*args, **kwargs):
            raise AssertionError("a kernel ran")

        monkeypatch.setattr(realgw.signs, "virtual_dimension", refuse)
        monkeypatch.setattr(realgw.signs, "ModuliDescriptor", refuse)
        for predicate, wrapper in PREDICATES.items():
            # the same parameters, read off the kernel, but no kernel runs
            monkeypatch.setitem(PREDICATES, predicate, functools.wraps(wrapper)(lambda *a: refuse()))
        code, out, err = run_cli(capsys, [arg.format(value) for arg in argv])
        assert (code, out) == (1, "")
        shown = str(value)[:60] + "..."
        assert json.loads(err) == {"error": f"{name} must have at most {MAX_INT_DIGITS} digits, got {shown}"}


LONG = "9" * 5000
HUGE = 10**4000  # 4,001 digits: under INT_DIGITS


def _graph_doc(**changes) -> str:
    return json.dumps({**VALID_GRAPH, **changes})


class TestBoundedEcho:
    """Every exit-1 error about a value read from the command line or an
    input document shows at most 60 characters of it (``realgw._shown``),
    and a usage error (exit 2) is cut after 200 characters."""

    @pytest.mark.parametrize(
        "argv,stdin,error",
        [
            (["sign", LONG], None, "unknown predicate"),
            (["verify", LONG], None, "unknown identity"),
            (["sign", "union-determinant", "--params", "g1=0,g2=0,k=1,d1=0,d2=0,variant=" + LONG],
             None, "union-determinant: variant must be"),
            (["coeff", "--h", "1", "--c1b", "0", "--g", "1", "--conv", LONG], None, "--conv must be"),
            (["sign", "cvc-parity", "--params", LONG], None, "--params entries must look like"),
            (["graph-check", "--bounds", LONG], None, "--bounds entries must look like"),
            (["sign", "cvc-parity", "--params", f"{LONG}=1,{LONG}=2"], None, "--params gives"),
            (["sign", "cvc-parity", "--params", f"g=0,k=1,d=1,z{LONG}=1"], None,
             "cvc-parity: unknown params"),
            (["graph-check", "--bounds", f"z{LONG}=1"], None, "unknown bound"),
            (["sign", "cvc-parity", "--params", f"g={LONG},k=1,d=1"], None,
             f"cvc-parity: g must have at most {INT_DIGITS} digits"),
            (["graph-check", "--bounds", f"max_n={LONG}"], None,
             f"bound max_n must have at most {INT_DIGITS} digits"),
            (["graph-check", "--bounds", f"max_n={LONG[:4000]}"], None, "bound max_n="),
            (["graph-check", "--seeds", f"1..{LONG}"], None, f"--seeds numbers must have at most {INT_DIGITS}"),
            (["graph-check", "--seeds", LONG], None, f"--seeds numbers must have at most {INT_DIGITS}"),
            (["graph-check", "--seeds", f"x{LONG}"], None, "--seeds must look like"),
            (["graph-check", "--seeds", f"{LONG[:4000]}..1"], None, "--seeds range"),
            (["graph-check", "--seeds", f"1..{LONG[:4000]}"], None, "--seeds range"),
            (["transform"], f'{{"{LONG}": 1, "{LONG}": 2}}', "input document gives the key"),
            (["coeff", "--h", "0", "--c1b", "0", "--g", LONG[:4000]], None, "genus g must be in"),
            (["coeff", "--h", f"-{LONG[:4000]}", "--c1b", "0", "--g", "0"], None,
             "genus h must be >= 0"),
            (["dim", "--g", "0", "--ell", "0", "--n", f"{LONG[:999]}8", "--c1b", "0"], None,
             "complex dimension n must be odd"),
            (["dim", "--g", "0", "--ell", f"-{LONG[:1000]}", "--n", "3", "--c1b", "0"], None,
             "marked-pair count ell must be >= 0"),
            (["dim", "--g", "0", "--ell", "0", "--n", "3", "--c1b", LONG[:1000]], None,
             "c1B must be even"),
            (["sign", "cvc-parity", "--params", f"g=0,k=-{LONG[:1000]},d=1"], None,
             "cvc-parity: k must be"),
            (["sign", "doublet-moduli", "--params", f"g=0,sminus=-{LONG[:1000]},c1lphib=0"], None,
             "doublet-moduli: sminus must be >= 0"),
            (["sign", "relspin", "--params", f"degv={LONG[:998]}8,variant=spin-vs-canonical"],
             None, "relspin: degv must be in 4Z for spin-vs-canonical, got 999"),
            (["graph-check", "--in", "{path}"],
             _graph_doc(edges=[{"kind": "real", "degree": 1, "ends": [HUGE, HUGE]}]),
             "edge 0 references unknown vertex"),
            (["graph-check", "--in", "{path}"],
             _graph_doc(edges=[{"kind": "real", "degree": 1, "ends": [0, HUGE]}]),
             "a real edge meets a single quotient vertex"),
            (["graph-check", "--in", "{path}"], _graph_doc(n=HUGE), "n - k must be even"),
            (["graph-check", "--in", "{path}"], _graph_doc(n=1, a=[HUGE]), "|a| must equal k mod 4"),
            (["graph-check", "--in", "{path}"],
             _graph_doc(edges=[{"kind": "real", "degree": HUGE, "ends": [0, 0]}]),
             "real edge 0 has even degree"),
            (["graph-check", "--bounds", f"max_n=-{LONG[:4000]}"], None, "infeasible bounds: "),
            (["transform", "--in", f"/nonexistent/{LONG[:4000]}"], None, "cannot read input: "),
            (["transform"], f'{{"c1B": {LONG}, "convention": "sinh", "E": {{"0": "1"}}}}',
             f"input document integers must have at most {INT_DIGITS} digits"),
            (["graph-check", "--in", "{path}"], _graph_doc().replace('"n": 5', f'"n": {LONG}'),
             f"input document integers must have at most {INT_DIGITS} digits"),
            (["transform"], json.dumps({"c1B": 0, "convention": "sinh", "max_genus": 0,
                                        "E": {str(g): "1" for g in range(MAX_GENUS + 1)}}),
             "genera [1, 2, 3"),
        ],
        ids=["predicate", "identity", "variant", "conv", "params-chunk", "bounds-chunk",
             "params-twice", "params-key", "bounds-key", "params-integer", "bounds-integer",
             "bounds-cap", "seeds-4300-digits", "seeds-count", "seeds-shape", "seeds-empty",
             "seeds-too-many", "document-key-twice", "coeff-g", "coeff-h", "dim-n", "dim-ell",
             "dim-c1b", "sign-rank", "sign-s-minus", "sign-deg-v", "graph-unknown-vertex",
             "graph-real-ends", "graph-n-k", "graph-a-residue", "graph-even-degree",
             "bounds-infeasible", "unreadable-path", "document-int-digits",
             "graph-int-digits", "genera-outside"],
    )
    def test_long_value_short_message(self, capsys, monkeypatch, tmp_path, argv, stdin, error):
        if "{path}" in argv:  # the document is read from a file
            (tmp_path / "doc.json").write_text(stdin)
            argv, stdin = [arg.format(path=tmp_path / "doc.json") for arg in argv], None
        code, out, err = run_cli(capsys, argv, stdin, monkeypatch)
        assert (code, out) == (1, "") and len(err.encode()) < 1024
        message = json.loads(err)["error"]
        assert message.startswith(error) and "9" * 61 not in message and "..." in message

    @pytest.mark.parametrize(
        "argv",
        [[f"x{LONG}"], ["coeff", "--h", LONG, "--c1b", "0", "--g", "0"], ["schema", f"x{LONG}"],
         ["graph-check", f"--bogus{LONG}"], ["sign", "--params"] + [LONG] * 3],
        ids=["command", "option-integer", "choice", "unknown-option", "extra-arguments"],
    )
    def test_long_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "") and len(err.encode()) < 1024
        assert err.endswith("...\n")

    @pytest.mark.parametrize("command", ["transform", "invert"])
    def test_document_integer_past_the_int_limit(self, capsys, monkeypatch, command):
        doc = f'{{"c1B": 0, "convention": "sinh", "E": {{"0": "1"}}, "max_genus": -{LONG}}}'
        code, out, err = run_cli(capsys, [command], doc, monkeypatch)
        assert (code, out) == (1, "")
        assert json.loads(err) == {
            "error": f"input document integers must have at most {INT_DIGITS} digits, got '-"
            + "9" * 58 + "..."
        }
        # INT_DIGITS digits are read, and the schema refuses the value
        code, out, err = run_cli(capsys, [command], doc.replace(LONG, LONG[:INT_DIGITS]), monkeypatch)
        assert (code, out) == (1, "")
        assert json.loads(err)["error"].startswith("max_genus must be >= 0, got -999")

    @pytest.mark.parametrize("module", ["cli", "graphs", "multicover", "schemas", "signs", "verify"])
    def test_one_function(self, module):
        # every layer words a refused value through the package's one _shown
        assert getattr(realgw, module)._shown is realgw._shown


NINES = "9" * 999
# Commands inside every realgw cap whose result once depended on the
# interpreter's int/str limit; "{path}" is a file holding the stdin text.
LIMIT_CASES = {
    "coeff-at-the-caps": (["coeff", "--h", "128", "--c1b", str(MAX_C1B), "--g", "128"], None),
    "sign-999-digits": (["sign", "cvc-parity", "--params", f"g={NINES},k=1,d=1"], None),
    "dim-1000-digits": (["dim", "--g", "0", "--ell", "0", "--n", "3", "--c1b", NINES + "8"], None),
    "document-1000-digits": (["transform"], f'{{"c1B": {NINES}9, "convention": "sinh", "E": {{"0": "1"}}}}'),
    "graph-genus-4300-digits": (
        ["graph-check", "--in", "{path}"], _graph_doc().replace('"genus": 0', f'"genus": {"9" * INT_DIGITS}')),
    "sparse-transform": (["transform"], json.dumps(
        {"c1B": MAX_C1B, "convention": "sinh", "E": {"0": "1", str(MAX_GENUS): "0"}})),
}


def _child_env() -> dict[str, str]:
    """This process's environment with the imported realgw's source
    directory first on PYTHONPATH, for a new interpreter."""
    env = dict(os.environ)
    src = str(Path(realgw.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _realgw_process(argv, stdin, limit):
    """(exit code, stdout, stderr) of ``python -m realgw argv`` run with
    PYTHONINTMAXSTRDIGITS set to ``limit``, or unset for None."""
    env = _child_env()
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    if limit is not None:
        env["PYTHONINTMAXSTRDIGITS"] = limit
    proc = subprocess.run([sys.executable, "-m", "realgw", *argv], input=stdin, env=env,
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


class TestIntLimit:
    """``main`` reads and writes integers under its own limit,
    ``INT_DIGITS``, whatever the interpreter's: PYTHONINTMAXSTRDIGITS
    changes no output, and the caller's limit is restored on return."""

    @pytest.mark.parametrize("case", sorted(LIMIT_CASES))
    def test_same_output_under_any_limit(self, tmp_path, case):
        argv, stdin = LIMIT_CASES[case]
        if "{path}" in argv:
            (tmp_path / "doc.json").write_text(stdin)
            argv, stdin = [arg.format(path=tmp_path / "doc.json") for arg in argv], None
        unset = _realgw_process(argv, stdin, None)
        assert unset[0] in (0, 1) and "set_int_max_str_digits" not in unset[2]
        for limit in ("640", "0"):
            assert _realgw_process(argv, stdin, limit) == unset, limit

    def test_result_past_the_limit(self, capsys, tmp_path):
        argv, doc = LIMIT_CASES["graph-genus-4300-digits"]
        (tmp_path / "doc.json").write_text(doc)
        code, out, err = run_cli(capsys, [arg.format(path=tmp_path / "doc.json") for arg in argv])
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": f"a result integer has more than {INT_DIGITS} digits"}

    @pytest.mark.parametrize("limit", [640, 0, 10 * INT_DIGITS])
    @pytest.mark.parametrize(
        "argv,expected",
        [(["sign", "cvc-parity", "--params", "g=0,k=1,d=1"], 0),
         (["coeff", "--h", "129", "--c1b", "0", "--g", "0"], 1),
         (["coeff", "--h", "x"], 2)],
        ids=["exit-0", "exit-1", "exit-2"],
    )
    def test_main_restores_the_limit(self, capsys, argv, expected, limit):
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit)
        try:
            code = run_cli(capsys, argv)[0]
            assert (code, sys.get_int_max_str_digits()) == (expected, limit)
        finally:
            sys.set_int_max_str_digits(saved)


def _fresh_interpreter(code: str) -> list[str]:
    """Run ``code`` in a new interpreter; return the modules it loaded that
    are realgw modules, ``dataclasses`` or ``inspect``."""
    script = (
        "import sys\n_preloaded = set(sys.modules)\n" + code + "\nimport json\n"
        "print(json.dumps(sorted(m for m in set(sys.modules) - _preloaded\n"
        "    if m.startswith('realgw') or m in ('dataclasses', 'inspect'))))"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=_child_env(),
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


class TestLazyImports:
    """A CLI process imports only the layers its subcommand uses."""

    def test_sign_loads_signs_only(self):
        loaded = _fresh_interpreter(
            "from realgw.cli import main\n"
            "main(['sign', 'cvc-parity', '--params', 'g=0,k=1,d=1'])"
        )
        assert "realgw.signs" in loaded
        for layer in ("realgw.graphs", "realgw.multicover", "realgw.series", "realgw.verify"):
            assert layer not in loaded

    def test_coeff_does_not_load_graphs(self):
        loaded = _fresh_interpreter(
            "from realgw.cli import main\n"
            "main(['coeff', '--h', '2', '--c1b', '0', '--g', '1'])"
        )
        assert "realgw.multicover" in loaded
        for layer in ("realgw.graphs", "realgw.signs", "realgw.verify"):
            assert layer not in loaded

    @pytest.mark.parametrize(
        "argv",
        [
            ["coeff", "--h", "2", "--c1b", "0", "--g", "1"],
            ["transform", "--in", "{counts}"],
            ["invert", "--in", "{counts}"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_cover_commands_skip_series(self, tmp_path, argv):
        # a rational is written by str(Fraction): nothing needs realgw.series
        counts = tmp_path / "counts.json"
        counts.write_text('{"c1B":0,"convention":"sinh","E":{"0":"1/3"},"gw":{"0":"1/3"}}')
        argv = [arg.format(counts=counts) for arg in argv]
        loaded = _fresh_interpreter(
            "from realgw.cli import main\n"
            f"assert main({argv!r}) == 0"
        )
        assert "realgw.multicover" in loaded and "realgw.series" not in loaded

    def test_verify_loads_multicover_only_for_sin_vs_sinh(self):
        loaded = _fresh_interpreter(
            "from realgw.cli import main\n"
            "main(['verify', 'binomial_parity'])"
        )
        assert "realgw.verify" in loaded and "realgw.multicover" not in loaded
        loaded = _fresh_interpreter(
            "from realgw.cli import main\n"
            "main(['verify', 'sin_vs_sinh'])"
        )
        assert "realgw.multicover" in loaded

    @pytest.mark.parametrize(
        "argv",
        [
            ["coeff", "--h", "2", "--c1b", "0", "--g", "1"],
            ["sign", "cvc-parity", "--params", "g=0,k=1,d=1"],
            ["dim", "--g", "0", "--ell", "1", "--n", "3", "--c1b", "4"],
            ["transform", "--in", "{counts}"],
            ["graph-check", "--seeds", "1..3"],
            ["graph-check", "--in", "{graph}"],
            ["verify", "binomial_parity"],
        ],
        ids=lambda argv: " ".join(argv[:2]),
    )
    def test_no_dataclasses_or_inspect(self, tmp_path, argv):
        # The startup budget: no subcommand imports dataclasses or inspect.
        counts, graph = tmp_path / "counts.json", tmp_path / "graph.json"
        counts.write_text('{"c1B":0,"convention":"sinh","E":{"0":"1","2":"1"}}')
        graph.write_text(json.dumps(VALID_GRAPH))
        argv = [arg.format(counts=counts, graph=graph) for arg in argv]
        loaded = _fresh_interpreter(
            "from realgw.cli import main\n"
            f"assert main({argv!r}) == 0"
        )
        assert "dataclasses" not in loaded and "inspect" not in loaded
        assert any(m.startswith("realgw.") and m != "realgw.cli" for m in loaded)

    @pytest.mark.parametrize(
        "argv", [["graph-check", "--seeds", "1..3"], ["transform", "--in", "{counts}"]],
        ids=lambda argv: argv[0],
    )
    def test_no_signs_without_sign(self, tmp_path, argv):
        counts = tmp_path / "counts.json"
        counts.write_text('{"c1B":0,"convention":"sinh","E":{"0":"1"}}')
        argv = [arg.format(counts=counts) for arg in argv]
        loaded = _fresh_interpreter(
            "from realgw.cli import main\n"
            f"assert main({argv!r}) == 0"
        )
        assert "realgw.signs" not in loaded

    @pytest.mark.parametrize(
        "command,argument,ids",
        [("sign", "predicate", sorted(PREDICATES)), ("verify", "identity", list(ALL_CHECKS))],
    )
    def test_help_lists_the_ids(self, capsys, monkeypatch, command, argument, ids):
        monkeypatch.setenv("COLUMNS", "1000")  # one line per argument
        code, out, err = run_cli(capsys, [command, "-h"])
        assert (code, err) == (0, "")
        (line,) = [line for line in out.splitlines() if line.startswith(f"  {argument} ")]
        assert line.split(None, 1)[1] == ", ".join(ids)

    @pytest.mark.parametrize(
        "argv",
        [
            ["sign", "cvc-parity", "--params", "g=0,k=1,d=1"],
            ["dim", "--g", "0", "--ell", "1", "--n", "3", "--c1b", "4"],
            ["verify", "binomial_parity"],
            ["graph-check", "--seeds", "1..3"],
            ["-h"],
            ["coeff", "--h", "2", "--c1b", "0", "--g", "1"],
            ["verify", "sin_vs_sinh"],
        ],
        ids=lambda argv: " ".join(argv[:2]),
    )
    def test_no_schemas_without_a_document(self, argv):
        loaded = _fresh_interpreter(
            "from realgw.cli import main\n"
            f"assert main({argv!r}) == 0"
        )
        assert "realgw.schemas" not in loaded

    @pytest.mark.parametrize(
        "argv",
        [
            ["sign", "nope"],
            ["coeff", "--h", "200", "--c1b", "0", "--g", "0"],
            ["graph-check", "--bounds", "max_n=1000"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_refusals_load_no_schemas(self, argv):
        # a refusal words its value with realgw._shown, loaded with the package
        loaded = _fresh_interpreter(
            "from realgw.cli import main\n"
            f"assert main({argv!r}) == 1"
        )
        assert "realgw.schemas" not in loaded

    def test_top_level_help_loads_the_cli_only(self):
        loaded = _fresh_interpreter(
            "from realgw.cli import main\n"
            "assert main(['-h']) == 0"
        )
        assert loaded == ["realgw", "realgw.cli"]

    @pytest.mark.parametrize(
        "argv", [["graph-check", "--in", "{graph}"], ["transform", "--in", "{counts}"]],
        ids=lambda argv: argv[0],
    )
    def test_a_document_loads_schemas(self, tmp_path, argv):
        counts, graph = tmp_path / "counts.json", tmp_path / "graph.json"
        counts.write_text('{"c1B":0,"convention":"sinh","E":{"0":"1"}}')
        graph.write_text(json.dumps(VALID_GRAPH))
        argv = [arg.format(counts=counts, graph=graph) for arg in argv]
        loaded = _fresh_interpreter(
            "from realgw.cli import main\n"
            f"assert main({argv!r}) == 0"
        )
        assert "realgw.schemas" in loaded

    def test_verify_help_lists_identities(self):
        loaded = _fresh_interpreter(
            "from realgw.cli import main\n"
            "main(['verify', '--help'])"
        )
        assert "realgw.verify" in loaded

    def test_package_names_resolve(self):
        loaded = _fresh_interpreter(
            "import realgw\n"
            "from realgw import Convention, Route\n"
            "assert Convention.SINH is realgw.multicover.Convention.SINH\n"
            "assert callable(realgw.multicover.forward_transform)\n"
            "assert sorted(realgw.__all__) == realgw.__all__\n"
            "assert all(hasattr(realgw, name) for name in realgw.__all__)\n"
        )
        assert {"realgw.multicover", "realgw.signs"} <= set(loaded)
        assert "realgw.series" not in loaded

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError):
            realgw.no_such_name
