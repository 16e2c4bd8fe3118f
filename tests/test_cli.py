"""CLI surface: subcommands, exit codes, JSON output stability."""

import argparse
import collections
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from json.encoder import encode_basestring
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticelab import cli
from latticelab import fixtures as fx
from latticelab import monoid as monoid_module
from latticelab import properties
from latticelab.abelian import AbelianGroup, _subgroup_lattice, induced_monoid
from latticelab.cli import _name_maps_json, run
from latticelab.fixtures import FIXTURE_NAMES, fixture_json
from latticelab.lattice import (build_lattice, direct_product, lattice_from_json,
                                lattice_to_json)
from latticelab.monoid import explicit_monoid, full_monoid
from latticelab.morphisms import morphism_to_json, validate_linear
from latticelab.properties import NO_MONOID, PROPERTY_NAMES

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SRC = Path(__file__).resolve().parent.parent / "src"


def run_capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def run_module(argv, *flags):
    """`python [flags] -m latticelab argv` in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *flags, "-m", "latticelab", *argv],
                          capture_output=True, text=True, env=env)


def product_json(name):
    """Lattice JSON of a product such as "m3xc4" of chains "c<k>", the
    diamond "m3" and the square "b2", as the benchmark writes it: elements
    are factor names joined by dots, and each cover moves one coordinate
    along a cover of its factor."""
    def factor(spec):
        if spec == "b2":
            return ["0", "a", "b", "1"], [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")]
        if spec == "m3":
            atoms = ["a0", "a1", "a2"]
            return ["0", *atoms, "1"], [("0", a) for a in atoms] + [(a, "1") for a in atoms]
        names = [str(i) for i in range(int(spec[1:]))]
        return names, list(zip(names, names[1:]))

    factors = [factor(spec) for spec in name.split("x")]
    coords = [()]
    for fnames, _ in factors:
        coords = [c + (i,) for c in coords for i in range(len(fnames))]
    ups = []
    for fnames, fcovers in factors:
        up: dict[int, list[int]] = {}
        for lo, hi in fcovers:
            up.setdefault(fnames.index(lo), []).append(fnames.index(hi))
        ups.append(up)

    def label(c):
        return ".".join(factors[k][0][i] for k, i in enumerate(c))

    covers = [[label(c), label(c[:k] + (j,) + c[k + 1:])]
              for c in coords for k in range(len(factors)) for j in ups[k].get(c[k], ())]
    return json.dumps({"name": name, "elements": [label(c) for c in coords],
                       "covers": covers}) + "\n"


def test_repo_fixtures_match_packaged():
    for name in FIXTURE_NAMES:
        assert (FIXTURES / f"{name}.json").read_text() == fixture_json(name)


class TestValidate:
    def test_valid(self, capsys):
        code, out = run_capture(capsys, ["validate", str(FIXTURES / "c3.json")])
        assert code == 0
        assert "valid lattice 'c3'" in out

    def test_missing_file_is_usage_error(self, capsys):
        code = run(["validate", str(FIXTURES / "nope.json")])
        assert code == 2

    def test_invalid_lattice(self, tmp_path, capsys):
        bad = tmp_path / "v.json"
        bad.write_text(json.dumps({
            "name": "v", "elements": ["a", "b", "c"],
            "covers": [["a", "b"], ["a", "c"]]}))
        code, out = run_capture(capsys, ["validate", str(bad)])
        assert code == 1
        assert "invalid" in out

    def test_unknown_flag_rejected(self):
        assert run(["validate", "--bogus", "x.json"]) == 2


class TestAnalyze:
    def test_excip_cip_true_rickart_false(self, capsys):
        code, out = run_capture(capsys, [
            "--json", "analyze", str(FIXTURES / "excip.json"),
            "--monoid", "full", "--props", "cip,rickart"])
        assert code == 1  # a property failed
        doc = json.loads(out)
        results = {r["property"]: r for r in doc["results"]}
        assert results["cip"]["holds"] is True
        assert results["rickart"]["holds"] is False

    def test_all_props_run(self, capsys):
        code, out = run_capture(capsys, [
            "--json", "analyze", str(FIXTURES / "b2.json"), "--props", "all"])
        assert code == 0
        doc = json.loads(out)
        assert len(doc["results"]) > 15
        assert all(r["holds"] for r in doc["results"])

    # the calls of `analyze --props all` into each checker, by its name in
    # latticelab.properties: one per property it decides, and one more into
    # check_rickart_family from check_rickpix
    CHECKER_CALLS = {"is_modular": 1, "is_boolean": 1, "check_rickart_family": 5,
                     "check_summand_property": 4, "check_condition": 4,
                     "check_nonsingularity": 4, "check_retractable": 1, "check_rickpix": 1}

    def test_all_props_reach_each_checker_by_its_module_name(self, monkeypatch, capsys):
        """`check_property` looks each checker up in latticelab.properties
        when it calls it, so a wrapper bound there, as a tracer binds one,
        counts every call of `analyze --props all`."""
        calls = collections.Counter()
        for name in self.CHECKER_CALLS:
            def counted(*args, _name=name, _fn=getattr(properties, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(properties, name, counted)
        assert run(["analyze", str(FIXTURES / "b2.json"), "--props", "all"]) == 0
        capsys.readouterr()
        assert calls == self.CHECKER_CALLS

    # sha256 of `--json analyze fixtures/<f>.json --props all --monoid full`
    PINNED = {
        "b2": "7bd85ee139aee3e1cef5bb60fbf202c0280e53985e1548517c8bedbec0f4457b",
        "b3": "bfdd4c7cb319b5a2b0a3ca90a9da6952092c5514a6090a15ef93f9e677a84479",
        "c2": "490c5530c543f264fb4ed30fff59a6b7ff125467742c1f14e8f3a606ac2a4647",
        "c3": "fa121d131e8c1604e4256bba990564544fda1a9214d419d3361948872355f788",
        "excip": "491289a84935d0b8e2963a57c3a9f30ceea41a04651ae03bd19bc9ede0188675",
        "m3": "4cbd773a5a6ae245a0bfd95031672059760a896f7bc27191f4373f0337699be8",
    }

    def test_output_is_byte_stable(self, capsys):
        args = ["--json", "analyze", str(FIXTURES / "m3.json"),
                "--props", "rickart,baer,cip"]
        _, out1 = run_capture(capsys, args)
        _, out2 = run_capture(capsys, args)
        assert out1 == out2
        for name, digest in self.PINNED.items():
            _, out = run_capture(capsys, [
                "--json", "analyze", str(FIXTURES / f"{name}.json"),
                "--props", "all", "--monoid", "full"])
            assert hashlib.sha256(out.encode()).hexdigest() == digest, name

    # sha256 of `--json analyze P --props all --monoid full` for the 12 to 20
    # element products P of the benchmark's cli workload (exit code 1 each)
    PINNED_PRODUCTS = {
        "c4xc5": "02fa47b1a7b4dd6b930bddba78b25a50f32533ae8c279b6c671b2ddb311a6c0b",
        "c3xc4": "e16dfb88f7143b40b89c76b394b188f7a189fed342a4fa49cd4de12bb541e3b5",
        "c2xc2xc3": "61768db8298ed038a0276fb7c03e130046bebd2f2232599ad69bc97b97a57bdb",
        "m3xc4": "4c663aabe94fb7b773ddf2411a0dec834809b510dedb2775eaeb08886359030a",
        "m3xb2": "e380bc4633c33974362ad53a1425391145b03669116a4f875c827023a981e8eb",
        "b2xc4": "129e9403f025aa1d945f3943cbc39079cc09b05902bea8024700407ae7c0e6fc",
    }

    @pytest.mark.parametrize("mode", ["in_process", "optimized_subprocess"])
    def test_product_outputs_are_pinned(self, mode, tmp_path, capsys):
        for name, digest in self.PINNED_PRODUCTS.items():
            path = tmp_path / f"{name}.json"
            path.write_text(product_json(name))
            argv = ["--json", "analyze", str(path), "--props", "all", "--monoid", "full"]
            if mode == "in_process":
                code, out = run_capture(capsys, argv)
            else:
                proc = run_module(argv, "-O")
                code, out = proc.returncode, proc.stdout
            assert (code, hashlib.sha256(out.encode()).hexdigest()) == (1, digest), name

    # (exit code, sha256 of the "results" list) for `--json analyze
    # fixtures/<f>.json --props all --monoid <generated, with projections>`
    PINNED_GENERATED = {
        "b2": (0, "f6aea7da87bf1a72d4284f408f332af191e47fceccfb63f221694a3d6b1660b6"),
        "b3": (0, "1aba779579370907c2131ecd755aa5777899fe4730551bb39613d04a0df876ce"),
        "c2": (0, "3652d6e8436293b1106f6bd0c5ea671943ddac8b87bb6361b85242f130f541cb"),
        "c3": (1, "7ef7695b8448312aaac8340e5b9927b81769b7997065ab97f367dfe7ac633d96"),
        "excip": (1, "b93fa3e02cb802a2a4d56fb7c36773d697acacb373aa9e0877935e39ca99edf4"),
        "m3": (1, "5be3d31ae4b0276b7aa5a6e59428af7cf253ee5cd39e5780840fbdaf716ed62b"),
        "n5": (2, None),
    }

    @pytest.mark.parametrize("name", sorted(PINNED_GENERATED))
    def test_generated_monoid_results_are_pinned(self, name, tmp_path, capsys):
        spec = tmp_path / "monoid.json"
        spec.write_text(json.dumps({"kind": "generated", "with_projections": True}))
        code, out = run_capture(capsys, [
            "--json", "analyze", str(FIXTURES / f"{name}.json"),
            "--props", "all", "--monoid", str(spec)])
        digest = None
        if code != 2:
            results = json.loads(out)["results"]
            digest = hashlib.sha256(json.dumps(
                results, indent=2, ensure_ascii=False).encode()).hexdigest()
        assert (code, digest) == self.PINNED_GENERATED[name]

    # (exit code, sha256 of the "results" list) on b2 x c3, where md2 and
    # mc2 fail: with the full monoid, and with a monoid generated by two maps
    # and no projections, whose md2 witness is not the first iso's composite
    PINNED_PRODUCT = {
        "full": (1, "dade9c9aadfec7b41aa5b4759c29df9ecd5c8213bffa8eced27b53e9346543ee"),
        "generated": (1, "c51cdb2a0f64846134d8a5795b9045f2bb5d9418205c06f85d83954c19fce3fb"),
    }
    PRODUCT_GENERATORS = ((0, 0, 0, 3, 2, 3, 0, 3, 3, 2, 5, 5),
                          (0, 0, 2, 3, 0, 5, 2, 3, 5, 2, 3, 5))

    @pytest.mark.parametrize("monoid", sorted(PINNED_PRODUCT))
    def test_failing_condition_witnesses_are_pinned(self, monoid, tmp_path, capsys):
        P = direct_product([fx.build_fixture("b2"), fx.build_fixture("c3")]).lattice
        lattice = tmp_path / "product.json"
        lattice.write_text(lattice_to_json(P))
        argv = ["--json", "analyze", str(lattice)]
        if monoid == "full":
            argv += ["--props", "all", "--monoid", "full"]
        else:
            spec = tmp_path / "monoid.json"
            spec.write_text(json.dumps({"kind": "generated", "generators": [
                json.loads(morphism_to_json(validate_linear(P, P, t)))
                for t in self.PRODUCT_GENERATORS]}))
            argv += ["--props", "md2,mc2,k_co,t_co,k,t", "--monoid", str(spec)]
        code, out = run_capture(capsys, argv)
        results = json.loads(out)["results"]
        assert not next(r for r in results if r["property"] == "md2")["holds"]
        digest = hashlib.sha256(json.dumps(
            results, indent=2, ensure_ascii=False).encode()).hexdigest()
        assert (code, digest) == self.PINNED_PRODUCT[monoid]

    def test_mc2_witness_names_the_smallest_image_top(self, tmp_path, capsys):
        # the first failing complement x' has two non-complemented image tops
        P = direct_product([lattice_from_json((FIXTURES / f"{nm}.json").read_text())
                            for nm in ("c2", "c3", "c3")]).lattice
        lattice = tmp_path / "product.json"
        lattice.write_text(lattice_to_json(P))
        code, out = run_capture(capsys, [
            "--json", "analyze", str(lattice), "--props", "mc2", "--monoid", "full"])
        results = json.loads(out)["results"]
        assert results[0]["witness"]["a"] == "(0,0,n)"
        digest = hashlib.sha256(json.dumps(
            results, indent=2, ensure_ascii=False).encode()).hexdigest()
        assert (code, digest) == (
            1, "de87cce0f533fe7ca5cf7cf1ff9e0376a74598888365dd3909cd14aa7bdb9f04")

    def test_full_spec_ignores_fields_it_does_not_read(self, tmp_path, capsys):
        spec = tmp_path / "monoid.json"
        spec.write_text(json.dumps({"kind": "full", "generators": []}))
        argv = ["--json", "analyze", str(FIXTURES / "excip.json"), "--props", "all"]
        code, out = run_capture(capsys, argv + ["--monoid", "full"])
        spec_code, spec_out = run_capture(capsys, argv + ["--monoid", str(spec)])
        assert spec_code == code
        assert json.loads(spec_out)["results"] == json.loads(out)["results"]

    def test_unknown_prop(self, capsys):
        assert run(["analyze", str(FIXTURES / "c3.json"), "--props", "zzz"]) == 2

    def test_monoid_spec_file(self, tmp_path, capsys):
        spec = tmp_path / "monoid.json"
        spec.write_text(json.dumps({
            "kind": "generated",
            "generators": [json.loads(
                (FIXTURES / "fig1-morphism.json").read_text())],
            "with_projections": False}))
        code, out = run_capture(capsys, [
            "--json", "analyze", str(FIXTURES / "c3.json"),
            "--monoid", str(spec), "--props", "rickart"])
        assert code == 1
        doc = json.loads(out)
        assert doc["results"][0]["holds"] is False


class TestMalformedInput:
    """Bad input files exit 2 with one error line, never a traceback."""

    def run_error(self, capsys, argv):
        code = run(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err
        return err

    def test_string_cover_rejected(self, tmp_path, capsys):
        bad = tmp_path / "c.json"
        bad.write_text(json.dumps(
            {"name": "c", "elements": ["0", "1"], "covers": ["01"]}))
        self.run_error(capsys, ["validate", str(bad)])

    def test_string_elements_rejected(self, tmp_path, capsys):
        bad = tmp_path / "c.json"
        bad.write_text(json.dumps(
            {"name": "c", "elements": "01", "covers": [["0", "1"]]}))
        self.run_error(capsys, ["validate", str(bad)])

    def test_non_string_name_rejected(self, tmp_path, capsys):
        bad = tmp_path / "c.json"
        bad.write_text(json.dumps(
            {"name": ["x"], "elements": ["0", "1"], "covers": [["0", "1"]]}))
        self.run_error(capsys, ["validate", str(bad)])

    def test_list_element_name_rejected(self, tmp_path, capsys):
        bad = tmp_path / "c.json"
        bad.write_text(json.dumps(
            {"name": "c", "elements": [["0"], "1"], "covers": []}))
        self.run_error(capsys, ["validate", str(bad)])

    @pytest.mark.parametrize("command", ["validate", "analyze"])
    def test_deeply_nested_lattice_file(self, tmp_path, capsys, command):
        bad = tmp_path / "deep.json"
        bad.write_text("[" * 100_000 + "]" * 100_000)
        self.run_error(capsys, [command, str(bad)])

    def test_deeply_nested_monoid_spec(self, tmp_path, capsys):
        path = tmp_path / "monoid.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        self.run_error(capsys, [
            "analyze", str(FIXTURES / "c3.json"), "--monoid", str(path),
            "--props", "rickart"])

    @pytest.mark.parametrize("field", ["monoid", "cover"])
    def test_nested_input_gives_a_short_error(self, tmp_path, field):
        # a fresh interpreter parses 980 levels, which a test's stack may not
        nested = "[" * 980 + "]" * 980
        lattice = FIXTURES / "c3.json"
        argv = ["analyze", "--props", "rickart"]
        if field == "monoid":
            spec = tmp_path / "monoid.json"
            spec.write_text(nested)
            argv += ["--monoid", str(spec)]
        else:
            lattice = tmp_path / "deep.json"
            lattice.write_text('{"name": "c", "elements": ["0", "1"], '
                               f'"covers": {nested}}}')
        proc = run_module(argv + [str(lattice)])
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert len(lines[0]) < 200

    def spec_run(self, tmp_path, capsys, spec):
        path = tmp_path / "monoid.json"
        path.write_text(json.dumps(spec))
        return self.run_error(capsys, [
            "analyze", str(FIXTURES / "c3.json"), "--monoid", str(path),
            "--props", "rickart"])

    def test_generator_with_unknown_codomain_name(self, tmp_path, capsys):
        err = self.spec_run(tmp_path, capsys, {"kind": "generated", "generators": [
            {"domain": "c3", "codomain": "c3",
             "map": {"0": "0", "n": "0", "1": "nope"}}]})
        assert "'nope'" in err

    def test_generator_that_is_not_an_object(self, tmp_path, capsys):
        self.spec_run(tmp_path, capsys, {"kind": "generated", "generators": [7]})

    def test_generators_that_are_not_a_list(self, tmp_path, capsys):
        self.spec_run(tmp_path, capsys, {"kind": "explicit", "members": "x"})

    def test_with_projections_must_be_a_boolean(self, tmp_path, capsys):
        for value in ("false", 0, None):
            path = tmp_path / "monoid.json"
            path.write_text(json.dumps({"kind": "generated", "generators": [],
                                        "with_projections": value}))
            err = self.run_error(capsys, [
                "analyze", str(FIXTURES / "b2.json"), "--monoid", str(path),
                "--props", "rickart"])
            assert "with_projections" in err

    def test_generated_monoid_over_the_member_cap(self, tmp_path, capsys):
        lattice = tmp_path / "m7.json"
        lattice.write_text(lattice_to_json(fx.mk(7)))
        atoms = [f"a{i}" for i in range(7)]
        gens = [{"domain": "m7", "codomain": "m7",
                 "map": {"0": "0", "1": "1",
                         **{a: atoms[p] for a, p in zip(atoms, perm)}}}
                for perm in ([1, 0, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6, 0])]
        path = tmp_path / "monoid.json"
        path.write_text(json.dumps({"kind": "generated", "generators": gens}))
        err = self.run_error(capsys, [
            "analyze", str(lattice), "--monoid", str(path), "--props", "rickart"])
        assert "5000" in err

    def test_explicit_monoid_over_the_member_cap(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(monoid_module, "MAX_GENERATED_MEMBERS", 2)
        docs = [json.loads(morphism_to_json(phi))
                for phi in full_monoid(fx.build_fixture("c3"))]
        for members in (docs, [7, 7, 7]):
            err = self.spec_run(tmp_path, capsys, {"kind": "explicit", "members": members})
            assert err == "error: 3 explicit members exceeds cap 2\n"

    def test_spec_that_is_not_an_object(self, tmp_path, capsys):
        self.spec_run(tmp_path, capsys, ["generated"])

    @pytest.mark.parametrize("corpus", ["missing", "file"])
    def test_corpus_without_lattices(self, tmp_path, capsys, corpus):
        path = tmp_path / "nowhere" if corpus == "missing" else FIXTURES.parent / "README.md"
        self.run_error(capsys, ["theorems", "--corpus", str(path)])

    def test_empty_analyze_props(self, capsys):
        self.run_error(capsys, ["analyze", str(FIXTURES / "c3.json"), "--props", ","])

    def test_empty_module_props(self, capsys):
        self.run_error(capsys, ["module", "--group", "4", "--props", ","])

    def test_threads_flag_is_gone(self, capsys):
        assert run(["--threads", "2", "validate", str(FIXTURES / "c3.json")]) == 2

    @pytest.mark.parametrize("spec", [",", "2,,2", "4,", ""])
    def test_group_spec_with_an_empty_field(self, capsys, spec):
        self.run_error(capsys, ["module", "--group", spec])

    @pytest.mark.parametrize("spec", ["1_6", "+4", "\u0664", "2,\uff14"])
    def test_group_spec_field_that_is_not_ascii_digits(self, capsys, spec):
        err = self.run_error(capsys, ["module", "--group", spec])
        assert err.count("\n") == 1 and "not a decimal number" in err

    @pytest.mark.parametrize("monoid", ["full", "generated"])
    def test_monoid_on_a_non_modular_lattice(self, tmp_path, capsys, monoid):
        if monoid == "generated":
            monoid = tmp_path / "monoid.json"
            monoid.write_text(json.dumps({"kind": "generated", "with_projections": False}))
        err = self.run_error(capsys, [
            "analyze", str(FIXTURES / "n5.json"), "--monoid", str(monoid),
            "--props", "md2,mc2,k_co,t_co"])
        assert len(err.splitlines()) == 1
        assert err.startswith("error: n5 is not modular: ")

    @pytest.mark.parametrize("spec", ["missing", "invalid json", "bogus kind"])
    def test_explicit_monoid_file_is_read_whatever_the_props(self, tmp_path, capsys, spec):
        path = tmp_path / "monoid.json"
        if spec == "invalid json":
            path.write_text("{kind")
        elif spec == "bogus kind":
            path.write_text(json.dumps({"kind": "bogus"}))
        code = run(["analyze", str(FIXTURES / "c3.json"), "--monoid", str(path),
                    "--props", "modular,cip"])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_explicit_monoid_file_on_a_non_modular_lattice(self, tmp_path, capsys):
        path = tmp_path / "monoid.json"
        path.write_text(json.dumps({"kind": "generated", "with_projections": False}))
        err = self.run_error(capsys, [
            "analyze", str(FIXTURES / "n5.json"), "--monoid", str(path),
            "--props", "modular"])
        assert len(err.splitlines()) == 1
        assert err.startswith("error: n5 is not modular: ")

    @pytest.mark.parametrize("prop", PROPERTY_NAMES)
    def test_each_property_alone_on_a_non_modular_lattice(self, capsys, prop):
        """The default full monoid is built only for the properties that read
        it, and on n5 the build fails. The others still run, except boolean,
        which needs the modular law."""
        code = run(["analyze", str(FIXTURES / "n5.json"), "--props", prop])
        out, err = capsys.readouterr()
        if prop not in NO_MONOID or prop == "boolean":
            assert (code, out) == (2, "")
            assert len(err.splitlines()) == 1
            assert err.startswith("error: n5 is not modular: ")
        else:
            assert code in (0, 1) and err == ""


NAMES = ("0", "a", "b", "c", "d", "1")
JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2) | st.sampled_from(NAMES + ("", "full")),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.sampled_from(NAMES), kids,
                                                              max_size=3),
    max_leaves=5)


def maybe_junk(draw, value):
    """The value, or now and then a random JSON value in its place."""
    return draw(JUNK) if draw(st.integers(0, 9)) == 0 else value


@st.composite
def lattice_and_spec(draw):
    """A small lattice document and a monoid spec naming its elements.

    Covers go from earlier to later elements, often through a bottom and a
    top, so many documents are lattices; any field may be replaced by junk.
    """
    elements = draw(st.lists(st.sampled_from(NAMES), max_size=6,
                             unique=draw(st.integers(0, 9)) > 0))
    pairs = [[elements[i], elements[j]] for i in range(len(elements))
             for j in range(i + 1, len(elements))]
    covers = draw(st.lists(st.sampled_from(pairs), max_size=6)) if pairs else []
    if elements and draw(st.booleans()):
        covers += [[elements[0], e] for e in elements[1:-1]]
        covers += [[e, elements[-1]] for e in elements[1:-1]]
    name = "L"
    doc = {"name": maybe_junk(draw, name), "elements": maybe_junk(draw, elements),
           "covers": maybe_junk(draw, covers)}
    targets = st.sampled_from(elements) if elements else JUNK
    morphisms = st.builds(
        lambda m: maybe_junk(draw, {"domain": name, "codomain": name, "map": m}),
        st.fixed_dictionaries({e: targets for e in elements}))
    kind = draw(st.sampled_from(["full", "generated", "explicit", "other"]))
    spec = {"kind": kind, "generators": draw(st.lists(morphisms, max_size=2)),
            "members": draw(st.lists(morphisms, max_size=3)),
            "with_projections": maybe_junk(draw, draw(st.booleans()))}
    if kind == "full":
        spec = {"kind": "full"}
    return maybe_junk(draw, doc), maybe_junk(draw, spec)


@settings(max_examples=200, deadline=None)
@given(case=lattice_and_spec())
def test_random_documents_never_escape_the_exit_codes(case):
    doc, spec = case
    with tempfile.TemporaryDirectory() as tmp:
        lattice_path = Path(tmp) / "lattice.json"
        spec_path = Path(tmp) / "monoid.json"
        lattice_path.write_text(json.dumps(doc))
        spec_path.write_text(json.dumps(spec))
        for argv in (["validate", str(lattice_path)],
                     ["analyze", str(lattice_path), "--props", "all",
                      "--monoid", str(spec_path)],
                     ["endos", str(lattice_path)],
                     ["decompose", str(lattice_path)]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(argv)
            assert code in (0, 1, 2), (argv, code)


class TestEndos:
    def test_count(self, capsys):
        code, out = run_capture(capsys, ["endos", str(FIXTURES / "c3.json")])
        assert code == 0
        assert out.strip() == "3"

    def test_list(self, capsys):
        code, out = run_capture(capsys, [
            "--json", "endos", str(FIXTURES / "c3.json"), "--list"])
        assert json.loads(out) == [
            {"0": "0", "n": "0", "1": "0"},
            {"0": "0", "n": "0", "1": "n"},
            {"0": "0", "n": "n", "1": "1"},
        ]

    def test_count_flag_is_gone(self, capsys):
        assert run(["endos", str(FIXTURES / "c3.json"), "--count"]) == 2
        assert "--count" in capsys.readouterr().err

    def test_codomain(self, capsys):
        # into the 3-chain only the zero map and the atom-valued collapse
        # qualify; 0->0, 1->1 fails the interval-isomorphism clause
        code, out = run_capture(capsys, [
            "endos", str(FIXTURES / "c2.json"),
            "--codomain", str(FIXTURES / "c3.json")])
        assert code == 0
        assert out.strip() == "2"


class TestDecomposeProductExport:
    def test_decompose(self, capsys):
        code, out = run_capture(capsys, [
            "--json", "decompose", str(FIXTURES / "b3.json")])
        assert code == 0
        doc = json.loads(out)
        assert sorted(doc["blocks"]) == ["a", "b", "c"]

    def test_product_writes_file(self, tmp_path, capsys):
        out_path = tmp_path / "prod.json"
        code, _ = run_capture(capsys, [
            "product", str(FIXTURES / "c2.json"), str(FIXTURES / "c3.json"),
            "-o", str(out_path)])
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert len(doc["elements"]) == 6

    def test_product_with_names_that_read_alike_writes_nothing(self, tmp_path, capsys):
        factors = []
        for name, mid in (("E", "1,0"), ("F", "0,1")):
            path = tmp_path / f"{name}.json"
            path.write_text(lattice_to_json(
                build_lattice(["0", mid, "1"], [("0", mid), (mid, "1")], name=name)))
            factors.append(str(path))
        out_path = tmp_path / "P.json"
        code = run(["product", *factors, "-o", str(out_path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: product element name '(1,0,1)' is repeated\n"
        assert not out_path.exists()

    def test_export_dot(self, tmp_path, capsys):
        out_path = tmp_path / "c3.dot"
        code, _ = run_capture(capsys, [
            "export-dot", str(FIXTURES / "c3.json"), "-o", str(out_path)])
        assert code == 0
        text = out_path.read_text()
        assert text.startswith('digraph "c3"')
        assert text.count("->") == 2


class TestModule:
    def test_group_four(self, capsys):
        code, out = run_capture(capsys, [
            "--json", "module", "--group", "4", "--props", "rickart"])
        assert code == 1
        doc = json.loads(out)
        assert doc["induced_monoid_size"] == 3
        assert doc["results"][0]["holds"] is False

    def test_klein(self, capsys):
        code, out = run_capture(capsys, ["--json", "module", "--group", "2,2"])
        assert code == 0
        doc = json.loads(out)
        assert all(r["holds"] for r in doc["results"])

    # (exit code, sha256 of `--json module --group G`, sha256 of `module
    # --group G`), as written when "induced_maps" went through json.dumps
    OUTPUT_DIGESTS = {
        "1": (0, "997995c6b75f593819e6e7d6de8900f2178ec1a93b1ef2d1725906059a09393e",
              "0957d86b90d929f9bea131a6c3051a27437fb17a05873296656bf2f11ab41597"),
        "4": (1, "2bb2b48a357a9ac310b1483a78b937ef64418a72aa209abae0aa2b8b68a4c92c",
              "98f9142b28362ae510286bd7ba374d3bfe87637f47d4423a55e25ba110e959fd"),
        "2,2": (0, "ae9b9b965ced070b2208a79023b6eb201a3fde86fd7a701077fe0f92ae95d1e3",
                "58be44c4305548bde6744f3e8dedabbbe4ed0cb7eb88913260c93942548f6bcf"),
        "2,2,2": (0, "3cebb9818c00e3badae482b19df32010cba2b2d6210179d32e0c9909ff1ce3d0",
                  "ad1cd12a071d6f23994dcbc785d273aa80c5ec045cc7e36d37629dafd6ca819a"),
        "3,9": (1, "81bb5c03f1f443dd10d3892a4e96e2e5bbf1cb8f5b6886c12896f782e60b96ef",
                "121d0942a05d5dba47763468cba8d513f54ad5125485088ed6e5b8112f8b3947"),
        "4,4": (1, "196f71ee0caa034b0d72d79c100ab120384d69e4a71dd749d071c7c3620b2bd9",
                "12ce9485557ecbbddeb449c9d3d63ea3120a188aea6737e0d53479658160b015"),
        "2,2,4": (1, "997e6b8bef1cb5217559ee0f5d41431a683384ab003c605dd8372fb3744a4c51",
                  "5a7dfe62bfffe1e0696e24d7d8618bd0359a0e91a1f2866f365b10f0eaa960b6"),
        "2,4,4": (1, "b142d8128ee8da2241880dbd72c42b72997422de09d00d0251c6ab7e63e04c36",
                  "bde792fdb0ad2c0650c76c5e577ee469a66c0855ad5e8e540289cdcc9fd9a5f1"),
    }

    @pytest.mark.parametrize("group", list(OUTPUT_DIGESTS))
    def test_output_is_byte_stable(self, group, capsys):
        code, json_digest, text_digest = self.OUTPUT_DIGESTS[group]
        for argv, digest in ((["--json", "module", "--group", group], json_digest),
                             (["module", "--group", group], text_digest)):
            got, out = run_capture(capsys, argv)
            assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest), argv

    def test_golden_run_under_optimization(self):
        proc = run_module(["--json", "module", "--group", "2,2,4"], "-O")
        assert proc.returncode == 1
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == \
            self.OUTPUT_DIGESTS["2,2,4"][1]

    def test_above_the_endomorphism_cap_builds_no_subgroup_lattice(self, capsys):
        _subgroup_lattice.cache_clear()
        assert run(["module", "--group", "2,2,2,2,2"]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert _subgroup_lattice.cache_info().misses == 0


def name_maps_by_members(mono):
    """The per-member renderer: each name encoded once, each member's lines
    joined on their own, then the members joined."""
    names = [encode_basestring(nm) for nm in mono.lattice.names]
    lines = [[f"{x}: {y}" for y in names] for x in names]
    maps = (",\n      ".join([lx[y] for lx, y in zip(lines, phi.map)])
            for phi in mono.members)
    return "[\n    {\n      " + "\n    },\n    {\n      ".join(maps) + "\n    }\n  ]"


class TestNameMapsJson:
    """`module --json` renders "induced_maps" from the member tables; it must
    be what json.dumps writes for the members' name maps, one level deep."""

    @staticmethod
    def assert_renders_like_json_dumps(mono):
        got = _name_maps_json(mono)
        doc = json.dumps({"k": [phi.as_name_map() for phi in mono.members]},
                         indent=2, ensure_ascii=False)
        assert '{\n  "k": ' + got + "\n}" == doc
        assert got == name_maps_by_members(mono)

    @pytest.mark.parametrize("group", ["2", "2,2", "2,2,2", "2,4"])
    def test_induced_monoids(self, group):
        self.assert_renders_like_json_dumps(induced_monoid(AbelianGroup.from_spec(group)))

    def test_names_that_need_escaping(self):
        """A quote, a backslash and a non-ASCII letter among the names, on
        M3 and on the one-element lattice, whose one line opens and closes
        the list."""
        names = ["0", 'q"', "b\\", "é", "1"]
        covers = [("0", a) for a in names[1:4]] + [(a, "1") for a in names[1:4]]
        L = build_lattice(names, covers, name="esc")
        point = build_lattice(['"p"'], [], name="point")
        for lat in (L, point):
            mono = explicit_monoid(lat, full_monoid(lat).members)
            self.assert_renders_like_json_dumps(mono)


def test_cli_run_leaves_numpy_ma_unimported():
    """numpy 2 imports numpy.ma lazily, for one np.unique without
    return_index, return_inverse or return_counts; that import costs about
    25 ms once per process. A CLI run must not pay it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    probe = "import sys, numpy; print('numpy.ma' in sys.modules)"
    bare = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env)
    if bare.stdout.strip() == "True":
        pytest.skip("a bare `import numpy` already loads numpy.ma")
    code = ("import contextlib, io, sys\n"
            "from latticelab.cli import run\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    run(['analyze', {str(FIXTURES / 'm3.json')!r}, '--props', 'all'])\n"
            "    run(['module', '--group', '2,4'])\n"
            "print('numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env)
    assert (proc.returncode, proc.stdout.strip()) == (0, "False"), proc.stderr


def test_requests_import_nothing_the_cli_import_did_not():
    """Every module a request needs is imported with `latticelab.cli`, so no
    request pays for a first import: `module --group 2,4,4 --json` and
    run_conformance on the fixtures import nothing new. `locale` is the one
    exception: argparse loads it on first use."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = ("import contextlib, io, json, sys\n"
            "import latticelab.cli\n"
            "from latticelab import fixtures\n"
            "from latticelab.conformance import run_conformance\n"
            "before = set(sys.modules)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = latticelab.cli.run(['--json', 'module', '--group', '2,4,4'])\n"
            "report = run_conformance([fixtures.build_fixture(name)\n"
            "                          for name in fixtures.FIXTURE_NAMES])\n"
            "print(json.dumps([code, report.total_failures,\n"
            "                  sorted(set(sys.modules) - before)]))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    code, failures, imported = json.loads(proc.stdout.splitlines()[-1])
    assert (code, failures) == (1, 0)
    assert set(imported) <= {"locale", "_locale"}


class TestTheorems:
    def test_fixture_corpus(self, capsys):
        code, out = run_capture(capsys, [
            "--json", "theorems", "--checks", "kerpi,splits,lemmaret"])
        assert code == 0
        doc = json.loads(out)
        assert doc["lattice_count"] == 6
        assert all(c["fail"] == 0 for c in doc["checks"].values())

    def test_with_random(self, capsys):
        code, out = run_capture(capsys, [
            "--json", "theorems", "--random", "5", "--max-size", "5",
            "--seed", "9", "--checks", "kerpi,acc_rickart_eq_baer"])
        assert code == 0
        doc = json.loads(out)
        assert doc["lattice_count"] == 11
        assert doc["seed"] == 9

    def test_a_check_named_twice_runs_once(self, capsys):
        once = run_capture(capsys, ["theorems", "--checks", "rickpix"])
        twice = run_capture(capsys, ["theorems", "--checks", "rickpix,rickpix"])
        assert twice == once
        assert "rickpix: pass=6 fail=0 skip=0" in once[1]

    def test_negative_random_count_rejected(self, capsys):
        assert run(["theorems", "--random", "-3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "negative" in captured.err

    # 36 lattices of up to 9 elements (acceptance 4 stops at 8), 8 of them
    # with an opposite of another structure key; the run under -O shows that
    # no verdict rests on an assert
    @pytest.mark.parametrize("mode", ["in_process", "optimized_subprocess"])
    def test_golden_run_beyond_acceptance_4(self, mode, capsys):
        argv = ["--json", "theorems", "--random", "30", "--max-size", "10",
                "--seed", "7"]
        if mode == "in_process":
            code, out = run_capture(capsys, argv)
        else:
            proc = run_module(argv, "-O")
            code, out = proc.returncode, proc.stdout
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "79978768ac84848ff5d068de285a887659c038231488a13bc9050fdb1a009347"

    def test_corpus_dir(self, tmp_path, capsys):
        (tmp_path / "one.json").write_text(fixture_json("b2"))
        code, out = run_capture(capsys, [
            "--json", "theorems", "--corpus", str(tmp_path),
            "--checks", "kerpi"])
        assert code == 0
        assert json.loads(out)["lattice_count"] == 1



class TestListOptions:
    """`analyze --props`, `module --props` and `theorems --checks` parse the
    same way: fields are stripped, empty ones skipped, the first of a repeat
    kept; an unknown name or an empty selection exits 2."""

    C3 = str(FIXTURES / "c3.json")

    def assert_usage_error(self, capsys, argv, message):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err

    @pytest.mark.parametrize("argv", [
        ["analyze", C3, "--props", ""],
        ["analyze", C3, "--props", " , "],
        ["module", "--group", "4", "--props", ""],
        ["theorems", "--checks", ""],
        ["theorems", "--checks", ","],
    ])
    def test_empty_selection(self, capsys, argv):
        self.assert_usage_error(capsys, argv, "selected")

    @pytest.mark.parametrize("argv", [
        ["analyze", C3, "--props", "rickart,zzz"],
        ["module", "--group", "4", "--props", "rickart,zzz"],
        ["theorems", "--checks", "rickpix,zzz"],
    ])
    def test_unknown_name(self, capsys, argv):
        self.assert_usage_error(capsys, argv, "unknown")

    @pytest.mark.parametrize("head,plain,variants", [
        (["analyze", C3, "--props"], "rickart",
         ["rickart,", " rickart ,", "rickart,rickart", "RICKART,rickart"]),
        (["module", "--group", "4", "--props"], "rickart",
         ["rickart,", "rickart,,rickart", "Rickart, rickart"]),
        (["theorems", "--checks"], "rickpix",
         ["rickpix,", " rickpix"]),
    ])
    def test_empty_fields_and_repeats(self, capsys, head, plain, variants):
        want = run_capture(capsys, head + [plain])
        assert want[1].count(plain) == 1
        for variant in variants:
            assert run_capture(capsys, head + [variant]) == want, variant

    def test_module_reads_the_selection_before_the_group(self, capsys):
        """A bad --props exits 2 before any group is built, so it is the
        error reported for a group spec that is bad too."""
        self.assert_usage_error(capsys, ["module", "--group", "1,x", "--props", "zzz"],
                                "unknown module properties: ['zzz']")
        self.assert_usage_error(capsys, ["module", "--group", "1,x", "--props", ","],
                                "no module properties selected")

    def test_check_names_keep_their_case(self, capsys):
        code, out = run_capture(capsys, ["theorems", "--checks", "baercarK,dbaercarT"])
        assert code == 0
        assert "baercarK: pass=" in out and "dbaercarT: pass=" in out
        self.assert_usage_error(capsys, ["theorems", "--checks", "baercark"], "unknown")


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "latticelab.cli", "endos",
         str(FIXTURES / "c3.json")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "3"


class TestSharedParser:
    """`run` parses with one parser per process; no call leaves a trace in
    it that a later call could see."""

    def test_calls_in_one_process_match_fresh_processes(self, tmp_path, capsys,
                                                        monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # one help width in both processes
        m3 = str(FIXTURES / "m3.json")
        spec = tmp_path / "monoid.json"
        spec.write_text(json.dumps({"kind": "generated", "with_projections": True}))
        sequence = [
            ["--json", "analyze", m3],
            ["analyze", m3],
            ["analyze", m3, "--props", "c1", "--monoid", str(spec)],
            ["analyze", m3],
            ["module", "--group", "2", "--props", "zzz"],
            ["analyze", m3, "--bogus"],
            ["--help"],
            ["theorems", "--checks", "riccipssp"],
        ]
        got = []
        for argv in sequence:
            code = run(argv)
            captured = capsys.readouterr()
            got.append((code, captured.out, captured.err))
        fresh = []
        for argv in sequence:
            proc = run_module(argv)
            fresh.append((proc.returncode, proc.stdout, proc.stderr))
        assert [g[0] for g in got] == [0, 0, 0, 0, 2, 2, 0, 0]
        assert got[5][2].startswith("usage: latticelab ")
        assert got[5][2].endswith("error: unrecognized arguments: --bogus\n")
        assert got == fresh

    def test_two_calls_build_one_parser_and_rebind_nothing(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        cli.build_parser.cache_clear()
        try:
            before = dict(vars(cli))
            c3 = str(FIXTURES / "c3.json")
            assert run(["validate", c3]) == 0
            first = len(built)
            assert run(["--json", "validate", c3]) == 0
            after = dict(vars(cli))
        finally:
            cli.build_parser.cache_clear()
        capsys.readouterr()
        assert first > 0 and len(built) == first
        assert after.keys() == before.keys()
        assert [k for k in before if after[k] is not before[k]] == []
