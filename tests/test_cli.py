"""CLI surface: subcommands, exit codes, JSON output stability."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticelab import fixtures as fx
from latticelab.abelian import _subgroup_lattice
from latticelab.cli import run
from latticelab.fixtures import FIXTURE_NAMES, fixture_json
from latticelab.lattice import direct_product, lattice_from_json, lattice_to_json
from latticelab.morphisms import morphism_to_json, validate_linear

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
        P = direct_product([fx.b2(), fx.c3()]).lattice
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
        # the default full monoid is built only for properties that use it
        assert run(["analyze", str(FIXTURES / "n5.json"),
                    "--props", "modular,cip,csp,c1,d1"]) == 1
        # properties that need no monoid still run
        assert run(["analyze", str(FIXTURES / "n5.json"),
                    "--props", "modular,cip,csp,c1,d1"]) == 1


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

    def test_above_the_endomorphism_cap_builds_no_subgroup_lattice(self, capsys):
        _subgroup_lattice.cache_clear()
        assert run(["module", "--group", "2,2,2,2,2"]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert _subgroup_lattice.cache_info().misses == 0


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


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "latticelab.cli", "endos",
         str(FIXTURES / "c3.json")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "3"
