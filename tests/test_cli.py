import io
import json
import math
import re
from fractions import Fraction

import pytest

from wallx import selftest
from wallx.cli import (
    Config,
    _lie_terms,
    _name_map,
    build_invariant_table,
    build_monoid,
    build_stability,
    class_vector,
    main,
    parse_config,
)
from wallx.errors import ConfigError
from wallx.freelie import LieElement
from wallx.kclasses import quantum_integer
from wallx.ring import LaurentElement
from wallx.ucoeff import utilde_word_sum
from wallx.wallcross import FreeLieBackend, InvariantTable, wcf_rhs

F = Fraction
L = LaurentElement

DEMO = """{
  "classes": {"A": [1, 0], "B": [0, 1], "T": [1, 1]},
  "stabilities": {
    "before": {"A": ["0"], "B": ["-1"], "T": ["0"]},
    "after": {"A": ["0"], "B": ["1"], "T": ["0"]}
  },
  "chi": [[0, 3], [-3, 0]],
  "invariants": {"A": "a", "B": "b", "T": "t"}
}
"""


def demo_file(tmp_path, text=DEMO):
    path = tmp_path / "config.json"
    path.write_text(text)
    return str(path)


def run_machine(capsys, argv):
    code = main(argv + ["--format", "machine"])
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestConfigParsing:
    def test_scalar_and_array_slopes_agree(self):
        arrays = parse_config(
            '{"classes": {"A": [1]}, "stabilities": {"t": {"A": ["1/2"]}}}'
        )
        scalars = parse_config(
            '{"classes": {"A": [1]}, "stabilities": {"t": {"A": "2/4"}}}'
        )
        assert arrays == scalars
        assert arrays.stabilities["t"]["A"] == ("1/2",)

    def test_integer_slopes_and_infinities(self):
        cfg = parse_config(
            '{"classes": {"A": [1]},'
            ' "stabilities": {"t": {"A": [3, "inf", "-inf", "+inf"]}}}'
        )
        assert cfg.stabilities["t"]["A"] == ("3", "inf", "-inf", "inf")

    def test_invariant_values_canonicalized(self):
        cfg = parse_config(
            '{"classes": {"A": [1], "B": [2]}, "invariants": {"A": 4, "B": "6/4"}}'
        )
        assert cfg.invariants == {"A": "4", "B": "3/2"}
        table = build_invariant_table(cfg, build_monoid(cfg))
        assert table.value((1,)) == L.const(4)
        assert table.value((2,)) == L.const(F(3, 2))

    def test_bad_json_reports_line(self):
        with pytest.raises(ConfigError, match=r"line 2"):
            parse_config('{\n  "classes": oops\n}')

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config('{"classes": {"A": [1]}, "extra": 1}')

    def test_fr_section_refused_with_line(self, tmp_path, capsys):
        text = DEMO.replace('"invariants"', '"fr": {"A": 1},\n  "invariants"')
        line = text.splitlines().index('  "fr": {"A": 1},') + 1
        with pytest.raises(ConfigError) as caught:
            parse_config(text)
        assert str(caught.value).startswith(f"line {line}: unknown section 'fr'")
        argv = ["wallcross", demo_file(tmp_path, text), "--tau", "before",
                "--tau-prime", "after"]
        assert main(argv) == 2
        assert "unknown section 'fr'" in capsys.readouterr().err

    def test_classes_required(self):
        with pytest.raises(ConfigError, match="classes"):
            parse_config('{"stabilities": {}}')

    def test_mixed_dimension_rejected(self):
        with pytest.raises(ConfigError, match="dimension"):
            parse_config('{"classes": {"A": [1, 0], "B": [1]}}')

    def test_duplicate_vector_rejected(self):
        with pytest.raises(ConfigError, match="duplicates"):
            parse_config('{"classes": {"A": [1, 0], "B": [1, 0]}}')

    def test_nonpositive_mass_rejected(self):
        with pytest.raises(ConfigError, match="positive total mass"):
            parse_config('{"classes": {"A": [1, -1]}}')

    def test_float_rejected_everywhere(self):
        with pytest.raises(ConfigError, match="integer"):
            parse_config('{"classes": {"A": [1.5]}}')
        with pytest.raises(ConfigError, match="slope"):
            parse_config(
                '{"classes": {"A": [1]}, "stabilities": {"t": {"A": [0.5]}}}'
            )
        with pytest.raises(ConfigError, match="invariant"):
            parse_config('{"classes": {"A": [1]}, "invariants": {"A": 0.5}}')

    @pytest.mark.parametrize(
        "old, new, message",
        [
            (
                '"A": [1, 0]',
                '"A": [true, 0]',
                "line 2: class 'A' entry must be an integer, got True",
            ),
            ("[[0, 3]", "[[0, 3.0]", "line 7: chi entry must be an integer, got 3.0"),
            (
                '"chi"',
                '"o": {"A": 1, "B": 0.5, "T": 1},\n  "chi"',
                "line 7: o['B'] must be an integer, got 0.5",
            ),
        ],
        ids=["class", "chi", "o"],
    )
    def test_integer_fields_follow_the_integer_rule(self, old, new, message):
        text = DEMO.replace(old, new)
        assert text != DEMO
        with pytest.raises(ConfigError) as caught:
            parse_config(text)
        assert str(caught.value) == message

    def test_non_antisymmetric_chi_reports_line(self):
        text = DEMO.replace("[-3, 0]", "[3, 0]")
        expected_line = next(
            i for i, line in enumerate(text.splitlines(), 1) if '"chi"' in line
        )
        with pytest.raises(
            ConfigError, match=rf"line {expected_line}.*antisymmetric"
        ):
            parse_config(text)

    def test_chi_shape_checked(self):
        with pytest.raises(ConfigError, match="2x2"):
            parse_config('{"classes": {"A": [1, 0]}, "chi": [[0]]}')

    def test_unresolved_names_rejected(self):
        with pytest.raises(ConfigError, match="unknown class 'C'"):
            parse_config(
                '{"classes": {"A": [1]}, "stabilities": {"t": {"C": ["0"]}}}'
            )
        with pytest.raises(ConfigError, match="unknown class 'C'"):
            parse_config('{"classes": {"A": [1]}, "o": {"C": 1}}')
        with pytest.raises(ConfigError, match="unknown class 'C'"):
            parse_config('{"classes": {"A": [1]}, "invariants": {"C": "c"}}')

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigError, match="nonnegative"):
            parse_config('{"classes": {"A": [1]}, "o": {"A": -1}}')

    def test_partial_o_section_names_missing_classes(self):
        text = DEMO.replace('"invariants"', '"o": {"A": 1},\n  "invariants"')
        line = text.splitlines().index('  "o": {"A": 1},') + 1
        with pytest.raises(ConfigError) as caught:
            parse_config(text)
        assert str(caught.value) == (
            f"line {line}: o must give a count for every class; missing: B, T"
        )
        full = text.replace('"o": {"A": 1}', '"o": {"A": 1, "B": 0, "T": 1}')
        assert parse_config(full).o == {"A": 1, "B": 0, "T": 1}

    @pytest.mark.parametrize(
        "old, new, message",
        [
            (
                '"after": {"A": ["0"]',
                '"after": {"A": ["zero"]',
                "line 5: cannot parse slope entry 'zero'",
            ),
            (
                '"A": "a"',
                '"A": "a b"',
                "line 8: invariant 'a b' is neither a rational nor a symbol name",
            ),
        ],
        ids=["slope", "invariant"],
    )
    def test_line_hint_follows_the_key_path(self, old, new, message):
        # "A" first appears on line 2, in classes; the hint names the line of
        # the entry inside its own section and table.
        text = DEMO.replace(old, new)
        assert text != DEMO
        with pytest.raises(ConfigError) as caught:
            parse_config(text)
        assert str(caught.value) == message

    @pytest.mark.parametrize("section", ["stabilities", "o", "invariants"])
    def test_section_that_is_not_an_object(self, tmp_path, capsys, section):
        text = '{\n  "classes": {"A": [1]},\n  "%s": [1]\n}' % section
        message = f"line 3: {section} must be a JSON object"
        with pytest.raises(ConfigError) as caught:
            parse_config(text)
        assert str(caught.value) == message
        argv = ["ucoeff", demo_file(tmp_path, text), "--target", "A",
                "--tau", "t", "--tau-prime", "t"]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_bad_invariant_symbol(self):
        with pytest.raises(ConfigError, match="symbol"):
            parse_config('{"classes": {"A": [1]}, "invariants": {"A": "2x&"}}')

    def test_uniform_slope_length_enforced(self):
        with pytest.raises(ConfigError, match="entries"):
            parse_config(
                '{"classes": {"A": [1, 0], "B": [0, 1]},'
                ' "stabilities": {"t": {"A": ["0"], "B": ["1", "2"]}}}'
            )

    def test_builders(self):
        cfg = parse_config(DEMO)
        monoid = build_monoid(cfg)
        assert monoid.contains((1, 1))
        tau = build_stability(cfg, "before")
        assert tau.slope_of((0, 1)) < tau.slope_of((1, 0))
        assert cfg.chi == ((0, 3), (-3, 0))
        with pytest.raises(ConfigError, match="available"):
            build_stability(cfg, "missing")


class TestUcoeffCommand:
    def test_identity_stability_gives_delta(self, tmp_path, capsys):
        code, tree = run_machine(
            capsys,
            [
                "ucoeff", demo_file(tmp_path),
                "--target", "T", "--tau", "before", "--tau-prime", "before",
            ],
        )
        assert code == 0
        assert len(tree["rows"]) == 3
        for row in tree["rows"]:
            expected = "1" if len(row["parts"]) == 1 else "0"
            assert row["U"] == expected
            assert row["S"] == row["U"] or len(row["parts"]) > 1

    def test_simple_type_closed_forms_in_rows(self, tmp_path, capsys):
        # one rank-one part among rank-zero parts: U = (-1)^(i-1)/((n-i)!(i-1)!)
        names = {
            "A": [1, 0], "A1": [1, 1], "A2": [1, 2], "T": [1, 3],
            "B": [0, 1], "B2": [0, 2], "B3": [0, 3],
        }
        config = json.dumps(
            {
                "classes": names,
                "stabilities": {
                    "minus": {n: ["0" if v[0] else "-1"] for n, v in names.items()},
                    "plus": {n: ["0" if v[0] else "1"] for n, v in names.items()},
                },
            }
        )
        code, tree = run_machine(
            capsys,
            [
                "ucoeff", demo_file(tmp_path, config),
                "--target", "T", "--tau", "minus", "--tau-prime", "plus",
            ],
        )
        assert code == 0
        seen_max = 0
        for row in tree["rows"]:
            parts = [tuple(p) for p in row["parts"]]
            n = len(parts)
            ranks = [p[0] for p in parts]
            if ranks.count(1) != 1:
                continue
            i = ranks.index(1) + 1
            expected = F((-1) ** (i - 1), math.factorial(n - i) * math.factorial(i - 1))
            assert row["U"] == str(expected)
            assert row["Utilde"] == str(expected / n)
            seen_max = max(seen_max, n)
        assert seen_max == 4

    def test_human_output_is_exact_and_tabular(self, tmp_path, capsys):
        code = main(
            [
                "ucoeff", demo_file(tmp_path),
                "--target", "T", "--tau", "before", "--tau-prime", "after",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        lines = out.splitlines()
        assert lines[1].split() == ["parts", "S", "U", "Utilde"]
        assert "A B" in out and "1/2" in out
        assert re.search(r"\d\.\d", out) is None

    def test_max_parts_flag(self, tmp_path, capsys):
        code, tree = run_machine(
            capsys,
            [
                "ucoeff", demo_file(tmp_path),
                "--target", "T", "--tau", "before", "--tau-prime", "after",
                "--max-parts", "2",
            ],
        )
        assert code == 0
        assert tree["max_parts"] == 2
        assert {len(r["parts"]) for r in tree["rows"]} == {1, 2}

    @pytest.mark.parametrize("command", ["ucoeff", "wallcross", "vwnum"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_max_parts_below_one_refused(self, tmp_path, capsys, command, value):
        argv = [command, demo_file(tmp_path), "--target", "T",
                "--tau", "before", "--tau-prime", "after", "--max-parts", value]
        with pytest.raises(SystemExit) as caught:
            main(argv)
        assert caught.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --max-parts: must be at least 1, got {value}" in err

    def test_config_from_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(DEMO))
        code, tree = run_machine(
            capsys,
            ["ucoeff", "--target", "A", "--tau", "before", "--tau-prime", "after"],
        )
        assert code == 0
        assert tree["rows"] == [
            {"parts": [[1, 0]], "names": ["A"], "S": "1", "U": "1", "Utilde": "1"}
        ]


class TestWallcrossCommand:
    def test_no_wall_output_equals_input_table(self, tmp_path, capsys):
        code, tree = run_machine(
            capsys,
            [
                "wallcross", demo_file(tmp_path),
                "--tau", "after", "--tau-prime", "after", "--backend", "qtorus",
            ],
        )
        assert code == 0
        assert [(r["class"], r["value"]) for r in tree["rows"]] == [
            ("A", "a"), ("B", "b"), ("T", "t"),
        ]

    def test_quantum_torus_value(self, tmp_path, capsys):
        code, tree = run_machine(
            capsys,
            [
                "wallcross", demo_file(tmp_path),
                "--tau", "before", "--tau-prime", "after",
                "--backend", "qtorus", "--target", "T",
            ],
        )
        assert code == 0
        expected = L.gen("t") + quantum_integer(3) * L.gen("a") * L.gen("b")
        assert tree["rows"] == [
            {"class": "T", "vector": [1, 1], "value": str(expected)}
        ]

    def test_free_backend_bracket_terms(self, tmp_path, capsys):
        code, tree = run_machine(
            capsys,
            [
                "wallcross", demo_file(tmp_path),
                "--tau", "before", "--tau-prime", "after", "--target", "T",
            ],
        )
        assert code == 0
        assert tree["backend"] == "free"
        assert tree["rows"][0]["terms"] == [
            {"word": [[1, 1]], "bracketing": "z(T)", "coeff": "1"},
            {
                "word": [[0, 1], [1, 0]],
                "bracketing": "[z(B),z(A)]",
                "coeff": "-1",
            },
        ]

    def test_free_backend_equals_letter_table_route(self, tmp_path, capsys):
        # Three generators and every class of the box up to (2,1,1), with
        # linear slopes (a.g)/(mass g) so that every splitting part has one.
        box = [
            (x, y, z)
            for x in range(3) for y in range(2) for z in range(2)
            if x + y + z
        ]

        def slopes(a):
            return {
                f"c{x}{y}{z}": [str(F(a[0] * x + a[1] * y + a[2] * z, x + y + z))]
                for x, y, z in box
            }

        text = json.dumps(
            {
                "classes": {f"c{x}{y}{z}": [x, y, z] for x, y, z in box},
                "stabilities": {"before": slopes((0, 1, 2)), "after": slopes((2, 1, 0))},
            }
        )
        code, tree = run_machine(
            capsys,
            ["wallcross", demo_file(tmp_path, text), "--tau", "before", "--tau-prime", "after"],
        )
        assert code == 0
        cfg = parse_config(text)
        monoid = build_monoid(cfg)
        t1, t2 = build_stability(cfg, "before"), build_stability(cfg, "after")
        assert [row["class"] for row in tree["rows"]] == list(cfg.classes)
        nonzero = 0
        for row in tree["rows"]:
            vec = class_vector(cfg, row["class"])
            # the letters-table route: every letter stands for itself, and the
            # Lie element is re-bracketed through the free Lie backend
            ctx = utilde_word_sum(vec, t1, t2, monoid).context
            letters = InvariantTable(
                {cls: LieElement.letter(ctx, cls) for cls in ctx.letters}, monoid=monoid
            )
            element = wcf_rhs(vec, t1, t2, letters, FreeLieBackend(ctx))
            assert row["terms"] == _lie_terms(element, _name_map(cfg))
            nonzero += len(row["terms"]) > 1
        assert nonzero >= 3

    def test_partial_o_section_exits_with_config_error(self, tmp_path, capsys):
        text = DEMO.replace('"invariants"', '"o": {"A": 1},\n  "invariants"')
        code = main(
            [
                "wallcross", demo_file(tmp_path, text),
                "--tau", "before", "--tau-prime", "after", "--backend", "qtorus",
            ]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: ")
        assert "missing: B, T" in err

    # With o(T) = o(A) + o(B) both splittings of T survive the reduction and
    # the crossing is the unreduced one; with o(B) = 1 only T itself does.
    @pytest.mark.parametrize(
        "o, crossed",
        [
            ({"A": 1, "B": 0, "T": 1}, "a*b + a*b*k^-1 + a*b*k + t"),
            ({"A": 1, "B": 1, "T": 1}, "t"),
        ],
        ids=["additive", "superadditive"],
    )
    def test_vwnum_reduced_sum_bytes(self, tmp_path, capsys, o, crossed):
        args = ["--tau", "before", "--tau-prime", "after"]
        with_o = DEMO.replace('"invariants"', f'"o": {json.dumps(o)},\n  "invariants"')
        outputs = {}
        for name, text in (("reduced", with_o), ("plain", DEMO)):
            path = tmp_path / f"{name}.json"
            path.write_text(text)
            for fmt in ("human", "machine"):
                assert main(["vwnum", str(path)] + args + ["--format", fmt]) == 0
                outputs[name, fmt] = capsys.readouterr().out
        rows = [("A", [1, 0], "a"), ("B", [0, 1], "b"), ("T", [1, 1], crossed)]
        assert outputs["reduced", "human"] == (
            "crossing from before to after (backend qtorus, max parts 8)\n"
            + "".join(f"{name} = {value}\n" for name, _, value in rows)
        )
        tree = {
            "command": "wallcross",
            "backend": "qtorus",
            "tau": "before",
            "tau_prime": "after",
            "max_parts": 8,
            "rows": [
                {"class": name, "vector": vec, "value": value}
                for name, vec, value in rows
            ],
        }
        assert outputs["reduced", "machine"] == json.dumps(tree, indent=2) + "\n"
        unreduced = crossed == "a*b + a*b*k^-1 + a*b*k + t"
        for fmt in ("human", "machine"):
            same = outputs["reduced", fmt] == outputs["plain", fmt]
            assert same == unreduced

    def test_vwnum_is_qtorus_alias(self, tmp_path, capsys):
        path = demo_file(tmp_path)
        args = ["--tau", "before", "--tau-prime", "after"]
        _, via_alias = run_machine(capsys, ["vwnum", path] + args)
        _, via_flag = run_machine(
            capsys, ["wallcross", path, "--backend", "qtorus"] + args
        )
        assert via_alias == via_flag

    def test_qtorus_without_chi_fails(self, tmp_path, capsys):
        config = json.dumps(
            {
                "classes": {"A": [1, 0]},
                "stabilities": {"t": {"A": ["0"]}},
                "invariants": {"A": "a"},
            }
        )
        code = main(
            [
                "wallcross", demo_file(tmp_path, config),
                "--tau", "t", "--tau-prime", "t", "--backend", "qtorus",
            ]
        )
        assert code == 2
        assert "chi" in capsys.readouterr().err

    def test_module_errors_exit_nonzero(self, tmp_path, capsys):
        # the slope of the splitting part (1, 0) is never declared
        config = json.dumps(
            {
                "classes": {"A": [1, 0], "B": [0, 1], "T": [1, 1]},
                "stabilities": {
                    "t1": {"T": ["0"]},
                    "t2": {"T": ["1"]},
                },
                "chi": [[0, 1], [-1, 0]],
                "invariants": {"A": "a", "B": "b", "T": "t"},
            }
        )
        # (1, 1) above both of its parts breaks the weak see-saw property
        broken = json.dumps(
            {
                "classes": {"A": [1, 0], "B": [0, 1], "T": [1, 1]},
                "stabilities": {
                    "t1": {"A": ["0"], "B": ["1"], "T": ["5"]},
                    "t2": {"A": ["0"], "B": ["1"], "T": ["1/2"]},
                },
                "chi": [[0, 1], [-1, 0]],
                "invariants": {"A": "a", "B": "b", "T": "t"},
            }
        )
        for text, error in ((config, "SlopeUndefined"), (broken, "SeeSawFailure")):
            for backend in ("qtorus", "free"):
                code = main(
                    [
                        "wallcross", demo_file(tmp_path, text),
                        "--tau", "t1", "--tau-prime", "t2", "--backend", backend,
                    ]
                )
                assert code == 1
                assert error in capsys.readouterr().err

    def test_a_class_far_from_zero_exits_with_overflow(self, tmp_path, capsys):
        # T = (1200, 0) is 1,200 generator steps from zero.
        text = DEMO.replace('"T": [1, 1]', '"T": [1200, 0]')
        code = main(
            ["vwnum", demo_file(tmp_path, text), "--tau", "before", "--tau-prime", "after"]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err == "error: DecompositionOverflow: (1200, 0) needs more than 8 parts\n"

    def test_unreadable_config_path(self, tmp_path, capsys):
        code = main(
            [
                "wallcross", str(tmp_path / "missing.json"),
                "--tau", "a", "--tau-prime", "b",
            ]
        )
        assert code == 2
        assert "cannot read" in capsys.readouterr().err


class TestDescendentCommand:
    def test_single_key_factorizes(self, capsys):
        code = main(["descendent", "--keys", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == "DT(sigma{5}) = DT0[5]*PT[5]"

    def test_machine_tree(self, capsys):
        from wallx.descendent import dt_to_pt, y_recursion

        code, tree = run_machine(capsys, ["descendent", "--keys", "1,2"])
        assert code == 0
        assert tree["N"] == 2
        assert tree["keys"] == [1, 2]
        assert set(tree) == {"command", "N", "keys", "label", "expansion", "corner"}
        assert tree["expansion"] == str(dt_to_pt((1, 2)))
        assert tree["corner"] == str(y_recursion((1, 2)))

    def test_empty_keys(self, capsys):
        code, tree = run_machine(capsys, ["descendent"])
        assert code == 0
        assert tree["N"] == 0
        assert tree["expansion"] == "DT0[]*PT[]"

    def test_bad_keys_and_order(self, capsys):
        assert main(["descendent", "--keys", "1,x"]) == 2
        capsys.readouterr()
        # ``--order`` is not an option: argparse refuses it with exit 2.
        with pytest.raises(SystemExit) as caught:
            main(["descendent", "--keys", "1", "--order", "4"])
        assert caught.value.code == 2


class TestSelftestCommand:
    def test_machine_report_all_pass(self, capsys):
        code, tree = run_machine(capsys, ["selftest"])
        assert code == 0
        assert tree["failures"] == 0
        assert [c["number"] for c in tree["criteria"]] == list(range(1, 13))
        assert all(c["status"] == "pass" for c in tree["criteria"])
        assert all(
            re.fullmatch(r"\d+\.\d{3}", c["seconds"]) for c in tree["criteria"]
        )

    def test_failure_gives_nonzero_exit(self, capsys, monkeypatch):
        def boom():
            raise AssertionError("deliberate failure")

        monkeypatch.setattr(
            selftest,
            "CRITERIA",
            (selftest.Criterion(1, "deliberately failing check", boom),),
        )
        code = main(["selftest"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out
        assert "deliberate failure" in out

    def test_human_report_one_line_per_criterion(self, capsys, monkeypatch):
        def fine():
            return None

        monkeypatch.setattr(
            selftest,
            "CRITERIA",
            tuple(
                selftest.Criterion(i, f"stub check {i}", fine) for i in (1, 2, 3)
            ),
        )
        code = main(["selftest"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 4
        assert all(lines[i].startswith(f"criterion  {i + 1}  PASS") for i in range(3))
        assert lines[3] == "3 criteria, 0 failures"
