import hashlib
import json
import pathlib
import random
import time
from fractions import Fraction

import pytest

import congestion_adversary.cli as cli_module
import congestion_adversary.documents as documents_module
import congestion_adversary.optimal as optimal_module
import congestion_adversary.oracle as oracle_module
from congestion_adversary import (
    INFINITY,
    K,
    GuardExceeded,
    SolverConfig,
    binding_deviation,
    format_rational,
    generate_instance,
    make_fixtures,
    needed_alpha,
    parse_instance_document,
    solve,
    validate_instance,
)
from congestion_adversary.cli import main
from congestion_adversary.optimal import _scaled_form, _shape_table
from test_core import reference_exceeds
from test_documents import replayed_loads, trace_to_json
from test_oracle import padded_partitions

FIXTURES_DIR = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
EXAMPLE1 = str(FIXTURES_DIR / "example1.json")
APPENDIX = str(FIXTURES_DIR / "appendix_a.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cubic_bound(n, m):
    """The bound on best-alpha's count under which the count is not taken."""
    return n * m * (optimal_module.ROW_WORK * m * m + n) + m * min(m, n + 1) // 32


def scan_count(n, m, limit=float("inf")):
    """best-alpha's count taken, not skipped, up to `limit`.

    Under a limit below the cubic bound the bound does not fit, so the count
    is taken; as it never passes that bound, it is taken in full up to `limit`.
    """
    return optimal_module._scan_work(n, m, min(limit, cubic_bound(n, m) - 1))


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out) if out else None, err


class TestParserReuse:
    """main() reuses one parser; a call must not see what an earlier one parsed."""

    CALLS = [
        ("verify", EXAMPLE1, "2,2,1", "1"),
        ("oracle", EXAMPLE1),
        ("solve-k", EXAMPLE1, "--pretty"),
        ("verify", EXAMPLE1, "2,2,1", "7/6", "--pretty"),
        ("verify", EXAMPLE1),
        ("best-alpha",),
        ("solve-k", EXAMPLE1, "--guard", "strict"),
        ("nosuch",),
        ("verify", EXAMPLE1, "2,2,1", "7/6", "extra"),
        (),
    ]

    @staticmethod
    def outcome(capsys, argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = ("exit", exc.code)
        captured = capsys.readouterr()
        out = json.loads(captured.out) if captured.out.startswith("{") else captured.out
        if isinstance(out, dict):
            out.pop("elapsed_ms", None)
        return code, out, captured.err

    @pytest.mark.parametrize("index", range(len(CALLS)))
    def test_same_outcome_as_on_a_fresh_parser(self, capsys, monkeypatch, index):
        code, _, _ = self.outcome(capsys, ["gen", "--n", "5", "--m", "3", "--seed", "7"])
        assert code == 0
        reused = self.outcome(capsys, self.CALLS[index])
        monkeypatch.setattr(cli_module, "_parser", cli_module.build_parser)
        assert reused == self.outcome(capsys, self.CALLS[index])

    def test_parser_is_built_once(self, capsys):
        parser = cli_module._parser()
        for argv in (["verify", EXAMPLE1, "2,2,1", "1"], ["oracle", EXAMPLE1]):
            main(argv)
        capsys.readouterr()
        assert cli_module._parser() is parser

    def test_an_unrecognized_argument_is_reported_with_the_command_usage(self, capsys, monkeypatch):
        # The command's own parser reads its arguments, so its usage line is
        # the one printed, not the top-level one.
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal width
        with pytest.raises(SystemExit) as exc:
            main(["verify", EXAMPLE1, "2,2,1", "7/6", "extra"])
        assert exc.value.code == 2
        assert capsys.readouterr() == (
            "",
            "usage: congestion-adversary verify [-h] [--pretty] instance loads alpha\n"
            "congestion-adversary verify: error: unrecognized arguments: extra\n",
        )

    def test_solve_k_has_no_guard_option(self, capsys, monkeypatch):
        # The strict 2k budget is the only guard, so --guard is an unknown argument.
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(["solve-k", EXAMPLE1, "--guard", "strict"])
        assert exc.value.code == 2
        assert capsys.readouterr() == (
            "",
            "usage: congestion-adversary solve-k [-h] [--trace TRACE] [--pretty] instance\n"
            "congestion-adversary solve-k: error: unrecognized arguments: --guard strict\n",
        )


class TestSolveK:
    def test_solves_example(self, capsys):
        code, obj, _ = run_json(capsys, "solve-k", EXAMPLE1)
        assert code == 0
        assert obj["loads"] == [2, 2, 1]
        assert obj["alpha"] == "K"
        assert obj["needed_alpha"] == "7/6"
        assert obj["trace"][0]["cost_before"] == "inf"

    def test_trace_file(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.json"
        code, obj, _ = run_json(capsys, "solve-k", APPENDIX, "--trace", str(trace_path))
        assert code == 0
        assert "trace" not in obj
        events = json.loads(trace_path.read_text())
        assert replayed_loads(events, 5) == obj["loads"] == [2, 2, 1, 1, 1]
        _, inline, _ = run_json(capsys, "solve-k", APPENDIX)
        assert events == inline["trace"]

    @pytest.mark.parametrize("seed", ["3", "4"])
    def test_trace_is_its_moves(self, capsys, tmp_path, seed):
        # An event holds no loads: replaying its from/to moves, inline or
        # in the --trace file, reaches the result's loads.
        instance, trace_path = tmp_path / "gen.json", tmp_path / "trace.json"
        instance.write_text(run(capsys, "gen", "--n", "300", "--m", "12", "--seed", seed)[1])
        argv = ["solve-k", str(instance)]
        _, inline, _ = run_json(capsys, *argv)
        _, obj, _ = run_json(capsys, *argv, "--trace", str(trace_path))
        written = json.loads(trace_path.read_text())
        for events, loads in ((inline["trace"], inline["loads"]), (written, obj["loads"])):
            assert len(events) > 300
            assert not any("loads_after" in event for event in events)
            assert replayed_loads(events, 12) == loads

    @pytest.mark.parametrize("pretty", [[], ["--pretty"]])
    def test_inline_trace_is_the_json_of_the_document(self, capsys, pretty):
        # The trace is streamed into stdout; the bytes are still those of
        # json.dumps over the whole document, indented or not.
        inst = parse_instance_document(json.loads(pathlib.Path(APPENDIX).read_text())).instance
        code, out, _ = run(capsys, "solve-k", APPENDIX, *pretty)
        assert code == 0
        obj = json.loads(out)
        assert out == json.dumps(obj, indent=2 if pretty else None) + "\n"
        _, trace = solve(inst, SolverConfig())
        assert obj["trace"] == trace_to_json(trace)
        assert list(obj) == ["loads", "solver", "alpha", "needed_alpha", "trace", "elapsed_ms"]

    def test_guard_exceeded_exits_3(self, capsys, monkeypatch):
        def exceeded(inst, config):
            raise GuardExceeded("round 4 made 9 deviations")

        monkeypatch.setattr(cli_module, "solve", exceeded)
        code, out, err = run(capsys, "solve-k", EXAMPLE1)
        assert code == 3 and not out
        assert err == "error: round 4 made 9 deviations\n"

    @pytest.mark.parametrize("extra", [["--trace", "{missing}/trace.json"]])
    def test_refused_parameters(self, capsys, tmp_path, extra):
        extra = [arg.format(missing=tmp_path / "missing") for arg in extra]
        code, out, err = run(capsys, "solve-k", EXAMPLE1, *extra)
        assert code == 2
        assert not out
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("precision", ["12", "0", "-3", "401"])
    def test_precision_is_refused_before_the_document_is_read(self, capsys, monkeypatch, tmp_path, precision):
        # solve-k runs at K itself, so --precision is an unrecognized
        # argument whatever its value; the document is missing.
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(["solve-k", str(tmp_path / "missing.json"), "--precision", precision])
        assert exc.value.code == 2
        assert capsys.readouterr() == (
            "",
            "usage: congestion-adversary solve-k [-h] [--trace TRACE] [--pretty] instance\n"
            f"congestion-adversary solve-k: error: unrecognized arguments: --precision {precision}\n",
        )

    def test_refuses_oversized_instances_up_front(self, capsys, monkeypatch, tmp_path):
        # 50 * n + m: exactly the allowed units of work at (players,
        # resources), 50 more with one more player.  Accepted too: what the
        # old limit, n * (m + 50) <= 10 000 000, accepted at its boundary,
        # and 200 000 players on 20 000 resources.
        class Reached(Exception):
            pass

        def reached(inst, config):
            raise Reached

        limit = cli_module.SOLVE_K_MAX_WORK
        players, resources = (limit - 50) // 50, 50 + (limit - 50) % 50
        accepted = [(10**7 // (m + 50), m) for m in (1, 50, 950, 20_000)]
        accepted += [(200_000, 20_000), (players, resources)]
        monkeypatch.setattr(cli_module, "solve", reached)
        cases = [(n, m, False) for n, m in accepted] + [(players + 1, resources, True)]
        for n, m, refused in cases:
            path = tmp_path / f"n{n}-m{m}.json"
            doc = {"players": n, "budget": "1", "coefficients": ["1"] * m}
            path.write_text(json.dumps(doc))
            if not refused:
                with pytest.raises(Reached):
                    main(["solve-k", str(path)])
                continue
            code, out, err = run(capsys, "solve-k", str(path))
            assert code == 2 and not out
            assert err.startswith("error: solve-k refuses") and err.count("\n") == 1
            assert f"got {limit + 50} at" in err

    def test_refuses_a_hundred_million_players_at_once(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(
            json.dumps({"players": 10**8, "budget": "1", "coefficients": ["1", "2", "3"]})
        )
        start = time.perf_counter()
        code, out, err = run(capsys, "solve-k", str(path), "--trace", str(tmp_path / "t.json"))
        assert time.perf_counter() - start < 1
        assert code == 2 and not out and err.startswith("error: solve-k refuses")
        assert not (tmp_path / "t.json").exists()

    @pytest.mark.parametrize("command", ["solve-k", "best-alpha", "verify", "oracle"])
    def test_missing_file(self, capsys, tmp_path, command):
        extra = ["2,2,1", "1"] if command == "verify" else []
        code, out, err = run(capsys, command, str(tmp_path / "missing.json"), *extra)
        assert code == 2
        assert not out and err.startswith("error: cannot read instance") and err.count("\n") == 1

    def test_malformed_document(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"players": 3, "budget": "0", "coefficients": ["1"]}')
        code, _, err = run(capsys, "solve-k", str(bad))
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("command", ["solve-k", "best-alpha", "verify", "oracle"])
    def test_document_not_utf8(self, capsys, tmp_path, command):
        bad = tmp_path / "utf16.json"
        bad.write_bytes(b"\xff\xfe" + '{"players": 3}'.encode("utf-16-le"))
        extra = ["2,2,1", "1"] if command == "verify" else []
        code, out, err = run(capsys, command, str(bad), *extra)
        assert code == 2
        assert not out and err.startswith("error: cannot read instance") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["solve-k", "best-alpha", "verify", "oracle"])
    def test_document_with_a_utf8_bom(self, capsys, tmp_path, command):
        # Read as strict UTF-8, not utf-8-sig: json refuses the BOM it keeps.
        bom = tmp_path / "bom.json"
        bom.write_bytes(b"\xef\xbb\xbf" + pathlib.Path(EXAMPLE1).read_bytes())
        extra = ["2,2,1", "1"] if command == "verify" else []
        code, out, err = run(capsys, command, str(bom), *extra)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read instance from {bom}: Unexpected UTF-8 BOM")

    @pytest.mark.parametrize("command", ["solve-k", "best-alpha", "verify", "oracle"])
    @pytest.mark.parametrize(
        "text",
        [
            "[" * 100_000,  # Deeper than the JSON decoder recurses.
            # Past Python's limit on the digits of an int, for json and for Fraction.
            '{"players": %s, "budget": "1", "coefficients": ["1"]}' % ("9" * 5000),
            '{"players": 3, "budget": "%s", "coefficients": ["1", "2"]}' % ("9" * 5000),
        ],
        ids=["nested", "players_digits", "budget_digits"],
    )
    def test_document_malformed(self, capsys, tmp_path, command, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        extra = ["2,2,1", "1"] if command == "verify" else []
        code, out, err = run(capsys, command, str(bad), *extra)
        assert code == 2
        assert not out and err.startswith("error: ") and err.count("\n") == 1


class TestBestAlpha:
    def test_example(self, capsys):
        code, obj, _ = run_json(capsys, "best-alpha", EXAMPLE1, "--oracle-check")
        assert code == 0
        assert obj["alpha"] == "7/6"
        assert obj["loads"] == [2, 2, 1]
        assert obj["binding"] == {
            "from": 1,
            "to": 0,
            "cost": "7",
            "deviation_cost": "6",
        }

    def test_oracle_check_refuses_large_instances(self, capsys, tmp_path):
        # 70 players on 8 resources: 191 964 profiles, 5 374 992 units of the
        # oracle's work, past the 5 000 000 allowed.
        big = tmp_path / "big.json"
        big.write_text(
            json.dumps({"players": 70, "budget": "1", "coefficients": [str(a) for a in range(1, 9)]})
        )
        code, out, err = run(capsys, "best-alpha", str(big), "--oracle-check")
        assert code == 2 and not out
        assert err.startswith("error: --oracle-check refuses") and "5374992" in err
        # Without the cross-check the same instance is fine.
        code, obj, _ = run_json(capsys, "best-alpha", str(big))
        assert code == 0 and sum(obj["loads"]) == 70

    def test_oracle_check_refuses_by_the_oracle_work_limit(self, capsys, monkeypatch, tmp_path):
        # On 3 resources, 1 612 players are 217 352 profiles and 4 999 096
        # units of work; 1 613 are 5 005 283, past the limit.
        class Reached(Exception):
            pass

        def reached(inst):
            raise Reached

        monkeypatch.setattr(cli_module, "best_alpha", reached)
        for players, refused in ((1612, False), (1613, True)):
            path = tmp_path / f"n{players}.json"
            path.write_text(json.dumps({"players": players, "budget": "1", "coefficients": ["1", "2", "3"]}))
            if not refused:
                with pytest.raises(Reached):
                    main(["best-alpha", str(path), "--oracle-check"])
                continue
            code, out, err = run(capsys, "best-alpha", str(path), "--oracle-check")
            assert code == 2 and not out and "5005283" in err

    @pytest.mark.parametrize(
        "oracle",
        [
            lambda inst: (Fraction(6, 5), (2, 2, 1)),  # another factor
            lambda inst: (Fraction(7, 6), (5, 0, 0)),  # the factor, a failing witness
        ],
    )
    def test_oracle_mismatch_exits_4(self, capsys, monkeypatch, oracle):
        monkeypatch.setattr(cli_module, "oracle_best_alpha", oracle)
        code, out, err = run(capsys, "best-alpha", EXAMPLE1, "--oracle-check")
        assert code == 4 and not out
        assert err.startswith("error: solver found 7/6 but oracle found") and "bug" in err

    def test_refuses_oversized_instances_up_front(self, capsys, monkeypatch, tmp_path):
        # The shape table's rows and tail steps, on 4 resources: 11 496 884
        # of the 11 500 000 allowed units of work at n = 4 580, 11 500 058
        # at n = 4 581.
        class Reached(Exception):
            pass

        def reached(inst):
            raise Reached

        monkeypatch.setattr(cli_module, "best_alpha", reached)
        for players, refused in ((4580, False), (4581, True)):
            path = tmp_path / f"n{players}.json"
            doc = {"players": players, "budget": "1", "coefficients": ["1", "2", "3", "4"]}
            path.write_text(json.dumps(doc))
            if not refused:
                with pytest.raises(Reached):
                    main(["best-alpha", str(path)])
                continue
            code, out, err = run(capsys, "best-alpha", str(path))
            assert code == 2 and not out
            assert err.startswith("error: best-alpha refuses") and err.count("\n") == 1
            assert "11500058" in err

    def test_refuses_a_hundred_million_players_at_once(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(
            json.dumps({"players": 10**8, "budget": "1", "coefficients": ["1", "2", "3"]})
        )
        start = time.perf_counter()
        code, out, err = run(capsys, "best-alpha", str(path))
        assert time.perf_counter() - start < 1
        assert code == 2 and not out and err.startswith("error: best-alpha refuses")

    def test_refuses_a_four_thousand_digit_player_count_at_once(self, capsys, tmp_path):
        # Counting stops past the limit, before the first peak load it loops
        # over.  The count has over 4 300 digits, past what Python prints,
        # so the message gives a power of ten below it.
        path = tmp_path / "digits.json"
        path.write_text(json.dumps({"players": 10**4000, "budget": "1", "coefficients": ["1"] * 100_000}))
        start = time.perf_counter()
        code, out, err = run(capsys, "best-alpha", str(path))
        assert time.perf_counter() - start < 1
        assert code == 2 and not out and err.startswith("error: best-alpha refuses")
        assert "(got at least 10**7999 at n=1" in err

    @pytest.mark.parametrize("n", [1, 2, 5, 9, 14, 30, 61])
    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 40])
    def test_work_count_bounds_the_shape_table(self, n, m):
        # The count is BEST_ALPHA_ROW_WORK per row of the table, exactly,
        # plus at least the steps each (M, k'') draws: its largest leftover
        # plus one, and at most all (m - k'' + 1)(M - 3) of them, plus
        # m * min(m, n + 1) // 32.  The bound under which the check skips counting is
        # larger, so the skip lets no header through that the count refuses.
        inst = validate_instance(range(1, m + 1), n, 1)
        rows = list(_shape_table(inst, _scaled_form(inst), (1, 0)))
        drawn = {}
        for (M, _, _, k_dprime), _, leftover, *_ in rows:
            if k_dprime <= m:
                most = min(leftover + 1, (m - k_dprime + 1) * (M - 3))
                drawn[M, k_dprime] = max(drawn.get((M, k_dprime), 0), most)
        work = scan_count(n, m)
        form_work = m * min(m, n + 1) // 32
        tail = work - optimal_module.ROW_WORK * len(rows) - form_work
        assert sum(drawn.values()) <= tail <= n * n * m
        assert work <= cubic_bound(n, m)

    @pytest.mark.parametrize("m", [2, 3, 5, 20, 60])
    def test_no_uncounted_header_is_past_the_limit(self, m):
        # The count returns its cubic bound uncounted up to the largest n
        # where that bound fits under the limit.
        limit = cli_module.BEST_ALPHA_MAX_WORK
        top = max(n for n in range(1, 4000) if cubic_bound(n, m) <= limit)
        for n in [*range(1, top, max(1, top // 40)), top]:
            assert scan_count(n, m) <= cubic_bound(n, m) == optimal_module._scan_work(n, m, limit)

    def test_work_count_does_not_fall_as_n_or_m_grows(self):
        # So no header is let through while a smaller one is refused.  Past
        # the limit the count stops early, and only its being past counts.
        limit = cli_module.BEST_ALPHA_MAX_WORK

        def work(n, m):
            return min(scan_count(n, m, limit), limit + 1)

        grid = {(n, m): work(n, m) for n in range(1, 122) for m in range(1, 26)}
        for (n, m), count in grid.items():
            assert grid.get((n + 1, m), count) >= count and grid.get((n, m + 1), count) >= count
        for m in (2, 3, 20, 500):
            ladder = [work(n, m) for n in range(m, 40 * m, m)] + [work(10**6, m)]
            assert ladder == sorted(ladder) and ladder[-1] == limit + 1
        for n in (10, 26, 1000):
            assert [work(n, m) for m in (2, 20, 200, 2000, 20000)] == sorted(work(n, m) for m in (2, 20, 200, 2000, 20000))

    @pytest.mark.parametrize("n,m", [(1000, 20), (26, 2000), (10, 20_000)])
    def test_accepts_what_the_library_answers_at_once(self, capsys, tmp_path, n, m):
        # 1.9e6, 1.3e5 and 7.4e3 units: the library answers each in under 0.5 s.
        # At (10, 20 000) the form is over lcm(1..11), as the scan scales it.
        path = tmp_path / "gen.json"
        path.write_text(run(capsys, "gen", "--n", str(n), "--m", str(m), "--seed", "1")[1])
        code, obj, _ = run_json(capsys, "best-alpha", str(path))
        assert code == 0 and sum(obj["loads"]) == n and len(obj["loads"]) == m

    def test_answers_one_resource_without_the_insertion(self, capsys, tmp_path):
        # The work count is 0 at m = 1, so 10**12 players are accepted: the
        # answer must come without seating them one at a time.
        path = tmp_path / "single.json"
        path.write_text(json.dumps({"players": 10**12, "budget": "1", "coefficients": ["1"]}))
        code, obj, _ = run_json(capsys, "best-alpha", str(path))
        assert code == 0
        assert (obj["loads"], obj["alpha"], obj["binding"]) == ([10**12], "1", None)

    def test_refuses_the_first_rung_past_the_limit_from_the_header(self, capsys, tmp_path):
        # (1 000, 20) and (2 000, 20) are let through; (3 000, 20) is past
        # the limit, counted from the header before any rational is parsed.
        assert optimal_module._scan_work(2000, 20, cli_module.BEST_ALPHA_MAX_WORK) <= cli_module.BEST_ALPHA_MAX_WORK
        path = tmp_path / "rung.json"
        path.write_text(json.dumps({"players": 3000, "budget": "x", "coefficients": ["x"] * 20}))
        code, out, err = run(capsys, "best-alpha", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: best-alpha refuses more than 11500000 units of work")
        assert err.endswith(" at n=3000, m=20)\n")


class TestVerify:
    def test_pass(self, capsys):
        code, obj, _ = run_json(capsys, "verify", EXAMPLE1, "2,2,1", "7/6")
        assert code == 0
        assert obj["is_alpha_pne"] is True

    def test_fail_reports_violation(self, capsys):
        code, obj, _ = run_json(capsys, "verify", EXAMPLE1, "2,2,1", "1")
        assert code == 1
        assert obj["is_alpha_pne"] is False
        assert obj["violation"] == {
            "from": 1,
            "to": 0,
            "cost": "7",
            "deviation_cost": "6",
            "ratio": "7/6",
        }

    def test_infinite_ratio(self, capsys, tmp_path):
        zero = tmp_path / "zero.json"
        zero.write_text(
            json.dumps({"players": 3, "budget": "1", "coefficients": ["0", "0", "1"]})
        )
        code, obj, _ = run_json(capsys, "verify", str(zero), "2,0,1", "1000")
        assert code == 1
        assert obj["violation"]["ratio"] == "inf"

    def test_single_resource_passes_at_one(self, capsys, tmp_path):
        single = tmp_path / "single.json"
        single.write_text(json.dumps({"players": 4, "budget": "2", "coefficients": ["3"]}))
        code, obj, _ = run_json(capsys, "verify", str(single), "4", "1")
        assert code == 0 and obj == {"loads": [4], "alpha": "1", "is_alpha_pne": True}

    @pytest.mark.parametrize(
        "loads,alpha",
        [
            ("2,2", "1"), ("2,2,2", "1"), ("2,2,x", "1"), ("3,3,-1", "1"), ("2,2,1", "1/2"), ("2,2,1", "0.5"),
            # K is spelled exactly so.
            ("2,2,1", "k"), ("2,2,1", " K"), ("2,2,1", "K/1"),
            # Past Python's limit on the digits of an int.
            pytest.param("2,2," + "1" * 5000, "7/6", id="load_digits"),
        ],
    )
    def test_malformed_arguments(self, capsys, loads, alpha):
        code, out, err = run(capsys, "verify", EXAMPLE1, loads, alpha)
        assert code == 2 and "error" in err

    def test_decides_at_K(self, capsys):
        # example1's (3, 1, 1) needs 5/4, above K; tightness's (2, 2, 1)
        # needs its alpha*, within 10**-12 below K, and (3, 1, 1) as close
        # above it.
        code, obj, _ = run_json(capsys, "verify", EXAMPLE1, "3,1,1", "K")
        assert (code, obj["alpha"], obj["is_alpha_pne"]) == (1, "K", False)
        assert obj["violation"]["ratio"] == "5/4"
        tightness = str(FIXTURES_DIR / "tightness.json")
        assert run_json(capsys, "verify", tightness, "2,2,1", "K") == (
            0, {"loads": [2, 2, 1], "alpha": "K", "is_alpha_pne": True}, ""
        )
        code, obj, _ = run_json(capsys, "verify", tightness, "3,1,1", "K")
        assert (code, obj["is_alpha_pne"]) == (1, False)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_the_fraction_reference(self, capsys, tmp_path, seed):
        # verify decides and formats in integers; the reference prices the
        # same profile through binding_deviation's Fractions and
        # format_rational.  Zero coefficients give infinite ratios, and the
        # factors are drawn on both sides of each profile's needed factor.
        rng = random.Random(seed)
        seen = set()
        for i in range(25):
            m = rng.choice([1, 2, 3, 4, 6])
            n = rng.randint(1, 9)
            coefficients = [f"{rng.choice([0, 0, 1, 2, 3, 5, 7])}/{rng.randint(1, 4)}" for _ in range(m)]
            obj = {"players": n, "budget": f"{rng.randint(1, 9)}/{rng.randint(1, 4)}", "coefficients": coefficients}
            path = tmp_path / f"{i}.json"
            path.write_text(json.dumps(obj))
            inst = parse_instance_document(obj).instance
            cuts = sorted(rng.randint(0, n) for _ in range(inst.m - 1))
            loads = [b - a for a, b in zip([0] + cuts, cuts + [n])]
            needed = needed_alpha(inst, loads)
            factors = [Fraction(1), Fraction(rng.randint(1, 40), rng.randint(1, 30)) + 1, K]
            if needed != INFINITY and needed > 1:
                factors += [needed, needed - Fraction(1, 10**9) * (needed - 1)]
            binding = binding_deviation(inst, loads)
            for alpha in factors:
                if alpha is K:
                    ok = binding is None or not reference_exceeds(binding[3], binding[4], K)
                else:
                    ok = binding is None or binding[0] <= alpha
                text = alpha if alpha is K else format_rational(alpha)
                expected = {"loads": loads, "alpha": text, "is_alpha_pne": ok}
                if not ok:
                    ratio, source, target, cost, dev = binding
                    expected["violation"] = {
                        "from": source,
                        "to": target,
                        "cost": format_rational(cost),
                        "deviation_cost": format_rational(dev),
                        "ratio": "inf" if ratio == INFINITY else format_rational(ratio),
                    }
                pretty = ["--pretty"] if i % 2 else []
                indent = 2 if pretty else None
                argv = ["verify", str(path), ",".join(map(str, loads)), text, *pretty]
                assert run(capsys, *argv) == (0 if ok else 1, json.dumps(expected, indent=indent) + "\n", "")
                seen.update({("m", inst.m == 1), ("ok", ok), ("inf", needed == INFINITY)})
        assert {("m", True), ("ok", True), ("ok", False), ("inf", True)} <= seen

    @pytest.mark.parametrize("loads", [" 2,+2,0_1", "\u0662,2,1", "2,2,1\n", "2,,1", "2,2,1 "])
    def test_loads_are_ascii_digits_only(self, capsys, loads):
        # int() would take the sign, the spaces, the "_" and the Arabic-Indic two.
        code, out, err = run(capsys, "verify", EXAMPLE1, loads, "7/6")
        assert (code, out) == (2, "") and err == f"error: loads must be comma-separated digits 0-9, got {loads!r}\n"


class TestOracle:
    def test_example(self, capsys):
        code, obj, _ = run_json(capsys, "oracle", EXAMPLE1)
        assert code == 0
        assert obj["alpha"] == "7/6"
        assert obj["exact_pne"] is False
        assert obj["epsilon"] == "1"

    def test_enumerates_profiles_once_for_both_measures(self, capsys, monkeypatch, tmp_path):
        # One enumeration gives the factor, the exact-equilibrium answer and
        # the additive slack.
        calls = []
        partitions = oracle_module._partitions
        monkeypatch.setattr(
            oracle_module,
            "_partitions",
            lambda n, m: calls.append(n) or partitions(n, m),
        )
        exact = tmp_path / "exact.json"
        exact.write_text(
            json.dumps({"players": 4, "budget": "2", "coefficients": ["1", "1"]})
        )
        code, obj, _ = run_json(capsys, "oracle", str(exact))
        assert code == 0 and calls == [4]
        assert obj["exact_pne"] is True and obj["exact_pne_loads"] == obj["loads"] == [2, 2]

    def test_size_cap(self, capsys, tmp_path):
        # 1 613 players on 3 resources: 5 005 283 units of work, past the
        # 5 000 000 allowed.
        big = tmp_path / "big.json"
        big.write_text(
            json.dumps({"players": 1613, "budget": "1", "coefficients": ["1", "2", "3"]})
        )
        code, out, err = run(capsys, "oracle", str(big))
        assert code == 2 and not out
        assert err.startswith("error: oracle refuses") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "players,coefficients,refused",
        [(1612, 3, False), (1613, 3, True), (305, 4, False), (306, 4, True), (44, 2000, False), (45, 2000, True)],
    )
    def test_refuses_past_the_work_limit_up_front(self, capsys, monkeypatch, tmp_path, players, coefficients, refused):
        class Reached(Exception):
            pass

        def reached(inst):
            raise Reached

        monkeypatch.setattr(cli_module, "oracle_optima", reached)
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"players": players, "budget": "1", "coefficients": ["1"] * coefficients}))
        if not refused:
            with pytest.raises(Reached):
                main(["oracle", str(path)])
            return
        code, out, err = run(capsys, "oracle", str(path))
        assert code == 2 and not out and err.startswith("error: oracle refuses")

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 12, 25])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 6, 30])
    def test_work_count_is_the_profile_count(self, n, m):
        profiles = sum(1 for _ in padded_partitions(n, m))
        assert oracle_module._walk_work(n, m, cli_module.ORACLE_MAX_WORK) == profiles * (min(n, m) + 20)

    def test_work_count_does_not_fall_as_n_or_m_grows(self):
        # So no header is let through while a smaller one is refused.  Past
        # the limit the count stops early, and only its being past counts.
        limit = cli_module.ORACLE_MAX_WORK

        def work(n, m):
            return min(oracle_module._walk_work(n, m, limit), limit + 1)

        grid = {(n, m): work(n, m) for n in range(1, 80) for m in range(1, 60)}
        for (n, m), count in grid.items():
            assert grid.get((n + 1, m), count) >= count and grid.get((n, m + 1), count) >= count
        for m in (2, 3, 2000, 10**6):
            ladder = [work(n, m) for n in (1, 2, 3, 10, 26, 44, 45, 100, 2000, 10**6)]
            assert ladder == sorted(ladder)
        for n in (1, 2, 10, 44):  # No charge for reading: from m = n on, more resources add nothing.
            ladder = [work(n, m) for m in (1, 2, 3, 20, 2000, 200_000, 10**6)]
            assert ladder == sorted(ladder) and ladder[-1] == work(n, n)

    @pytest.mark.parametrize("coefficients", [["1", "2"], ["1", "2", "3"]])
    def test_refuses_a_hundred_million_players_at_once(self, capsys, tmp_path, coefficients):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"players": 10**8, "budget": "1", "coefficients": coefficients}))
        start = time.perf_counter()
        code, out, err = run(capsys, "oracle", str(path))
        assert time.perf_counter() - start < 1
        assert code == 2 and not out and err.startswith("error: oracle refuses")

    def test_answers_five_players_on_three_hundred_thousand_resources(self, capsys, tmp_path):
        # 7 profiles, 175 units: reading the document is bounded by its
        # length limit, not charged to the count.
        path = tmp_path / "wide.json"
        path.write_text(generate_instance(5, 300_000, 1).dumps())
        code, obj, _ = run_json(capsys, "oracle", str(path))
        assert code == 0 and sum(obj["loads"]) == 5 and len(obj["loads"]) == 300_000

    def test_many_resources_few_players(self, capsys, tmp_path):
        # 2 000 resources: each profile's trailing zeros come at once, not
        # one nested call per resource.
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"players": 5, "budget": "1", "coefficients": ["1"] * 2000}))
        code, obj, _ = run_json(capsys, "oracle", str(path))
        assert code == 0 and obj["alpha"] == "1" and obj["loads"] == [1] * 5 + [0] * 1995


class TestGenAndFixtures:
    def test_gen_deterministic_and_parseable(self, capsys):
        code, obj, _ = run_json(capsys, "gen", "--n", "5", "--m", "3", "--seed", "7")
        assert code == 0
        doc = parse_instance_document(obj)
        assert doc.instance.n == 5 and doc.instance.m == 3
        code2, obj2, _ = run_json(capsys, "gen", "--n", "5", "--m", "3", "--seed", "7")
        assert obj == obj2

    #: sha256 of gen's stdout for these arguments: the bytes are pinned.
    GEN_DIGESTS = {
        "--n 5 --m 3 --seed 7": "772a0f8b599ad16494ac00503b00dccd588bc798a3ef404ee8b3fd762bff73b8",
        "--n 40 --m 25 --seed 1 --pretty": "797c28b02dd815a9e3921e159b8fb9ba37c8e0686cb93ffbab3a3b7993991878",
        "--n 3 --m 200 --seed 2": "bf290e06d89a1427b690b0269f6e222d9ee128c6e13237e5578da8744f725bdb",
        "--n 10 --m 1000 --seed 3": "36513234f556939d0f2138dbc19bcd847f433a7506adf08bf659eeb64165fc12",
        "--n 7 --m 1 --seed 0 --pretty": "384d19874ad1a705407f8aa3a077554ec65bfb913fc00420eaaaade62f8e9c0e",
        "--n 4 --m 50 --seed 5 --coeff-max 0": "6a2fd58464dd8ff6dd7e3572de37a5d3badfdba0eca24dcdcb9b4c1f09ad56cd",
        "--n 6 --m 300 --seed 9 --coeff-max 1000 --budget-max 100": "5b58eca268ff78d8acbf9b170098acb1e88119b96beca42da5db5d3cfaa7a123",
    }

    @pytest.mark.parametrize("args", GEN_DIGESTS)
    def test_gen_writes_its_pinned_bytes(self, capsys, args):
        code, out, err = run(capsys, "gen", *args.split())
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == self.GEN_DIGESTS[args]

    def test_gen_rejects_bad_parameters(self, capsys):
        code, _, err = run(capsys, "gen", "--n", "0", "--m", "3", "--seed", "1")
        assert code == 2 and "error" in err

    def test_gen_refuses_more_resources_than_its_limit_up_front(self, capsys, monkeypatch):
        calls = []

        def stub(n, m, seed, coeff_max, budget_max):
            calls.append(m)
            return make_fixtures()["example1"]

        monkeypatch.setattr(cli_module, "generate_instance", stub)
        limit = cli_module.GEN_MAX_M
        code, obj, _ = run_json(capsys, "gen", "--n", "5", "--m", str(limit), "--seed", "1")
        assert code == 0 and obj["name"] == "example1" and calls == [limit]
        code, out, err = run(capsys, "gen", "--n", "5", "--m", str(limit + 1), "--seed", "1")
        assert (code, out) == (2, "") and calls == [limit]
        assert err == (
            f"error: gen refuses more than {limit} units of work, the resource count m "
            f"(got {limit + 1} at n=5, m={limit + 1})\n"
        )

    def test_fixtures_into_an_unwritable_path_exit_2(self, capsys, tmp_path):
        blocker = tmp_path / "notadir"
        blocker.write_text("")
        code, out, err = run(capsys, "fixtures", str(blocker / "x"))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write fixtures to {blocker / 'x'}: ")
        assert len(err.splitlines()) == 1

    def test_fixtures_written(self, capsys, tmp_path):
        out_dir = tmp_path / "fx"
        code, obj, _ = run_json(capsys, "fixtures", str(out_dir))
        assert code == 0
        names = {pathlib.Path(p).stem for p in obj["written"]}
        assert names == set(make_fixtures())
        for p in obj["written"]:
            parse_instance_document(json.loads(pathlib.Path(p).read_text()))


def first_primes(count):
    """The first `count` primes, by a sieve up to 15 * count."""
    sieve = bytearray([1]) * (15 * count)
    sieve[:2] = b"\0\0"
    for p in range(2, int(len(sieve) ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [p for p, prime in enumerate(sieve) if prime][:count]


#: Every command that reads an instance document, with the arguments after it.
READERS = [("solve-k",), ("best-alpha",), ("verify", "2,1,0", "2"), ("oracle",)]


class TestInputRefusals:
    @pytest.mark.parametrize("command", READERS)
    def test_a_long_integer_form_is_refused_in_under_a_second(self, capsys, tmp_path, command):
        # 1/p over 20 000 primes: D would hold about 320 000 bits, and the
        # form 20 000 times that; the count stops the lcm near 2^29 bits.
        # best-alpha's work count charges the form over lcm(1..4) at n = 3,
        # 2 548 units, so this document reaches the same count.
        path = tmp_path / "primes.json"
        coefficients = [f"1/{p}" for p in first_primes(20_000)]
        path.write_text(json.dumps({"players": 3, "budget": "1", "coefficients": coefficients}))
        start = time.perf_counter()
        code, out, err = run(capsys, command[0], str(path), *command[1:])
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == f"error: m times the bit length of the denominators' lcm passes {2**29} (m=20000)\n"

    @pytest.mark.parametrize(
        "argv,players,resources,refusal",
        [
            (["solve-k"], 280_000, 3, "solve-k refuses more than 14000000 units of work, 50 * n + m (got 14000003"),
            (["best-alpha"], 4581, 4, f"best-alpha refuses more than 11500000 units of work, {cli_module.BEST_ALPHA_UNIT} (got 11500058"),
            (["best-alpha", "--oracle-check"], 1613, 3, f"--oracle-check refuses more than 5000000 units of work, {cli_module.ORACLE_UNIT} (got 5005283"),
            (["oracle"], 1613, 3, f"oracle refuses more than 5000000 units of work, {cli_module.ORACLE_UNIT} (got 5005283"),
        ],
        ids=["solve-k", "best-alpha", "oracle-check", "oracle"],
    )
    def test_work_is_refused_from_the_header_before_any_rational(
        self, capsys, tmp_path, argv, players, resources, refusal
    ):
        # Neither the budget nor a coefficient is a rational: the header's
        # counts alone refuse the document.
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"players": players, "budget": "x", "coefficients": ["x"] * resources}))
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert (code, out) == (2, "")
        assert err == f"error: {refusal} at n={players}, m={resources})\n"

    @pytest.mark.parametrize("command", ["best-alpha", "oracle"])
    def test_a_document_at_the_length_limit_is_refused_in_under_a_second(self, capsys, tmp_path, command):
        # 300 players on 775 000 resources, the shape of gen's output, just
        # under the character limit: parsing every coefficient took about
        # 7 s.  Neither count charges the reading, which the limit bounds:
        # best-alpha, whose form is over lcm(1..min(m, n + 1)), answers 10
        # or 200 players in about 2 s and refuses 300 at 1.17e7 units; the
        # oracle answers 10 players in about 1.5 s, and refuses 300 by their
        # profiles alone.
        players = 300
        rng = random.Random(1)
        coefficients = [f"{rng.randint(0, 10)}/{rng.randint(1, 4)}" for _ in range(775_000)]
        text = json.dumps({"players": players, "budget": "3/2", "coefficients": coefficients})
        assert len(text) <= documents_module.DOCUMENT_MAX_CHARS
        path = tmp_path / "long.json"
        path.write_text(text)
        start = time.perf_counter()
        code, out, err = run(capsys, command, str(path))
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "") and err.startswith(f"error: {command} refuses more than")
        assert err.endswith(f" at n={players}, m=775000)\n")

    @pytest.mark.parametrize("argv", [["solve-k"], ["best-alpha", "--oracle-check"], ["oracle"]])
    @pytest.mark.parametrize(
        "players,coefficients,message",
        [
            (0, ["1"] * 3, "player count must be positive, got 0"),
            (-5, ["x"] * 300_000, "not a rational string: 'x'"),
            (True, ["1"] * 3, "players must be an integer, got True"),
            (10**8, [], "need at least one resource"),
        ],
        ids=["zero", "negative", "true", "no_coefficients"],
    )
    def test_a_header_without_players_or_resources_keeps_its_message(
        self, capsys, tmp_path, argv, players, coefficients, message
    ):
        # No work is counted at n < 1 or m = 0, where the counts would divide
        # by zero; the document's own fault is reported.
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"players": players, "budget": "1", "coefficients": coefficients}))
        assert run(capsys, argv[0], str(path), *argv[1:]) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("command", READERS)
    def test_a_document_over_the_length_limit_is_refused_before_parsing(
        self, capsys, tmp_path, monkeypatch, command
    ):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"players": 3, "budget": "1", "coefficients": ["0", "2", "5"]}))
        size = path.stat().st_size  # ASCII: one character a byte
        monkeypatch.setattr(documents_module, "DOCUMENT_MAX_CHARS", size)
        code, _, err = run(capsys, command[0], str(path), *command[1:])
        assert code in (0, 1) and err == ""
        monkeypatch.setattr(documents_module, "DOCUMENT_MAX_CHARS", size - 1)
        refusal = f"error: cannot read instance from {path}: over {size - 1} characters\n"
        assert run(capsys, command[0], str(path), *command[1:]) == (2, "", refusal)
        # Not JSON at all: the length alone refuses it, before json would fail.
        path.write_text("x" * size)
        assert run(capsys, command[0], str(path), *command[1:]) == (2, "", refusal)

    def test_gen_output_at_its_limit_loads(self):
        # With --pretty, the longer layout, and a newline as the command prints it.
        doc = generate_instance(10, cli_module.GEN_MAX_M, 1)
        assert len(doc.dumps(pretty=True)) + 1 <= documents_module.DOCUMENT_MAX_CHARS
