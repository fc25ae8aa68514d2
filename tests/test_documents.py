import io
import json
import os
import pathlib
import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from congestion_adversary import (
    FIXTURE_NAMES,
    INFINITY,
    GameError,
    InstanceDocument,
    SolverConfig,
    best_alpha,
    binding_deviation,
    format_rational,
    generate_instance,
    load_instance_document,
    make_fixtures,
    needed_alpha,
    oracle_optima,
    parse_instance_document,
    parse_rational,
    solve,
    validate_instance,
)
import congestion_adversary.core as core_module
import congestion_adversary.documents as documents_module
from congestion_adversary.core import _rational
from congestion_adversary.documents import (
    RATIONAL_RE,
    result_document,
    write_result,
    write_trace,
)
from congestion_adversary.solver import SolveTrace
from test_solver import trace_events

FIXTURES_DIR = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def trace_to_json(trace):
    """The trace's event list as JSON objects: the reference for write_trace's bytes."""
    return [
        {
            "kind": kind,
            "round": k,
            "from": source,
            "to": target,
            "cost_before": "inf" if before == INFINITY else format_rational(before),
            "cost_after": format_rational(after),
        }
        for kind, k, source, target, before, after in trace_events(trace)
    ]


def solved_trace(case):
    """solve's trace on gen (n, m) with seed n, or one of three named traces.

    "empty" has no moves.  "unreduced" is hand-built with cost pairs not in
    lowest terms at D = 6: 12/(1*6) reduces to 2, 0/(1*6) is a zero cost,
    10/(4*6) = 5/12 has k = 4 and 9/(3*6) = 1/2 has k = 3.  "tightness-x40"
    is the tightness fixture with players and budget times 40: 200 players
    at D = 5e11.
    """
    if case == "empty":
        return SolveTrace(moves=(), per_round_deviation_counts=(), scale=1)
    if case == "unreduced":
        moves = (
            (1, None, 0, None, None, 12, 1),
            (1, 0, 1, 10, 4, 0, 1),
            (2, None, 0, None, None, 9, 3),
        )
        return SolveTrace(moves=moves, per_round_deviation_counts=(1, 0), scale=6)
    if case == "tightness-x40":
        inst = make_fixtures()["tightness"].instance
        inst = validate_instance(inst.coefficients, 40 * inst.n, 40 * inst.budget)
    else:
        inst = generate_instance(*case, seed=case[0]).instance
    return solve(inst, SolverConfig())[1]


def replayed_loads(events, m):
    """The loads reached by applying the JSON events' "from"/"to" moves to the empty profile."""
    loads = [0] * m
    for event in events:
        if event["from"] is not None:
            loads[event["from"]] -= 1
        loads[event["to"]] += 1
    return loads


class TestRationals:
    @pytest.mark.parametrize(
        "text,value",
        [("7/6", Fraction(7, 6)), ("-3", Fraction(-3)), ("0", Fraction(0)), ("10/4", Fraction(5, 2))],
    )
    def test_parse(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize(
        "text", ["1.5", "1/0", "", "1/-2", "a", "1e3", None, 3, "7/6\n", "3\n", " 7/6"]
    )
    def test_rejects_non_rational_strings(self, text):
        with pytest.raises(GameError):
            parse_rational(text)

    def test_format_round_trip(self):
        for value in (Fraction(7, 6), Fraction(-3), Fraction(0), Fraction(25, 24)):
            assert parse_rational(format_rational(value)) == value


#: Python's int digit limit, 4 300 by default, which parse_rational inherits from int().
DIGIT_LIMIT = sys.get_int_max_str_digits()


def digits(min_size, max_size):
    return st.text("0123456789", min_size=min_size, max_size=max_size)


@st.composite
def rational_strings(draw, max_digits=200):
    """Strings RATIONAL_RE matches: a sign, leading zeros, -0, and an optional denominator."""
    sign = draw(st.sampled_from(["", "-"]))
    num = draw(st.sampled_from(["", "0", "000"])) + draw(digits(1, max_digits))
    if not draw(st.booleans()):
        return sign + num
    return f"{sign}{num}/{draw(st.sampled_from('123456789'))}{draw(digits(0, max_digits))}"


class TestIngestion:
    """parse_rational and _rational against Fraction, the reference they skip."""

    @given(rational_strings())
    @example("-0")
    @example("-000/7")
    @example("0012/10")
    @example("1" * DIGIT_LIMIT)
    @example("-" + "9" * DIGIT_LIMIT + "/1" + "0" * (DIGIT_LIMIT - 1))
    @settings(max_examples=500)
    def test_parse_equals_fraction(self, text):
        assert RATIONAL_RE.fullmatch(text)
        assert parse_rational(text) == Fraction(text)
        assert type(parse_rational(text)) is Fraction

    @given(st.text(max_size=12).filter(lambda text: not RATIONAL_RE.fullmatch(text)))
    @example("1/00")
    @example("--1")
    @example("+1")
    @example("1/")
    @example("/2")
    @example("\uff11")
    def test_non_matching_strings_are_refused(self, text):
        with pytest.raises(GameError, match="not a rational string"):
            parse_rational(text)

    @pytest.mark.parametrize(
        "text",
        [
            "1" * (DIGIT_LIMIT + 1),
            "-" + "0" * (DIGIT_LIMIT + 1),
            "1/1" + "0" * DIGIT_LIMIT,
            "7/" + "9" * (DIGIT_LIMIT + 1),
        ],
    )
    def test_past_the_digit_limit_is_refused(self, text):
        with pytest.raises(GameError, match="not a usable rational"):
            parse_rational(text)

    @given(st.fractions())
    def test_a_fraction_is_returned_unchanged(self, value):
        assert _rational(value, "x") is value

    def test_a_fraction_subclass_becomes_a_fraction(self):
        class Sub(Fraction):
            pass

        value = _rational(Sub(7, 6), "x")
        assert type(value) is Fraction and value == Fraction(7, 6)

    @pytest.mark.parametrize(
        "doc",
        [
            *make_fixtures().values(),
            *(generate_instance(n, m, seed) for n, m, seed in [(5, 3, 7), (40, 25, 1), (3, 200, 2)]),
            {
                "name": "unreduced",
                "players": 4,
                "budget": "6/4",
                "coefficients": ["0012/10", "-000/7", "6/4", "3", "0012/10", "0"],
            },
        ],
        ids=lambda doc: doc["name"] if isinstance(doc, dict) else doc.name,
    )
    def test_every_path_in_gives_the_same_instance(self, doc):
        # The document's strings through parse_rational's integers; through
        # Fraction(str); as Fractions, returned unchanged; the Fraction views
        # back in; and the document the instance writes.
        obj = doc if isinstance(doc, dict) else doc.to_json_obj()
        n, coefficients, budget = obj["players"], obj["coefficients"], obj["budget"]
        inst = parse_instance_document(obj).instance
        assert (inst.coefficients, inst.budget) == (tuple(sorted(map(Fraction, coefficients))), Fraction(budget))
        again = [
            validate_instance(coefficients, n, budget),
            validate_instance(map(Fraction, coefficients), n, Fraction(budget)),
            validate_instance(inst.coefficients, n, inst.budget),
            parse_instance_document(json.loads(InstanceDocument(instance=inst).dumps())).instance,
        ]
        if not isinstance(doc, dict):
            again.append(doc.instance)
        for other in again:
            assert (other.n, other.form, other.coefficients, other.budget) == (
                inst.n,
                inst.form,
                inst.coefficients,
                inst.budget,
            )
            assert other == inst and hash(other) == hash(inst)


class TestIntegerForm:
    """An Instance stores n and its form; `coefficients` and `budget` are views made on demand."""

    def test_no_solver_makes_the_fraction_views(self, tmp_path):
        # example1 has alpha* = 7/6: best_alpha scans its whole shape table
        # and the oracle walks every profile.
        path = tmp_path / "gen.json"
        path.write_text(generate_instance(7, 5, 3).dumps())
        paths_in = [
            load_instance_document(str(FIXTURES_DIR / "example1.json")).instance,
            load_instance_document(str(path)).instance,
            generate_instance(7, 5, 3).instance,
        ]
        for inst in paths_in:
            steps = [
                lambda: solve(inst, SolverConfig()),
                lambda: best_alpha(inst),
                lambda: oracle_optima(inst),
                lambda: binding_deviation(inst, best_alpha(inst).witness),
            ]
            for step in [lambda: None, *steps]:
                step()
                assert "coefficients" not in inst.__dict__ and "budget" not in inst.__dict__
            assert inst.coefficients == inst.__dict__["coefficients"]
            assert inst.budget == inst.__dict__["budget"]

    def test_errors_keep_their_order_and_messages(self, monkeypatch):
        # A malformed coefficient, then the budget string, then no resource,
        # the player count, the budget's sign, the form's size and a
        # negative coefficient; validate_instance says the same from valid
        # strings.
        monkeypatch.setattr(core_module, "FORM_MAX_BITS", 20)
        cases = [
            ({"players": 0, "budget": "x", "coefficients": ["1", "1.5"]}, "not a rational string: '1.5'"),
            ({"players": 0, "budget": "x", "coefficients": ["1"]}, "not a rational string: 'x'"),
            ({"players": 0, "budget": "-1", "coefficients": []}, "need at least one resource"),
            ({"players": 0, "budget": "-1", "coefficients": ["1"]}, "player count must be positive, got 0"),
            ({"players": 3, "budget": "-6/4", "coefficients": ["-1"]}, "budget must be positive, got -3/2"),
            ({"players": 3, "budget": "0/5", "coefficients": ["-1"]}, "budget must be positive, got 0"),
            (
                {"players": 3, "budget": "1", "coefficients": ["-1/3", "1/5", "1/7"]},
                "m times the bit length of the denominators' lcm passes 20 (m=3)",
            ),
            (
                {"players": 3, "budget": "1", "coefficients": ["2", "-2/6", "-1/4", "0"]},
                "coefficient must be non-negative, got -1/3",
            ),
        ]
        for obj, message in cases:
            with pytest.raises(GameError) as exc:
                parse_instance_document(obj)
            assert str(exc.value) == message
            if not message.startswith("not a rational string"):
                with pytest.raises(GameError) as exc:
                    validate_instance(obj["coefficients"], obj["players"], obj["budget"])
                assert str(exc.value) == message


class TestInstanceDocuments:
    def test_round_trip(self, example1):
        doc = InstanceDocument(instance=example1, name="x", description="y")
        again = parse_instance_document(json.loads(doc.dumps()))
        assert again == doc

    def test_parser_sorts_coefficients(self):
        doc = parse_instance_document(
            {"players": 3, "budget": "1", "coefficients": ["5", "0", "2"]}
        )
        assert doc.instance.coefficients == (Fraction(0), Fraction(2), Fraction(5))

    @pytest.mark.parametrize(
        "obj",
        [
            [],
            {},
            {"players": 3, "budget": "1"},
            {"players": "3", "budget": "1", "coefficients": ["1"]},
            {"players": True, "budget": "1", "coefficients": ["1"]},
            {"players": 3, "budget": "0", "coefficients": ["1"]},
            {"players": 3, "budget": "1", "coefficients": "1"},
            {"players": 3, "budget": "1", "coefficients": ["1.5"]},
            {"players": 0, "budget": "1", "coefficients": ["1"]},
            {"players": 3, "budget": "1", "coefficients": []},
            {"players": 3, "budget": "1", "coefficients": ["1"], "name": 7},
            {"players": 3, "budget": "1", "coefficients": ["1"], "description": ["y"]},
        ],
    )
    def test_rejects_malformed_documents(self, obj):
        with pytest.raises(GameError):
            parse_instance_document(obj)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(GameError):
            load_instance_document(str(tmp_path / "nope.json"))

    def test_check_sees_the_header_counts_before_any_rational(self, tmp_path):
        # A check that raises refuses the document as it stands, rationals
        # unparsed; one that returns lets the document load as without it.
        class Refused(GameError):  # A ValueError, as the read errors that are rewrapped.
            pass

        seen = []

        def check(n, m):
            seen.append((n, m))
            if n > 3:
                raise Refused

        obj = {"players": 4, "budget": "x", "coefficients": ["x", "1/0"]}
        with pytest.raises(Refused):
            parse_instance_document(obj, check)
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(Refused):  # Not rewrapped as "cannot read instance".
            load_instance_document(str(path), check)
        obj = {"players": 3, "budget": "1", "coefficients": ["5", "0", "2"]}
        assert parse_instance_document(obj, check) == parse_instance_document(obj)
        assert seen == [(4, 2), (4, 2), (3, 3)]

    @pytest.mark.parametrize("players,coefficients", [(0, ["1"]), (-2, ["1"]), (3, [])])
    def test_check_is_skipped_without_players_or_resources(self, players, coefficients):
        def check(n, m):
            raise AssertionError("checked")

        with pytest.raises(GameError):
            parse_instance_document({"players": players, "budget": "1", "coefficients": coefficients}, check)


class TestDocumentRead:
    """load_instance_document reads bytes: sized by fstat, strict UTF-8, newlines as text mode reads them."""

    DOC = {
        "name": "d\u00e9j\u00e0 \u2713",
        "description": "\u00dcber \U0001f600",
        "players": 5,
        "budget": "6",
        "coefficients": ["0", "2", "5"],
    }

    @staticmethod
    def load_fifo(path, data):
        # A FIFO has fstat size 0: the read is bounded by the limit, not by the size.
        os.mkfifo(path)
        writer = threading.Thread(target=path.write_bytes, args=(data,), daemon=True)
        writer.start()
        try:
            return load_instance_document(str(path))
        finally:
            writer.join(10)
            assert not writer.is_alive()

    def test_crlf_and_non_ascii_load_as_lf_and_ascii(self, tmp_path):
        texts = [json.dumps(self.DOC, indent=2), json.dumps(self.DOC, indent=2, ensure_ascii=False)]
        texts += [text.replace("\n", "\r\n") for text in texts]
        loaded = []
        for i, text in enumerate(texts):
            path = tmp_path / f"{i}.json"
            path.write_bytes(text.encode("utf-8"))
            loaded.append(load_instance_document(str(path)))
        assert loaded == [parse_instance_document(self.DOC)] * 4

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_a_json_error_is_placed_as_in_text_mode(self, tmp_path, newline):
        text = '{\n  "players": 3,\n  "budget": x\n}'
        path = tmp_path / "bad.json"
        path.write_bytes(text.replace("\n", newline).encode("utf-8"))
        with pytest.raises(json.JSONDecodeError) as expected:
            json.loads(text)
        with pytest.raises(GameError) as exc:
            load_instance_document(str(path))
        assert str(exc.value) == f"cannot read instance from {path}: {expected.value}"

    def test_the_limit_counts_bytes(self, tmp_path, monkeypatch):
        text = json.dumps(self.DOC, ensure_ascii=False)
        path = tmp_path / "doc.json"
        path.write_bytes(text.encode("utf-8"))
        size = path.stat().st_size
        assert size > len(text)
        monkeypatch.setattr(documents_module, "DOCUMENT_MAX_CHARS", size)
        assert load_instance_document(str(path)).name == self.DOC["name"]
        monkeypatch.setattr(documents_module, "DOCUMENT_MAX_CHARS", size - 1)
        with pytest.raises(GameError, match=f": over {size - 1} characters$"):
            load_instance_document(str(path))

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_a_fifo_loads(self, tmp_path):
        data = json.dumps(self.DOC).encode("utf-8")
        assert self.load_fifo(tmp_path / "doc.fifo", data) == parse_instance_document(self.DOC)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    @pytest.mark.parametrize("past", [1, 1000])
    def test_a_fifo_past_the_limit_is_refused(self, tmp_path, monkeypatch, past):
        data = json.dumps(self.DOC).encode("utf-8")
        monkeypatch.setattr(documents_module, "DOCUMENT_MAX_CHARS", len(data))
        with pytest.raises(GameError, match=f": over {len(data)} characters$"):
            self.load_fifo(tmp_path / "doc.fifo", data + b" " * past)


class TestGenerator:
    def test_deterministic(self):
        assert generate_instance(5, 3, 42) == generate_instance(5, 3, 42)
        assert generate_instance(5, 3, 42) != generate_instance(5, 3, 43)

    def test_respects_bounds(self):
        for seed in range(20):
            inst = generate_instance(6, 4, seed, coeff_max=7, budget_max=3).instance
            assert inst.n == 6 and inst.m == 4
            assert all(0 <= a <= 7 for a in inst.coefficients)
            assert 0 < inst.budget <= 3

    @pytest.mark.parametrize("n,m,seed", [(5, 3, 7), (40, 25, 1), (3, 200, 2), (2, 1, 0)])
    def test_draws_are_those_of_the_fraction_reference(self, n, m, seed):
        # Each coefficient's numerator and denominator, then the budget's.
        rng = random.Random(seed)
        coefficients = [Fraction(rng.randint(0, 10), rng.randint(1, 4)) for _ in range(m)]
        budget = Fraction(rng.randint(1, 10), rng.randint(1, 4))
        assert generate_instance(n, m, seed).instance == validate_instance(coefficients, n, budget)

    def test_rejects_bad_parameters(self):
        with pytest.raises(GameError):
            generate_instance(0, 3, 1)
        with pytest.raises(GameError):
            generate_instance(3, 0, 1)


class TestFixtures:
    def test_names_and_parseability(self):
        fixtures = make_fixtures()
        assert tuple(fixtures) == FIXTURE_NAMES
        for doc in fixtures.values():
            assert parse_instance_document(json.loads(doc.dumps())) == doc

    def test_checked_in_files_match_generated(self):
        for name, doc in make_fixtures().items():
            on_disk = load_instance_document(str(FIXTURES_DIR / f"{name}.json"))
            assert on_disk == doc

    def test_tightness_coefficients_live_on_the_grid(self):
        inst = make_fixtures()["tightness"].instance
        assert inst.coefficients[0] == 0
        for a in inst.coefficients[1:]:
            assert (a * 10**12).denominator == 1


class TestTraceSerialization:
    def test_json_shape(self, example1):
        loads, trace = solve(example1, SolverConfig())
        handle = io.StringIO()
        write_trace(trace, handle)
        obj = json.loads(handle.getvalue())
        assert len(obj) == len(trace.moves)
        assert obj[0]["cost_before"] == "inf"
        keys = ["kind", "round", "from", "to", "cost_before", "cost_after"]
        assert all(list(event) == keys for event in obj)
        assert replayed_loads(obj, example1.m) == list(loads)

    @pytest.mark.parametrize(
        "case", [(1, 1), (5, 3), (40, 6), (120, 9), "unreduced", "tightness-x40"]
    )
    def test_written_trace_is_the_json_of_the_event_list(self, case):
        # write_trace streams what json.dumps(trace_to_json(trace)) would
        # give, byte for byte.
        trace = solved_trace(case)
        handle = io.StringIO()
        write_trace(trace, handle)
        assert handle.getvalue() == json.dumps(trace_to_json(trace))

    @pytest.mark.parametrize(
        "case", ["empty", (1, 1), (5, 3), (40, 6), (120, 9), "unreduced", "tightness-x40"]
    )
    def test_pretty_written_trace_is_the_indented_event_list(self, case):
        # Pretty, write_trace lays the events out as json.dumps(indent=2)
        # does one level deep.
        trace = solved_trace(case)
        for pretty, head, tail in ((False, "{", "}"), (True, "{\n  ", "\n}")):
            handle = io.StringIO()
            write_trace(trace, handle, pretty)
            expected = json.dumps({"trace": trace_to_json(trace)}, indent=2 if pretty else None)
            assert head + '"trace": ' + handle.getvalue() + tail == expected

    @pytest.mark.parametrize("pretty", [False, True])
    def test_written_result_is_the_json_of_the_document(self, example1, pretty):
        # write_result streams a trace in place; the bytes are those of
        # json.dumps over the document with the event list in it.
        loads, trace = solve(example1, SolverConfig())
        for with_trace in (None, trace):
            doc = result_document(loads, "incremental", 1.5, alpha=2, needed=1, trace=with_trace)
            handle = io.StringIO()
            write_result(doc, handle, pretty)
            if with_trace is not None:
                doc["trace"] = trace_to_json(trace)
            assert handle.getvalue() == json.dumps(doc, indent=2 if pretty else None) + "\n"

    def test_needed_alpha_serializes_infinity(self):
        # A free deviation needs an infinite factor, written "inf"; a finite
        # one is written as a rational.
        inst = validate_instance([0, 0, 1], 3, 1)
        for loads, written in (((2, 0, 1), "inf"), ((1, 1, 1), "4/3")):
            doc = result_document(loads, "incremental", 0.0, needed=needed_alpha(inst, loads))
            assert doc["needed_alpha"] == written
