import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ubisim.cli import bundled_scenario_text
from ubisim.scenario import (
    DanglingEdge,
    DuplicateNode,
    MalformedLine,
    NegativeValue,
    ParseError,
    Scenario,
    UnknownService,
    parse_scenario,
    serialize_scenario,
)

from conftest import random_scenario_text

MINIMAL = """
[services]
name=Print capacity=34

[nodes]
id=0
id=1

[edges]
a=0 b=1

[run]
ticks=20 window=10
"""


class TestParseBundled:
    def test_table_scenario_values(self):
        scenario = parse_scenario(bundled_scenario_text())
        caps = {s.name: s.capacity for s in scenario.services}
        assert caps == {"Print": 34, "View": 123, "SendEmail": 10, "UpdateBDD": 50, "Scan": 8}
        assert [n.id for n in scenario.nodes] == [0, 1, 2, 3, 4, 5]
        assert len(scenario.injections) == 5
        assert all(i.at == 12 for i in scenario.injections)
        assert scenario.run.window == 10 and scenario.run.ticks == 40
        assert scenario.run.mode == "dynamic"

    def test_empty_workload_section_valid(self):
        scenario = parse_scenario(bundled_scenario_text())
        assert scenario.workload == []


class TestParseErrors:
    def test_dangling_edge_with_line_number(self):
        text = MINIMAL.replace("a=0 b=1", "a=0 b=9")
        with pytest.raises(DanglingEdge) as exc:
            parse_scenario(text)
        assert exc.value.line == 10  # the offending [edges] entry
        assert "line 10" in str(exc.value)

    def test_duplicate_node(self):
        text = MINIMAL.replace("id=1", "id=0")
        with pytest.raises(DuplicateNode):
            parse_scenario(text)

    def test_negative_energy(self):
        text = MINIMAL.replace("id=1", "id=1 energy=-5")
        with pytest.raises(NegativeValue):
            parse_scenario(text)

    def test_unknown_service_override(self):
        text = MINIMAL.replace("id=1", "id=1 cap.Fax=5")
        with pytest.raises(UnknownService):
            parse_scenario(text)

    def test_unknown_service_in_inject(self):
        text = MINIMAL + "\n[inject]\nat=5 node=0 service=Fax load=9\n"
        with pytest.raises(UnknownService):
            parse_scenario(text)

    def test_malformed_tokens(self):
        with pytest.raises(MalformedLine):
            parse_scenario(MINIMAL + "\n[run]\nnot a kv line\n")

    def test_content_before_section(self):
        with pytest.raises(MalformedLine):
            parse_scenario("name=Print capacity=3\n" + MINIMAL)

    def test_unknown_section(self):
        with pytest.raises(MalformedLine):
            parse_scenario(MINIMAL + "\n[bogus]\n")

    def test_ticks_below_window(self):
        text = MINIMAL.replace("ticks=20 window=10", "ticks=5 window=10")
        with pytest.raises(MalformedLine):
            parse_scenario(text)

    def test_injection_beyond_horizon(self):
        text = MINIMAL + "\n[inject]\nat=999 node=0 service=Print load=9\n"
        with pytest.raises(MalformedLine) as exc:
            parse_scenario(text)
        assert "horizon" in str(exc.value)

    def test_capacity_below_one(self):
        text = MINIMAL.replace("capacity=34", "capacity=0")
        with pytest.raises(NegativeValue):
            parse_scenario(text)

    def test_bad_mode(self):
        text = MINIMAL.replace("mode=dynamic", "mode=sideways") if "mode" in MINIMAL else (
            MINIMAL + "\n[run]\nmode=sideways\n"
        )
        with pytest.raises(MalformedLine):
            parse_scenario(text)

    @pytest.mark.parametrize("field", ["drop", "energy_tolerance"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_number(self, field, value):
        with pytest.raises(MalformedLine):
            parse_scenario(MINIMAL + f"\n[run]\n{field}={value}\n")

    def test_missing_sections(self):
        with pytest.raises(MalformedLine):
            parse_scenario("[nodes]\nid=0\n")
        with pytest.raises(MalformedLine):
            parse_scenario("[services]\nname=P capacity=1\n")


class TestRoundTrip:
    def test_bundled_round_trips(self):
        scenario = parse_scenario(bundled_scenario_text())
        again = parse_scenario(serialize_scenario(scenario))
        assert again == scenario

    @pytest.mark.parametrize("seed", range(12))
    def test_random_scenarios_round_trip(self, seed):
        scenario = parse_scenario(random_scenario_text(seed))
        assert parse_scenario(serialize_scenario(scenario)) == scenario

    def test_comments_and_blanks_ignored(self):
        commented = "\n".join(
            f"{line}  # trailing note" if line and not line.startswith("[") else line
            for line in MINIMAL.splitlines()
        )
        assert parse_scenario(commented) == parse_scenario(MINIMAL)


class TestTotality:
    @given(st.text(max_size=400))
    @settings(deadline=None, max_examples=200)
    def test_arbitrary_text_never_crashes(self, text):
        try:
            scenario = parse_scenario(text)
        except ParseError as exc:
            assert isinstance(exc.line, int)
        else:
            assert isinstance(scenario, Scenario)

    @given(st.binary(max_size=300))
    @settings(deadline=None, max_examples=100)
    def test_arbitrary_bytes_decoded_never_crash(self, blob):
        text = blob.decode("utf-8", errors="replace")
        try:
            parse_scenario(text)
        except ParseError:
            pass
