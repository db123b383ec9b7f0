import dataclasses
import hashlib
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ubisim.cli import bundled_scenario_text
from ubisim.scenario import (
    DanglingEdge,
    DuplicateNode,
    MalformedLine,
    MissingCapacity,
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


def after_minimal(lines):
    """MINIMAL, which is 13 lines long, followed by ``lines``."""
    return MINIMAL + lines + "\n"


# One malformed input per check in the parser, with the class, line number
# and message each raises; several rows pin which of two problems on one
# line is reported. Recorded from the parser as it stood before it was
# rewritten to handle each line once; the ``[energy]`` and ``[run]`` rows
# that pin a non-integer value, a bad ``energy_tolerance`` or which of two
# bad keys is reported were recorded before those sections were parsed from
# their dataclass fields. The defensive "unparseable line"
# branch has no row: no input reaches it, as every field is checked where it
# is read.
PINNED_ERRORS = [
    ('token_without_equals', after_minimal('[run]\nticks'),
     MalformedLine, 15, "MalformedLine line 15: expected key=value fields, got 'ticks'"),
    ('token_with_empty_key', after_minimal('[run]\n=5'),
     MalformedLine, 15, "MalformedLine line 15: expected key=value fields, got '=5'"),
    ('token_with_empty_value', after_minimal('[run]\nticks='),
     MalformedLine, 15, "MalformedLine line 15: expected key=value fields, got 'ticks='"),
    ('duplicate_field', after_minimal('[run]\nticks=20 ticks=30'),
     MalformedLine, 15, "MalformedLine line 15: duplicate field 'ticks'"),
    ('duplicate_field_before_bad_token', after_minimal('[run]\nticks=20 ticks=30 junk'),
     MalformedLine, 15, "MalformedLine line 15: duplicate field 'ticks'"),
    ('comment_cuts_value', after_minimal('[services]\nname=Fax capacity=#5'),
     MalformedLine, 15, "MalformedLine line 15: expected key=value fields, got 'capacity='"),
    ('unterminated_header', after_minimal('[run\nticks=20'),
     MalformedLine, 14, 'MalformedLine line 14: unterminated section header'),
    ('unknown_section', after_minimal('[bogus] # note'),
     MalformedLine, 14, 'MalformedLine line 14: unknown section [bogus]'),
    ('unknown_section_lowered', after_minimal('[ BOGUS ]'),
     MalformedLine, 14, 'MalformedLine line 14: unknown section [bogus]'),
    ('content_before_section', 'name=Print capacity=3\n' + MINIMAL,
     MalformedLine, 1, 'MalformedLine line 1: content before any [section] header'),
    ('service_missing_name', after_minimal('[services]\ncapacity=3'),
     MalformedLine, 15, "MalformedLine line 15: missing required field 'name'"),
    ('service_declared_twice', after_minimal('[services]\nname=Print'),
     MalformedLine, 15, "MalformedLine line 15: service 'Print' declared twice"),
    ('service_capacity_not_int', after_minimal('[services]\nname=Fax capacity=x'),
     MalformedLine, 15, "MalformedLine line 15: capacity must be an integer, got 'x'"),
    ('service_capacity_below_one', after_minimal('[services]\nname=Fax capacity=0'),
     NegativeValue, 15, 'NegativeValue line 15: capacity must be >= 1, got 0'),
    ('service_unknown_fields_sorted', after_minimal('[services]\nname=Fax zeta=1 alpha=2'),
     MalformedLine, 15, "MalformedLine line 15: unknown field 'alpha'"),
    ('service_twice_beats_bad_capacity', after_minimal('[services]\nname=Print capacity=x'),
     MalformedLine, 15, "MalformedLine line 15: service 'Print' declared twice"),
    ('node_missing_id', after_minimal('[nodes]\nenergy=5'),
     MalformedLine, 15, "MalformedLine line 15: missing required field 'id'"),
    ('node_id_not_int', after_minimal('[nodes]\nid=two'),
     MalformedLine, 15, "MalformedLine line 15: id must be an integer, got 'two'"),
    ('node_id_negative', after_minimal('[nodes]\nid=-1'),
     NegativeValue, 15, 'NegativeValue line 15: id must be >= 0, got -1'),
    ('node_declared_twice', after_minimal('[nodes]\nid=1'),
     DuplicateNode, 15, 'DuplicateNode line 15: node 1 declared twice'),
    ('node_twice_beats_bad_energy', after_minimal('[nodes]\nid=1 energy=x'),
     DuplicateNode, 15, 'DuplicateNode line 15: node 1 declared twice'),
    ('node_energy_negative', after_minimal('[nodes]\nid=2 energy=-5'),
     NegativeValue, 15, 'NegativeValue line 15: energy must be >= 0, got -5'),
    ('node_energy_not_int', after_minimal('[nodes]\nid=2 energy=lots'),
     MalformedLine, 15, "MalformedLine line 15: energy must be an integer, got 'lots'"),
    ('node_override_unknown_service', after_minimal('[nodes]\nid=2 cap.Fax=5'),
     UnknownService, 15, "UnknownService line 15: override for undeclared service 'Fax'"),
    ('node_override_below_one', after_minimal('[nodes]\nid=2 cap.Print=0'),
     NegativeValue, 15, 'NegativeValue line 15: cap.Print must be >= 1, got 0'),
    ('node_override_not_int', after_minimal('[nodes]\nid=2 cap.Print=x'),
     MalformedLine, 15, "MalformedLine line 15: cap.Print must be an integer, got 'x'"),
    ('node_energy_beats_override', after_minimal('[nodes]\nid=2 cap.Fax=1 energy=-1'),
     NegativeValue, 15, 'NegativeValue line 15: energy must be >= 0, got -1'),
    ('node_unknown_field', after_minimal('[nodes]\nid=2 colour=red'),
     MalformedLine, 15, "MalformedLine line 15: unknown field 'colour'"),
    ('node_override_beats_unknown_field', after_minimal('[nodes]\nid=2 colour=red cap.Print=0'),
     NegativeValue, 15, 'NegativeValue line 15: cap.Print must be >= 1, got 0'),
    ('edge_missing_a', after_minimal('[edges]\nb=1'),
     MalformedLine, 15, "MalformedLine line 15: missing required field 'a'"),
    ('edge_missing_both', after_minimal('[edges]\nc=1'),
     MalformedLine, 15, "MalformedLine line 15: missing required field 'a'"),
    ('edge_missing_b', after_minimal('[edges]\na=0'),
     MalformedLine, 15, "MalformedLine line 15: missing required field 'b'"),
    ('edge_a_not_int', after_minimal('[edges]\na=x b=1'),
     MalformedLine, 15, "MalformedLine line 15: a must be an integer, got 'x'"),
    ('edge_a_negative', after_minimal('[edges]\na=-1 b=1'),
     NegativeValue, 15, 'NegativeValue line 15: a must be >= 0, got -1'),
    ('edge_b_not_int', after_minimal('[edges]\na=0 b=y'),
     MalformedLine, 15, "MalformedLine line 15: b must be an integer, got 'y'"),
    ('edge_b_negative', after_minimal('[edges]\na=0 b=-3'),
     NegativeValue, 15, 'NegativeValue line 15: b must be >= 0, got -3'),
    ('edge_unknown_field', after_minimal('[edges]\na=0 b=1 w=3'),
     MalformedLine, 15, "MalformedLine line 15: unknown field 'w'"),
    ('edge_bad_b_beats_unknown_field', after_minimal('[edges]\na=0 b=x w=3'),
     MalformedLine, 15, "MalformedLine line 15: b must be an integer, got 'x'"),
    ('edge_unknown_field_beats_self_loop', after_minimal('[edges]\na=1 b=1 w=3'),
     MalformedLine, 15, "MalformedLine line 15: unknown field 'w'"),
    ('edge_self_loop', after_minimal('[edges]\na=1 b=1'),
     MalformedLine, 15, 'MalformedLine line 15: self-loop on node 1'),
    ('edge_self_loop_beats_dangling', after_minimal('[edges]\na=7 b=7'),
     MalformedLine, 15, 'MalformedLine line 15: self-loop on node 7'),
    ('edge_dangling_a', after_minimal('[edges]\na=7 b=1'),
     DanglingEdge, 15, 'DanglingEdge line 15: edge references undeclared node 7'),
    ('edge_dangling_b', after_minimal('[edges]\nb=0 a=9'),
     DanglingEdge, 15, 'DanglingEdge line 15: edge references undeclared node 9'),
    ('edge_dangling_both', after_minimal('[edges]\na=8 b=9'),
     DanglingEdge, 15, 'DanglingEdge line 15: edge references undeclared node 8'),
    ('energy_idle_negative', after_minimal('[energy]\nidle=-1'),
     NegativeValue, 15, 'NegativeValue line 15: idle must be >= 0, got -1'),
    ('energy_tx_not_int', after_minimal('[energy]\ntx=x'),
     MalformedLine, 15, "MalformedLine line 15: tx must be an integer, got 'x'"),
    ('energy_rx_negative', after_minimal('[energy]\nrx=-1'),
     NegativeValue, 15, 'NegativeValue line 15: rx must be >= 0, got -1'),
    ('energy_request_negative', after_minimal('[energy]\nrequest=-2'),
     NegativeValue, 15, 'NegativeValue line 15: request must be >= 0, got -2'),
    ('energy_unknown_service', after_minimal('[energy]\nrequest.Fax=2'),
     UnknownService, 15, "UnknownService line 15: energy cost for undeclared service 'Fax'"),
    ('energy_service_cost_negative', after_minimal('[energy]\nrequest.Print=-1'),
     NegativeValue, 15, 'NegativeValue line 15: request.Print must be >= 0, got -1'),
    ('energy_idle_not_int', after_minimal('[energy]\nidle=x'),
     MalformedLine, 15, "MalformedLine line 15: idle must be an integer, got 'x'"),
    ('energy_rx_not_int', after_minimal('[energy]\nrx=x'),
     MalformedLine, 15, "MalformedLine line 15: rx must be an integer, got 'x'"),
    ('energy_request_not_int', after_minimal('[energy]\nrequest=x'),
     MalformedLine, 15, "MalformedLine line 15: request must be an integer, got 'x'"),
    ('energy_service_cost_not_int', after_minimal('[energy]\nrequest.Print=x'),
     MalformedLine, 15, "MalformedLine line 15: request.Print must be an integer, got 'x'"),
    ('energy_idle_beats_tx', after_minimal('[energy]\nidle=-1 tx=x'),
     NegativeValue, 15, 'NegativeValue line 15: idle must be >= 0, got -1'),
    ('energy_request_beats_service_cost', after_minimal('[energy]\nrequest.Print=-1 request=x'),
     MalformedLine, 15, "MalformedLine line 15: request must be an integer, got 'x'"),
    ('energy_service_cost_beats_unknown_field', after_minimal('[energy]\nwatts=3 request.Print=x'),
     MalformedLine, 15, "MalformedLine line 15: request.Print must be an integer, got 'x'"),
    ('energy_field_name_is_not_a_key', after_minimal('[energy]\nrequest_default=5'),
     MalformedLine, 15, "MalformedLine line 15: unknown field 'request_default'"),
    ('energy_unknown_field', after_minimal('[energy]\nidle=1 watts=3'),
     MalformedLine, 15, "MalformedLine line 15: unknown field 'watts'"),
    ('workload_missing_at', after_minimal('[workload]\nnode=0 service=Print n=1'),
     MalformedLine, 15, "MalformedLine line 15: missing required field 'at'"),
    ('workload_missing_several', after_minimal('[workload]\nservice=Print'),
     MalformedLine, 15, "MalformedLine line 15: missing required field 'at'"),
    ('workload_missing_service', after_minimal('[workload]\nat=1 node=0 n=1'),
     MalformedLine, 15, "MalformedLine line 15: missing required field 'service'"),
    ('workload_missing_n', after_minimal('[workload]\nat=1 node=0 service=Print load=1'),
     MalformedLine, 15, "MalformedLine line 15: missing required field 'n'"),
    ('inject_missing_load', after_minimal('[inject]\nat=1 node=0 service=Print n=3'),
     MalformedLine, 15, "MalformedLine line 15: missing required field 'load'"),
    ('workload_at_negative', after_minimal('[workload]\nat=-1 node=0 service=Print n=1'),
     NegativeValue, 15, 'NegativeValue line 15: at must be >= 0, got -1'),
    ('workload_node_not_int', after_minimal('[workload]\nat=1 node=x service=Print n=1'),
     MalformedLine, 15, "MalformedLine line 15: node must be an integer, got 'x'"),
    ('workload_n_negative', after_minimal('[workload]\nat=1 node=0 service=Print n=-1'),
     NegativeValue, 15, 'NegativeValue line 15: n must be >= 0, got -1'),
    ('inject_load_not_int', after_minimal('[inject]\nat=1 node=0 service=Print load=x'),
     MalformedLine, 15, "MalformedLine line 15: load must be an integer, got 'x'"),
    ('workload_unknown_field', after_minimal('[workload]\nat=1 node=0 service=Print n=1 x=2'),
     MalformedLine, 15, "MalformedLine line 15: unknown field 'x'"),
    ('workload_unknown_service', after_minimal('[workload]\nat=1 node=0 service=Fax n=1'),
     UnknownService, 15, "UnknownService line 15: undeclared service 'Fax'"),
    ('inject_unknown_service_beats_undeclared_node',
     after_minimal('[inject]\nat=1 node=9 service=Fax load=1'),
     UnknownService, 15, "UnknownService line 15: undeclared service 'Fax'"),
    ('workload_undeclared_node', after_minimal('[workload]\nat=1 node=9 service=Print n=1'),
     MalformedLine, 15, 'MalformedLine line 15: undeclared node 9'),
    ('workload_beyond_horizon', after_minimal(
        '[workload]\nat=21 node=0 service=Print n=1\nat=22 node=0 service=Print n=1'),
     MalformedLine, 15, 'MalformedLine line 15: workload at t=21 is beyond the run horizon (20)'),
    ('inject_beyond_horizon', after_minimal(
        '[workload]\nat=20 node=0 service=Print n=1\n[inject]\nat=99 node=1 service=Print load=1'),
     MalformedLine, 17, 'MalformedLine line 17: inject at t=99 is beyond the run horizon (20)'),
    ('horizon_reports_the_first_line_past_it', after_minimal(
        '[workload]\nat=5 node=0 service=Print n=1\nat=30 node=0 service=Print n=1\n'
        'at=25 node=0 service=Print n=1'),
     MalformedLine, 16, 'MalformedLine line 16: workload at t=30 is beyond the run horizon (20)'),
    ('horizon_reports_across_sections', after_minimal(
        '[inject]\nat=21 node=0 service=Print load=1\n[workload]\nat=40 node=0 service=Print n=1'),
     MalformedLine, 15, 'MalformedLine line 15: inject at t=21 is beyond the run horizon (20)'),
    ('run_ticks_zero', after_minimal('[run]\nticks=0'),
     NegativeValue, 15, 'NegativeValue line 15: ticks must be >= 1, got 0'),
    ('run_window_zero', after_minimal('[run]\nwindow=0'),
     NegativeValue, 15, 'NegativeValue line 15: window must be >= 1, got 0'),
    ('run_window_not_int', after_minimal('[run]\nwindow=ten'),
     MalformedLine, 15, "MalformedLine line 15: window must be an integer, got 'ten'"),
    ('run_mode_unknown', after_minimal('[run]\nmode=sideways'),
     MalformedLine, 15, "MalformedLine line 15: mode must be dynamic or static, got 'sideways'"),
    ('run_seed_not_int', after_minimal('[run]\nseed=x'),
     MalformedLine, 15, "MalformedLine line 15: seed must be an integer, got 'x'"),
    ('run_latency_zero', after_minimal('[run]\nlatency=0'),
     NegativeValue, 15, 'NegativeValue line 15: latency must be >= 1, got 0'),
    ('run_drop_not_number', after_minimal('[run]\ndrop=x'),
     MalformedLine, 15, "MalformedLine line 15: drop must be a number, got 'x'"),
    ('run_drop_nan', after_minimal('[run]\ndrop=nan'),
     MalformedLine, 15, "MalformedLine line 15: drop must be finite, got 'nan'"),
    ('run_drop_negative', after_minimal('[run]\ndrop=-0.5'),
     NegativeValue, 15, 'NegativeValue line 15: drop must be >= 0.0, got -0.5'),
    ('run_drop_above_one', after_minimal('[run]\ndrop=1.5'),
     MalformedLine, 15, 'MalformedLine line 15: drop must be <= 1.0, got 1.5'),
    ('run_report_every_zero', after_minimal('[run]\nreport_every=0'),
     NegativeValue, 15, 'NegativeValue line 15: report_every must be >= 1, got 0'),
    ('run_quiesce_ticks_negative', after_minimal('[run]\nquiesce_ticks=-1'),
     NegativeValue, 15, 'NegativeValue line 15: quiesce_ticks must be >= 0, got -1'),
    ('run_staleness_max_negative', after_minimal('[run]\nstaleness_max=-1'),
     NegativeValue, 15, 'NegativeValue line 15: staleness_max must be >= 0, got -1'),
    ('run_energy_tolerance_negative', after_minimal('[run]\nenergy_tolerance=-0.1'),
     NegativeValue, 15, 'NegativeValue line 15: energy_tolerance must be >= 0.0, got -0.1'),
    ('run_energy_tolerance_infinite', after_minimal('[run]\nenergy_tolerance=inf'),
     MalformedLine, 15, "MalformedLine line 15: energy_tolerance must be finite, got 'inf'"),
    ('run_ticks_not_int', after_minimal('[run]\nticks=x'),
     MalformedLine, 15, "MalformedLine line 15: ticks must be an integer, got 'x'"),
    ('run_latency_not_int', after_minimal('[run]\nlatency=1.5'),
     MalformedLine, 15, "MalformedLine line 15: latency must be an integer, got '1.5'"),
    ('run_report_every_not_int', after_minimal('[run]\nreport_every=x'),
     MalformedLine, 15, "MalformedLine line 15: report_every must be an integer, got 'x'"),
    ('run_quiesce_ticks_not_int', after_minimal('[run]\nquiesce_ticks=x'),
     MalformedLine, 15, "MalformedLine line 15: quiesce_ticks must be an integer, got 'x'"),
    ('run_staleness_max_not_int', after_minimal('[run]\nstaleness_max=x'),
     MalformedLine, 15, "MalformedLine line 15: staleness_max must be an integer, got 'x'"),
    ('run_energy_tolerance_not_number', after_minimal('[run]\nenergy_tolerance=x'),
     MalformedLine, 15, "MalformedLine line 15: energy_tolerance must be a number, got 'x'"),
    ('run_drop_beats_report_every', after_minimal('[run]\ndrop=1.5 report_every=0'),
     MalformedLine, 15, 'MalformedLine line 15: drop must be <= 1.0, got 1.5'),
    ('run_drop_beats_report_every_in_field_order', after_minimal('[run]\nreport_every=0 drop=1.5'),
     MalformedLine, 15, 'MalformedLine line 15: drop must be <= 1.0, got 1.5'),
    ('run_mode_beats_seed', after_minimal('[run]\nseed=x mode=x'),
     MalformedLine, 15, "MalformedLine line 15: mode must be dynamic or static, got 'x'"),
    ('run_ticks_beats_energy_tolerance', after_minimal('[run]\nenergy_tolerance=x ticks=0'),
     NegativeValue, 15, 'NegativeValue line 15: ticks must be >= 1, got 0'),
    ('run_unknown_field', after_minimal('[run]\nticks=20 speed=2'),
     MalformedLine, 15, "MalformedLine line 15: unknown field 'speed'"),
    ('run_bad_mode_beats_unknown_field', after_minimal('[run]\nspeed=2 mode=x'),
     MalformedLine, 15, "MalformedLine line 15: mode must be dynamic or static, got 'x'"),
    ('run_ticks_below_window', after_minimal('[run]\nwindow=30'),
     MalformedLine, 0, 'MalformedLine line 0: ticks (20) must be >= window (30)'),
    ('no_services', '[nodes]\nid=0\n',
     MalformedLine, 0, 'MalformedLine line 0: no [services] declared'),
    ('no_nodes', '[services]\nname=P capacity=1\n',
     MalformedLine, 0, 'MalformedLine line 0: no [nodes] declared'),
    ('empty_text', '',
     MalformedLine, 0, 'MalformedLine line 0: no [services] declared'),
]


class TestPinnedErrors:
    @pytest.mark.parametrize(
        "text, cls, line, message",
        [row[1:] for row in PINNED_ERRORS],
        ids=[row[0] for row in PINNED_ERRORS],
    )
    def test_class_line_and_message(self, text, cls, line, message):
        with pytest.raises(ParseError) as exc:
            parse_scenario(text)
        assert type(exc.value) is cls
        assert exc.value.line == line
        assert str(exc.value) == message

    def test_missing_capacity(self):
        scenario = parse_scenario(MINIMAL.replace("name=Print capacity=34", "name=Print"))
        with pytest.raises(MissingCapacity) as exc:
            scenario.capacities()
        assert str(exc.value) == "node 0 offers 'Print' but no capacity is configured"


# sha256 of ``repr(parse_scenario(text))`` for each bundled scenario, and of
# the reprs of seeds 0..99 of ``random_scenario_text`` concatenated in seed
# order; recorded from the parser as it stood before it was rewritten
PARSED_DIGESTS = {
    "fig3_family/feasible_print.scn": "9b83f13635dbc6977bc63e18cfe5693bfd2e82c1ae69fe7777a35dcb8a705356",
    "fig3_family/feasible_scan.scn": "3ff159979f8010b669bd5806503fb24de3af571fdb4d64b537843f3d45b9caa9",
    "fig3_family/feasible_sendemail.scn": "d7008ae86c95a5b4324f92cdf841ca5cda80c28c3573ac1c4d0683ee6149d428",
    "fig3_family/feasible_updatebdd.scn": "93792b6fc5ad2b2eb9016212b717fc9496c93cba72184f55c0477b8422cd4f4a",
    "fig3_family/feasible_view.scn": "36b9fd32f5a1c779caaec73fd0b8f0e73690050504ee81f680646350578b27ed",
    "fig3_family/saturated_print.scn": "45fdb2b15f7de92596e201476b919cca7192a73732771ddea900df8f83f94650",
    "fig3_family/saturated_scan.scn": "e4974c595d30c200dddd2604afe0825c4e8699e86778e619351a6a01ca822e02",
    "fig3_family/saturated_sendemail.scn": "9b2446909927e2755d2ebb318b68f63af93b573603f0a52fed22835b49f18737",
    "fig3_family/saturated_updatebdd.scn": "ff5a8aa868a545154eac63f89e1a6792d40a538100b3254e56339dd9390fa341",
    "fig3_family/saturated_view.scn": "6e6493594ac23c164f93fffe80797d546b5880b788586900d765569ecace0d36",
    "table3.scn": "4d6e04bd81dacaba04e4a9e6f000e87ee721dc0120cabdae3c63b2df83262c00",
}
RANDOM_PARSED_DIGEST = "0dd2081bd932ed6627fe4db9337bf8cce310d73faa040bbd8cba51cb66084d6b"


# sha256 of ``serialize_scenario(parse_scenario(text))`` for each bundled
# scenario, and of the serialized texts of seeds 0..99 of
# ``random_scenario_text`` concatenated in seed order; recorded from the
# serializer as it stood before the optional keys of ``[energy]`` and
# ``[run]`` were written from their dataclass fields
SERIALIZED_DIGESTS = {
    "fig3_family/feasible_print.scn": "893ee24e365c4644d1b735b2932797888d98180bd9e6c4381e835fb3094514b4",
    "fig3_family/feasible_scan.scn": "8fef3b4fb538968b51b3fa826d0720c4e177ddcd6cc449d5d2efc33aa3f919ac",
    "fig3_family/feasible_sendemail.scn": "8957ea4b7c20ec6de353e44f69eada81d9a7b92809bb6b7096701987cf6cb9b8",
    "fig3_family/feasible_updatebdd.scn": "6022641ad1459d969a48c7fe63b7d058ce95b193cd86d05bc7ace92ccce9e881",
    "fig3_family/feasible_view.scn": "8a24e8b90b6ab196d319bad3fdb8f4c776585469bb0a997e0955bd402de1971f",
    "fig3_family/saturated_print.scn": "9a324a4fca4874e91fcedebb1432f311f78f98b532ca6e4860340308f7c7bdf8",
    "fig3_family/saturated_scan.scn": "2a30a9a120055a14f8b703fd6f558cdd0afab4a42880682425653d743c3506a3",
    "fig3_family/saturated_sendemail.scn": "b7e8ff14cc648b7bbc7bed97f0e52208b08929f941547e2af35b51b5219bc398",
    "fig3_family/saturated_updatebdd.scn": "6b3f29c70814dbf49e95eae443942b4801489024938a9a49b16e37f5598774e0",
    "fig3_family/saturated_view.scn": "5ae3d975d34353fbbf562cd42e02f70431de4fdd62cc93f43cefd8723086d382",
    "table3.scn": "79f04f60873e6eb404e2da8d6b5864847d833674191e4eb0a123def93898388a",
}
RANDOM_SERIALIZED_DIGEST = "f6e454dfbae308fad2621988a668d3a9f3ffb65aa982037228591c4c4011b980"


class TestPinnedScenarios:
    def test_every_bundled_scenario_is_pinned(self):
        root = resources.files("ubisim.scenarios")
        found = {"table3.scn"} | {
            f"fig3_family/{p.name}" for p in (root / "fig3_family").iterdir()
            if p.name.endswith(".scn")
        }
        assert found == set(PARSED_DIGESTS)

    @pytest.mark.parametrize("name", sorted(PARSED_DIGESTS))
    def test_bundled_scenario_parses_as_before(self, name):
        scenario = parse_scenario(bundled_scenario_text(name))
        assert hashlib.sha256(repr(scenario).encode()).hexdigest() == PARSED_DIGESTS[name]

    def test_random_scenarios_parse_as_before(self):
        h = hashlib.sha256()
        for seed in range(100):
            h.update(repr(parse_scenario(random_scenario_text(seed))).encode())
        assert h.hexdigest() == RANDOM_PARSED_DIGEST

    @pytest.mark.parametrize("name", sorted(SERIALIZED_DIGESTS))
    def test_bundled_scenario_serializes_as_before(self, name):
        text = serialize_scenario(parse_scenario(bundled_scenario_text(name)))
        assert hashlib.sha256(text.encode()).hexdigest() == SERIALIZED_DIGESTS[name]

    def test_random_scenarios_serialize_as_before(self):
        h = hashlib.sha256()
        for seed in range(100):
            h.update(serialize_scenario(parse_scenario(random_scenario_text(seed))).encode())
        assert h.hexdigest() == RANDOM_SERIALIZED_DIGEST


class TestRoundTrip:
    def test_bundled_round_trips(self):
        scenario = parse_scenario(bundled_scenario_text())
        again = parse_scenario(serialize_scenario(scenario))
        assert again == scenario

    @pytest.mark.parametrize("seed", range(12))
    def test_random_scenarios_round_trip(self, seed):
        scenario = parse_scenario(random_scenario_text(seed))
        assert parse_scenario(serialize_scenario(scenario)) == scenario

    # a valid value other than the default for every field of the two
    # settings sections, keyed by (``Scenario`` attribute, field name)
    NON_DEFAULT = {
        ("run", "ticks"): 50, ("run", "window"): 5, ("run", "mode"): "static",
        ("run", "seed"): -3, ("run", "latency"): 3, ("run", "drop"): 0.25,
        ("run", "report_every"): 3, ("run", "quiesce_ticks"): 0,
        ("run", "staleness_max"): 0, ("run", "energy_tolerance"): 0.15,
        ("energy", "idle"): 0, ("energy", "tx"): 7, ("energy", "rx"): 0,
        ("energy", "request_default"): 9, ("energy", "request"): {"Print": 4},
    }

    def test_every_settings_field_has_a_non_default_value(self):
        scenario = Scenario()
        assert set(self.NON_DEFAULT) == {
            (section, f.name) for section in ("run", "energy")
            for f in dataclasses.fields(getattr(scenario, section))
        }
        for (section, name), value in self.NON_DEFAULT.items():
            assert getattr(getattr(scenario, section), name) != value

    @pytest.mark.parametrize("section, name", sorted(NON_DEFAULT))
    def test_each_settings_field_round_trips(self, section, name):
        scenario = parse_scenario(MINIMAL)
        setattr(getattr(scenario, section), name, self.NON_DEFAULT[section, name])
        again = parse_scenario(serialize_scenario(scenario))
        assert getattr(getattr(again, section), name) == self.NON_DEFAULT[section, name]
        assert again == scenario

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
