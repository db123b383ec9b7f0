"""The trace oracle: pinned sha256 digests of ``RunLog.serialize()``.

A refactor must leave every trace byte unchanged. These digests were
recorded before the code that produces the traces was last simplified;
a change that means to alter behaviour re-records them and says so.
The trace does not carry the Jain indices, so ``report.jain_pairs`` is
pinned by a digest of its own, recorded before ``jain_index`` moved to
integer sums; ``report.cluster_variance`` likewise, recorded before
``energy_report`` stopped calling ``statistics.pvariance``. The
``detections.csv`` and ``corrections.csv`` artifacts are pinned too,
recorded before the verdict record was folded into ``DetectionVerdict``.
Every field of every ``EpisodeRecord`` is pinned as well, over the bundled
scenarios and the hostile seeds in both modes, recorded before the per-alert
correction bookkeeping was folded into single passes.
"""

import hashlib

import pytest

from ubisim.cli import bundled_scenario_text
from ubisim.engine import run_scenario
from ubisim.scenario import parse_scenario

from conftest import random_scenario_text

BUNDLED = {
    "table3.scn": "582f22ee4d2fe4089ca67ed4da6be4078bc903573ad79b8fd41c6db27545b04e",
    "fig3_family/feasible_print.scn": "771d828605540e2fdb33ae24aff1890ac844012b0e55bc6b9ff067f2bcccf597",
    "fig3_family/feasible_scan.scn": "8a8506f92b92b30e3232ada5a7095df602e3382a9934d468fe913982ff5adc73",
    "fig3_family/feasible_sendemail.scn": "bec8f464587713bd4714adfd4d93e65997d356f6242943bcb04f027dd3ee72c6",
    "fig3_family/feasible_updatebdd.scn": "6cbc5f979612e07fe05ae83d0ea66ff9b41823fc9e95591e62085a7760ddb515",
    "fig3_family/feasible_view.scn": "bd9f687c5629df493f046b4ffbdda2844f67977d2d0a4de7c04e930b15d502ed",
    "fig3_family/saturated_print.scn": "07ba0d6ab0e8c49e86e4874f102b7b5dc7c2e8fc546f1e177a7b73953c1ae40a",
    "fig3_family/saturated_scan.scn": "fd20e88f46021c4b57ffefc7eb7f9900246db1944fb5f5145f6b36558709d7a7",
    "fig3_family/saturated_sendemail.scn": "497642b7a5cf1dc53cfda8bdc946e244b460b7f05703bc471d717bf9a82c3c04",
    "fig3_family/saturated_updatebdd.scn": "e8e7fc5fe036fa9302fa3e0d00fe5eb65dfe5479efbf3e3ebf6638aa5760367e",
    "fig3_family/saturated_view.scn": "1b42ea9bdba10904a71ea52d43f2e90740f4688d9581be6c201ebce466297b40",
}

# sha256 of the traces of seeds 0..99 of ``random_scenario_text``, concatenated in seed order
AC5_SEEDS_DIGEST = "ff9ba262379cf7c9898bc5d6e9cfb864e63b6a1842243a462267095bfed220b5"


# sha256 of ``repr(report.jain_pairs)`` for the ten fig3_family scenarios in
# sorted order, then seeds 0..99 of ``random_scenario_text``: 129 pairs
JAIN_PAIRS_DIGEST = "6f428b222f3280d4872dac6c93bb1977a8f742fcc483dbeb279683976c36c9e7"

# sha256 of ``repr(report.cluster_variance)`` over the same 110 runs; the
# values mix ints (exact variances) and floats, and the digest pins both
CLUSTER_VARIANCE_DIGEST = "c829825196d91e49701a0d0aaa6a0c5e75924ebdbf9d8ef42710b0f56c0c39e9"

# sha256 of (detections.csv, corrections.csv) as ``write_outputs`` writes
# them for each bundled scenario, run in each mode
CSV_DIGESTS = {
    ("fig3_family/feasible_print.scn", "dynamic"): (
        "1a042a1da6d13217982575dc71cd4459c35157b999d0d0d92016671a24027704",
        "6454d1d7acaad355f13617aebffb5f334838fcba16d457055ae463592e63a81e",
    ),
    ("fig3_family/feasible_print.scn", "static"): (
        "1a042a1da6d13217982575dc71cd4459c35157b999d0d0d92016671a24027704",
        "d78156e00c9a3a266f844bef751aa052957108118d95917538c5a8f6a7ab8a98",
    ),
    ("fig3_family/feasible_scan.scn", "dynamic"): (
        "81a13d20acdee2ba8b0c9b4349385f105e169fe16432fa919f332bef609d5667",
        "fc973317ca3b22015e9001aafacadbb4d7eaeaf3d98ef51f20f904cbbcd54a94",
    ),
    ("fig3_family/feasible_scan.scn", "static"): (
        "81a13d20acdee2ba8b0c9b4349385f105e169fe16432fa919f332bef609d5667",
        "c11181d92219d4fdacfa80ecf6451e5b072b590082ffecf86383c472854bc5df",
    ),
    ("fig3_family/feasible_sendemail.scn", "dynamic"): (
        "57d043500fc94b0826f1beb8b01ffa88ee5d719b13298438698c9b8bc2214155",
        "d7acb760660513fa30c9a0c3d6113c927e3259bde4e1c0006e08be529ea6a3c6",
    ),
    ("fig3_family/feasible_sendemail.scn", "static"): (
        "57d043500fc94b0826f1beb8b01ffa88ee5d719b13298438698c9b8bc2214155",
        "a26c91d42b3ad5361e200c823f25a85f7eae694099397ebc083c24d8a7224932",
    ),
    ("fig3_family/feasible_updatebdd.scn", "dynamic"): (
        "a2a0797917ae6363d903b18ea248f223b6fe49597b95aa4fc37d74b1214b1d8f",
        "21e5381efeba2fada66d3fb6772e8f5254aa038e727e018f6be4bf8ecd5ca675",
    ),
    ("fig3_family/feasible_updatebdd.scn", "static"): (
        "a2a0797917ae6363d903b18ea248f223b6fe49597b95aa4fc37d74b1214b1d8f",
        "c3204310492aa3f77cc646b9d336ce739c7d73b4216d77830d0fa31aabe91c2c",
    ),
    ("fig3_family/feasible_view.scn", "dynamic"): (
        "4296f9cec0734fa09c8193f1e292869be289882e6d0a06ebe66ef3fe3c79ea90",
        "0a0277b51be73258b6327cc850afc66f17ef916ff6ed36a248e27ee9b98392cf",
    ),
    ("fig3_family/feasible_view.scn", "static"): (
        "4296f9cec0734fa09c8193f1e292869be289882e6d0a06ebe66ef3fe3c79ea90",
        "a650260b604fe745761df586d1c8c0cb9c182748a2e47cbd7838da613769bca6",
    ),
    ("fig3_family/saturated_print.scn", "dynamic"): (
        "208e68f803ade76d1773b3182861da52e4d8efb5810d2f86d3425e7cd886f465",
        "64493dade39e3b0c5c723c261c50f6491fd52a7c058b8c97be964536321e5eef",
    ),
    ("fig3_family/saturated_print.scn", "static"): (
        "208e68f803ade76d1773b3182861da52e4d8efb5810d2f86d3425e7cd886f465",
        "3ea863d4e763b4063336f7d331dd90b475ad9aaa2db83c3015b521d51b9a00f2",
    ),
    ("fig3_family/saturated_scan.scn", "dynamic"): (
        "28935eaf138f4aa1b62bf54ee1c1fa898da79fde1cf40b3310b600d54ef14c79",
        "728f23340d1a727800a351e2740c1d2b0d32456d3b11c2f9de26c1ef1529ee50",
    ),
    ("fig3_family/saturated_scan.scn", "static"): (
        "28935eaf138f4aa1b62bf54ee1c1fa898da79fde1cf40b3310b600d54ef14c79",
        "09d215de32aad578a7f88465c3312cb0af9a14ee6c4560d458f94138a3ef7253",
    ),
    ("fig3_family/saturated_sendemail.scn", "dynamic"): (
        "68f075770e3db733241fc0d4f9f9f49b9c3e0cae8bcea78094dfcf9d2c725277",
        "2fccacafcfde8ccc638a079ae5c998e12a4d17c86dde19e941fe290499df3330",
    ),
    ("fig3_family/saturated_sendemail.scn", "static"): (
        "68f075770e3db733241fc0d4f9f9f49b9c3e0cae8bcea78094dfcf9d2c725277",
        "7e3a312a24f47745f8f7a41c6863f985bf4c499bece84b50130197e45d9db18a",
    ),
    ("fig3_family/saturated_updatebdd.scn", "dynamic"): (
        "c4e607f99f917645c0442b6a46db85090be7cdc761138164d09901ec64424793",
        "74c9659358b66756f2e487a6b16a02438ad6c6a13173501d7d79a7f18c871436",
    ),
    ("fig3_family/saturated_updatebdd.scn", "static"): (
        "c4e607f99f917645c0442b6a46db85090be7cdc761138164d09901ec64424793",
        "95e70fd688589ab6b248237aaca179c9e40fa4fada25e979a114999e2de8ffaf",
    ),
    ("fig3_family/saturated_view.scn", "dynamic"): (
        "6529bcb999529e88dcca32dcf40f6dd1b616bbdec9b77ca2116d4816fd80af76",
        "9e4627d033babe0521d49984d38a7d1dee225460baeeea3cfab738bd22a3f806",
    ),
    ("fig3_family/saturated_view.scn", "static"): (
        "6529bcb999529e88dcca32dcf40f6dd1b616bbdec9b77ca2116d4816fd80af76",
        "7c4a5b96b865578f1b8b850df0f76fa4547889d00266d193e68759e3133c6437",
    ),
    ("table3.scn", "dynamic"): (
        "443ddf645c1c492252f86e9d0717667bb5e8954ce5f95a222be5ea4f46ce4435",
        "a42a017089e5579e755edf7f4909e2011b1c0f8c9ebf895793932c2e207c4e33",
    ),
    ("table3.scn", "static"): (
        "443ddf645c1c492252f86e9d0717667bb5e8954ce5f95a222be5ea4f46ce4435",
        "efeca8a606c5e4715ad1f01bdaedab200d8f0df4bc6e34ed8e08de4f53b9317b",
    ),
}

# sha256 of ``repr(episode_fields(ep))`` for every episode of the bundled
# scenarios in sorted order, then the hostile ``SEEDS`` of test_invariants,
# each run in dynamic then static mode
EPISODES_DIGEST = "c264db240fabcad36cc0ea63411456af9b79f20cb1947fac4e420a1549fa80b8"


def trace_of(text):
    _report, log = run_scenario(parse_scenario(text))
    return log.serialize().encode()


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_bundled_scenario_trace_is_pinned(name):
    digest = hashlib.sha256(trace_of(bundled_scenario_text(name))).hexdigest()
    assert digest == BUNDLED[name]


def test_ac5_seed_traces_are_pinned():
    h = hashlib.sha256()
    for seed in range(100):
        h.update(trace_of(random_scenario_text(seed)))
    assert h.hexdigest() == AC5_SEEDS_DIGEST


def report_digest(field):
    """sha256 of ``repr(getattr(report, field))`` over the ten fig3_family
    scenarios in sorted order, then seeds 0..99 of ``random_scenario_text``."""
    texts = [bundled_scenario_text(name) for name in sorted(BUNDLED)
             if name.startswith("fig3_family/")]
    texts += [random_scenario_text(seed) for seed in range(100)]
    h = hashlib.sha256()
    for text in texts:
        report, _log = run_scenario(parse_scenario(text))
        h.update(repr(getattr(report, field)).encode())
    return h.hexdigest()


def test_jain_pairs_are_pinned():
    assert report_digest("jain_pairs") == JAIN_PAIRS_DIGEST


def test_cluster_variance_is_pinned():
    assert report_digest("cluster_variance") == CLUSTER_VARIANCE_DIGEST


@pytest.mark.parametrize("name,mode", sorted(CSV_DIGESTS))
def test_detection_and_correction_csvs_are_pinned(name, mode, tmp_path):
    scenario = parse_scenario(bundled_scenario_text(name))
    scenario.run.mode = mode
    run_scenario(scenario, tmp_path)
    digests = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
                    for f in ("detections.csv", "corrections.csv"))
    assert digests == CSV_DIGESTS[name, mode]


def episode_fields(ep):
    """Every field of one ``EpisodeRecord``, its services' books included."""
    return (ep.window, ep.node, ep.head, ep.mode, ep.involved, ep.downtime_ticks,
            ep.totals_before, ep.totals_after, ep.jain_before, ep.jain_after,
            ep.outcome, ep.post_window,
            [(svc, se.excess_before, se.moved, se.residual, se.outcome)
             for svc, se in ep.services.items()])


def test_episode_records_are_pinned():
    # imported here: test_invariants imports this module at its top
    from test_invariants import SEEDS, hostile_scenario_text

    texts = [bundled_scenario_text(name) for name in sorted(BUNDLED)]
    texts += [hostile_scenario_text(seed) for seed in SEEDS]
    h = hashlib.sha256()
    for text in texts:
        for mode in ("dynamic", "static"):
            scenario = parse_scenario(text)
            scenario.run.mode = mode
            _report, log = run_scenario(scenario)
            for ep in log.episodes:
                h.update(repr(episode_fields(ep)).encode())
    assert h.hexdigest() == EPISODES_DIGEST
