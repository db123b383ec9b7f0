"""The trace oracle: pinned sha256 digests of ``RunLog.serialize()``.

A refactor must leave every trace byte unchanged. These digests were
recorded before the code that produces the traces was last simplified;
a change that means to alter behaviour re-records them and says so.
The trace does not carry the Jain indices, so ``report.jain_pairs`` is
pinned by a digest of its own, recorded before ``jain_index`` moved to
integer sums; ``report.cluster_variance`` likewise, recorded before
``energy_report`` stopped calling ``statistics.pvariance``. All six
artifacts ``write_outputs`` writes are pinned too (see ``CSV_DIGESTS``).
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

# sha256 of each of the ``ARTIFACTS`` as ``write_outputs`` writes them for
# each bundled scenario, run in each mode: 132 files. The detections and
# corrections digests were recorded before the verdict record was folded into
# ``DetectionVerdict``, the other four before the window-end bill took over
# archiving each node-window (``summary.csv`` carries ``windows_completed``)
ARTIFACTS = ("trace.log", "clusters.csv", "detections.csv", "corrections.csv",
             "summary.csv", "summary.txt")
CSV_DIGESTS = {
    ("fig3_family/feasible_print.scn", "dynamic"): (
        "771d828605540e2fdb33ae24aff1890ac844012b0e55bc6b9ff067f2bcccf597",
        "16279565bfa6fe0f658e2868f29ddb0265efaffee9229c49989c2bbeeb398877",
        "1a042a1da6d13217982575dc71cd4459c35157b999d0d0d92016671a24027704",
        "6454d1d7acaad355f13617aebffb5f334838fcba16d457055ae463592e63a81e",
        "c1e298d225a5e1131343f6176ab93c5004313c3062bdb2cd5d0d529a5136189e",
        "b3ab5b292a7f372068e25d9cbd334c20f86652fce661adfc3395c8964e1890c3",
    ),
    ("fig3_family/feasible_print.scn", "static"): (
        "cb1467a9b821779f4ebd52221252c3a9db7a2396c86649f14de62472173a4abf",
        "16279565bfa6fe0f658e2868f29ddb0265efaffee9229c49989c2bbeeb398877",
        "1a042a1da6d13217982575dc71cd4459c35157b999d0d0d92016671a24027704",
        "d78156e00c9a3a266f844bef751aa052957108118d95917538c5a8f6a7ab8a98",
        "c478bf7f9c36ffdc6285f75562d91388a8ca133b89a2c7440d9c05f881cec842",
        "23800beacb87664da46f3ce176ad947118f6fdd97d38cc7b5e6d03b336e615c7",
    ),
    ("fig3_family/feasible_scan.scn", "dynamic"): (
        "8a8506f92b92b30e3232ada5a7095df602e3382a9934d468fe913982ff5adc73",
        "16279565bfa6fe0f658e2868f29ddb0265efaffee9229c49989c2bbeeb398877",
        "81a13d20acdee2ba8b0c9b4349385f105e169fe16432fa919f332bef609d5667",
        "fc973317ca3b22015e9001aafacadbb4d7eaeaf3d98ef51f20f904cbbcd54a94",
        "2196a8c313834881de44cb8e49b75ce048bb25c3c8acbae6b3639e80e6e319fd",
        "2cb225e05ff73047003d6e775764d81f176130e17d71df72c33f3d76aaef0e5f",
    ),
    ("fig3_family/feasible_scan.scn", "static"): (
        "6014dcaab8c71a77444b6c8728b89785c48faacac64618cf9345b41a2ed06ad5",
        "16279565bfa6fe0f658e2868f29ddb0265efaffee9229c49989c2bbeeb398877",
        "81a13d20acdee2ba8b0c9b4349385f105e169fe16432fa919f332bef609d5667",
        "c11181d92219d4fdacfa80ecf6451e5b072b590082ffecf86383c472854bc5df",
        "427314a7b5559fc54bb56278e8cbc39d3d54ffcf6ba7baeceabaaf34bd29ab45",
        "24a45fce3ceb3f543a801acb4fdcc4615b6ae0640fbbd20385d2e06d0dc88280",
    ),
    ("fig3_family/feasible_sendemail.scn", "dynamic"): (
        "bec8f464587713bd4714adfd4d93e65997d356f6242943bcb04f027dd3ee72c6",
        "16279565bfa6fe0f658e2868f29ddb0265efaffee9229c49989c2bbeeb398877",
        "57d043500fc94b0826f1beb8b01ffa88ee5d719b13298438698c9b8bc2214155",
        "d7acb760660513fa30c9a0c3d6113c927e3259bde4e1c0006e08be529ea6a3c6",
        "abef86a9340ac8fd2546c20a3ab66cbdc3869464c6a883a3c5944449ad2b3ac5",
        "c3d3aca9912306d0abfc641362e7d82e6808e42f18594d9e72e6a7bb7f266f9f",
    ),
    ("fig3_family/feasible_sendemail.scn", "static"): (
        "a70b35753360e4354100ac965bad964b81378e6bd3ea6accabaffceb2a043086",
        "16279565bfa6fe0f658e2868f29ddb0265efaffee9229c49989c2bbeeb398877",
        "57d043500fc94b0826f1beb8b01ffa88ee5d719b13298438698c9b8bc2214155",
        "a26c91d42b3ad5361e200c823f25a85f7eae694099397ebc083c24d8a7224932",
        "a4d295659d4a1bd51fd03469f49cf3289f776354594b214051c0b730f0926874",
        "86e85f31463409d4e2745a47c79e0cf039b5c3348fc9f6f2389a225b244265bd",
    ),
    ("fig3_family/feasible_updatebdd.scn", "dynamic"): (
        "6cbc5f979612e07fe05ae83d0ea66ff9b41823fc9e95591e62085a7760ddb515",
        "16279565bfa6fe0f658e2868f29ddb0265efaffee9229c49989c2bbeeb398877",
        "a2a0797917ae6363d903b18ea248f223b6fe49597b95aa4fc37d74b1214b1d8f",
        "21e5381efeba2fada66d3fb6772e8f5254aa038e727e018f6be4bf8ecd5ca675",
        "1a28910ebc8289614513eabefe080a56d9fcb0d7c623107b5bb76a5d64118040",
        "d141a998477b0d7c325f8c6c48ce87987121fa015e7e19c33fe20f82e06cb34f",
    ),
    ("fig3_family/feasible_updatebdd.scn", "static"): (
        "daa7e0ee1330431a38e4d168d7bc28432e45c502a70cc0e8482b82561063631c",
        "16279565bfa6fe0f658e2868f29ddb0265efaffee9229c49989c2bbeeb398877",
        "a2a0797917ae6363d903b18ea248f223b6fe49597b95aa4fc37d74b1214b1d8f",
        "c3204310492aa3f77cc646b9d336ce739c7d73b4216d77830d0fa31aabe91c2c",
        "7eac9d01e7d7afa6040d253499c2fb5fa0b669383f7cd24b384882a262044827",
        "8d6a8537b923bd71af14c49cd3f36c6ee6ae15b20e33230e59c370f61454eb13",
    ),
    ("fig3_family/feasible_view.scn", "dynamic"): (
        "bd9f687c5629df493f046b4ffbdda2844f67977d2d0a4de7c04e930b15d502ed",
        "16279565bfa6fe0f658e2868f29ddb0265efaffee9229c49989c2bbeeb398877",
        "4296f9cec0734fa09c8193f1e292869be289882e6d0a06ebe66ef3fe3c79ea90",
        "0a0277b51be73258b6327cc850afc66f17ef916ff6ed36a248e27ee9b98392cf",
        "6d56d02d31d269d17e1af91ec8be2e6e422b244281b8ca93e2774dcf74a61e5a",
        "8dde810a067717d9464d66a7cedf94584d4420e65fa1b4ab602c40d5413519c7",
    ),
    ("fig3_family/feasible_view.scn", "static"): (
        "71603e8024025d9ad607e9bc64353b7b27755766f2066e14f24d238d24417776",
        "16279565bfa6fe0f658e2868f29ddb0265efaffee9229c49989c2bbeeb398877",
        "4296f9cec0734fa09c8193f1e292869be289882e6d0a06ebe66ef3fe3c79ea90",
        "a650260b604fe745761df586d1c8c0cb9c182748a2e47cbd7838da613769bca6",
        "77ca271e612f4d91799524133254b75bc864109af107ba843c2a83343a633a48",
        "1fd25d0bc157ac7413ec557a07710e8e061b7ebc9c4e74ae703aa436dbeeed53",
    ),
    ("fig3_family/saturated_print.scn", "dynamic"): (
        "07ba0d6ab0e8c49e86e4874f102b7b5dc7c2e8fc546f1e177a7b73953c1ae40a",
        "80237fd859870c1bc43ee28efcac45eb0d4a9c93f3359ff39dec9f7a6624b4af",
        "208e68f803ade76d1773b3182861da52e4d8efb5810d2f86d3425e7cd886f465",
        "64493dade39e3b0c5c723c261c50f6491fd52a7c058b8c97be964536321e5eef",
        "63e65460e40621ecadb905dda334f158f38006c8fa4b0bb4ca046e1cb266714d",
        "9a41347376cd7a27852f8da4116f4a169bd752cb4d576eb507270bb5bc1811ee",
    ),
    ("fig3_family/saturated_print.scn", "static"): (
        "98a0a0f04ababc18223bd8415bce0f2408a556b024b3776e7d8e0908f80b9c14",
        "80237fd859870c1bc43ee28efcac45eb0d4a9c93f3359ff39dec9f7a6624b4af",
        "208e68f803ade76d1773b3182861da52e4d8efb5810d2f86d3425e7cd886f465",
        "3ea863d4e763b4063336f7d331dd90b475ad9aaa2db83c3015b521d51b9a00f2",
        "9d92e0b274641e61518af2b1fac6bb0e346c802bef492c667777496c9ab66427",
        "700190e752640832f23f877024f4ffc5ae9d337f9ea0406695dc586e3438f824",
    ),
    ("fig3_family/saturated_scan.scn", "dynamic"): (
        "fd20e88f46021c4b57ffefc7eb7f9900246db1944fb5f5145f6b36558709d7a7",
        "80237fd859870c1bc43ee28efcac45eb0d4a9c93f3359ff39dec9f7a6624b4af",
        "28935eaf138f4aa1b62bf54ee1c1fa898da79fde1cf40b3310b600d54ef14c79",
        "728f23340d1a727800a351e2740c1d2b0d32456d3b11c2f9de26c1ef1529ee50",
        "8a834f925b5a10834536c9d3d0e5c13e404c66390367f0d87b2b893475d66971",
        "3cae9216c9e4a9b4284d6959c82317279332b286ca5cd19669eeb55736a5fb54",
    ),
    ("fig3_family/saturated_scan.scn", "static"): (
        "c0a7ae3824d767af50454e85c96acfe21494bfeaef76b9370972d29efc4c9a36",
        "80237fd859870c1bc43ee28efcac45eb0d4a9c93f3359ff39dec9f7a6624b4af",
        "28935eaf138f4aa1b62bf54ee1c1fa898da79fde1cf40b3310b600d54ef14c79",
        "09d215de32aad578a7f88465c3312cb0af9a14ee6c4560d458f94138a3ef7253",
        "de9c9e0f21b6b12ba0ce68a695cbd52568bae41c7c133e6a5be0b9c5629fe848",
        "8d4bb6706b731ae7f10a3317cdc5724287b62d941ed983a768cd54aba306e136",
    ),
    ("fig3_family/saturated_sendemail.scn", "dynamic"): (
        "497642b7a5cf1dc53cfda8bdc946e244b460b7f05703bc471d717bf9a82c3c04",
        "80237fd859870c1bc43ee28efcac45eb0d4a9c93f3359ff39dec9f7a6624b4af",
        "68f075770e3db733241fc0d4f9f9f49b9c3e0cae8bcea78094dfcf9d2c725277",
        "2fccacafcfde8ccc638a079ae5c998e12a4d17c86dde19e941fe290499df3330",
        "edcf02a4402dcbf228d53dc4ea20b8ce2968da70ebc1688da1a4681c5485b822",
        "b5afdc6ab49cf9131f17bbe4c1a3d6eab99a06d5449a5bfd25ef7f3ea9d1abaa",
    ),
    ("fig3_family/saturated_sendemail.scn", "static"): (
        "1473b824ed912b39dbec98a41719541a92227454db00e5d5fc8d850f8006d981",
        "80237fd859870c1bc43ee28efcac45eb0d4a9c93f3359ff39dec9f7a6624b4af",
        "68f075770e3db733241fc0d4f9f9f49b9c3e0cae8bcea78094dfcf9d2c725277",
        "7e3a312a24f47745f8f7a41c6863f985bf4c499bece84b50130197e45d9db18a",
        "ce172196b3f643f88f4d22848e3bb3c9e6d9beb1742b4297d94011ccdd51410c",
        "248ab0709fe01773250dcefb202f54961dbd173877abce516c2bb26271c5d150",
    ),
    ("fig3_family/saturated_updatebdd.scn", "dynamic"): (
        "e8e7fc5fe036fa9302fa3e0d00fe5eb65dfe5479efbf3e3ebf6638aa5760367e",
        "80237fd859870c1bc43ee28efcac45eb0d4a9c93f3359ff39dec9f7a6624b4af",
        "c4e607f99f917645c0442b6a46db85090be7cdc761138164d09901ec64424793",
        "74c9659358b66756f2e487a6b16a02438ad6c6a13173501d7d79a7f18c871436",
        "8d3d1c9449989e14e031eb43b76949cec8b0a4d45bfa12f9c3506ac942a33f6f",
        "4c909bad93ba24c62f8e9f83b95a055db257a944b99abbf79c93e87de1760488",
    ),
    ("fig3_family/saturated_updatebdd.scn", "static"): (
        "865c7993ee6bd49e937ecf484f789cd39816357a81bde69271dcc4969e4ecbee",
        "80237fd859870c1bc43ee28efcac45eb0d4a9c93f3359ff39dec9f7a6624b4af",
        "c4e607f99f917645c0442b6a46db85090be7cdc761138164d09901ec64424793",
        "95e70fd688589ab6b248237aaca179c9e40fa4fada25e979a114999e2de8ffaf",
        "cf409b752d3f774cd26bfd47b4e903889639b9fbe27d6c38ca67227159cb090f",
        "d4f50b29eacc9e8f8fb591b0cb9f3d1924b56351e9123bd3362894d26dbdc076",
    ),
    ("fig3_family/saturated_view.scn", "dynamic"): (
        "1b42ea9bdba10904a71ea52d43f2e90740f4688d9581be6c201ebce466297b40",
        "80237fd859870c1bc43ee28efcac45eb0d4a9c93f3359ff39dec9f7a6624b4af",
        "6529bcb999529e88dcca32dcf40f6dd1b616bbdec9b77ca2116d4816fd80af76",
        "9e4627d033babe0521d49984d38a7d1dee225460baeeea3cfab738bd22a3f806",
        "b2379ba639c57f2807012f0d1f37cc045a4cedebde67af49c7ef29753c509ce1",
        "4ddeac5456f012c5e3f75c6893329f63962fd65e79bb1d9f5eab4c6dd7a1accf",
    ),
    ("fig3_family/saturated_view.scn", "static"): (
        "a5eee9c0c8057f73ee0ef8d95ef04a9e499a566ec9c29fec41bbdb8bef192387",
        "80237fd859870c1bc43ee28efcac45eb0d4a9c93f3359ff39dec9f7a6624b4af",
        "6529bcb999529e88dcca32dcf40f6dd1b616bbdec9b77ca2116d4816fd80af76",
        "7c4a5b96b865578f1b8b850df0f76fa4547889d00266d193e68759e3133c6437",
        "aac7119769d7dde0adf5a01640c00acbc9939c4ff3df42a597c1243d5b6a7713",
        "d3191f532c2c3bb37e6664710205d9c74700af015712c1fb896f9286603351d2",
    ),
    ("table3.scn", "dynamic"): (
        "582f22ee4d2fe4089ca67ed4da6be4078bc903573ad79b8fd41c6db27545b04e",
        "f2f06161e4bbf56a649ed2c42072a51b139fcd394222b779325ed8c72825019c",
        "443ddf645c1c492252f86e9d0717667bb5e8954ce5f95a222be5ea4f46ce4435",
        "a42a017089e5579e755edf7f4909e2011b1c0f8c9ebf895793932c2e207c4e33",
        "ccfc9420ac999222ecdb00f836d488da0b9d5208098368d8c7c9912d83c278bc",
        "c96f9b36181d82d0ea0ddd501b26934628b37a2f7b99ad74f7e929434c425907",
    ),
    ("table3.scn", "static"): (
        "17a88e7a4bde139baf42979a94ce7babae356d190e4a4f0eefddf68bb83ef3b4",
        "f2f06161e4bbf56a649ed2c42072a51b139fcd394222b779325ed8c72825019c",
        "443ddf645c1c492252f86e9d0717667bb5e8954ce5f95a222be5ea4f46ce4435",
        "efeca8a606c5e4715ad1f01bdaedab200d8f0df4bc6e34ed8e08de4f53b9317b",
        "080e975b9f90237e43294105f082441d770d907341060f05a9f459ef2ad44998",
        "30b952ef9fa2f492ebce3c160b73eff48de7835aabd64c2077d263fc421db7b8",
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
                    for f in ARTIFACTS)
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
