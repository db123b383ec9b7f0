"""The trace oracle: pinned sha256 digests of ``RunLog.serialize()``.

A refactor must leave every trace byte unchanged. These digests were
recorded before the code that produces the traces was last simplified;
a change that means to alter behaviour re-records them and says so.
The trace does not carry the Jain indices, so ``report.jain_pairs`` is
pinned by a digest of its own, recorded before ``jain_index`` moved to
integer sums; ``report.cluster_variance`` likewise, recorded before
``energy_report`` stopped calling ``statistics.pvariance``.
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
