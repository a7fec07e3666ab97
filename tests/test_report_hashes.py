"""Every shipped scenario command prints the same text report, byte for byte.

The hashes are the sha256 of each command's text report at the scenario's own
seed, recorded before the coefficient ring stored integer numerators.  A
change that keeps every result exact and every printed form the same leaves
them all in place; a change to a report's wording updates them on purpose.
"""

import hashlib
from pathlib import Path

import pytest

from fedconn.cli import main

from conftest import RATIONAL_KAHLER

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

REPORT_SHA256 = {
    ("quantize", "flat_r2.scn"): "1ad4c6149a0b43a985a895103512d20830607476d4ce40bd59f5fb455c04e0cc",
    ("quantize", "curved_r2.scn"): "f6e56d3b6fa8557b9c10e3ecdc4b19828b2e0471d60fdbefe3651461549d53cc",
    # t-dependent extracted stars, recorded before a star became a bare MultiDiffOp
    ("quantize", "family_r2.scn"): "54ed04856acf9aa278c726700e2c4f44853e8e7205747a8f7defc201f00ab298",
    ("quantize", "family2_r2.scn"): "141762d2620a5ee64a5b166efbd7902df4839cdaedac52b20ccbc6f1ea87d0f3",
    ("family", "family_r2.scn"): "2a21768221ceae4db78ded44bc8bc3655363534d62b82b96329722b37c1ec6ae",
    ("family", "family2_r2.scn"): "9984f12ce1cbb2c4433ff15441a1d486f852c5457386f1493e416068009dcc1f",
    ("gauge", "family_r2.scn"): "d2db6994787d0deb7fac68860653d281e1962dfd2bac827ac25ed5517eae82ab",
    ("verify-all", "family_r2.scn"): "2d7337091bfa3fb496abe3634fe78a9c29f0e631aa13fb60136efe5755257c31",
    # the Weyl battery of every scenario: delta*, the term filters, scaling and negation
    ("verify-all", "curved_r2.scn"): "fe6d9eb9df04b204f245fd4c1479084090a9f22ba8806721de337090de84e369",
    ("verify-all", "family2_r2.scn"): "fb2267b57664e1ca0b58bd964d2fcdc3716bb7d89d29cdb41e862676f785d913",
    ("verify-all", "flat_r2.scn"): "e040d68545a01a7872cc4440eb95a9ff99330b667df53566d776d14c143dabea",
    ("verify-all", "kahler_r2.scn"): "528f6b17b35e8e9f4069c4248bada83d819adfe876ba68ccbc99110da43dc7c0",
    ("verify-all", "kahler_r4.scn"): "bb8e64698f872717314111d5487efab3487e2e0f062eac0213ac45bd08472357",
    ("kahler", "kahler_r2.scn"): "ac6611ee368bdd3877ccf3a8e38111e6810a87b3f8f2be7c8fc28b3a9351fec6",
    ("kahler", "kahler_r4.scn"): "8765fb2f81f46afd319341d541e8a5c70ed9556bd99f4116067c3eeb22a18a05",
    # family_r2 pulled back off Darboux coordinates: omega is 3 times the
    # standard one, so its inverse pi is not its transpose
    ("quantize", "family_sheared_r2.scn"):
        "f942a2afc2536b867d0f202e050da349fc03f6bffe4b3d47320cffdf8ebb5b29",
    ("family", "family_sheared_r2.scn"):
        "af9edc61c9afa0d8cc39369365cdca7255125472f0618adb19690b5636c8bbb5",
    ("gauge", "family_sheared_r2.scn"):
        "a354267447586f9f895bed28f5de1dffafd8108c98b42a5ba6786e144a5adf68",
}


@pytest.mark.parametrize("command, scenario", sorted(REPORT_SHA256),
                         ids=[f"{c} {s}" for c, s in sorted(REPORT_SHA256)])
def test_text_report_is_unchanged(capsys, monkeypatch, command, scenario):
    monkeypatch.delenv("FEDCONN_REPORT_DIR", raising=False)
    code = main([command, "--scenario", str(SCENARIOS / scenario)])
    out = capsys.readouterr().out
    assert code == 0, out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == REPORT_SHA256[(command, scenario)]


# one order above each scenario's own, so the Weyl pairings and the Leibniz
# compositions reach more contraction orders and splits; recorded before the
# product kernels skipped the pairs that cannot contribute
DEEPER_REPORT_SHA256 = {
    ("gauge", "family_r2.scn", 4): "b7c017ae4d30484dea2ca8e24bd50fe2554de69e272c86398070f023894646b8",
    ("family", "family2_r2.scn", 4): "8944293d28876d7691c80d3a7f42dd2d47c125a172390c7cedd3f1545721807d",
    ("quantize", "curved_r2.scn", 4): "22e87125a235878bfcc58edb7fdbc61076ba6efd051378f97c7db792956cd8a8",
}


@pytest.mark.parametrize("command, scenario, order", sorted(DEEPER_REPORT_SHA256),
                         ids=[f"{c} {s} --order {k}" for c, s, k in sorted(DEEPER_REPORT_SHA256)])
def test_deeper_text_report_is_unchanged(capsys, monkeypatch, command, scenario, order):
    monkeypatch.delenv("FEDCONN_REPORT_DIR", raising=False)
    code = main([command, "--scenario", str(SCENARIOS / scenario), "--order", str(order)])
    out = capsys.readouterr().out
    assert code == 0, out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == \
        DEEPER_REPORT_SHA256[(command, scenario, order)]


# recorded before t-only values became Polys over the empty roster
RATIONAL_KAHLER_SHA256 = "14681509d458f56e74cf0f86549498f162a36706fb9a064fc7888137978ef442"


def test_rational_kahler_report_is_unchanged(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("FEDCONN_REPORT_DIR", raising=False)
    scenario = tmp_path / "kahler_rational.scn"
    scenario.write_text(RATIONAL_KAHLER, encoding="utf-8")
    code = main(["kahler", "--scenario", str(scenario)])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "summary: 7 passed, 0 failed, 0 n/a" in out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == RATIONAL_KAHLER_SHA256
