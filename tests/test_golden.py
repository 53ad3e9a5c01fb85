"""Golden pins: the exact CSV and summary of every bundled scenario.

Criterion 8 compares reruns of one build with each other; these pins
compare every build with the recorded outputs, so a change that moves
any figure of any bundled scenario fails here.  The summary is hashed
without ``ops_per_sec``, its one host-side field, in the format
``write_summary`` uses.  The outputs checked are the session's shared
runs (the ``bundled`` fixture), which every other reader has seen too.
A deliberate output change must update the pins and say why.
"""

import hashlib
import json

import pytest

from georep.metrics import write_summary

# scenario: (CSV SHA-256, summary-without-ops_per_sec SHA-256)
PINS = {
    "batch-size-05pct": ("37881184675deed85c54fe73798705bc62d0527401a3225516bc77a21e2b5ab0",
        "981174f607db995b9f8d04b9700d1b14580bcea95377a8777ae25af54f33f549"),
    "batch-size-2pct": ("fe6c72b28349da5aa0b829a339442abdf47d9f8553ef31abe1beb08c92492c26",
        "ee418a7b6e0072065b07b4825400d5c15d8f3039b57a8f464ab309e8ab224b15"),
    "blocks-mixed": ("fd2309a689bfa50aa12bb8fbbd57ff567b7baba633c29c45fbc22af92ae8fab6",
        "c0fa5e10fe35fb8cb515960462a86140ff3a5017a31b8451ee6947053b6cdbc2"),
    "ring-partition": ("819b4126f5710feb222133bc2479280fe902aa0cef63d217488db911babaf0bc",
        "375f576ca14801f826b6e2d9138ac04dd52b674d30ccc4debede3d5777c26bd7"),
    "staleness-lag": ("c5d8b4c80a55372803445972952e6d4dc5c92bdcb0e751e84b793a018df95b4d",
        "edf1704bb5541c5eb214512dd83e27e959e6ed9b48cc6756ca22501f0a0b5dd5"),
    "workload-a-bounded05pct": ("a22edf08ffcbd6a4383570b15d5c1540ff49b6e891d2b34a338157a17467c964",
        "d16625361154d47d0dafe294120467d5c735a435f4301adbf22876f03a104c29"),
    "workload-a-bounded2pct": ("e45f1b1c63b10d97210953fb36643f772aaa4cc8b8d107432d078c3ccfe42f51",
        "3f27b4a66d512fe339d096b7114588f94cb31a94b1f5aa5ee0a60f67d45ef820"),
    "workload-a-plain": ("68dacd0c4ae9d28f00cb6a60dba1abcd0ff12ade89f98ab483dc28203057bb5a",
        "ce201f935644249483c6184da1aa8bd347beaada5aac8b15d22ba7df2f7692ac"),
    "write-burst-bounded05pct": ("3957f9838858fc779446befb64e7942c82ca767fbdc1868fffe2f0bb20387542",
        "270db553e86e8e140417ea3ae97b1baef44e3770d4a1f01fd31395559bc296d1"),
    "write-burst-bounded2pct": ("15c6c234cb9c2f26b1a585ffc9c7d7de577dd38eb68635b17a87e946586520e8",
        "3987f0464f41720a6ba5c7f300586d8a4fe37ac4e21ad509a7f7c0739a2e577c"),
    "write-burst-plain": ("a9165ad498ce88b55b7f37a0979d83557b5507d3aa5bc43d50040b816b1844fb",
        "4986f015600a8bdbbdca8cdeea5c93984c6b81e35bfb3206e8ee5a51acaac62f"),
}


def test_every_bundled_scenario_is_pinned(scenario_dir):
    assert sorted(p.stem for p in scenario_dir.glob("*.ini")) == sorted(PINS)


@pytest.mark.parametrize("name", sorted(PINS))
def test_outputs_match_pins(bundled, tmp_path, name):
    result = bundled(name)
    summary = dict(result.summary)
    del summary["ops_per_sec"]
    write_summary(tmp_path / "pinned.json", summary)
    digests = (hashlib.sha256(result.csv_path.read_bytes()).hexdigest(),
               hashlib.sha256((tmp_path / "pinned.json").read_bytes()).hexdigest())
    assert digests == PINS[name]
