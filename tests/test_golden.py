"""Golden outputs: the sha256 of the deterministic artifacts of small ``sbc-lab run``s.

The pinned digests were taken before the grouped evaluation and ranking path
replaced the per-simulation loop, so they hold that change (and any later
one) to byte-identical ``ranks.csv``, ``report.json`` and ``evolution.csv``
and to the same exit code. A change that means to alter these bytes must say
why and re-pin them.
"""

import hashlib

import pytest

from sbc_lab.cli import main

ARTIFACTS = ("ranks.csv", "report.json", "evolution.csv")

# name: (sbc-lab run arguments, exit code, sha256 of each artifact)
GOLDEN = {
    "gaussian-correct": (
        ["--model", "gaussian", "--variant", "correct", "--sims", "120", "--draws", "30", "--step", "40"],
        2,
        {
            "ranks.csv": "7f4ec3a508412b2a31fbaf37b7ff69ce0d75984d04be044a6cc826cfeafbf977",
            "report.json": "c90404e3e0b4fa0a1d2ba40b1012cdf82c9795ac8471bc690d1e72026510000d",
            "evolution.csv": "98b84c09da3cdbf92997052f4cbc9a08a6bebef72a4d0d88521d08b36a04d686",
        },
    ),
    "gaussian-prior-only": (
        ["--model", "gaussian", "--variant", "prior-only", "--sims", "120", "--draws", "30", "--step", "40"],
        2,
        {
            "ranks.csv": "6273283e3dee36c24d107b7917a7108fd7709f9eb04ce8ae6dfc24339afc8660",
            "report.json": "2952d0eb52af186606873d09e22a930d16644c91cad96b2a6e5b8bcfbada78c8",
            "evolution.csv": "3a9042bdf5fef476e0d10bcea76b26a78ce4b580b75707354a6cf14fc6b5dd47",
        },
    ),
    # With one data point ignore-first has none left, so its posterior is the
    # prior: it samples as prior-only does, and the likelihood quantities
    # reject (exit 2). It used to take the mean of no points, so every draw
    # was NaN, every simulation a sampling failure and nothing was ranked
    # (exit 1), with the digests
    #   ranks.csv      54f0a2cfc4a320cecaa811f59d76f4f9b30d6e6a3287f582e64d291ea329f187
    #   report.json    e665fea87cac3c86ba1c9d18db9112d037db439f89e0e63324705451ac7c5ee7
    #   evolution.csv  e58ef5c302d70bc77324a23865792df2ec05fbbd90cce9788438faeb94a9d0b8
    # and, before NaN draws were sampling failures, a report.json counting
    # 1200 quantity errors
    # (ad0ee59a77afadfc91635f01232028de70d7e14d29950abf738f5691455fc8b5).
    "gaussian-ignore-first-n1": (
        ["--model", "gaussian", "--variant", "ignore-first", "--n", "1", "--sims", "120", "--draws", "30",
         "--step", "40"],
        2,
        {
            "ranks.csv": "799a636588f2fb202bd498615b083f609df1908786b8f5beb69255f61a423103",
            "report.json": "1f140c9754309e9b670a2a72afc8b038739ec5f924ec9092a415bab2ec99db63",
            "evolution.csv": "773215af7a0cb999b68c9cf64f55f0917c37d74217f18a1fdca814598e23fb06",
        },
    ),
    "simplex-min": (
        ["--model", "simplex", "--variant", "min", "--sims", "16", "--draws", "20", "--step", "8"],
        0,
        {
            "ranks.csv": "ed636d8dfc21f3c31959715ecf6d2fdbeb85058d1e6ed9d678ba85c0b1b5af4e",
            "report.json": "7de81aedc57f0812962382b006b0d8c970d8f553c38f7cb914be14c070d718d1",
            "evolution.csv": "9c77bdcd0d473788aac6c32e17aab194823909f483ab006e1acf2d67c6d729da",
        },
    ),
    "bernoulli-phi-A": (
        ["--model", "bernoulli", "--variant", "phi-A", "--sims", "120", "--draws", "30", "--step", "40"],
        2,
        {
            "ranks.csv": "dcab3c97969e5455fa99a99f0184ce2cc9a8b5847abc0c9ab54797d683cccda7",
            "report.json": "de2f9b6453fbc96ac4abd8255ad7eaa7441b9a29220c7119c4679f1a2f6242f0",
            "evolution.csv": "0a899b2daafe77ae64038ab96a1fa79ee2b70d9368ef646206ebb247676ac16a",
        },
    ),
}


def digests(out) -> dict[str, str]:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in ARTIFACTS}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_run_artifacts_are_byte_stable(name, tmp_path):
    argv, code, expected = GOLDEN[name]
    out = tmp_path / name
    assert main(["run", *argv, "--seed", "5", "--out", str(out), "--no-timestamp"]) == code
    assert digests(out) == expected
