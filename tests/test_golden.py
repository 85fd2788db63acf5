"""Golden outputs: the sha256 of the deterministic artifacts of small ``sbc-lab run``s.

The pinned digests were taken before the grouped evaluation and ranking path
replaced the per-simulation loop, so they hold that change (and any later
one) to byte-identical ``ranks.csv``, ``report.json`` and ``evolution.csv``
and to the same exit code. A change that means to alter these bytes must say
why and re-pin them.

The digests of independent-marginals and non-monotonic at n=2 (where their
1/sqrt(n+1) and the draw's sqrt(1/(n+1)) differ in the last bit),
small-bias, simplex softmax-bad and simplex gamma were taken on the code
that still had six Gaussian posterior classes and separate scalar simplex
transforms, before any source edit of the change that folded them. So
were the digests of each Gaussian variant's raw draws and log densities
below: a last-bit change in the draws seldom moves a rank, so the run
digests alone would not see it.
"""

import hashlib

import pytest

from sbc_lab.cli import main
from sbc_lab.models import gaussian
from sbc_lab.rng import stream

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
    "gaussian-independent-marginals-n2": (
        ["--model", "gaussian", "--variant", "independent-marginals", "--n", "2", "--sims", "120",
         "--draws", "30", "--step", "40"],
        2,
        {
            "ranks.csv": "95fe81060074c0b4c53e879b79a8cc230b1a2aede9af57aee5905dfbec80361e",
            "report.json": "2b5bf74183ff9b84374563898518ffd2bb38d2de2eedc9427188db89f6ee8099",
            "evolution.csv": "8b67396660a270d7a2888438809c2decad8076ab18c5d8edfa472518408a7e02",
        },
    ),
    "gaussian-non-monotonic-n2": (
        ["--model", "gaussian", "--variant", "non-monotonic", "--n", "2", "--sims", "120",
         "--draws", "30", "--step", "40"],
        2,
        {
            "ranks.csv": "2156760cf3925d013686d629ee55c06572d4da72d57212a8a7b3cb65968058b0",
            "report.json": "f3993679181357c2c37b592a2eee99d6d8c8ff96d9d1c52a9a36419f362eab36",
            "evolution.csv": "313432570d0569cdf66c6732d20ad45628116a8df7fd8b1867c71d9dcf55419d",
        },
    ),
    "gaussian-small-bias": (
        ["--model", "gaussian", "--variant", "small-bias", "--sims", "120", "--draws", "30", "--step", "40"],
        2,
        {
            "ranks.csv": "a02f6f6eff92d5d7998e03005e948f0f79d5e69f7c6392c8734837ae772309c0",
            "report.json": "022b2ba28030ee07de5a4f82413d954194936d91b3c23b3992d05ef06f38d1cd",
            "evolution.csv": "97bc1388f39d4f6a9262c13a02b1f8cae6079bc33ed68f4035cf771af549f2b6",
        },
    ),
    "simplex-softmax-bad": (
        ["--model", "simplex", "--variant", "softmax-bad", "--sims", "16", "--draws", "20", "--step", "8"],
        0,
        {
            "ranks.csv": "bb09e30508335be0e35e9b0bb4fd24ebd35f9d0dc30409b0adb96b278b80d836",
            "report.json": "a54102f905694547be94c6a136e2f01927db6673b8dff1ec9b861ee1a4bbd907",
            "evolution.csv": "a4950abe7779c08d7a4afc8ac1e4cacf21cd84069e6fe90d974c1c5fd0fbb3ef",
        },
    ),
    "simplex-gamma": (
        ["--model", "simplex", "--variant", "gamma", "--sims", "16", "--draws", "20", "--step", "8"],
        0,
        {
            "ranks.csv": "ae188da3c68a153bbdc4ec928cfa91674042dd925839c96b1998b220e177a507",
            "report.json": "2880aeb87b0018ad2188cfae0539c79822b2598225ffa9fa623397c72db04e63",
            "evolution.csv": "7681b8f42bed4228a1f4ef738ba8ac174516d82c1c97186e92b39a9a9ca2731a",
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


# variant: sha256 of its draws (and log densities, where it has them) at n = 1, 2, 3, 5
DRAWS = {
    "correct": "35f682cd70f7544ca72ed838539720dec2ea89348d37b631c0ba018530cfcd8f",
    "prior-only": "b69addb63c9a5842b9cd8915527fb365ac97282c95b0ef3d1fea47075e6552a9",
    "ignore-first": "5c1a43eaf5605e297213731a38c8ccf5db6fc83c1f1e99b1f95e86d76fa7910b",
    "independent-marginals": "d6bd6e46f6f5772b0ac2c1520b652517abe2d6d6b2334dd3f28826b4c207c28a",
    "small-bias": "9df63b3183d6702257d0bb0732c0ed22402c887d9639233ee67aee012f05cb32",
    "non-monotonic": "c9ded0da273edcf5ddec3619dfe3a05af1e521c930c105151711c270701c858b",
}


@pytest.mark.parametrize("variant", gaussian.VARIANT_NAMES)
def test_gaussian_draws_are_bit_stable(variant):
    h = hashlib.sha256()
    for n in (1, 2, 3, 5):
        family, rng = gaussian.make_variant(variant, n), stream(5, n)
        y = gaussian.GaussianGenerator(n).generate(rng)[1]
        draws = family.sample(y, 20, rng)
        h.update(draws.tobytes())
        if getattr(family, "log_density", None) is not None:
            h.update(family.log_density(draws, y).tobytes())
    assert h.hexdigest() == DRAWS[variant]
