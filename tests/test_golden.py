"""Golden outputs: the sha256 of the deterministic artifacts of small ``sbc-lab run``s.

The pinned digests were taken before the grouped evaluation and ranking path
replaced the per-simulation loop, so they hold that change (and any later
one) to byte-identical ``ranks.csv``, ``report.json`` and ``evolution.csv``
and to the same exit code. The later SVG pins hold every figure of each run
to its bytes. A change that means to alter these bytes must say why and
re-pin them.

The digests of independent-marginals and non-monotonic at n=2 (where their
1/sqrt(n+1) and the draw's sqrt(1/(n+1)) differ in the last bit),
small-bias, simplex softmax-bad and simplex gamma were taken on the code
that still had six Gaussian posterior classes and separate scalar simplex
transforms, before any source edit of the change that folded them. So
were the digests of each Gaussian variant's raw draws and log densities
below: a last-bit change in the draws seldom moves a rank, so the run
digests alone would not see it. The digests of simplex softmax-fixed were
taken on the code that still had a one-chain Metropolis entry point and a
sampler settings object next to the lockstep driver, before any source edit
of the change that removed them.
"""

import hashlib

import pytest

from sbc_lab.cli import main
from sbc_lab.models import gaussian
from sbc_lab.rng import stream

ARTIFACTS = ("ranks.csv", "report.json", "evolution.csv")

# The report.json and evolution.csv digests of every case were re-pinned when
# the tail table's rows with z > 1/2 became the rows of their mirrors 1 - z,
# reversed: gamma, gamma_bar and the log ratios moved in their last digits
# (gamma by at most 2.4e-13 relative, a log ratio by at most 6.3e-13
# absolute), while ranks.csv, the exit codes and every pass_5pct stayed.
# Before that they were
#   gaussian-correct
#     report.json    c90404e3e0b4fa0a1d2ba40b1012cdf82c9795ac8471bc690d1e72026510000d
#     evolution.csv  98b84c09da3cdbf92997052f4cbc9a08a6bebef72a4d0d88521d08b36a04d686
#   gaussian-prior-only
#     report.json    2952d0eb52af186606873d09e22a930d16644c91cad96b2a6e5b8bcfbada78c8
#     evolution.csv  3a9042bdf5fef476e0d10bcea76b26a78ce4b580b75707354a6cf14fc6b5dd47
#   gaussian-ignore-first-n1
#     report.json    1f140c9754309e9b670a2a72afc8b038739ec5f924ec9092a415bab2ec99db63
#     evolution.csv  773215af7a0cb999b68c9cf64f55f0917c37d74217f18a1fdca814598e23fb06
#   gaussian-independent-marginals-n2
#     report.json    2b5bf74183ff9b84374563898518ffd2bb38d2de2eedc9427188db89f6ee8099
#     evolution.csv  8b67396660a270d7a2888438809c2decad8076ab18c5d8edfa472518408a7e02
#   gaussian-non-monotonic-n2
#     report.json    f3993679181357c2c37b592a2eee99d6d8c8ff96d9d1c52a9a36419f362eab36
#     evolution.csv  313432570d0569cdf66c6732d20ad45628116a8df7fd8b1867c71d9dcf55419d
#   gaussian-small-bias
#     report.json    022b2ba28030ee07de5a4f82413d954194936d91b3c23b3992d05ef06f38d1cd
#     evolution.csv  97bc1388f39d4f6a9262c13a02b1f8cae6079bc33ed68f4035cf771af549f2b6
#   simplex-softmax-bad
#     report.json    a54102f905694547be94c6a136e2f01927db6673b8dff1ec9b861ee1a4bbd907
#     evolution.csv  a4950abe7779c08d7a4afc8ac1e4cacf21cd84069e6fe90d974c1c5fd0fbb3ef
#   simplex-softmax-fixed
#     report.json    995e5036915aba95ddff31f5e3ee463a5827b0652c94c2b718b8beaee3173311
#     evolution.csv  47f0bab3bca0014a33da3a9fa49528021fe447ddd4321e241c8ff37a1540952d
#   simplex-gamma
#     report.json    2880aeb87b0018ad2188cfae0539c79822b2598225ffa9fa623397c72db04e63
#     evolution.csv  7681b8f42bed4228a1f4ef738ba8ac174516d82c1c97186e92b39a9a9ca2731a
#   simplex-min
#     report.json    7de81aedc57f0812962382b006b0d8c970d8f553c38f7cb914be14c070d718d1
#     evolution.csv  9c77bdcd0d473788aac6c32e17aab194823909f483ab006e1acf2d67c6d729da
#   bernoulli-phi-A
#     report.json    de2f9b6453fbc96ac4abd8255ad7eaa7441b9a29220c7119c4679f1a2f6242f0
#     evolution.csv  0a899b2daafe77ae64038ab96a1fa79ee2b70d9368ef646206ebb247676ac16a
# name: (sbc-lab run arguments, exit code, sha256 of each artifact)
GOLDEN = {
    "gaussian-correct": (
        ["--model", "gaussian", "--variant", "correct", "--sims", "120", "--draws", "30", "--step", "40"],
        2,
        {
            "ranks.csv": "7f4ec3a508412b2a31fbaf37b7ff69ce0d75984d04be044a6cc826cfeafbf977",
            "report.json": "5cfd4b0e8ad6b0cfa4a0eebd302c4fd3433114628dd1ef102ed0a976e108b4dd",
            "evolution.csv": "9eb573ad43e18d709ea38a5cf12dad597283379d8c76f0cc69aeec8043d54d74",
        },
    ),
    "gaussian-prior-only": (
        ["--model", "gaussian", "--variant", "prior-only", "--sims", "120", "--draws", "30", "--step", "40"],
        2,
        {
            "ranks.csv": "6273283e3dee36c24d107b7917a7108fd7709f9eb04ce8ae6dfc24339afc8660",
            "report.json": "f93ca4c59f86a325f18beb0af4a8304d911917cd87603363907705e2c9211f25",
            "evolution.csv": "cdc3f2e3c6a0ad810f4ea5327f9d763b97a3f2fd26970b0f4998bb9c3705c327",
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
            "report.json": "0dd3c0d196ee36bbc50a39ae015970e800cbb01dbf4f9df08fafda88c94d8ede",
            "evolution.csv": "f42008c897672d1c7340e807a147a5f0a6ac3dadf711ff607961e58edc8b76b2",
        },
    ),
    "gaussian-independent-marginals-n2": (
        ["--model", "gaussian", "--variant", "independent-marginals", "--n", "2", "--sims", "120",
         "--draws", "30", "--step", "40"],
        2,
        {
            "ranks.csv": "95fe81060074c0b4c53e879b79a8cc230b1a2aede9af57aee5905dfbec80361e",
            "report.json": "ba7348dc3c62a7c48b2f13831eaf2337d9bb648db8c2ba9aee9d45effb907c6f",
            "evolution.csv": "8cce7b80f0b064620e3ba929fab1283a8cb52ede87ee2520ae8b5c9e41befc91",
        },
    ),
    "gaussian-non-monotonic-n2": (
        ["--model", "gaussian", "--variant", "non-monotonic", "--n", "2", "--sims", "120",
         "--draws", "30", "--step", "40"],
        2,
        {
            "ranks.csv": "2156760cf3925d013686d629ee55c06572d4da72d57212a8a7b3cb65968058b0",
            "report.json": "b3a6bfdb80db7ca73e791d2ad143f1b4051882a6c8fb53efe2fb92fedac51038",
            "evolution.csv": "dba1fc58d142f5e517559213a443e1ebf7b9bbcb0396c061e6533fcbb911799b",
        },
    ),
    "gaussian-small-bias": (
        ["--model", "gaussian", "--variant", "small-bias", "--sims", "120", "--draws", "30", "--step", "40"],
        2,
        {
            "ranks.csv": "a02f6f6eff92d5d7998e03005e948f0f79d5e69f7c6392c8734837ae772309c0",
            "report.json": "14e7256c52f5c3531adbce757831b5870ca0f4bd70141538224a02b97b27b9aa",
            "evolution.csv": "7be60febfc06b610c4d11c8f0291cfebe1f858bfe3f54e1a6e2d70b3bb2abd92",
        },
    ),
    "simplex-softmax-bad": (
        ["--model", "simplex", "--variant", "softmax-bad", "--sims", "16", "--draws", "20", "--step", "8"],
        0,
        {
            "ranks.csv": "bb09e30508335be0e35e9b0bb4fd24ebd35f9d0dc30409b0adb96b278b80d836",
            "report.json": "133aa348263d393bbd71f4447613c81169c7371e73f00771a55f6212caa1c31c",
            "evolution.csv": "ce1f1e2a097ff76341acd8711f1fe67377ace1b213f7cfd5e105067718fbc6b4",
        },
    ),
    "simplex-softmax-fixed": (
        ["--model", "simplex", "--variant", "softmax-fixed", "--sims", "16", "--draws", "20", "--step", "8"],
        0,
        {
            "ranks.csv": "c164c27af204167b5bcf4c1cf503d55abbe6423386008b099ffbbd37bab59958",
            "report.json": "9664c5f68a4338f5a4000501ea52308b29507c2b9a08e2e51fedf67f60bdb8e1",
            "evolution.csv": "71651699431e3d4bb782e796ab0cf6712546492f77764a014d3b8d6e3d3a764b",
        },
    ),
    "simplex-gamma": (
        ["--model", "simplex", "--variant", "gamma", "--sims", "16", "--draws", "20", "--step", "8"],
        0,
        {
            "ranks.csv": "ae188da3c68a153bbdc4ec928cfa91674042dd925839c96b1998b220e177a507",
            "report.json": "2ab6fc629458a2d7821557746cd68d20e9feb0f7e4708ebc5ecf83840d7689b0",
            "evolution.csv": "525844bb193e5b453122651e4d2a1156d0c14c91868c68ae32fc3498f1c53cbb",
        },
    ),
    "simplex-min": (
        ["--model", "simplex", "--variant", "min", "--sims", "16", "--draws", "20", "--step", "8"],
        0,
        {
            "ranks.csv": "ed636d8dfc21f3c31959715ecf6d2fdbeb85058d1e6ed9d678ba85c0b1b5af4e",
            "report.json": "1196741c5cd2a4a3ee69c002a93d212271d5f9a06de318bc6212d93a5895e209",
            "evolution.csv": "4131dcd47a659e98e563ad2dc060f74bbf2556498ed8e611faebbb1962c9fefb",
        },
    ),
    "bernoulli-phi-A": (
        ["--model", "bernoulli", "--variant", "phi-A", "--sims", "120", "--draws", "30", "--step", "40"],
        2,
        {
            "ranks.csv": "dcab3c97969e5455fa99a99f0184ce2cc9a8b5847abc0c9ab54797d683cccda7",
            "report.json": "c3e39a55a64dab1d65cb253bb3497d9ad012f8a1c5ad2c620ffe7042e611b6d8",
            "evolution.csv": "bb0f767972d8af3e5336bf9c20cfa337dadb8396a4bfc04621942083e8a1e410",
        },
    ),
}

# name: (number of SVGs, sha256 over them in name order, each as its file name then its bytes)
# Taken before any source edit of the change that wrote each SVG drawing step
# (reference lines, point lists, the histogram's x grid) once.
SVGS = {
    "bernoulli-phi-A": (9, "7598d989a47fff1669a92c32500e5e8c0c7cbb9f66282427030ca1de0bf219e8"),
    "gaussian-correct": (23, "7341096cbdf5339ad66cf587766df8f7b8a90fc9db41e5772f32d107b99ad87d"),
    "gaussian-ignore-first-n1": (21, "d51f877ed300da729bd681cb18b5244e31566ea1655faa73f385be645e527e88"),
    "gaussian-independent-marginals-n2": (23, "e7ce86f1c31b4caf955d88939b196cff74e8eb5ae910f0ca96af948a85553265"),
    "gaussian-non-monotonic-n2": (21, "d5de7cb0cf765294d9fe47b1843d8a6a2453a76e2d5f36a03137c8dd36d3e085"),
    "gaussian-prior-only": (23, "73103098a134dbca508918616dc3b0bb51a4e1102f1d3d4d89df18cb47623a5f"),
    "gaussian-small-bias": (21, "ccfe32154876d3644e6eba73d7a6a5ad68d3e298326bab92897785b98dba53e5"),
    "simplex-gamma": (13, "68d080be58d344384345ea71ec3134eebbe88ab3af92142e2583b7eb4cf6c19a"),
    "simplex-min": (13, "1fa460d87575ac89cb6fb95d71c606d2cc100581c7b2adafb450cbc83bbd9003"),
    "simplex-softmax-bad": (13, "1ff67ea2c9d4772fc25115e6dc5f8232472518774e710e37450ab402b31d7954"),
    "simplex-softmax-fixed": (13, "f3036b4710dc7be2af275fa93cb97d61498cc0055317d17db9d5eb4f652a3539"),
}


def digests(out) -> dict[str, str]:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in ARTIFACTS}


def svg_digest(out) -> tuple[int, str]:
    h, paths = hashlib.sha256(), sorted(out.glob("*.svg"))
    for path in paths:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return len(paths), h.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_run_artifacts_are_byte_stable(name, tmp_path):
    argv, code, expected = GOLDEN[name]
    out = tmp_path / name
    assert main(["run", *argv, "--seed", "5", "--out", str(out), "--no-timestamp"]) == code
    assert digests(out) == expected
    assert svg_digest(out) == SVGS[name]


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
