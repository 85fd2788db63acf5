import re
from xml.etree import ElementTree

import numpy as np
import pytest
from scipy import special, stats

from sbc_lab import plots
from sbc_lab.diagnostics import EvolutionTrace, RankSet, ecdf_band

# S per case, and the draw counts M whose every bin probability w / (M + 1),
# w = 1..M+1, is checked: w = M + 1 is p = 1
SIMS = [*range(1, 61), 100, 512, 1000, 4000, 20000]
DRAWS = [*range(0, 61), 99, 100, 101, 127, 199, 249, 250]


@pytest.mark.parametrize("q", [0.025, 0.975])
def test_band_quantile_equals_binom_ppf(q):
    probs = np.unique(np.concatenate([np.arange(1, M + 2) / (M + 1) for M in DRAWS]))
    for S in SIMS:
        expected = stats.binom.ppf(q, S, probs)
        got = plots._binom_quantile(q, S, probs)
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes(), S


@pytest.mark.parametrize("q,n,p", [(0.5, 1, 0.5), (0.25, 1, 0.75)])
def test_band_quantile_steps_back_when_bdtrik_rounds_up_past_it(q, n, p):
    # here ceil(bdtrik) is one past the quantile: P(X <= k) reaches q at k one lower
    assert np.ceil(special.bdtrik(q, n, p)) == stats.binom.ppf(q, n, p) + 1
    assert plots._binom_quantile(q, n, np.array([p])).tolist() == [stats.binom.ppf(q, n, p)]


@pytest.mark.parametrize("n_bins", [1, 3, 8])
def test_histogram_band_is_the_binomial_quantile(n_bins, tmp_path):
    rank_set = RankSet(np.arange(37) % 8, 7)
    plots.svg_rank_histogram(rank_set, tmp_path / "h.svg", n_bins=n_bins, timestamp=False)
    svg = (tmp_path / "h.svg").read_text()
    edges, _ = plots.histogram_bin_counts(rank_set, n_bins)
    probs = np.diff(edges) / 8
    lo = re.search(r"band_lo=([\d. ]+) band_hi", svg).group(1)
    hi = re.search(r"band_hi=([\d. ]+)</desc>", svg).group(1)
    assert lo == plots._fmt(stats.binom.ppf(0.025, 37, probs))
    assert hi == plots._fmt(stats.binom.ppf(0.975, 37, probs))


def test_names_and_titles_are_escaped(tmp_path):
    # a quantity name or title holding XML markup must still give well-formed files
    name, title = "p&q<1", "a&b"
    rank_set = RankSet(np.arange(37) % 8, 7)
    trace = EvolutionTrace(name, np.array([10, 37]), np.array([0.5, -0.25]))
    plots.svg_rank_histogram(rank_set, tmp_path / "h.svg", quantity=name, timestamp=False)
    plots.svg_ecdf_difference(rank_set, ecdf_band(37, 7), tmp_path / "e.svg", quantity=name, timestamp=False)
    plots.svg_evolution([trace], tmp_path / "v.svg", title=title, timestamp=False)
    ns = {"svg": "http://www.w3.org/2000/svg"}
    for path, shown in (("h.svg", name), ("e.svg", name), ("v.svg", title)):
        root = ElementTree.parse(tmp_path / path).getroot()
        assert root.find("svg:title", ns).text.endswith(": " + shown)
        assert name in root.find("svg:desc", ns).text
        assert any(text.text.startswith(shown) for text in root.iterfind("svg:text", ns))
