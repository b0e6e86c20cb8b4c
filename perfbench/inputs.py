"""Seeded input generation for the three workloads.

Everything the program under test receives — tuples, VQL strings, key
lists, peer speeds — is generated here, so the program never draws the
workload itself.  The stored data of ``query_mix`` and ``open_loop``, the
key popularity and the peer speeds come from a fixed testbed seed; the
operations (query literals, coordinators, the ingest gateway and tuples,
open-loop arrivals and key draws) come from the workload seed, so the same
seed gives the same inputs.
Each generator takes its own ``random.Random`` so the streams stay
independent: drawing more queries cannot shift the data, and vice versa.
"""

from __future__ import annotations

import bisect
import math
import random

SERIES = ["ICDE", "VLDB", "SIGMOD", "EDBT", "CIKM", "P2P", "ICDCS", "NETDB"]
AREAS = [
    "distributed systems",
    "query processing",
    "data integration",
    "overlay networks",
    "information retrieval",
    "ranking",
]
SYLLABLES = "ka ri mo ta el an so ve li du ha no pe su mi ro ba ce wi ju".split()
TITLE_WORDS = (
    "similarity queries structured overlays skyline processing distributed storage "
    "universal triple routing cost aware adaptive indexing search progressive ranking "
    "heterogeneous schema"
).split()
QUERY_CLASSES = ("lookup", "range", "join", "similarity", "skyline", "topn")
MODES = ("optimized", "mqp")


def zipf_cumulative(count: int, s: float) -> list[float]:
    """Cumulative Zipf(s) weights over ranks 1..count, normalised to 1."""
    weights = [1.0 / (rank**s) for rank in range(1, count + 1)]
    total = sum(weights)
    cumulative, acc = [], 0.0
    for weight in weights:
        acc += weight / total
        cumulative.append(acc)
    return cumulative


def zipf_picker(rng: random.Random, items: list, s: float):
    """A function drawing from ``items`` with Zipf(s) weight on list rank."""
    cumulative = zipf_cumulative(len(items), s)

    def pick():
        return rng.choices(items, cum_weights=cumulative)[0]

    return pick


def stratified_zipf(rng: random.Random, items: list, s: float, n: int) -> list:
    """``n`` Zipf(s) draws from ``items``, one per equal-mass stratum, shuffled.

    Every run then holds hot, warm and cold literals in the same proportion,
    so the cost of a run varies less from seed to seed than with independent
    draws, while each draw stays Zipf-distributed.
    """
    cumulative = zipf_cumulative(len(items), s)
    last = len(items) - 1  # rounding can leave cumulative[-1] a hair below 1
    draws = [
        items[min(bisect.bisect_left(cumulative, (k + rng.random()) / n), last)]
        for k in range(n)
    ]
    rng.shuffle(draws)
    return draws


def _name(rng: random.Random) -> str:
    return "".join(rng.choice(SYLLABLES) for _ in range(3)).capitalize()


def _title(rng: random.Random, index: int) -> str:
    words = rng.sample(TITLE_WORDS, k=rng.randint(3, 5))
    return f"{' '.join(words).capitalize()} #{index}"


def _typo(rng: random.Random, text: str) -> str:
    """One substitution, deletion or transposition (near-duplicates for edist)."""
    at = rng.randrange(len(text) - 1)
    kind = rng.randrange(3)
    if kind == 0:
        return text[:at] + rng.choice("abcdefghij") + text[at + 1 :]
    if kind == 1:
        return text[:at] + text[at + 1 :]
    return text[:at] + text[at + 1] + text[at] + text[at + 2 :]


class Domain:
    """The paper's Figure-3 domain: people, publications, conferences.

    300 authors, 600 publications and 32 conferences by default (the E10
    configuration).  Conference popularity is Zipf(0.8) and 5% of the
    ``published_in`` references carry a typo, so similarity queries find
    near-duplicates.
    """

    def __init__(self, seed: int, authors=300, publications=600, conferences=32):
        rng = random.Random(f"domain-{seed}")
        self.conferences = [
            {"confname": f"{series} {year}", "series": series, "year": year}
            for series, year in ((SERIES[i % 8], 2000 + i % 7) for i in range(conferences))
        ]
        pick_conf = zipf_picker(rng, self.conferences, 0.8)
        self.publications = []
        for index in range(publications):
            conf = pick_conf()
            name = conf["confname"]
            if rng.random() < 0.05:
                name = _typo(rng, name)
            self.publications.append(
                {
                    "title": _title(rng, index),
                    "published_in": name,
                    "year": conf["year"],
                    "classified_in": rng.choice(AREAS),
                }
            )
        self.people = []
        self.authored: list[list[str]] = []
        for index in range(authors):
            count = min(publications, int(rng.expovariate(1 / 3.0)) + 1)
            titles = [self.publications[p]["title"] for p in rng.sample(range(publications), count)]
            self.authored.append(titles)
            self.people.append(
                {
                    "name": f"{_name(rng)} {_name(rng)}",
                    "age": rng.randint(24, 65),
                    "email": f"author{index}@example.org",
                    "num_of_pubs": count,
                    "interested_in": rng.choice(AREAS),
                }
            )
        # Literal pools, most popular first: the query generator draws Zipf
        # over these ranks, so hot literals recur the way real traffic does.
        counts: dict[str, int] = {}
        for pub in self.publications:
            counts[pub["published_in"]] = counts.get(pub["published_in"], 0) + 1
        self.conf_names = sorted(
            (c["confname"] for c in self.conferences), key=lambda n: (-counts.get(n, 0), n)
        )
        years: dict[int, int] = {}
        for pub in self.publications:
            years[pub["year"]] = years.get(pub["year"], 0) + 1
        self.years = sorted(years, key=lambda y: (-years[y], y))


def query_text(kind: str, conf: str, low: int, high: int, limit: int) -> str:
    """VQL for one demo-mix class with the given literals."""
    if kind == "lookup":
        return f"SELECT ?p WHERE {{(?p,'published_in','{conf}')}}"
    if kind == "range":
        return (
            "SELECT ?t,?y WHERE {(?p,'title',?t) (?p,'year',?y) "
            f"FILTER ?y >= {low} AND ?y <= {high}}}"
        )
    if kind == "join":
        return (
            "SELECT ?name,?title WHERE {(?a,'name',?name) (?a,'has_published',?title) "
            f"(?p,'title',?title) (?p,'published_in','{conf}')}}"
        )
    if kind == "similarity":
        return f"SELECT ?c WHERE {{(?x,'published_in',?c) FILTER edist(?c,'{conf}')<3}}"
    if kind == "skyline":
        return (
            "SELECT ?name,?age,?cnt WHERE {(?a,'name',?name) (?a,'age',?age) "
            "(?a,'num_of_pubs',?cnt)} ORDER BY SKYLINE OF ?age MIN, ?cnt MAX"
        )
    if kind == "topn":
        return (
            "SELECT ?name,?cnt WHERE {(?a,'name',?name) (?a,'num_of_pubs',?cnt)} "
            f"ORDER BY ?cnt DESC LIMIT {limit}"
        )
    raise ValueError(f"unknown query class {kind!r}")


def query_passes(domain: Domain, label: str, passes: int) -> list[tuple[str, str, str]]:
    """``passes`` demo-mix passes as ``(class, mode, vql)``.

    One pass issues the six classes back to back, each in both execution
    modes with the same literals (12 queries).  Conference names and year
    bounds are Zipf(1.0) over the domain's popularity ranks, stratified
    across the passes (:func:`stratified_zipf`); top-N limits cycle 5/10/20.
    """
    rng = random.Random(f"queries-{label}")
    confs = {kind: stratified_zipf(rng, domain.conf_names, 1.0, passes) for kind in QUERY_CLASSES}
    lows, highs = (stratified_zipf(rng, domain.years, 1.0, passes) for _ in range(2))
    out = []
    for index in range(passes):
        low, high = sorted((lows[index], highs[index]))
        for kind in QUERY_CLASSES:
            vql = query_text(kind, confs[kind][index], low, high, (5, 10, 20)[index % 3])
            out.extend((kind, mode, vql) for mode in MODES)
    return out


def ingest_batches(seed: int, batch_size: int):
    """Endless stream of publication-like tuple batches (4 attributes each).

    Titles carry a running index, so every tuple can be read back on its own.
    """
    rng = random.Random(f"ingest-{seed}")
    index = 0
    while True:
        batch = []
        for _ in range(batch_size):
            year = 2000 + rng.randrange(7)
            batch.append(
                {
                    "title": _title(rng, index),
                    "published_in": f"{rng.choice(SERIES)} {year}",
                    "year": year,
                    "classified_in": rng.choice(AREAS),
                }
            )
            index += 1
        yield batch


def open_loop_words(seed: int, count: int) -> list[str]:
    """``count`` distinct 8-letter words in Zipf popularity order (hottest first)."""
    rng = random.Random(f"words-{seed}")
    words: set[str] = set()
    while len(words) < count:
        words.add("".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(8)))
    ranked = sorted(words)
    rng.shuffle(ranked)
    return ranked


def peer_speeds(seed: int, node_ids: list[str], sigma: float) -> dict[str, float]:
    """Lognormal service-speed factors (median 1.0), one per peer."""
    rng = random.Random(f"speeds-{seed}")
    return {node: math.exp(rng.gauss(0.0, sigma)) for node in sorted(node_ids)}
