"""Seeded inputs for every workload.

``DEFAULT_SEED`` reproduces the committed 200-program corpus (each file's
sha256 checked against ``examples/generated/MANIFEST.json``) and the
default paper inputs.  Any other seed draws a fresh 200-program corpus
with the repository's own generator and fresh list values.  Either way the
inputs are made before any timed region starts.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import random
import re
import sys
from dataclasses import dataclass
from pathlib import Path

from harness import ROOT, SetupError, import_paths, run_reaped

DEFAULT_SEED = 0
PINNED_CORPUS = ROOT / "examples" / "generated"
#: The hand-written example programs every batch pass analyses as well.
EXAMPLE_FILES = [ROOT / "examples" / "partition_sort.nml", ROOT / "examples" / "reverse.nml"]
#: Fresh corpora for seed ``s`` start drawing at ``s * CORPUS_SEED_STRIDE``,
#: so the corpora of different seeds do not overlap.
CORPUS_SEED_STRIDE = 1000


def prepare_corpus(seed: int, work: Path) -> Path:
    """The corpus directory for ``seed``: the pinned one, verified, or a
    fresh one generated under ``work``."""
    if seed == DEFAULT_SEED:
        manifest = json.loads((PINNED_CORPUS / "MANIFEST.json").read_text())
        for entry in manifest["programs"]:
            data = (PINNED_CORPUS / entry["file"]).read_bytes()
            if hashlib.sha256(data).hexdigest() != entry["sha256"]:
                raise SetupError(f"{entry['file']}: sha256 differs from MANIFEST.json")
        if len(manifest["programs"]) != 200:
            raise SetupError("the pinned corpus does not hold 200 programs")
        return PINNED_CORPUS
    # Generated in a child process: the generator's imports would otherwise
    # swell this process, and a forked child's peak RSS counts the memory of
    # the process it was forked from.
    target = work / "corpus"
    finished = run_reaped([
        sys.executable, "-c",
        "import sys; from repro.diff.corpus import generate_corpus; "
        "generate_corpus(sys.argv[1], start_seed=int(sys.argv[2]), force=True)",
        str(target), str(seed * CORPUS_SEED_STRIDE),
    ])
    if finished.returncode != 0:
        raise SetupError(f"corpus generation failed: {finished.stderr.strip()[-300:]}")
    return target


def corpus_files(corpus: Path) -> list[Path]:
    return sorted(corpus.glob("*.nml")) + EXAMPLE_FILES


_COMMENT = re.compile(r"--[^\n]*")
_HEAD = re.compile(r"^\s*([a-z_][A-Za-z0-9_']*)((?:\s+[a-z_][A-Za-z0-9_']*)*)\s*=(?!=)")


def count_functions(source: str) -> int:
    """Bindings with at least one parameter, counted from the text alone:
    top-level ``;``-separated equations whose left-hand side names
    parameters, or whose right-hand side is a lambda."""
    text = _COMMENT.sub("", source)
    parts, depth, start = [], 0, 0
    for index, char in enumerate(text):
        if char in "([":
            depth += 1
        elif char in ")]":
            depth -= 1
        elif char == ";" and depth == 0:
            parts.append(text[start:index])
            start = index + 1
    count = 0
    for part in parts:
        match = _HEAD.match(part)
        if match is None:
            continue
        rhs = part[match.end():].lstrip()
        if match.group(2).strip() or rhs.startswith("lambda"):
            count += 1
    return count


# -- the paper programs --------------------------------------------------------


@dataclass(frozen=True)
class PaperProgram:
    """One Appendix A program on seeded inputs and its expected result,
    computed in Python (not by the system under test)."""

    label: str
    source: str
    expected: list


#: Sizes for the pipeline runs.  ``ps`` is the paper's partition sort on a
#: random list; ``rev`` is quadratic; ``ps (create_list n)`` sorts a
#: descending list, quicksort's worst case; the prelude ``msort`` grows
#: exponentially at run time, so its list stays small.
PIPELINE_SIZES = {"ps": 150, "rev": 80, "block": 40, "msort": 10}
#: Smaller sizes for the serve mix, where each request is a caller waiting.
SERVE_SIZES = {"ps": 30, "rev": 30, "block": 20, "msort": 8}


def _literal(values: list[int]) -> str:
    return "[" + ", ".join(str(v) for v in values) + "]"


def paper_programs(seed: int, sizes: dict[str, int]) -> list[PaperProgram]:
    import_paths()
    from repro.lang.prelude import prelude_source

    rng = random.Random(f"paper-{seed}")
    ps_values = [rng.randint(0, 1000) for _ in range(sizes["ps"])]
    rev_values = [rng.randint(0, 1000) for _ in range(sizes["rev"])]
    msort_values = [rng.randint(0, 1000) for _ in range(sizes["msort"])]
    n = sizes["block"]
    return [
        PaperProgram(
            "ps", prelude_source(["ps"], f"ps {_literal(ps_values)}"), sorted(ps_values)
        ),
        PaperProgram(
            "rev",
            prelude_source(["rev"], f"rev {_literal(rev_values)}"),
            list(reversed(rev_values)),
        ),
        PaperProgram(
            "block",
            prelude_source(["ps", "create_list"], f"ps (create_list {n})"),
            list(range(1, n + 1)),
        ),
        PaperProgram(
            "msort",
            prelude_source(["msort"], f"msort {_literal(msort_values)}"),
            sorted(msort_values),
        ),
    ]


# -- the serve mix -------------------------------------------------------------

#: Endpoint shares of the serve mix.
ENDPOINT_MIX = (("analyze", 0.60), ("check", 0.25), ("optimize", 0.15))
#: Zipf exponent of source popularity: most requests repeat an earlier
#: source, the long tail keeps bringing new ones.  The generated files'
#: costs differ by up to 3x, so a steeper skew (1.1 puts a fifth of the
#: requests on one file) makes the cost of a run depend on which file
#: the seed makes most popular.
POPULARITY_EXPONENT = 0.7


#: The heavy sources at the end of the serve sources: the two example
#: files, then the four paper programs.
HEAVY_COUNT = len(EXAMPLE_FILES) + 4
#: Every ``HEAVY_PERIOD``-th request is a heavy source, the six in turn,
#: with the endpoints of ``HEAVY_ENDPOINTS`` in turn.  A heavy request
#: costs 20-800 ms of processing against a few ms for a generated corpus
#: file, so which of them a request names and how often is fixed rather
#: than drawn: every seed's mix carries the same heavy share (1 in 64
#: requests), and the seed draws the endpoints and popularity of the
#: generated corpus around it.
HEAVY_PERIOD = 64
#: A fixed endpoint order with the shares of ``ENDPOINT_MIX`` (12/5/3).
HEAVY_ENDPOINTS = (
    "analyze", "check", "analyze", "optimize", "analyze", "analyze", "check",
    "analyze", "analyze", "optimize", "analyze", "check", "analyze", "analyze",
    "check", "analyze", "optimize", "analyze", "check", "analyze",
)


class RequestMix:
    """An endless seeded stream of (endpoint, source index) requests over
    ``sources`` (the generated corpus files first, then the
    ``HEAVY_COUNT`` heavy sources): the corpus files with skewed
    popularity, the heavy sources at a fixed cadence."""

    def __init__(self, sources: list[str], seed: int):
        self._rng = random.Random(f"serve-{seed}")
        self._heavy = range(len(sources) - HEAVY_COUNT, len(sources))
        order = list(range(len(sources) - HEAVY_COUNT))
        self._rng.shuffle(order)
        self._order = order
        weights = [1.0 / (rank + 1) ** POPULARITY_EXPONENT for rank in range(len(order))]
        total = sum(weights)
        self._cumulative = []
        running = 0.0
        for weight in weights:
            running += weight / total
            self._cumulative.append(running)
        self._endpoints = [name for name, _share in ENDPOINT_MIX]
        self._endpoint_weights = [share for _name, share in ENDPOINT_MIX]
        self._sent = 0

    def next(self) -> tuple[str, int]:
        self._sent += 1
        if self._sent % HEAVY_PERIOD == 0:
            turn = self._sent // HEAVY_PERIOD - 1
            return (
                HEAVY_ENDPOINTS[turn % len(HEAVY_ENDPOINTS)],
                self._heavy[turn % HEAVY_COUNT],
            )
        endpoint = self._rng.choices(self._endpoints, self._endpoint_weights)[0]
        rank = bisect.bisect_left(self._cumulative, self._rng.random())
        return endpoint, self._order[min(rank, len(self._order) - 1)]


def serve_sources(seed: int, corpus: Path) -> list[str]:
    """The corpus files (the example files last), then the paper programs.

    The paper sources come from a child process, for the same reason as
    the generated corpus: the daemon is forked from this process, and its
    peak RSS must not start from this process's imports."""
    finished = run_reaped([sys.executable, __file__, "paper-sources", str(seed)])
    if finished.returncode != 0:
        raise SetupError(f"paper sources failed: {finished.stderr.strip()[-300:]}")
    texts = [path.read_text() for path in corpus_files(corpus)]
    return texts + json.loads(finished.stdout)


if __name__ == "__main__":
    if sys.argv[1:2] != ["paper-sources"] or len(sys.argv) != 3:
        sys.exit("usage: inputs.py paper-sources SEED")
    programs = paper_programs(int(sys.argv[2]), SERVE_SIZES)
    print(json.dumps([program.source for program in programs]))
